"""Record reference.json: the verdicts, subspace dimensions, exit codes and
eigenvalues the benchmark's checks compare against.

    PYTHONPATH=src OMP_NUM_THREADS=1 python3 perfbench/record_reference.py

Beam and CLI entries do not depend on the seed; node-suite entries are for
workloads.DEFAULT_SEED.  Re-record only when a verdict or dimension is meant
to change, and say so where the change is described.
"""

import json
import os
import tempfile

import workloads as wl


def main():
    reference = {
        "tolerances": {"eigenvalue_rtol": wl.REF_RTOL, "eigenvalue_atol": wl.REF_ATOL},
        "beam": {str(nm): wl.beam_verdict_op(nm) for nm in wl.BEAM_MODES},
        "node_suite": [wl.suite_reference_view(op.run())
                       for op in wl.node_suite(wl.DEFAULT_SEED, None)],
    }
    with tempfile.TemporaryDirectory() as workdir:
        ops = wl.cli_oneshot(wl.DEFAULT_SEED, None, workdir, wl.cli_inprocess)
        reference["cli"] = {op.name: op.run() for op in ops if op.name.startswith("check198")}
    with open(os.path.join(wl.HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
