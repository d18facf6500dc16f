"""Runs one workload in a fresh interpreter and prints one JSON line.

Started by run.py with ``PYTHONPATH`` pointing at the checkout's ``src`` and
BLAS/OpenMP threads pinned.  Set-up is ``import passivenode`` plus building
the workload's inputs from the seed; ``ready`` (a ``time.monotonic`` stamp,
comparable across processes) marks the start of the first timed operation.

    worker.py WORKLOAD SEED SECONDS MODE WORKDIR

MODE is ``setup`` (set up, report, exit), ``run`` (closed loop, untraced) or
``trace`` (alternating untraced and traced passes over the op cycle).
"""

import json
import os
import resource
import statistics
import sys
import time

_t0 = time.perf_counter()
import passivenode as pn  # noqa: E402  (timed: this is the import users pay)
IMPORT_S = time.perf_counter() - _t0
SCIPY_MODULES = sum(1 for k in sys.modules if k == "scipy" or k.startswith("scipy."))

import numpy as np  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402


def build(workload, seed, workdir, tracer, stats, cli_runner):
    reference = wl.load_reference()
    if workload == "beam-verdict":
        return wl.beam_verdict(seed, reference)
    if workload == "node-suite":
        return wl.node_suite(seed, reference, tracer)
    if workload == "simulate-audit":
        return wl.simulate_audit(seed, reference, stats)
    if workload == "cli-oneshot":
        return wl.cli_oneshot(seed, reference, workdir, cli_runner)
    raise SystemExit(f"unknown workload {workload!r}")


def run_op(op, failures):
    """Run and check one op; returns its seconds.  Checking is not timed."""
    t0 = time.perf_counter()
    try:
        sig = op.run()
    except Exception as exc:  # an op that raises is a failed op, not a crash
        failures.append(f"{op.name}: raised {type(exc).__name__}: {exc}")
        return time.perf_counter() - t0
    dt = time.perf_counter() - t0
    try:
        op.check(sig)
    except Exception as exc:
        failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
    return dt


class SpeedProbe:
    """A fixed ~3.5 ms kernel -- interpreter loop, small complex SVDs, one
    eigenvalue problem -- run ``BURST`` times between ops, at most every
    ``EVERY_S``, to track the machine's speed.

    On a shared virtual machine the speed drifts by 10-30 % over tens of
    seconds.  Each op's time is scaled by ``NOMINAL_S`` over the median probe
    time within max(``WINDOW_S``, op duration) of the op, giving seconds at
    nominal speed.
    """

    NOMINAL_S = 0.0035  # probe time on the reference machine when quiet
    EVERY_S = 0.2
    BURST = 3
    WINDOW_S = 0.5

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.small = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        self.medium = rng.standard_normal((60, 60)) + 1j * rng.standard_normal((60, 60))
        self.samples = []  # (end time, seconds)

    def probe(self):
        t0 = time.perf_counter()
        s = 0.0
        for i in range(3000):
            s += i * 0.5
        for _ in range(8):
            np.linalg.svd(self.small)
        np.linalg.eigvals(self.medium)
        t1 = time.perf_counter()
        self.samples.append((t1, t1 - t0))

    def maybe_probe(self):
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= self.EVERY_S:
            for _ in range(self.BURST):
                self.probe()

    def scale(self, start, end):
        window = max(self.WINDOW_S, end - start)
        near = [dt for t, dt in self.samples if start - window <= t <= end + window]
        return self.NOMINAL_S / statistics.median(near)


def closed_loop(ops, seconds, child=None):
    """Start op k+1 when op k returns; stop after ``seconds`` and one full cycle.

    Samples are (op name, size class, seconds, seconds at nominal speed,
    start).  Ops that run in a child process
    (``child``, a workloads.CliSubprocess) are scaled by the child's probes.
    """
    raw = []
    failures = []
    speed = SpeedProbe()
    begin = time.perf_counter()
    i = 0
    while i < len(ops) or time.perf_counter() - begin < seconds:
        op = ops[i % len(ops)]
        if child is None:
            speed.maybe_probe()
        start = time.perf_counter()
        dt = run_op(op, failures)
        raw.append((op.name, op.cls, dt, None if child is None else child.nominal(dt), start))
        i += 1
    elapsed = time.perf_counter() - begin
    speed.probe()
    samples = [(name, cls, dt, dt * speed.scale(start, start + dt) if nominal is None else nominal,
                start) for name, cls, dt, nominal, start in raw]
    return samples, failures, elapsed


def traced_passes(ops, seconds, tracer, stats):
    """Alternate an untraced and a traced pass over the op cycle.

    Counts and self times are reported per traced pass, so a count repeats
    exactly for a given seed; the overhead is total traced time over total
    untraced time for the same ops, minus one.
    """
    failures = []
    plain = traced = 0.0
    passes = attempted = 0
    u_evals = callable_steps = 0
    begin = time.perf_counter()
    while passes == 0 or time.perf_counter() - begin < seconds:
        for op in ops:
            plain += run_op(op, failures)
        before = (stats.u_evals, stats.callable_steps)
        tracer.install(pn)
        try:
            for k, op in enumerate(ops):
                tracer.op_id = passes * len(ops) + k
                traced += tracer.span("op", run_op, op, failures)
        finally:
            tracer.uninstall()
        u_evals += stats.u_evals - before[0]
        callable_steps += stats.callable_steps - before[1]
        passes += 1
        attempted += 2 * len(ops)
    return {"passes": passes, "attempted": attempted, "failures": failures,
            "overhead": traced / plain - 1.0,
            "u_evals_per_step": u_evals / callable_steps if callable_steps else 0.0}


def layer_metrics(tracer, summary):
    per = 1.0 / summary["passes"]
    m = {}
    for layer, (calls, self_s, errors) in tracer.layer_totals().items():
        m[f"{layer}.calls"] = (calls * per, "count")
        m[f"{layer}.self_s"] = (self_s * per, "s")
        m[f"{layer}.errors"] = (errors * per, "count")
    timed = ["linalg.largest_invariant_in", "linalg.null_basis", "linalg.orthonormalize",
             "linalg.in_resolvent_set", "linalg.solve_resolvent", "node.StateSpaceNode",
             "passivity.check_impedance", "passivity.check_scattering"]
    for name in timed:
        m[f"{name}.calls"] = (tracer.calls[name] * per, "count")
        m[f"{name}.self_s"] = (tracer.self_s[name] * per, "s")
    for name in ("linalg.is_invertible", "linalg.spectral_abscissa", "node.eval_transfer"):
        m[f"{name}.calls"] = (tracer.calls[name] * per, "count")
    for name in ("stability.benchimol_conditions", "stability.stability_verdict",
                 "feedback.stabilizing_feedback", "second_order.beam_model",
                 "cayley.internal_cayley", "cayley.laguerre_coefficients", "sim.simulate",
                 "sim.energy_audit", "io.node_to_dict", "io.dumps_canonical",
                 "io.node_from_dict", "cli.main"):
        m[f"{name}.self_s"] = (tracer.self_s[name] * per, "s")
    forms = sum(tracer.calls[f"passivity.{f}"] for f in
                ("impedance_block_bounded", "impedance_form_at", "scattering_form_at"))
    m["passivity.forms"] = (forms * per, "count")
    point_forms = tracer.counters["point_forms_in_check"]
    m["passivity.resolvent_checks_per_form"] = (
        tracer.counters["resolvent_checks_in_check"] / point_forms if point_forms else 0.0,
        "ratio")
    m["sim.steps"] = (tracer.counters["sim.steps"] * per, "count")
    m["sim.u_evals_per_step"] = (summary["u_evals_per_step"], "ratio")
    m["io.bytes_out"] = (tracer.counters["io.bytes_out"] * per, "B")
    m["io.bytes_in"] = (tracer.counters["io.bytes_in"] * per, "B")
    m["trace.overhead_frac"] = (summary["overhead"], "ratio")
    m["trace.spans"] = (tracer.n_spans * per, "count")
    return m


def make_tracer():
    tracer = Tracer()
    checks = ("passivity.check_impedance", "passivity.check_scattering")
    tracer.watch("linalg.in_resolvent_set", checks, "resolvent_checks_in_check")
    tracer.watch("passivity.impedance_form_at", checks, "point_forms_in_check")
    tracer.watch("passivity.scattering_form_at", checks, "point_forms_in_check")

    def bytes_out(tr, args, kwargs, result):
        tr.counters["io.bytes_out"] += len(result)

    def bytes_in(tr, args, kwargs, result):
        tr.counters["io.bytes_in"] += os.path.getsize(args[0])

    def steps(tr, args, kwargs, result):
        tr.counters["sim.steps"] += len(result.times) - 1

    tracer.hooks["io.dumps_canonical"] = bytes_out
    for name in ("io.load_node", "io.load_discrete", "io.load_plant"):
        tracer.hooks[name] = bytes_in
    tracer.hooks["sim.simulate"] = steps
    return tracer


def main(argv):
    workload, seed, seconds, mode, workdir = argv
    seed, seconds = int(seed), float(seconds)
    tracer = make_tracer() if mode == "trace" else None
    stats = wl.SimStats()
    child = wl.CliSubprocess() if workload == "cli-oneshot" and mode == "run" else None
    ops = build(workload, seed, workdir, tracer, stats, child or wl.cli_inprocess)
    out = {"ready": time.monotonic(), "import_s": IMPORT_S, "scipy_modules": SCIPY_MODULES}
    speed = SpeedProbe()
    for _ in range(5):
        speed.probe()
    out["setup_scale"] = speed.NOMINAL_S / statistics.median(dt for _, dt in speed.samples)
    if mode == "setup":
        print(json.dumps(out))
        return
    if mode == "run":
        samples, failures, elapsed = closed_loop(ops, seconds, child)
        who = resource.RUSAGE_CHILDREN if workload == "cli-oneshot" else resource.RUSAGE_SELF
        out.update(samples=samples, failures=failures, elapsed=elapsed,
                   attempted=len(samples), peak_rss_kb=resource.getrusage(who).ru_maxrss,
                   sim_steps=stats.steps)
    else:
        summary = traced_passes(ops, seconds, tracer, stats)
        tracer.write(os.path.join(os.path.dirname(workdir), f"spans-{workload}-seed{seed}.jsonl"))
        out.update(failures=summary["failures"], attempted=summary["attempted"],
                   layers={k: list(v) for k, v in layer_metrics(tracer, summary).items()},
                   passes=summary["passes"])
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
