"""passivenode benchmark: one command per workload, run from the repository root.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Workloads (why each was chosen is in BENCHMARK.json and README.md):
beam-verdict, node-suite, simulate-audit, cli-oneshot.

The library is used from the checkout's ``src`` (nothing to build) and treated
as a black box.  Each run starts ``SETUP_SAMPLES`` fresh interpreters that set
up the workload -- ``import passivenode`` plus building the inputs from the
seed -- and the last of them goes on to run the closed loop: one client, the
next operation starts when the previous one returns, for ``--seconds`` and at
least one full cycle of the workload's operations.  Every output is checked;
an operation that raises or fails its check counts as failed.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (tracer.py) with the tracer's own overhead.  A table
for people comes first; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding exactly the metrics
BENCHMARK.json declares.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("beam-verdict", "node-suite", "simulate-audit", "cli-oneshot")
#: fresh-interpreter set-ups per run; setup_s is their median
SETUP_SAMPLES = 3
#: BLAS/OpenMP threads for every process the benchmark starts (at most nproc);
#: one thread keeps desk-scale (n <= 198) timings steady
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
#: a run must end within this many seconds of starting
DEADLINE_S = 170.0
#: p90 is reported only where a run has at least this many ops (>= 10 beyond it)
P90_MIN_OPS = 100


def worker_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in THREAD_VARS:
        env[var] = threads
    return env, threads


def start_worker(args, mode, workdir, env, deadline):
    """Run worker.py in a fresh interpreter; returns (start stamp, its JSON)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), args.workload, str(args.seed),
           str(args.seconds), mode, workdir]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker ({mode}) exited with code {proc.returncode}")
    return t0, json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(values, q):
    """statistics.quantiles cut point q/100 (exclusive method)."""
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def end_to_end(workload, run, setups, raw_setups):
    """Every end-to-end figure of one untraced run: name -> (value, unit, samples)."""
    lat = [dt for _, _, _, dt, _ in run["samples"]]
    n = len(lat)
    m = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "raw.setup_s": (statistics.median(raw_setups), "s", len(raw_setups)),
        "op_p50_s": (statistics.median(lat), "s", n),
        "ops_per_s": (n / sum(lat), "1/s", n),
        "raw.op_p50_s": (statistics.median(dt for _, _, dt, _, _ in run["samples"]), "s", n),
        "raw.ops_per_s": (n / run["elapsed"], "1/s", n),
        "fail_frac": (len(run["failures"]) / run["attempted"], "ratio", n),
        "peak_rss_mb": (run["peak_rss_kb"] / 1024.0, "MB", 1),
    }
    if n >= P90_MIN_OPS:
        m["op_p90_s"] = (quantile(lat, 90), "s", n)
    for cls in ("smallest", "largest"):
        sub = [dt for _, c, _, dt, _ in run["samples"] if c == cls]
        m[f"op_p50_s.{cls}"] = (statistics.median(sub), "s", len(sub))
        sub = [dt for _, c, dt, _, _ in run["samples"] if c == cls]
        m[f"raw.op_p50_s.{cls}"] = (statistics.median(sub), "s", len(sub))
    if workload == "beam-verdict":
        for name in sorted({s[0] for s in run["samples"]}, key=lambda s: int(s.split(".n")[1])):
            sub = [dt for nm, _, _, dt, _ in run["samples"] if nm == name]
            m[name.replace("verdict.", "verdict_s.")] = (statistics.median(sub), "s", len(sub))
    if workload == "simulate-audit":
        m["sim_steps_per_s"] = (run["sim_steps"] / sum(lat), "1/s", n)
    return m


def declared(root, key):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [d["name"] for d in json.load(fh)[key]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "passivenode", "__init__.py")):
        sys.exit("run.py: no src/passivenode here; run from the repository root")
    names = declared(root, "per_layer" if args.trace else "end_to_end")
    env, threads = worker_env(root)
    base = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(base, exist_ok=True)
    workdirs = []
    deadline = started + DEADLINE_S
    try:
        setups, raw_setups, imports, scipy_counts = [], [], [], []
        for k in range(SETUP_SAMPLES):
            workdirs.append(tempfile.mkdtemp(dir=base))
            mode = "setup" if k < SETUP_SAMPLES - 1 else ("trace" if args.trace else "run")
            t0, out = start_worker(args, mode, workdirs[-1], env, deadline)
            raw_setups.append(out["ready"] - t0)
            setups.append(raw_setups[-1] * out["setup_scale"])
            imports.append(out["import_s"])
            scipy_counts.append(out["scipy_modules"])
    finally:
        for d in workdirs:
            shutil.rmtree(d, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"BLAS/OpenMP threads {threads} of nproc {os.cpu_count()}")
    if args.trace:
        metrics = {k: (v, unit, out["passes"]) for k, (v, unit) in out["layers"].items()}
        metrics["cli.import_s"] = (statistics.median(imports), "s", len(imports))
        metrics["cli.scipy_modules"] = (scipy_counts[-1], "count", len(scipy_counts))
        consistent = len(set(scipy_counts)) == 1
        print(f"traced passes {out['passes']} (counts and self times are per pass)")
    else:
        metrics = end_to_end(args.workload, out, setups, raw_setups)
        consistent = True
        if "op_p90_s" not in metrics:
            print(f"op_p90_s: not reported, {len(out['samples'])} ops < {P90_MIN_OPS}")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit:<6} n={n}")
    failed = len(out["failures"])
    for line in out["failures"][:10]:
        print(f"FAILED {line}")
    missing = [k for k in names if k not in metrics]
    if missing:
        sys.exit(f"run.py: BENCHMARK.json metrics not measured: {missing}")
    result = {
        "correct": failed == 0 and consistent,
        "attempted": out["attempted"],
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in names},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
