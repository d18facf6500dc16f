"""Smoke test of the benchmark itself (not part of the library's test suite).

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload for one second (at least one full cycle of its ops) with
and without tracing, and checks that every metric BENCHMARK.json declares is
printed with its unit and that no operation failed.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, seed=0, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_printed(workload, trace):
    proc = run(workload, trace)
    out = result(proc)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert list(out["metrics"]) == [d["name"] for d in declared]
    for d in declared:
        assert out["metrics"][d["name"]]["unit"] == d["unit"]
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    if not trace:
        assert any(line.split()[:2] == ["fail_frac", "0"] for line in proc.stdout.splitlines())
        assert all(out["metrics"][d["name"]]["value"] > 0 for d in declared)


def test_named_counts_repeat_for_a_seed():
    first, second = (result(run("node-suite", 1, seed=3))["metrics"] for _ in range(2))
    for name in ("passivity.forms", "linalg.null_basis.calls", "cli.scipy_modules",
                 "passivity.resolvent_checks_per_form"):
        assert first[name] == second[name], name


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
