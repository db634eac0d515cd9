"""Smoke tests of the benchmark command, shortened to one-second runs.

Every workload runs traced twice with the same seed; the per-layer work
counts must repeat exactly.  Untraced runs check the end-to-end report and
that the same seed attempts and fails the same operations, and a copy of
the benchmark without the package must refuse to run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)
# kernel_grid is not in BENCHMARK.json but stays runnable by name
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]] + ["kernel_grid"]
MODULES = ("circles", "domain", "kernels", "conformal", "quadrature",
           "solvers", "validation", "cli")


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_with_the_same_seed(workload):
    first = _result(workload, 1)
    second = _result(workload, 1)
    assert list(first["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    counts = [{name: m["value"] for name, m in r["metrics"].items()
               if m["unit"] == "count"} for r in (first, second)]
    assert counts[0] == counts[1]
    assert any(counts[0].values())
    if workload == "validate_quick":
        for module in MODULES:
            assert first["metrics"][f"{module}.self_s"]["value"] > 0.0, module


def test_timed_run_reports_every_end_to_end_metric():
    result = _result("validate_quick", 0)
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0.0, name
    assert result["failed"] == 0


def test_timed_runs_attempt_and_fail_the_same_operations():
    first = _result("solve_harmonic", 0)
    second = _result("solve_harmonic", 0)
    assert first["failed"] > 0
    assert (first["attempted"], first["failed"]) == (second["attempted"],
                                                     second["failed"])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("validate_quick", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
