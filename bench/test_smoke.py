"""Smoke test of the benchmark on the smallest inputs of each workload.

It checks only that every metric is reported by name, with its unit and a
finite value.  It checks no time: timings on a shared host are noise.
"""

import importlib.util
import json
import math
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

_loader = importlib.util.spec_from_file_location("bench_run", os.path.join(BENCH, "run.py"))
bench_run = sys.modules["bench_run"] = importlib.util.module_from_spec(_loader)
_loader.loader.exec_module(bench_run)
SPEC = bench_run.SPEC


def _run(workload: str, trace: int):
    argv = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "0", "--trace", str(trace), "--smoke"]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    assert lines[-2].startswith("report ")
    return lines[0], json.loads(lines[-2][len("report "):]), json.loads(lines[-1])


def _assert_metric(metrics: dict, name: str, unit: str):
    assert name in metrics, name
    assert metrics[name]["unit"] == unit, name
    assert math.isfinite(metrics[name]["value"]), name


def test_workloads_match_spec():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(bench_run.WORKLOADS) == list(bench_run.COMMAND_SUMS)


@pytest.mark.parametrize("workload", list(bench_run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke(workload, trace):
    declared = SPEC["per_layer" if trace else "end_to_end"]
    head, report, result = _run(workload, trace)
    assert head.endswith(bench_run.WHY[workload])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        _assert_metric(result["metrics"], m["name"], m["unit"])
    if not trace:
        for name, unit in (("pass_s", "s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"), ("error_rate", "1")):
            _assert_metric(report["metrics"], name, unit)
        for kind in bench_run.COMMAND_SUMS[workload]:
            _assert_metric(report["metrics"], f"{kind}_s", "s")
