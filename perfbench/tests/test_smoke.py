"""Reduced-length smoke runs of every benchmark workload.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "0.2", "--trace", str(trace),
         "--scale", "0.05"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_and_digest(workload: str, trace: int):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-2].startswith("digest ")
    return json.loads(lines[-1]), lines[-2]


def units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric_and_repeats(workload):
    plain, digest = result_and_digest(workload, trace=0)
    assert units(plain) == {m["name"]: m["unit"]
                            for m in BENCHMARK["end_to_end"]}
    assert plain["correct"] and plain["failed"] == 0, plain
    assert plain["metrics"]["ok_ratio"]["value"] == 1.0  # error_rate 0

    traced, traced_digest = result_and_digest(workload, trace=1)
    assert units(traced) == {m["name"]: m["unit"]
                             for m in BENCHMARK["per_layer"]}
    assert traced["correct"] and traced["failed"] == 0, traced
    # tracing must not change a single simulated statistic
    assert traced_digest == digest


def test_fails_without_the_repository(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
