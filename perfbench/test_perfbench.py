"""Smoke tests of the benchmark harness.

A tiny run of every workload must emit exactly the metrics that
``BENCHMARK.json`` names, each with its declared unit, and its per-layer
counts must match the workload's design (which layers it reaches and
which it bypasses).  Outside a checkout of the program the harness must
fail without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]

#: Layers each workload must reach (True) or bypass (False).
DESIGN = {
    "batch_refine": {"frontend": False, "suppression": False, "pool": False,
                     "synthesis": True},
    "stream_track": {"frontend": True, "suppression": True, "pool": False,
                     "synthesis": True},
    "sweep_process": {"frontend": True, "suppression": False, "pool": True},
    "batch_crash": {"frontend": False, "suppression": False, "pool": True},
}


def _run(workload: str, trace: int, cwd: Path = ROOT
         ) -> subprocess.CompletedProcess:
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("ARRAYTRACK_")}
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
        check=False)


def _result(workload: str, trace: int) -> dict:
    completed = _run(workload, trace)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def _units(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    metrics = _result(workload, 0)["metrics"]
    assert {name: metric["unit"] for name, metric in metrics.items()} \
        == _units("end_to_end")
    for name, metric in metrics.items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    metrics = _result(workload, 1)["metrics"]
    assert {name: metric["unit"] for name, metric in metrics.items()} \
        == _units("per_layer")
    for layer, reached in DESIGN[workload].items():
        calls = metrics[f"{layer}.calls"]["value"]
        assert (calls > 0) == reached, (layer, calls)
    if workload != "batch_crash":
        assert metrics["pool.rebuilds"]["value"] == 0
        assert metrics["resilience.fallbacks"]["value"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run("batch_refine", 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
