"""Smoke test of the benchmark: one reduced-size pass per workload on a
second seed, untraced and traced.  Every metric BENCHMARK.json names must be
printed, by name and with its unit, and every oracle check must pass.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEED = 2
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(run_py, *args, cwd=None):
    return subprocess.run(
        [sys.executable, str(run_py), *args],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_reduced_pass_prints_every_metric_and_passes_its_checks(workload, trace, group):
    done = _run(HERE / "run.py", "--workload", workload, "--seed", str(SEED),
                "--seconds", "1", "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1

    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == expected
    for name, unit in expected.items():
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), name
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in lines[:-1]), name


def test_refuses_to_run_without_the_library(tmp_path):
    # a directory with only the benchmark's own files has nothing to measure
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path / HERE.name / "run.py", "--workload", WORKLOADS[0], "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
