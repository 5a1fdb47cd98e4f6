"""Exact counts of the traced run repeat under a seed and change with it.

Runs run.py --trace 1 three times per workload (seed 11 twice, then 12
and 13), so it takes a few minutes; run it explicitly:

    python3 -m pytest -q bench/counts_check.py
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in spans.EXACT_COUNTS}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_exact_counts_repeat_under_a_seed_and_vary_across_seeds(workload):
    first = traced_counts(workload, 11)
    assert traced_counts(workload, 11) == first
    others = [traced_counts(workload, seed) for seed in (12, 13)]
    exercised = [name for name, value in first.items() if value]
    assert exercised
    for name in exercised:
        assert any(other[name] != first[name] for other in others), name
