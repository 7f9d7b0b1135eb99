"""The traced run's work counts repeat exactly at one seed.

Later changes may cite these counts (matrices ranked, slices built, Betti
degrees visited, ...) as counts, so they must not depend on timing.  Each run
is its own process, as the benchmark is run.

    python3 -m pytest perfbench/test_counts.py
"""
from __future__ import annotations

import functools
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SEED = 7
TIMED_UNITS = ("s", "1/s")


@functools.lru_cache(maxsize=None)
def traced(workload: str, attempt: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=600)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def counts(res: dict) -> dict[str, float]:
    return {
        name: m["value"]
        for name, m in res["metrics"].items()
        if m["unit"] not in TIMED_UNITS and name != "trace.overhead_ratio"
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(workload):
    first, second = traced(workload, 0), traced(workload, 1)
    assert first["correct"] and second["correct"]
    assert first["failed"] == second["failed"] == 0
    assert counts(first) == counts(second)
    assert counts(first)["trace.spans"] > 0


def test_slice_reuse_separates_the_oracle_workloads():
    box = traced("oracle-box", 0)["metrics"]["cech.slice_reuse_ratio"]["value"]
    slices = traced("oracle-slices", 0)["metrics"]["cech.slice_reuse_ratio"]["value"]
    assert box > 0.9
    assert slices < 0.1
