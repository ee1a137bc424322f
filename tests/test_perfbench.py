"""Smoke test of the benchmark's own checks against this engine.

perfbench/selftest.py shows every output check can fail; a zero-second
run of a workload does one warm-up and one round of operations and
checks every output against perfbench's oracle. Both run as the
benchmark runs them, in a fresh process from the root of the checkout.
Results land in the ignored perfbench/out/.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=300
    )


def test_selftest_passes():
    proc = _run("perfbench/selftest.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("workload", ["kernel_wide", "argmin_many", "lp_front", "suite_small"])
def test_zero_second_run_checks_correct(workload):
    proc = _run("perfbench/run.py", "--workload", workload, "--seed", "5", "--seconds", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
