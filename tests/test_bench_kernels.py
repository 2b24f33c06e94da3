"""The kernel benchmark script runs against the kernels as they are."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("section", ["recursion", "lockstep", "dynamics"])
def test_bench_kernels_section_runs(section):
    path = [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_kernels.py"), "5000",
         "--section", section],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "bitwise" in proc.stdout
    assert "DIFFER" not in proc.stdout
    if section == "lockstep":
        assert "lockstep groups of the default sine_square stream's seeds " \
               "0-4 [3, 2]" in proc.stdout
    if section == "dynamics":
        split = next(line for line in proc.stdout.splitlines()
                     if "split by stage" in line)
        for stage in ("grid", "bisection", "period check", "orbit", "csv"):
            assert f" {stage} " in split
