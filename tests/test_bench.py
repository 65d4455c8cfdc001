"""The benchmark's reference computations agree with the program."""

import subprocess
import sys
from pathlib import Path


def test_bench_selftest_agrees():
    # bench/selftest.py compares bench/oracle.py, which judges every
    # workload's outputs, with the program on all spaces with n <= 5
    root = Path(__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "bench/selftest.py"], capture_output=True, text=True, cwd=root
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "all agree" in result.stdout
