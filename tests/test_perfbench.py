"""The benchmark harness still runs against the package.

perfbench/ drives the applicators through their public contract (mode,
.fallbacks, the spec classes, fft_apply and the SHT pair). Its self-test
runs every workload kind at toy sizes in about a second, so a contract
change that breaks the benchmark fails here rather than at benchmark time.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    out = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
