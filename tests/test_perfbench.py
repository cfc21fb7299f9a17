"""The benchmark harness still runs against the package.

perfbench/ drives the applicators through their public contract (mode,
.fallbacks, the spec classes, fft_apply and the SHT pair). Its self-test
runs every workload kind at toy sizes in about a second, so a contract
change that breaks the benchmark fails here rather than at benchmark time.
"""

import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

from geosink.measures import discretize_sphere
from geosink.sinkhorn import initial_state, run_until
from geosink.sphere import SphereKernelSpec, SphereSHTApplicator, SphericalGrid

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    out = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr


def test_antenna_sphere_check_passes(monkeypatch):
    # check_sphere compares the SHT solve of antenna-k16 with the dense route
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import checks
    import workloads

    case = next(c for c in workloads.sphere(0) if c.label == "antenna-k16")
    grid = SphericalGrid(case.W)
    p = discretize_sphere(case.f, grid).weights
    q = discretize_sphere(case.g, grid).weights
    app = SphereSHTApplicator(grid, SphereKernelSpec(case.kernel, case.k), p, q)
    state = run_until(initial_state(app), app, tol=case.tol, A=case.A)
    out = SimpleNamespace(reached=state.stop_reason == "tol",
                          result={"u": state.u.values, "v": state.v.values, "p": p, "q": q})
    result = checks.check_sphere(case, out)
    assert out.reached and result.ok, result.as_dict()
