"""Smoke test of the benchmark harness on a tiny configuration.

    python3 perfbench/selftest.py

Runs one instance of every kind at toy sizes (k <= 32, W <= 8, parabolic
N <= 32) through the same path as run.py, untraced and traced. It checks
that each run emits exactly the metrics BENCHMARK.json names, with their
units, that counts are integers, and that the reference checks trip on a
deliberately perturbed solution. Finishes in seconds; exits 0 on success.
"""

from __future__ import annotations

import copy
import json
import sys

import run  # sets the thread variables before numpy loads

run.import_package()

import numpy as np  # noqa: E402

from checks import check, sampled_softmin  # noqa: E402
from workloads import ParabolicCase, SphereCase, TorusCase, well  # noqa: E402

TINY = [
    TorusCase("smooth-k16", 1, 16, well(3, "x1", 0), well(3, "x1", 0.375),
              tol=1e-12, A=12.0),
    TorusCase("product-k16", 2, 16,
              f"{well(3, 'x1', 0)} + {well(1, 'x2', 0)}",
              f"{well(3, 'x1', 0.375)} + {well(1, 'x2', 0.25)}",
              tol=1e-9, A=2.0,
              axes=((well(3, "x1", 0), well(3, "x1", 0.375)),
                    (well(1, "x1", 0), well(1, "x1", 0.25)))),
    SphereCase("heat-k4", "heat", 4, 8, "2*cos(theta)", "2*sin(theta)*cos(phi)"),
    SphereCase("antenna-k4", "antenna", 4, 8, "0", "-0.8*cos(theta)", A=8.0),
    ParabolicCase("mild-n32", 1, 32, 0.01, None, well(0.3, "x1", 0),
                  well(0.3, "x1", 0.25)),
    ParabolicCase("pair-n16", 2, 16, 0.01, 0.1 / 16**2,
                  f"{well(0.3, 'x1', 0)} + {well(0.2, 'x2', 0)}",
                  f"{well(0.3, 'x1', 0.25)} + {well(0.2, 'x2', 0.5)}"),
]


def expect(cond, message):
    if not cond:
        raise AssertionError(message)


def check_emitted(result, trace):
    """run.run already refuses a metric set that differs from BENCHMARK.json."""
    for name, entry in result["metrics"].items():
        if entry["unit"] == "count":
            expect(isinstance(entry["value"], int), f"{name} is not an integer")
    expect(result["correct"] is True, f"trace {trace}: reference checks failed")
    expect(result["failed"] == 0, f"trace {trace}: {result['failed']} solves raised")
    expect(result["attempted"] >= len(TINY), "fewer solves than instances")
    json.dumps(result)


def perturbed(out):
    """A copy of the outcome whose solution has one entry disturbed."""
    bad = copy.deepcopy(out)
    if "u" in bad.result:
        bad.result["u"] = bad.result["u"].copy()
        bad.result["u"][len(bad.result["u"]) // 3] += 1e-6
    else:
        bad.result["residuals"] = bad.result["residuals"][::-1]
    return bad


def main():
    result, details, _ = run.run(TINY, 0, 0.2, trace=False)
    check_emitted(result, 0)
    expect(details["counts_repeat"], "counts differ between passes")
    result, _, m = run.run(TINY, 0, 0.2, trace=True)
    check_emitted(result, 1)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for name in ("sinkhorn.steps", "sinkhorn.applies", "parabolic.steps",
                 "torus.apply_s", "sphere.apply_s", "torus.fft_us", "sphere.sht_us"):
        expect(metrics[name] > 0, f"{name} is not positive on the tiny run")

    for case, out in zip(TINY, m.untraced[0]):
        expect(out.reached and check(case, out).ok, f"{case.label}: check failed")
        expect(not check(case, perturbed(out)).ok,
               f"{case.label}: perturbed solution passed its check")

    # the sampled-row reference used past the dense cap agrees with the
    # dense route where both exist
    from geosink.sphere import SphereDenseApplicator, SphereKernelSpec, SphericalGrid

    grid = SphericalGrid(8)
    spec_heat = SphereKernelSpec("heat", 4)
    rng = np.random.default_rng(1)
    q = rng.random(grid.size) + 0.5
    q /= q.sum()
    v = rng.standard_normal(grid.size) * 0.1
    dense = SphereDenseApplicator(grid, spec_heat, q, q).softmin_to_source(v)
    rows = np.arange(grid.size)
    sampled = sampled_softmin(grid, spec_heat.multipliers(grid), 4.0, v, np.log(q), rows)
    expect(np.abs(sampled - dense).max() < 1e-12, "sampled rows disagree with dense")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
