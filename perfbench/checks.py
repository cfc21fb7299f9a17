"""Reference checks, run untimed after the timed passes.

Every instance is compared with a route independent of the one timed:

- 1-D torus: potentials against a mode="direct" solve at the same k
  (Hilbert distance), and the entropic cost within 5 log(k)/k of the exact
  circle transport oracle.
- 2-D torus product: potentials against u1 + u2 from two 1-D direct solves,
  one per axis. The Gaussian kernel and the measures both factor, so this
  reference is exact.
- Sphere: one SHT apply at the final potentials against the dense
  log-domain route. Up to 4096 nodes the package's SphereDenseApplicator
  gives every entry; above that the kernel rows of 64 seeded nodes are
  evaluated here from the Legendre series.
- Parabolic: min_eig > 0 at every record and the Monge-Ampere residual
  strictly decreasing across the records.

An instance that missed tol is still measured; only instances that
reached it must pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import legval
from scipy.special import logsumexp

from geosink.measures import discretize_torus
from geosink.parabolic import circle_ot_oracle
from geosink.sinkhorn import hilbert_distance, initial_state, run_until
from geosink.sphere import SphereDenseApplicator, SphereKernelSpec, SphericalGrid
from geosink.torus import DENSE_POINT_CAP, TorusGrid, TorusKernelSpec
from geosink.torus import TorusLatticeApplicator
from workloads import ParabolicCase, SphereCase, TorusCase

# Largest potential or softmin distance from the reference: the bound
# criterion 5 of the acceptance tests puts on fast against dense applies.
# Instances that reach tol sit at or below 5e-10 (2-D product, k=128).
POTENTIAL_BOUND = 1e-8
# Tolerance of the per-axis solves behind the exact 2-D product reference.
AXIS_TOL = 1e-13
SAMPLED_ROWS = 64


@dataclass
class Check:
    """Named figures of one instance, each with the bound it must not exceed."""

    label: str
    reached: bool
    figures: dict
    detail: str = ""

    @property
    def ok(self):
        return all(value <= bound for value, bound in self.figures.values())

    @property
    def passed(self):
        """Failing counts only for an instance that claims to have reached tol."""
        return self.ok or not self.reached

    def as_dict(self):
        return {"instance": self.label, "reached": self.reached, "ok": self.ok,
                "figures": {name: {"value": v, "bound": b}
                            for name, (v, b) in self.figures.items()},
                "detail": self.detail}


def _direct_solve(f, g, k, tol, A):
    p = discretize_torus(f, k, 1).weights
    q = discretize_torus(g, k, 1).weights
    app = TorusLatticeApplicator(TorusGrid(1, k), TorusKernelSpec("gaussian", k=k),
                                 p, q, mode="direct")
    return run_until(initial_state(app), app, tol=tol, A=A).u.values


def check_torus(case, out):
    u = out.result["u"]
    if case.n == 1:
        ref = _direct_solve(case.f, case.g, case.k, case.tol, case.A)
        oracle = circle_ot_oracle(out.result["p"], out.result["q"])["cost"]
        figures = {
            "potential_distance": (hilbert_distance(u, ref), POTENTIAL_BOUND),
            "cost_gap": (abs(out.result["cost"] - oracle), 5.0 * np.log(case.k) / case.k),
        }
        return Check(case.label, out.reached, figures,
                     "against a direct solve and the circle transport oracle")
    (f1, g1), (f2, g2) = case.axes
    u1 = _direct_solve(f1, g1, case.k, AXIS_TOL, case.A)
    u2 = _direct_solve(f2, g2, case.k, AXIS_TOL, case.A)
    ref = (u1[:, None] + u2[None, :]).ravel()
    figures = {"potential_distance": (hilbert_distance(u, ref), POTENTIAL_BOUND)}
    return Check(case.label, out.reached, figures,
                 "against u1 + u2 from per-axis direct solves")


def sampled_softmin(grid, mult, k, values, log_weights, rows):
    """Dense log-domain softmin at the given nodes, kernel rows from the series.

    Needs no N x N matrix, so it checks grids past the dense route's cap.
    """
    l = np.arange(len(mult))
    series = (2.0 * l + 1.0) * mult
    xyz = grid.embed()
    gram = np.clip(xyz[rows] @ xyz.T, -1.0, 1.0)
    with np.errstate(divide="ignore"):
        log_k = np.log(np.maximum(legval(gram, series), 0.0))
    return logsumexp(log_k + (-k * values + log_weights)[None, :], axis=1) / k


def check_sphere(case, out, seed=0):
    """Distance of u from the dense route's softmin of v.

    The solve ends on u = softmin_to_source(v) by the SHT route, so this is
    one SHT apply at the final potentials against the dense log-domain one.
    """
    grid = SphericalGrid(case.W)
    spec = SphereKernelSpec(case.kernel, case.k)
    p, q = out.result["p"], out.result["q"]
    u, v = out.result["u"], out.result["v"]
    if grid.size <= DENSE_POINT_CAP:
        rows = np.arange(grid.size)
        want = SphereDenseApplicator(grid, spec, p, q).softmin_to_source(v)
        detail = "all nodes against SphereDenseApplicator"
    else:
        rows = np.sort(np.random.default_rng(seed).choice(grid.size, SAMPLED_ROWS,
                                                          replace=False))
        want = sampled_softmin(grid, spec.multipliers(grid), float(spec.k), v, np.log(q),
                               rows)
        detail = f"{SAMPLED_ROWS} sampled nodes against the Legendre series"
    dist = float(np.abs(u[rows] - want).max())
    return Check(case.label, out.reached, {"apply_distance": (dist, POTENTIAL_BOUND)},
                 detail)


def check_parabolic(case, out):
    eigs = out.result["min_eig"]
    res = out.result["residuals"]
    figures = {
        "residual_rises": (sum(1 for a, b in zip(res, res[1:]) if not b < a), 0),
        "nonpositive_min_eig": (sum(1 for e in eigs if not e > 0.0), 0),
    }
    detail = (f"min_eig {min(eigs):.3g}; residuals "
              + ", ".join(f"{r:.3g}" for r in res))
    return Check(case.label, out.reached, figures, detail)


def check(case, out, seed=0):
    """Reference check of one finished instance."""
    if isinstance(case, TorusCase):
        return check_torus(case, out)
    if isinstance(case, SphereCase):
        return check_sphere(case, out, seed)
    if isinstance(case, ParabolicCase):
        return check_parabolic(case, out)
    raise TypeError(f"unknown case type {type(case).__name__}")
