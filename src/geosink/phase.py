"""Discrete stationary-phase and local-density diagnostics on the torus.

The lattice sum k^{-n/2} sum_{x in Lambda_k} e^{-k alpha(x)} h(x)
concentrates at the minimizer x0 of alpha; to leading order it equals the
Laplace value (2 pi)^{n/2} e^{-k alpha(x0)} h(x0) / sqrt(det Hess(x0)),
with an O(1/k) error. These checks measure that error directly, both
with the minimizer on the lattice and shifted off it (the approximation
does not care about the offset, which is what makes it usable under the
lattice refinement k -> 2k).

All sums are plain counting sums over the lattice, no quadrature weights:
the k^{-n/2} prefactor is the natural cell volume of the sqrt(k)-scaled
variable, in which the Gaussian envelope has unit width.
"""

from __future__ import annotations

import numpy as np

from .torus import TorusGrid

__all__ = [
    "numeric_hessian",
    "stationary_phase_check",
    "shifted_lattice_check",
    "local_density_error",
]


def _evaluate(fn, coords):
    vals = np.asarray(fn(coords), dtype=float)
    return np.broadcast_to(vals, (np.atleast_2d(coords).shape[0],))


def numeric_hessian(fn, x0):
    """Hessian of fn at x0 by centered differences with one Richardson pass.

    The plain stencil with spacing h = 1e-4 has O(h^2) error; combining
    step sizes h and 2h as (4 D(h) - D(2h)) / 3 cancels the leading term,
    leaving O(h^4), far below the needs of the rate checks here.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    n = x0.size

    def d2(h):
        f0 = _evaluate(fn, x0[None, :])[0]
        H = np.empty((n, n))
        for i in range(n):
            ei = np.zeros(n)
            ei[i] = h
            fp = _evaluate(fn, (x0 + ei)[None, :])[0]
            fm = _evaluate(fn, (x0 - ei)[None, :])[0]
            H[i, i] = (fp - 2.0 * f0 + fm) / (h * h)
            for j in range(i + 1, n):
                ej = np.zeros(n)
                ej[j] = h
                fpp = _evaluate(fn, (x0 + ei + ej)[None, :])[0]
                fpm = _evaluate(fn, (x0 + ei - ej)[None, :])[0]
                fmp = _evaluate(fn, (x0 - ei + ej)[None, :])[0]
                fmm = _evaluate(fn, (x0 - ei - ej)[None, :])[0]
                H[i, j] = H[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * h * h)
        return H

    return (4.0 * d2(1e-4) - d2(2e-4)) / 3.0


def stationary_phase_check(alpha, h, x0, k, n=None):
    """Compare the lattice sum against its Laplace approximation at x0.

    alpha and h are callables on (N, n) coordinate arrays (DensityFields
    qualify). x0 must be the unique minimizer of alpha with positive
    definite Hessian; both are verified numerically. Returns
    {"lhs", "rhs", "err"}.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if n is None:
        n = x0.size
    if n not in (1, 2):
        raise ValueError("stationary phase checks support n in {1, 2}")
    grid = TorusGrid(n, k)
    pts = grid.points()
    a_vals = _evaluate(alpha, pts)
    h_vals = _evaluate(h, pts)
    a0 = _evaluate(alpha, np.atleast_2d(x0))[0]
    if a_vals.min() < a0 - 1e-12:
        raise ValueError(
            "alpha takes a smaller value on the lattice than at x0; "
            "x0 is not the minimizer"
        )

    hess = numeric_hessian(alpha, x0)
    eigs = np.linalg.eigvalsh(hess)
    # a flat (quartic) minimum differences to rounding-level noise, which
    # can land on either side of zero; treat it as indefinite too
    if eigs.min() <= 1e-8 * max(1.0, float(np.abs(eigs).max())):
        raise ValueError(
            f"Hessian at x0 is not positive definite (eigenvalues {eigs})"
        )

    # factor out e^{-k a0}: the shifted exponents are all <= 0
    lhs = k ** (-n / 2.0) * np.exp(-k * a0) * float(
        np.exp(-k * (a_vals - a0)) @ h_vals
    )
    h0 = _evaluate(h, np.atleast_2d(x0))[0]
    rhs = (2.0 * np.pi) ** (n / 2.0) * np.exp(-k * a0) * h0 / np.sqrt(
        np.linalg.det(hess)
    )
    return {"lhs": float(lhs), "rhs": float(rhs), "err": float(abs(lhs - rhs))}


def shifted_lattice_check(alpha, h, x0, k, n=None):
    """The same comparison with the minimizer off the lattice.

    Nothing in the computation refers to the offset between x0 and
    Lambda_k, so an on-lattice x0 reduces to stationary_phase_check
    exactly; the value of running both is seeing that the error constant
    survives the shift.
    """
    return stationary_phase_check(alpha, h, x0, k, n)


def local_density_error(h, k, radius=None, refine=16):
    """|k^{-1/2} sum_{|j/sqrt(k)| <= R} h(j/sqrt(k)) - integral_{-R}^{R} h|.

    One-dimensional: the lattice is the sqrt(k)-scaled integer grid, the
    window radius defaults to log k, and the integral reference is the
    trapezoid rule on a refine-times finer grid (error O((dx/refine)^2),
    negligible against the O(1/k) law this measures). h is a callable on
    scalar arrays, expected to carry a Gaussian-type envelope so the
    window truncation is immaterial.
    """
    if radius is None:
        radius = np.log(k)
    step = 1.0 / np.sqrt(k)
    j_max = int(np.floor(radius / step))
    if j_max < 1:
        raise ValueError(
            f"window radius {radius} contains no lattice points at k={k}"
        )
    lattice = np.arange(-j_max, j_max + 1) * step
    lattice_sum = step * float(np.sum(np.asarray(h(lattice), dtype=float)))

    fine = np.linspace(-radius, radius, 2 * j_max * refine + 1)
    integral = float(np.trapezoid(np.asarray(h(fine), dtype=float), fine))
    return abs(lattice_sum - integral)
