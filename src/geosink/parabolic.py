"""Finite-difference reference solver for the parabolic transport equation.

On the torus the equation reads

    du/dt = log det(I + Hess u) - g(x + grad u) + f(x),

whose stationary points solve the second-boundary-value Monge-Ampere
equation. Everything here is deliberately independent of the scaling
iteration: explicit Euler in time, centered second differences for the
Hessian, periodic cubic spline interpolation for the composed term
g(x + grad u). That independence is the point; the two routes are
compared against each other in the dynamic-convergence checks.

The module also houses the exact small-instance machinery used as ground
truth elsewhere: the O(N^2) c-transform, and the exact circle transport
oracle (monotone rearrangement minimized over the continuous rotation of
the target's quantile axis).

Stability: the linearization of log det(I + H) is a diffusion with
coefficient (I+H)^{-1}, so the explicit scheme needs dt below roughly
dx^2 / (2n * max (1+H)^{-1}); the default dt = 0.2 dx^2 / n keeps a margin
for mildly quasi-convex states.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.ndimage import map_coordinates, spline_filter

from .sinkhorn import NumericalAbortError
from .torus import TorusGrid

__all__ = [
    "ParabolicState",
    "c_transform",
    "check_quasiconvex",
    "parabolic_step",
    "solve_parabolic",
    "ma_residual",
    "circle_ot_oracle",
    "exp_convergence_fit",
]

DEFAULT_DT_FACTOR = 0.2


def c_transform(u, cost):
    """Exact discrete c-transform u^c(y_j) = max_i (-c_ij - u_i).

    Plain blockwise maximum over the explicit cost matrix; O(Nx * Ny).
    """
    u = np.asarray(u, dtype=float)
    cost = np.asarray(cost, dtype=float)
    if cost.shape[0] != u.size:
        raise ValueError("cost rows must match len(u)")
    out = np.full(cost.shape[1], -np.inf)
    block = max(1, min(u.size, (1 << 22) // max(1, cost.shape[1])))
    for start in range(0, u.size, block):
        chunk = -cost[start : start + block] - u[start : start + block, None]
        np.maximum(out, chunk.max(axis=0), out=out)
    return out


# ---------------------------------------------------------------------------
# the PDE solver
# ---------------------------------------------------------------------------


@dataclass
class ParabolicState:
    """Grid values of u at time t, with the tracked ellipticity margin."""

    u: np.ndarray
    t: float
    dx: float
    dt: float
    min_eig: float = 1.0

    @property
    def quasiconvex(self):
        return self.min_eig > 0.0


def _periodic_pad(u):
    """u with one wrapped layer on every side.

    Every periodic neighbour the stencils read is then a slice of this one
    copy (see _window), which is several times cheaper than one np.roll
    per neighbour and holds the same values.
    """
    ext = u
    for a in range(u.ndim):
        lo = (slice(None),) * a + (slice(-1, None),)
        hi = (slice(None),) * a + (slice(0, 1),)
        ext = np.concatenate((ext[lo], ext, ext[hi]), axis=a)
    return ext


@lru_cache(maxsize=None)
def _window(*offsets):
    """Index of u at node + offsets (periodic) into _periodic_pad(u)."""
    return tuple(slice(1 + o, (-1 + o) or None) for o in offsets)


@lru_cache(maxsize=None)
def _axis_windows(ndim):
    """Per axis, the (forward, backward) neighbour windows."""
    return tuple(
        (
            _window(*(1 if b == a else 0 for b in range(ndim))),
            _window(*(-1 if b == a else 0 for b in range(ndim))),
        )
        for a in range(ndim)
    )


def _second_differences(u, ext, dx):
    """Pure second derivatives along each axis, same shape as u per axis."""
    return [
        (ext[fwd] - 2.0 * u + ext[bwd]) / (dx * dx)
        for fwd, bwd in _axis_windows(u.ndim)
    ]


def _mixed_difference(ext, dx):
    """Symmetric cross stencil for u_xy on a 2-D periodic grid."""
    return (
        ext[_window(1, 1)]
        - ext[_window(1, -1)]
        - ext[_window(-1, 1)]
        + ext[_window(-1, -1)]
    ) / (4.0 * dx * dx)


def _gradient(u, ext, dx):
    return [(ext[fwd] - ext[bwd]) / (2.0 * dx) for fwd, bwd in _axis_windows(u.ndim)]


def _min_hessian_eig(u, dx):
    """Smallest eigenvalue over nodes of I + discrete Hessian; n <= 2."""
    ext = _periodic_pad(u)
    seconds = _second_differences(u, ext, dx)
    if u.ndim == 1:
        return float((1.0 + seconds[0]).min())
    a = 1.0 + seconds[0]
    c = 1.0 + seconds[1]
    b = _mixed_difference(ext, dx)
    radius = np.sqrt(0.25 * (a - c) ** 2 + b * b)
    return float((0.5 * (a + c) - radius).min())


def check_quasiconvex(u, grid=None):
    """Minimum eigenvalue of I + H(u) over all nodes; ok iff positive."""
    u = np.asarray(u, dtype=float)
    if grid is not None:
        u = u.reshape(grid.shape)
    if u.ndim not in (1, 2):
        raise ValueError("quasi-convexity check supports n in {1, 2}")
    dx = 1.0 / u.shape[0]
    min_eig = _min_hessian_eig(u, dx)
    return {"min_eig": min_eig, "ok": bool(min_eig > 0.0)}


def _log_det(u, ext, dx):
    """log det(I + H(u)); raises when the determinant is not positive."""
    seconds = _second_differences(u, ext, dx)
    if u.ndim == 1:
        det = 1.0 + seconds[0]
    else:
        b = _mixed_difference(ext, dx)
        det = (1.0 + seconds[0]) * (1.0 + seconds[1]) - b * b
    if not det.min() > 0.0 or not np.isfinite(det.max()):
        raise NumericalAbortError(
            "det(I + H) lost positivity",
            {"min_det": float(det.min()), "t_context": "parabolic step"},
        )
    return np.log(det)


class _Forcing:
    """Sampled forcing pair on a grid, with g prefiltered for interpolation.

    The spline prefilter of g's samples happens once here; every step
    then interpolates with prefilter=False. Optionally both exponents
    are shifted so that e^{-f} and e^{-g} have unit grid mean, the
    discrete solvability normalization (without it the mean of u drifts
    linearly and the flow cannot settle).
    """

    def __init__(self, grid, f, g, normalize):
        self.grid = grid
        self.f_vals = _sample_exponent(f, grid)
        g_vals = _sample_exponent(g, grid)
        if normalize:
            self.f_vals = self.f_vals + np.log(np.mean(np.exp(-self.f_vals)))
            g_vals = g_vals + np.log(np.mean(np.exp(-g_vals)))
        self.g_coeffs = spline_filter(g_vals, order=3, mode="grid-wrap")
        self.nodes = np.indices(grid.shape, dtype=float)

    def g_at_displaced(self, u, ext, dx):
        grads = _gradient(u, ext, dx)
        coords = np.empty((u.ndim,) + u.shape)
        for a, grad in enumerate(grads):
            np.add(self.nodes[a], grad / dx, out=coords[a])
        return map_coordinates(
            self.g_coeffs,
            coords.reshape(u.ndim, -1),
            output=np.empty(u.size),
            order=3,
            mode="grid-wrap",
            prefilter=False,
        ).reshape(u.shape)


def _sample_exponent(f, grid):
    if isinstance(f, np.ndarray):
        if f.size != grid.size:
            raise ValueError("sampled forcing does not match the grid")
        return f.reshape(grid.shape).astype(float)
    if isinstance(f, str):
        from .measures import DensityField

        f = DensityField.torus_expression(f, grid.n)
    return np.asarray(f(grid.points()), dtype=float).reshape(grid.shape)


def _step_values(u, forcing, dx, dt):
    ext = _periodic_pad(u)
    rhs = _log_det(u, ext, dx) - forcing.g_at_displaced(u, ext, dx) + forcing.f_vals
    return u + dt * rhs


def parabolic_step(state, f, g, grid=None):
    """One explicit Euler step of the parabolic equation.

    f and g may be DensityFields, expression strings, or sampled arrays.
    For repeated stepping prefer solve_parabolic, which samples and
    prefilters the forcing once. No mass normalization is applied here;
    the raw right-hand side is integrated as given.
    """
    if grid is None:
        grid = TorusGrid(state.u.ndim, state.u.shape[0])
    forcing = _Forcing(grid, f, g, normalize=False)
    u_next = _step_values(state.u, forcing, state.dx, state.dt)
    if not np.isfinite(u_next).all():
        raise NumericalAbortError(
            "non-finite values in parabolic step", {"t": state.t}
        )
    min_eig = _min_hessian_eig(u_next, state.dx)
    return ParabolicState(
        u=u_next,
        t=state.t + state.dt,
        dx=state.dx,
        dt=state.dt,
        min_eig=min_eig,
    )


def solve_parabolic(u0, f, g, T, grid, dt=None, record_times=None, normalize=True):
    """March the flow to time T, recording states at the requested times.

    Steps land exactly on each record time (the last partial step of a
    segment shrinks dt as needed). By default the forcing exponents are
    normalized to unit e^{-f} grid mean so the flow can reach a steady
    state; pass normalize=False to integrate the raw equation.

    Returns the list of recorded ParabolicStates (just the final state
    when record_times is None).
    """
    u = np.asarray(u0, dtype=float).reshape(grid.shape).copy()
    dx = grid.spacing
    if dt is None:
        dt = DEFAULT_DT_FACTOR * dx * dx / grid.n
    if record_times is None:
        record_times = [float(T)]
    times = sorted(float(t) for t in record_times)
    if times and times[-1] > T + 1e-12:
        raise ValueError("record times must lie within [0, T]")

    forcing = _Forcing(grid, f, g, normalize)
    start = check_quasiconvex(u)
    if not start["ok"]:
        raise NumericalAbortError(
            "initial state is not quasi-convex", {"min_eig": start["min_eig"]}
        )

    out = []
    t = 0.0
    tiny = 1e-12
    for target in times:
        while t < target - tiny:
            step = min(dt, target - t)
            u = _step_values(u, forcing, dx, step)
            if not np.isfinite(u).all():
                raise NumericalAbortError(
                    "non-finite values in parabolic run", {"t": t}
                )
            t += step
        min_eig = _min_hessian_eig(u, dx)
        if min_eig <= 0.0:
            raise NumericalAbortError(
                "quasi-convexity lost during run", {"t": t, "min_eig": min_eig}
            )
        out.append(ParabolicState(u=u.copy(), t=t, dx=dx, dt=dt, min_eig=min_eig))
    return out


def ma_residual(u, f, g, grid, normalize=True):
    """Sup-norm of the stationary log-form residual log det(I+H) - g(x+grad u) + f."""
    forcing = _Forcing(grid, f, g, normalize)
    u = np.asarray(u, dtype=float).reshape(grid.shape)
    ext = _periodic_pad(u)
    rhs = _log_det(u, ext, grid.spacing) - forcing.g_at_displaced(u, ext, grid.spacing)
    rhs = rhs + forcing.f_vals
    return float(np.abs(rhs).max())


# ---------------------------------------------------------------------------
# exact circle transport
# ---------------------------------------------------------------------------


def _rotation_matching(p, q, k, theta, collect=False):
    """Monotone quantile matching of p against q rotated by mass theta.

    The target is lifted to the line (atom j recurs at j/k + m for every
    integer m) and its quantile axis shifts by theta; source quantiles
    [0, 1) then match monotonically by a two-pointer walk. Each matched
    chunk is priced at half its squared line displacement. O(k).
    """
    Pc = np.cumsum(p)
    Qc = np.cumsum(q)
    m = int(np.floor(-theta))
    target = -(m + theta)
    j = int(np.searchsorted(Qc, target, side="right"))
    if j == k:
        j = 0
        m += 1
    i = 0
    s = 0.0
    cost = 0.0
    pairs = {} if collect else None
    while i < k:
        p_up = Pc[i]
        q_up = Qc[j] + m + theta
        hi = min(p_up, q_up)
        take = hi - s
        if take > 1e-18:
            d = i / k - (j / k + m)
            cost += take * 0.5 * d * d
            if collect:
                key = (i, j)
                pairs[key] = pairs.get(key, 0.0) + take
        if p_up <= q_up:
            i += 1
        if q_up <= p_up:
            j += 1
            if j == k:
                j = 0
                m += 1
        s = hi
    return cost, pairs


def circle_ot_oracle(p, q):
    """Exact transport cost for c = d^2/2 between grid measures on the circle.

    Classical reduction for convex costs: rotating the target's quantile
    axis by theta and matching monotonically on the line gives a cost
    C(theta) whose minimum over theta is exactly the circle optimum. The
    k cyclic cuts only sample k values of theta and can miss the
    minimizer, so this minimizes over the continuum: C is convex and
    piecewise quadratic, golden-section localizes the minimizer, and an
    exact sweep of the nearby alignment breakpoints (differences of the
    two cumulative-mass ladders) settles kinks. O(k log(1/eps)) overall.

    Returns {"cost", "rotation", "pairs"} with pairs as (source index,
    target index, mass) triples on the original grid.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError("p and q must be 1-D weight vectors on a common grid")
    if abs(p.sum() - 1.0) > 1e-9 or abs(q.sum() - 1.0) > 1e-9:
        raise ValueError("weights must sum to 1")
    k = p.size

    def C(theta):
        return _rotation_matching(p, q, k, theta)[0]

    gr = 0.5 * (np.sqrt(5.0) - 1.0)
    a, b = -1.0, 1.0
    c = b - gr * (b - a)
    d = a + gr * (b - a)
    fc, fd = C(c), C(d)
    for _ in range(90):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - gr * (b - a)
            fc = C(c)
        else:
            a, c, fc = c, d, fd
            d = a + gr * (b - a)
            fd = C(d)
    theta_best = 0.5 * (a + b)
    best = C(theta_best)

    # a kink minimizer sits where a source ladder value aligns with a
    # (shifted) target ladder value; evaluate those candidates exactly
    Pc = np.cumsum(p)
    Qc = np.cumsum(q)
    diffs = (Pc[:, None] - Qc[None, :]).ravel()
    near = [0.0]
    for shift in (-1.0, 0.0, 1.0):
        cand = diffs + shift
        sel = cand[np.abs(cand - theta_best) <= 1e-6]
        near.extend(float(t) for t in sel)
    for t in near:
        val = C(t)
        if val < best:
            best = val
            theta_best = t

    _, pair_map = _rotation_matching(p, q, k, theta_best, collect=True)
    pairs = [(int(i), int(j), float(m)) for (i, j), m in pair_map.items()]
    return {"cost": float(best), "rotation": float(theta_best), "pairs": pairs}


def exp_convergence_fit(trajectory):
    """Fit sup|u_t - u_final| ~ A e^{-rate t} over the clean decay window.

    The final state is the reference and is excluded from the fit; only
    errors inside [1e-8, 1e-2] enter (above that the transient pollutes
    the rate, below it the reference subtraction does). Raises ValueError
    when fewer than three points survive.
    """
    if len(trajectory) < 5:
        raise ValueError("need at least 5 trajectory states")

    def unpack(s):
        if hasattr(s, "u"):
            return float(s.t), np.asarray(s.u, dtype=float)
        t, u = s
        return float(t), np.asarray(u, dtype=float)

    times, values = zip(*(unpack(s) for s in trajectory))
    ref = values[-1]
    errs = np.array([np.abs(v - ref).max() for v in values[:-1]])
    ts = np.array(times[:-1])
    mask = (errs >= 1e-8) & (errs <= 1e-2)
    if mask.sum() < 3:
        raise ValueError(
            "insufficient data: fewer than 3 trajectory points with error "
            "in [1e-8, 1e-2]"
        )
    slope, intercept = np.polyfit(ts[mask], np.log(errs[mask]), 1)
    return {"A_fit": float(np.exp(intercept)), "rate": float(-slope)}
