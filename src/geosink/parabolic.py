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

import copy
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.ndimage import map_coordinates, spline_filter

from .sinkhorn import NumericalAbortError
from .torus import TorusGrid

try:  # the compiled routine behind map_coordinates, minus its wrapper
    from scipy.ndimage._nd_image import geometric_transform as _geometric_transform
    from scipy.ndimage._ni_support import _extend_mode_to_code

    _GRID_WRAP = _extend_mode_to_code("grid-wrap")
except ImportError:  # private, so a later scipy may move it: use the wrapper
    _geometric_transform = None

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


def _rewrap(ext):
    """Refill the wrapped layer of a _periodic_pad copy from its interior."""
    for a in range(ext.ndim):
        lead = (slice(None),) * a
        ext[lead + (0,)] = ext[lead + (-2,)]
        ext[lead + (-1,)] = ext[lead + (1,)]


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


def check_quasiconvex(u, grid=None):
    """Minimum eigenvalue of I + H(u) over all nodes; ok iff positive."""
    u = np.asarray(u, dtype=float)
    if grid is not None:
        u = u.reshape(grid.shape)
    min_eig = _Stepper(None, u, 1.0 / u.shape[0]).min_eig()
    return {"min_eig": min_eig, "ok": bool(min_eig > 0.0)}


class _SplineTaps:
    """A 2-D periodic cubic spline evaluated at moving points.

    Computes map_coordinates(coeffs, coords, order=3, mode="grid-wrap",
    prefilter=False) the way its compiled loop does: each coordinate is
    wrapped into the period, its cell is the floor, the four B-spline
    weights per axis come from the same closed form, and the sixteen taps
    are summed as (c * w0) * w1 in the same order. The results agree
    bitwise in the tests.

    Each point keeps its cell and the 4x4 patch of coefficients around it
    (indices mod N, so any displacement works). A call recomputes the
    weights and contracts them with the patches, and re-gathers only the
    points whose cell changed: along a flow most steps move a few points,
    but most steps move at least one, so the whole pattern cannot be kept.
    """

    _TAPS = np.arange(-1, 3)
    _GATHER_BLOCK = 512

    def __init__(self, coeffs):
        self.coeffs = coeffs
        size = coeffs.size
        self.period = np.array(coeffs.shape, dtype=float)[:, None]
        self.cells = np.full((2, size), np.nan)
        self.patches = np.empty((4, 4, size))
        self._lo = np.empty((2, size))
        self._yz = np.empty((2, 2, size))
        self._weights = np.empty((2, 4, size))

    def __call__(self, coords, out):
        """Spline values at coords (2, size) into out (size,)."""
        lo, yz, w = self._lo, self._yz, self._weights
        y, z = yz[:, 0], yz[:, 1]
        # wrap as map_coordinates does: x - N floor(x / N) is x itself on
        # [0, N) and map_coordinates' wrapped value elsewhere, but where
        # x / N rounds to an integer, which may land a period away
        np.divide(coords, self.period, out=lo)
        np.floor(lo, out=lo)
        np.multiply(lo, self.period, out=lo)
        np.subtract(coords, lo, out=y)
        np.floor(y, out=lo)
        np.subtract(y, lo, out=y)
        np.subtract(1.0, y, out=z)
        # weights 1 and 2 are (s^2 (s - 2) 3 + 4) / 6 at s = y and s = 1 - y,
        # weight 0 is (1 - y)^3 / 6, and weight 3 closes the sum to one;
        # the squares wait in the slots of weights 3 and 0
        np.multiply(y, y, out=w[:, 3])
        np.multiply(z, z, out=w[:, 0])
        np.subtract(yz, 2.0, out=w[:, 1:3])
        np.multiply(w[:, 3], w[:, 1], out=w[:, 1])
        np.multiply(w[:, 0], w[:, 2], out=w[:, 2])
        np.multiply(w[:, 1:3], 3.0, out=w[:, 1:3])
        np.add(w[:, 1:3], 4.0, out=w[:, 1:3])
        np.divide(w[:, 1:3], 6.0, out=w[:, 1:3])
        np.multiply(w[:, 0], z, out=w[:, 0])
        np.divide(w[:, 0], 6.0, out=w[:, 0])
        np.subtract(1.0, w[:, 0], out=w[:, 3])
        np.subtract(w[:, 3], w[:, 1], out=w[:, 3])
        np.subtract(w[:, 3], w[:, 2], out=w[:, 3])

        moved = np.flatnonzero((lo != self.cells).any(axis=0))
        n0, n1 = self.coeffs.shape
        # in blocks, so that a first call, which moves every point, needs
        # no gather temporaries as large as the patches
        for start in range(0, moved.size, self._GATHER_BLOCK):
            block = moved[start : start + self._GATHER_BLOCK]
            self.cells[:, block] = lo[:, block]
            cell = lo[:, block].astype(np.intp)
            rows = (cell[0] + self._TAPS[:, None]) % n0
            cols = (cell[1] + self._TAPS[:, None]) % n1
            self.patches[:, :, block] = self.coeffs[rows[:, None, :], cols[None, :, :]]
        return np.einsum("ijm,im,jm->m", self.patches, w[0], w[1], out=out)


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
        self._evaluated = False
        self._taps = None

    def g_at(self, coords, out):
        """g's spline at coords (n, size), in grid units, into out (size,).

        A 2-D forcing evaluated again, as along a flow, builds a tap cache
        (_SplineTaps) on its second call; a one-off evaluation, as in
        ma_residual, and every 1-D one calls the spline routine directly.
        """
        if self._taps is None and self.grid.n == 2 and self._evaluated:
            self._taps = _SplineTaps(self.g_coeffs)
        if self._taps is not None:
            return self._taps(coords, out)
        self._evaluated = True
        if _geometric_transform is None:
            return map_coordinates(self.g_coeffs, coords, output=out, order=3,
                                   mode="grid-wrap", prefilter=False)
        _geometric_transform(self.g_coeffs, None, coords, None, None, out, 3,
                             _GRID_WRAP, 0.0, 0, None, None)
        return out


def _sample_exponent(f, grid):
    if isinstance(f, np.ndarray):
        if f.size != grid.size:
            raise ValueError("sampled forcing does not match the grid")
        return f.reshape(grid.shape).astype(float)
    if isinstance(f, str):
        from .measures import DensityField

        f = DensityField.torus_expression(f, grid.n)
    return np.asarray(f(grid.points()), dtype=float).reshape(grid.shape)


class _Stepper:
    """The explicit Euler step, fused onto preallocated buffers.

    u lives inside a _periodic_pad copy, so every neighbour the stencils
    read is a fixed view of that copy and a step rewrites only the
    interior and the wrapped layer. The right-hand side runs the same
    array operations as the plain expressions

        det = (1 + u_xx)(1 + u_yy) - u_xy^2  (1 + u_xx in 1-D)
        rhs = log det - g(x + grad u) + f,   u <- u + dt rhs

    in the same order, each into a buffer, so a step gives the bits of
    those expressions. _hessian() is the module's one Hessian stencil:
    log det and min_eig both read it. min_eig needs no forcing.
    """

    def __init__(self, forcing, u, dx):
        if u.ndim not in (1, 2):
            raise ValueError("the parabolic solver supports n in {1, 2}")
        self.forcing = forcing
        self.dx = dx
        self.ext = _periodic_pad(np.asarray(u, dtype=float))
        self.u = self.ext[_window(*(0,) * u.ndim)]
        self._neighbours = [(self.ext[f], self.ext[b]) for f, b in _axis_windows(u.ndim)]
        self._corners = [self.ext[_window(*o)] for o in ((1, 1), (1, -1), (-1, 1), (-1, -1))
                         ] if u.ndim == 2 else None
        self._diag = np.empty((u.ndim,) + u.shape)
        self._coords = np.empty((u.ndim,) + u.shape)
        # u_xy, then g(x + grad u)
        self._mixed = np.empty(u.shape)
        # 1-D: det is 1 + u_xx itself; 2-D: a buffer of its own
        self._rhs = self._diag[0] if u.ndim == 1 else np.empty(u.shape)
        self._flat_coords = self._coords.reshape(u.ndim, -1)
        self._flat_g = self._mixed.reshape(-1)

    def _hessian(self):
        """1 + u_ii per axis into the diag buffer and, in 2-D, u_xy into mixed."""
        u, dx, diag = self.u, self.dx, self._diag
        for d, (fwd, bwd) in zip(diag, self._neighbours):
            np.multiply(2.0, u, out=d)
            np.subtract(fwd, d, out=d)
            np.add(d, bwd, out=d)
            np.divide(d, dx * dx, out=d)
            np.add(1.0, d, out=d)
        if u.ndim == 2:
            pp, pm, mp, mm = self._corners
            b = self._mixed
            np.subtract(pp, pm, out=b)
            np.subtract(b, mp, out=b)
            np.add(b, mm, out=b)
            np.divide(b, 4.0 * dx * dx, out=b)

    def min_eig(self):
        """Smallest eigenvalue of I + H(u) over the nodes."""
        self._hessian()
        a = self._diag[0]
        if self.u.ndim == 1:
            return float(a.min())
        c, b = self._diag[1], self._mixed
        radius = np.sqrt(0.25 * (a - c) ** 2 + b * b)
        return float((0.5 * (a + c) - radius).min())

    def _log_det(self):
        """log det(I + H(u)) into the rhs buffer; raises unless det > 0."""
        self._hessian()
        det = self._rhs
        if self.u.ndim == 2:
            b = self._mixed
            np.multiply(self._diag[0], self._diag[1], out=det)
            np.multiply(b, b, out=b)
            np.subtract(det, b, out=det)
        # min > 0 fails on NaN too, so max < inf leaves det finite
        if not (det.min() > 0.0 and det.max() < np.inf):
            raise NumericalAbortError(
                "det(I + H) lost positivity",
                {"min_det": float(det.min()), "t_context": "parabolic step"},
            )
        return np.log(det, out=det)

    def rhs(self):
        """log det(I + H(u)) - g(x + grad u) + f, in a buffer the next call reuses."""
        rhs = self._log_det()
        dx, coords = self.dx, self._coords
        for x, nodes, (fwd, bwd) in zip(coords, self.forcing.nodes, self._neighbours):
            np.subtract(fwd, bwd, out=x)
            np.divide(x, 2.0 * dx, out=x)
            np.divide(x, dx, out=x)
            np.add(nodes, x, out=x)
        self.forcing.g_at(self._flat_coords, self._flat_g)
        np.subtract(rhs, self._mixed, out=rhs)
        np.add(rhs, self.forcing.f_vals, out=rhs)
        return rhs

    def step(self, dt):
        """u <- u + dt * rhs, in place."""
        rhs = self.rhs()
        np.multiply(dt, rhs, out=rhs)
        np.add(self.u, rhs, out=self.u)
        _rewrap(self.ext)
        return self.u


def parabolic_step(state, f, g, grid=None):
    """One explicit Euler step of the parabolic equation.

    f and g may be DensityFields, expression strings, or sampled arrays.
    For repeated stepping prefer solve_parabolic, which samples and
    prefilters the forcing once. No mass normalization is applied here;
    the raw right-hand side is integrated as given.
    """
    if grid is None:
        grid = TorusGrid(state.u.ndim, state.u.shape[0])
    stepper = _Stepper(_Forcing(grid, f, g, normalize=False), state.u, state.dx)
    u_next = stepper.step(state.dt).copy()
    if not np.isfinite(u_next).all():
        raise NumericalAbortError(
            "non-finite values in parabolic step", {"t": state.t}
        )
    return ParabolicState(
        u=u_next,
        t=state.t + state.dt,
        dx=state.dx,
        dt=state.dt,
        min_eig=stepper.min_eig(),
    )


def solve_parabolic(u0, f, g, T, grid, dt=None, record_times=None, normalize=True):
    """March the flow to time T, recording states at the requested times.

    Steps land exactly on each record time (the last partial step of a
    segment shrinks dt as needed). The run always reaches T: when the
    record times stop short of it, T is recorded last, so an empty list
    records T alone, as None does. By default the forcing exponents are
    normalized to unit e^{-f} grid mean so the flow can reach a steady
    state; pass normalize=False to integrate the raw equation. dt must be
    finite and positive and T finite and nonnegative, or no step count
    reaches T.

    Returns the list of recorded ParabolicStates.
    """
    u = np.asarray(u0, dtype=float).reshape(grid.shape)
    dx = grid.spacing
    if dt is None:
        dt = DEFAULT_DT_FACTOR * dx * dx / grid.n
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if not (np.isfinite(T) and T >= 0.0):
        raise ValueError(f"T must be finite and nonnegative, got {T}")
    tiny = 1e-12
    times = sorted(float(t) for t in record_times or ())
    if times and (times[0] < -tiny or times[-1] > T + tiny):
        raise ValueError("record times must lie within [0, T]")
    if not times or times[-1] < T - tiny:
        times.append(float(T))

    stepper = _Stepper(_Forcing(grid, f, g, normalize), u, dx)
    min_eig = stepper.min_eig()
    if not min_eig > 0.0:
        raise NumericalAbortError(
            "initial state is not quasi-convex", {"min_eig": min_eig}
        )

    out = []
    t = 0.0
    u = stepper.u  # advanced in place by each step
    for target in times:
        while t < target - tiny:
            step = min(dt, target - t)
            stepper.step(step)
            if not np.isfinite(u).all():
                raise NumericalAbortError(
                    "non-finite values in parabolic run", {"t": t}
                )
            t += step
        # until the first step u is the initial state, checked above
        if t > 0.0:
            min_eig = stepper.min_eig()
        if min_eig <= 0.0:
            raise NumericalAbortError(
                "quasi-convexity lost during run", {"t": t, "min_eig": min_eig}
            )
        out.append(ParabolicState(u=u.copy(), t=t, dx=dx, dt=dt, min_eig=min_eig))
    return out


@lru_cache(maxsize=4)
def _expression_forcing(grid, f, g, normalize):
    """One sampled forcing per pair of expression strings, for ma_residual.

    Every later call shares its arrays, so they are made read-only.
    """
    forcing = _Forcing(grid, f, g, normalize)
    for values in (forcing.f_vals, forcing.g_coeffs, forcing.nodes):
        values.flags.writeable = False
    return forcing


def ma_residual(u, f, g, grid, normalize=True):
    """Sup-norm of the stationary log-form residual log det(I+H) - g(x+grad u) + f.

    Expression strings are sampled and prefiltered once per (grid, f, g,
    normalize) and reused by later calls, as along a recorded trajectory.
    """
    if isinstance(f, str) and isinstance(g, str):
        # the copy shares the samples but starts without a tap cache, so
        # each residual calls the spline routine directly
        forcing = copy.copy(_expression_forcing(grid, f, g, normalize))
    else:
        forcing = _Forcing(grid, f, g, normalize)
    u = np.asarray(u, dtype=float).reshape(grid.shape)
    return float(np.abs(_Stepper(forcing, u, grid.spacing).rhs()).max())


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
