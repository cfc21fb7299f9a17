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
from math import isfinite

import numpy as np
from scipy.ndimage import map_coordinates, spline_filter

from .sinkhorn import NumericalAbortError, _check_weights
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

# the screens: a sum over every entry is finite only if each entry is
_sum = np.add.reduce


@lru_cache(maxsize=256)
def _constant(value):
    """value as a read-only 0-d array, a scalar operand numpy takes as is.

    A Python float is converted on every ufunc call; the 0-d array is not,
    and gives the same bits. Steppers on one grid share theirs.
    """
    c = np.array(float(value))
    c.flags.writeable = False
    return c


_ONE, _TWO, _THREE, _FOUR, _SIX = map(_constant, (1, 2, 3, 4, 6))


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


def _wrap_layer(ndim):
    """(destination, source) index pairs that refill the wrapped layer of a
    copy padded by np.pad(u, 1, mode="wrap") from its interior, axis by axis."""
    pairs = []
    for a in range(ndim):
        lead = (slice(None),) * a
        pairs += [(lead + (0,), lead + (-2,)), (lead + (-1,), lead + (1,))]
    return tuple(pairs)


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

    def __init__(self, coeffs, size=None):
        """size is the number of points per call, by default one per coefficient."""
        self.coeffs = coeffs
        size = coeffs.size if size is None else size
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
        np.divide(coords, self.period, lo)
        np.floor(lo, lo)
        np.multiply(lo, self.period, lo)
        np.subtract(coords, lo, y)
        np.floor(y, lo)
        np.subtract(y, lo, y)
        np.subtract(_ONE, y, z)
        # weights 1 and 2 are (s^2 (s - 2) 3 + 4) / 6 at s = y and s = 1 - y,
        # weight 0 is (1 - y)^3 / 6, and weight 3 closes the sum to one;
        # the squares wait in the slots of weights 3 and 0
        np.multiply(y, y, w[:, 3])
        np.multiply(z, z, w[:, 0])
        np.subtract(yz, _TWO, w[:, 1:3])
        np.multiply(w[:, 3], w[:, 1], w[:, 1])
        np.multiply(w[:, 0], w[:, 2], w[:, 2])
        np.multiply(w[:, 1:3], _THREE, w[:, 1:3])
        np.add(w[:, 1:3], _FOUR, w[:, 1:3])
        np.divide(w[:, 1:3], _SIX, w[:, 1:3])
        np.multiply(w[:, 0], z, w[:, 0])
        np.divide(w[:, 0], _SIX, w[:, 0])
        np.subtract(_ONE, w[:, 0], w[:, 3])
        np.subtract(w[:, 3], w[:, 1], w[:, 3])
        np.subtract(w[:, 3], w[:, 2], w[:, 3])

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
    linearly and the flow cannot settle). It holds no state of a run.
    """

    def __init__(self, grid, f, g, normalize):
        self.f_vals = _sample_exponent(f, grid)
        g_vals = _sample_exponent(g, grid)
        if normalize:
            self.f_vals = self.f_vals + np.log(np.mean(np.exp(-self.f_vals)))
            g_vals = g_vals + np.log(np.mean(np.exp(-g_vals)))
        self.g_coeffs = spline_filter(g_vals, order=3, mode="grid-wrap")
        self.nodes = np.indices(grid.shape, dtype=float)

    def g_at(self, coords, out):
        """g's spline at coords (n, size), in grid units, into out (size,).

        Calls the compiled routine behind map_coordinates where scipy has it.
        """
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


def _hessian_stencil(u, axes, corners, diag, mixed, dx):
    """The module's one Hessian stencil, bound to its views and buffers.

    The returned hessian() writes 1 + u_ii per axis into the rows of diag
    and, in 2-D, u_xy into mixed; hessian(det=True) then also forms
    det(I + H) in diag's first row (1 + u_xx itself in 1-D) and returns it.
    """
    multiply, subtract, add, divide = np.multiply, np.subtract, np.add, np.divide
    dx2, four_dx2 = _constant(dx * dx), _constant(4.0 * dx * dx)
    second = [(d, fwd, bwd) for d, (fwd, bwd) in zip(diag, axes)]

    def hessian(det=False):
        for d, fwd, bwd in second:
            multiply(_TWO, u, d)
            subtract(fwd, d, d)
            add(d, bwd, d)
            divide(d, dx2, d)
            add(_ONE, d, d)
        if corners:
            pp, pm, mp, mm = corners
            subtract(pp, pm, mixed)
            subtract(mixed, mp, mixed)
            add(mixed, mm, mixed)
            divide(mixed, four_dx2, mixed)
            if det:
                multiply(diag[0], diag[1], diag[0])
                multiply(mixed, mixed, mixed)
                subtract(diag[0], mixed, diag[0])
        return diag[0]

    return hessian


def _check_det(hessian, det):
    """Raise unless det(I + H(u)) > 0 and finite at every node.

    The exact test behind a failed screen: hessian is a _hessian_stencil
    and det the interior of its diag buffer's first row. It writes only
    the stencil's buffers, so a finished rhs stays as it was.
    """
    hessian(det=True)
    # min > 0 fails on NaN too, so max < inf leaves det finite
    if not (det.min() > 0.0 and det.max() < np.inf):
        raise NumericalAbortError(
            "det(I + H) lost positivity",
            {"min_det": float(det.min()), "t_context": "parabolic step"},
        )


class _Stepper:
    """The explicit Euler step, fused onto preallocated buffers.

    u lives inside its wrapped copy np.pad(u, 1, mode="wrap"), so every
    neighbour the stencils read is a fixed view of that copy and a step
    rewrites only the interior and the wrapped layer. The right-hand side
    runs the same array operations as the plain expressions

        det = (1 + u_xx)(1 + u_yy) - u_xy^2  (1 + u_xx in 1-D)
        rhs = log det - g(x + grad u) + f,   u <- u + dt rhs

    in the same order, each into a buffer, so a step gives the bits of
    those expressions. _hessian (_hessian_stencil) is the module's one
    Hessian stencil: log det, min_eig and the positivity test all read
    it. min_eig needs no forcing.

    The stencils run on the band, the run of the padded copy's flat
    storage from the first interior node to the last, so every operand
    is one contiguous run. In 1-D the band is u itself; in 2-D it also
    crosses the wrapped layer between rows, 2 entries in every N + 2,
    whose results nothing reads: the step refills the wrapped layer, and
    the screens, min_eig and the residual read the interior only. The
    buffers hold the band laid out as the padded copy's interior rows,
    (N, N + 2) in 2-D. The stencil, rhs and step are closures that bind
    their views, buffers, ufuncs and scalar operands (as _constant 0-d
    arrays) once, here. The run's spline state is the stepper's: a 2-D
    rhs switches from the forcing's spline call to a tap cache over its
    band (_SplineTaps) at its second evaluation, so a one-off evaluation
    never builds one (it costs about three spline calls).

    A step screens, then diagnoses. The rhs is computed unchecked, so
    where det <= 0 its log leaves NaN or -inf. One sum over the finished
    rhs and one over the updated u screen them: a finite sum proves every
    entry finite. Only a failed screen runs the exact test (det > 0 and
    finite at every node, then every entry of u finite), which raises
    where an entrywise check would, with the same message; a sum that
    overflows on finite entries passes it. The callers hold np.errstate
    around the stepping, so the unchecked arithmetic warns of nothing.
    """

    def __init__(self, forcing, u, dx):
        if u.ndim not in (1, 2):
            raise ValueError("the parabolic solver supports n in {1, 2}")
        if u.ndim == 2 and u.shape[0] != u.shape[1]:
            raise ValueError(f"the parabolic solver needs a square 2-D u, got shape {u.shape}")
        n, N = u.ndim, u.shape[0]
        self.ext = ext = np.pad(np.ascontiguousarray(u, dtype=float), 1, mode="wrap")
        self.u = ext[(slice(1, -1),) * n]
        self._flat = flat = ext.reshape(-1)
        # flat offsets of one step along each axis; the band starts at the
        # first interior node, one step along every axis from the corner
        steps = (N + 2, 1)[2 - n :]
        first = sum(steps)
        size = (N - 1) * first + 1

        def shifted(offset):
            """The band of u at node + a flat offset, a slice of the storage."""
            return flat[first + offset : first + offset + size]

        rows = (N, N + 2)[:n]
        inside = (slice(None), slice(0, N))[:n]

        def band(a):
            """The band of a buffer shaped (..., *rows), as (..., size)."""
            return a.reshape(a.shape[: a.ndim - n] + (-1,))[..., :size]

        self._axes = [(shifted(s), shifted(-s)) for s in steps]
        self._u_band = shifted(0)
        # u at node + (1, 1), (1, -1), (-1, 1) and (-1, -1)
        corners = [shifted(o) for o in (N + 3, N + 1, -N - 1, -N - 3)] if n == 2 else []
        diag = np.empty((n,) + rows)
        # u_xy, then g(x + grad u)
        mixed = np.empty(rows)
        self._diag_in, self._mixed_in = diag[(slice(None),) + inside], mixed[inside]
        self._hessian = _hessian_stencil(self._u_band, self._axes, corners, band(diag),
                                         band(mixed), dx)
        if forcing is not None:
            rhs, coords = np.empty(rows), np.empty((n,) + rows)
            f_vals, nodes = np.zeros(rows), np.zeros((n,) + rows)
            f_vals[inside] = forcing.f_vals
            nodes[(slice(None),) + inside] = forcing.nodes
            self.rhs, self.step = self._bind_step(
                forcing, band(rhs), rhs[inside], band(coords), band(nodes),
                band(mixed), band(f_vals), dx)

    def min_eig(self):
        """Smallest eigenvalue of I + H(u) over the nodes."""
        self._hessian()
        a = self._diag_in[0]
        if self.u.ndim == 1:
            return float(a.min())
        c, b = self._diag_in[1], self._mixed_in
        radius = np.sqrt(0.25 * (a - c) ** 2 + b * b)
        return float((0.5 * (a + c) - radius).min())

    def check_det(self):
        """Raise unless det(I + H(u)) > 0 and finite at every node (_check_det)."""
        _check_det(self._hessian, self._diag_in[0])

    def _bind_step(self, forcing, rhs_band, rhs_in, coords, nodes, g, f, dx):
        """rhs() and step(dt, where, t), closed over the band views.

        rhs() returns log det(I + H(u)) - g(x + grad u) + f, unchecked, as
        the interior of a buffer the next call reuses. step advances u in
        place and returns its interior; where and t name it in an abort.
        """
        multiply, subtract, add, divide, log = (np.multiply, np.subtract, np.add,
                                                np.divide, np.log)
        # nothing here refers back to self, so a stepper is freed as soon
        # as its last reference goes, without waiting for the cycle collector
        hessian, det = self._hessian, self._diag_in[0]
        u, interior, ext, flat = self._u_band, self.u, self.ext, self._flat
        wrap_layer = _wrap_layer(interior.ndim)
        gradient = [(x, x_nodes, fwd, bwd) for x, x_nodes, (fwd, bwd)
                    in zip(coords, nodes, self._axes)]
        dx, two_dx = _constant(dx), _constant(2.0 * dx)
        g_at, evaluations, two_d = forcing.g_at, 0, interior.ndim == 2

        def rhs():
            nonlocal g_at, evaluations
            log(hessian(det=True), rhs_band)
            for x, x_nodes, fwd, bwd in gradient:
                subtract(fwd, bwd, x)
                divide(x, two_dx, x)
                divide(x, dx, x)
                add(x_nodes, x, x)
            evaluations += 1
            if evaluations == 2 and two_d:  # the run's tap cache (class docstring)
                g_at = _SplineTaps(forcing.g_coeffs, g.size)
            g_at(coords, g)
            subtract(rhs_band, g, rhs_band)
            add(rhs_band, f, rhs_band)
            return rhs_in

        def step(dt, where, t):
            if not isfinite(_sum(rhs(), None)):
                _check_det(hessian, det)
            multiply(dt, rhs_band, rhs_band)
            add(u, rhs_band, u)
            for dst, src in wrap_layer:
                ext[dst] = ext[src]
            # the wrapped layer holds copies of u, so ext is finite only if u is
            if not isfinite(_sum(flat, None)) and not np.isfinite(interior).all():
                raise NumericalAbortError(f"non-finite values in parabolic {where}",
                                          {"t": t})
            return interior

        return rhs, step


def parabolic_step(state, f, g, grid=None):
    """One explicit Euler step of the parabolic equation.

    f and g may be DensityFields, expression strings, or sampled arrays.
    For repeated stepping prefer solve_parabolic, which samples and
    prefilters the forcing once. No mass normalization is applied here;
    the raw right-hand side is integrated as given. The step is
    solve_parabolic's, screens included.
    """
    if grid is None:
        grid = TorusGrid(state.u.ndim, state.u.shape[0])
    stepper = _Stepper(_Forcing(grid, f, g, normalize=False), state.u, state.dx)
    with np.errstate(all="ignore"):
        u_next = stepper.step(state.dt, "step", state.t).copy()
        min_eig = stepper.min_eig()
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
    segment shrinks dt as needed). The run always reaches T: when the
    record times (a list or an array) stop short of it, T is recorded
    last, so an empty list records T alone, as None does. By default the
    forcing exponents are normalized to unit e^{-f} grid mean so the flow
    can reach a steady state; pass normalize=False to integrate the raw
    equation. dt must be finite and positive and T finite and nonnegative,
    or no step count reaches T.

    Each step screens its rhs and its new u with one sum each and runs
    the exact test only when a sum is not finite (see _Stepper), under
    one np.errstate for the whole march. A step that loses det(I + H) > 0
    raises NumericalAbortError("det(I + H) lost positivity"), a non-finite
    u "non-finite values in parabolic run" with the step's start time t,
    and a record time with min_eig <= 0 "quasi-convexity lost during run".

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
    times = sorted(float(t) for t in (() if record_times is None else record_times))
    if not all(-tiny <= t <= T + tiny for t in times):  # NaN fails both
        raise ValueError("record times must lie within [0, T]")
    if not times or times[-1] < T - tiny:
        times.append(float(T))

    stepper = _Stepper(_Forcing(grid, f, g, normalize), u, dx)
    out = []
    t = 0.0
    u, step = stepper.u, stepper.step  # u is advanced in place by each step
    with np.errstate(all="ignore"):
        min_eig = stepper.min_eig()
        if not min_eig > 0.0:
            raise NumericalAbortError(
                "initial state is not quasi-convex", {"min_eig": min_eig}
            )
        for target in times:
            while t < target - tiny:
                h = min(dt, target - t)
                step(h, "run", t)
                t += h
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
    The rhs is a fresh stepper's, which calls the spline routine directly,
    as a step's first does; its sup-norm is the screen, so only a non-finite
    residual runs the positivity test, which raises
    NumericalAbortError("det(I + H) lost positivity") as a step does.
    """
    if isinstance(f, str) and isinstance(g, str):
        forcing = _expression_forcing(grid, f, g, normalize)
    else:
        forcing = _Forcing(grid, f, g, normalize)
    u = np.asarray(u, dtype=float).reshape(grid.shape)
    stepper = _Stepper(forcing, u, grid.spacing)
    with np.errstate(all="ignore"):
        residual = float(np.abs(stepper.rhs()).max())
        if not isfinite(residual):
            stepper.check_det()
    return residual


# ---------------------------------------------------------------------------
# exact circle transport
# ---------------------------------------------------------------------------


def _rotation_matching(Pc, Qc, theta, collect=False):
    """Monotone quantile matching of p against q rotated by mass theta.

    Pc and Qc are the cumulative ladders of p and q. The target is lifted
    to the line (atom j recurs at j/k + m for every integer m) and its
    quantile axis shifts by theta; source quantiles [0, 1) then match
    monotonically. Each matched chunk ends at an edge of the merge of the
    source edges with the shifted target edges up to the last source edge
    (ties merge source first), pairs source atom #{source edges < edge}
    with the target edge after #{target edges < edge}, and is priced at
    half its squared line displacement; chunks of mass 1e-18 or less are
    dropped. Two np.searchsorted calls place every edge in the merge, so
    an evaluation takes O(k log k) time in a few array passes;
    tests/oracles.py keeps the two-pointer walk it replaces as the
    reference. Returns the cost and, with collect, {(i, j): mass}.
    """
    k = Pc.size
    m = int(np.floor(-theta))
    j = int(np.searchsorted(Qc, -(m + theta), side="right"))
    if j == k:
        j = 0
        m += 1
    # target edges Qc[j] + m + theta from (j, m) on, up to the last source
    # edge; a third period is needed only when the ladders' totals round apart
    target = np.concatenate((Qc[j:] + m, Qc + (m + 1))) + theta
    if target[-1] <= Pc[-1]:
        target = np.concatenate((target, (Qc + (m + 2)) + theta))
    target = target[: np.searchsorted(target, Pc[-1], side="right")]
    below = np.searchsorted(target, Pc, side="left")  # target edges below each source edge
    upto = np.searchsorted(Pc, target, side="right")  # source edges up to each target edge
    # merge position = source edges before + target edges before
    at_source = np.arange(k) + below
    at_target = np.arange(target.size) + upto
    edges = np.empty(k + target.size)
    edges[at_source], edges[at_target] = Pc, target
    i = np.empty(edges.size, dtype=int)
    i[at_source], i[at_target] = np.arange(k), upto
    take = np.empty_like(edges)
    take[0] = edges[0]
    np.subtract(edges[1:], edges[:-1], out=take[1:])
    keep = np.flatnonzero(take > 1e-18)  # a target edge tied to a source edge ends no chunk
    take, i = take[keep], i[keep]
    t = keep - i + j
    jt, mt = t % k, t // k + m
    d = i / k - (jt / k + mt)
    cost = float(np.sum(take * 0.5 * d * d))
    if not collect:
        return cost, None
    pairs = {}
    for key, mass in zip(zip(i.tolist(), jt.tolist()), take.tolist()):
        pairs[key] = pairs.get(key, 0.0) + mass
    return cost, pairs


def _alignments(Pc, Qc, theta):
    """Breakpoints (Pc[i] - Qc[j]) + shift within 1e-6 of theta, shift in (-1, 0, 1).

    In shift, i, j order. Qc is nondecreasing, so a binary search per i and
    shift finds the j of a window a little wider than the test.
    """
    near = []
    for shift in (-1.0, 0.0, 1.0):
        aim = Pc + shift - theta
        lo = np.searchsorted(Qc, aim - 2e-6, side="left")
        hi = np.searchsorted(Qc, aim + 2e-6, side="right")
        for i in np.flatnonzero(hi > lo):
            cand = (Pc[i] - Qc[lo[i] : hi[i]]) + shift
            near.extend(float(t) for t in cand[np.abs(cand - theta) <= 1e-6])
    return near


def circle_ot_oracle(p, q):
    """Exact transport cost for c = d^2/2 between grid measures on the circle.

    Classical reduction for convex costs: rotating the target's quantile
    axis by theta and matching monotonically on the line gives a cost
    C(theta) whose minimum over theta is exactly the circle optimum. The
    k cyclic cuts only sample k values of theta and can miss the
    minimizer, so this minimizes over the continuum: C is convex and
    piecewise quadratic, golden-section localizes the minimizer, and an
    exact sweep of the nearby alignment breakpoints (differences of the
    two cumulative-mass ladders) settles kinks. Each evaluation of C is a
    vectorized merge in O(k log k), golden section takes 93 of them, and
    the sweep O(k log k) time and O(k) memory plus one evaluation per
    distinct breakpoint it finds. Weights must be finite, nonnegative and
    sum to 1.

    Returns {"cost", "rotation", "pairs"} with pairs as (source index,
    target index, mass) triples on the original grid.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError("p and q must be 1-D weight vectors on a common grid")
    # the matching walks nondecreasing ladders: a negative weight would
    # price an infeasible plan
    _check_weights(p)
    _check_weights(q)
    if abs(p.sum() - 1.0) > 1e-9 or abs(q.sum() - 1.0) > 1e-9:
        raise ValueError("weights must sum to 1")
    Pc, Qc = np.cumsum(p), np.cumsum(q)

    def C(theta):
        return _rotation_matching(Pc, Qc, theta)[0]

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
    # (shifted) target ladder value; evaluate each distinct candidate
    # exactly, once, in first-seen order, so the strict < keeps the first
    for t in dict.fromkeys([0.0] + _alignments(Pc, Qc, theta_best)):
        val = C(t)
        if val < best:
            best = val
            theta_best = t

    _, pair_map = _rotation_matching(Pc, Qc, theta_best, collect=True)
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
