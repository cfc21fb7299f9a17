"""The k-scaled Sinkhorn iteration on potentials, generic over kernel backends.

Everything here works on a pair of potential vectors (u on the source
support, v on the target support) through a backend object that knows how
to apply the kernel. The backend contract is structural; any object with

    k, p, q, log_p, log_q          (floats / weight vectors / their logs)
    softmin_to_target(u) -> v      k^-1 log sum_i e^{-k(c_ij + u_i)} p_i
    softmin_to_source(v) -> u      k^-1 log sum_j e^{-k(c_ij + v_j)} q_j
    cost_row(i) -> c(x_i, .)
    describe() -> dict

works. DenseApplicator below is the one exact log-domain backend; each
manifold only builds its kernel rows (a matrix, or a grid's table windows).
A fast route (torus FFT or product, sphere SHT) is a LinearDomainApplicator:
that exact route plus a linear-domain shortcut. No route takes a potential
of NaN or infinite minimum.

One step maps u_m to u_{m+1} = u[v_{m+1}] with v_{m+1} = v[u_m]. Because
the u-update runs last, the source marginal of the induced plan is exact
after every full step; the target marginal error is the quantity that
decays along the run, and it is what the stopping rule watches. Energy
bookkeeping uses F(u) = <p, u> + <q, v[u]>, which never increases.

Every softmin_to_* call returns a fresh array that no later call writes
into: run_until keeps three of them across steps and callers keep the
returned potentials. A fast route binds its softmin pair once, at
construction: two closures over k, the log weights, the route's kernel
and the buffers it owns and reuses (the linear-domain weights, transform
spectra, product blocks), which become the route's own softmin_to_target
and softmin_to_source attributes. So one application is its numpy calls
plus a few Python frames, and on the torus it allocates nothing of the
support's size except the array it returns.
The sphere's pair keeps fresh temporaries, which a test of its timing
slope depends on (see sphere.py). run_until binds its step the same way,
once per call: the pair, the weights, k and the ufuncs it calls.

Iterates are kept raw during the run (the dynamic-in-m comparisons need
unnormalized values); normalization to u[0] = 0 happens at readout,
with the compensating shift applied to v so the plan is untouched.
"""

from __future__ import annotations

import math
import time
import weakref
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NumericalAbortError",
    "Potential",
    "TraceRecord",
    "SinkhornState",
    "DENSE_POINT_CAP",
    "kernel_heat_time",
    "DenseApplicator",
    "LinearDomainApplicator",
    "m_max_schedule",
    "initial_state",
    "sinkhorn_step",
    "run_until",
    "marginal_errors",
    "rho_density",
    "energy_diagnostics",
    "plan_row",
    "entropic_cost",
    "hilbert_distance",
    "normalized_potentials",
]

STAGNATION_EPS = 1e-15
STAGNATION_RUNS = 5

# the dense (quadratic) route refuses supports with more points than this
DENSE_POINT_CAP = 4096

_NON_FINITE = "potential contains non-finite entries"


def kernel_heat_time(kind, k, t):
    """Heat time of a kernel spec: t, or 2/k if None; kinds other than heat take no t."""
    if kind != "heat":
        if t is not None:
            raise ValueError(f"t applies to the heat kernel only, not to {kind!r}")
        return None
    t = 2.0 / k if t is None else t
    if not 0.0 < t < np.inf:
        raise ValueError(f"heat time t must be finite and positive, got t={t}")
    return t


class NumericalAbortError(RuntimeError):
    """Iteration produced a non-finite value; carries a diagnostic dict."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass
class Potential:
    """A potential vector on a support."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)


def _values(pot):
    """The float values of a Potential or of an array-like."""
    return pot.values if isinstance(pot, Potential) else np.asarray(pot, float)


@dataclass(slots=True)
class TraceRecord:
    """One run_until step; slotted, as a long run keeps one per step."""

    m: int
    F: float
    I_mu: float
    e_row: float
    e_col: float
    sup_change: float
    wall_time_ms: float


@dataclass
class SinkhornState:
    k: float
    m: int
    u: Potential
    v: Potential
    trace: list = field(default_factory=list)
    stop_reason: str | None = None
    cost_warning: bool = False


def initial_state(kern, u0=None):
    """Fresh state at m = 0; u0 defaults to zero (the standard start)."""
    n_x, n_y = len(kern.p), len(kern.q)
    u = np.zeros(n_x) if u0 is None else np.asarray(u0, dtype=float).copy()
    if u.shape != (n_x,):
        raise ValueError(f"u0 must have shape ({n_x},)")
    if not np.all(np.isfinite(u)):
        raise ValueError("u0 must be finite")
    return SinkhornState(
        k=float(kern.k),
        m=0,
        u=Potential(u),
        v=Potential(np.zeros(n_y)),
    )


def _check_finite(arr, stage, m):
    if not np.all(np.isfinite(arr)):
        bad = int(np.count_nonzero(~np.isfinite(arr)))
        raise NumericalAbortError(
            f"non-finite values after {stage} at iteration {m}",
            {"stage": stage, "m": m, "bad_entries": bad},
        )


def m_max_schedule(k, A=2.0):
    """Default step cap max(1, ceil(A k ln max(k, 2))), for a finite A > 0."""
    if not 0.0 < A < np.inf:  # also refuses NaN
        raise ValueError(f"schedule constant A must be finite and > 0, got {A}")
    return max(1, int(np.ceil(A * k * np.log(max(k, 2)))))


def sinkhorn_step(state, kern):
    """Advance one full step: v_{m+1} = v[u_m], then u_{m+1} = u[v_{m+1}]."""
    return run_until(state, kern, tol=None, m_max=state.m + 1)


def run_until(state, kern, tol, A=2.0, m_max=None):
    """Iterate until the target-marginal L1 error drops to tol.

    Stops at the first step with error <= tol, at m_max (default
    m_max_schedule(k, A)), or when the sup-change stays below 1e-15 for
    five consecutive steps ("stagnated"). Pass tol=None to run a fixed
    number of steps regardless of the error. A NaN tol, or an m_max that is
    not an integer >= 1, raises ValueError. The returned state records the
    reason under .stop_reason and one TraceRecord per step, the last of
    which entropic_cost reads as the state's marginal errors; its
    cost_warning is False until entropic_cost sets it.

    Each step costs two kernel applications plus one shared with the
    trace bookkeeping: the trailing softmin w = v[u_{m+1}] that measures
    the target-marginal error is exactly the next step's v-update, so it
    is reused. Step m + 1 maps (u, v) = (u_m, v[u_m]) to u' = u[v] and
    w = v[u'], and records F = <p, u'> + <q, w>, I_mu = <p, u'>, e_row = 0
    (the u-update makes the source marginal exact),
    e_col = sum_j |q_j expm1(k (w_j - v_j))|, summed as np.add.reduce
    does, and sup_change = max_i |u'_i - u_i|.

    The finiteness of each softmin output is screened through the dot
    product with p or q that the step takes anyway (any NaN or inf entry
    makes it non-finite); only a non-finite screen runs the full check,
    which raises NumericalAbortError naming the stage, m and the count of
    bad entries. The loop binds the backend's softmin pair, p and q, k as
    a 0-d array and the ufuncs it calls once, before the first step, and
    computes e_col and sup_change in one scratch vector.
    """
    if m_max is None:
        m_max = m_max_schedule(float(kern.k), A)
    elif not _is_integer(m_max) or m_max < 1:
        raise ValueError(f"m_max must be None or an integer >= 1, got {m_max!r}")
    if tol is not None and np.isnan(tol):
        raise ValueError("tol must not be NaN")
    if state.m >= m_max:
        return state

    to_target, to_source = kern.softmin_to_target, kern.softmin_to_source
    p, q, k = kern.p, kern.q, np.array(kern.k, dtype=float)
    p_dot, q_dot = p.dot, q.dot
    scratch = np.empty(max(len(p), len(q)))
    d_x, d_y = scratch[: len(p)], scratch[: len(q)]
    subtract, multiply, expm1, absolute = np.subtract, np.multiply, np.expm1, np.absolute
    add_reduce, max_reduce = np.add.reduce, np.maximum.reduce
    isfinite, clock = math.isfinite, time.perf_counter
    trace_list = list(state.trace)
    append = trace_list.append
    m = state.m
    u = state.u.values
    flat = 0
    reason = "m_max"
    t0 = clock()
    v_next = to_target(u)
    if not isfinite(q_dot(v_next)):
        _check_finite(v_next, "v-update", m + 1)
    while m < m_max:
        m += 1
        u_next = to_source(v_next)
        I_mu = float(p_dot(u_next))
        if not isfinite(I_mu):
            _check_finite(u_next, "u-update", m)
        subtract(u_next, u, d_x)
        sup_change = float(max_reduce(absolute(d_x, d_x)))
        # the pair this step returns; the previous pair is freed before w
        u, v_cur = u_next, v_next
        w = to_target(u)
        qw = float(q_dot(w))
        if not isfinite(qw):
            _check_finite(w, "trace softmin", m)
        subtract(w, v_cur, d_y)
        multiply(d_y, k, d_y)
        expm1(d_y, d_y)
        multiply(d_y, q, d_y)
        e_col = float(add_reduce(absolute(d_y, d_y)))
        t1 = clock()
        append(TraceRecord(m, I_mu + qw, I_mu, 0.0, e_col, sup_change, (t1 - t0) * 1e3))
        t0 = t1
        v_next = w
        if tol is not None and e_col <= tol:
            reason = "tol"
            break
        flat = flat + 1 if sup_change < STAGNATION_EPS else 0
        if flat >= STAGNATION_RUNS:
            reason = "stagnated"
            break

    return SinkhornState(
        k=state.k,
        m=m,
        u=Potential(u),
        v=Potential(v_cur),
        trace=trace_list,
        stop_reason=reason,
    )


def marginal_errors(state, kern):
    """L1 distances of the plan marginals from (p, q), via two softmins.

    Never materializes the plan: the row sums of e^{-k(u+c+v)} p q^T are
    p_i e^{k(u[v]_i - u_i)} and symmetrically for columns.
    """
    u, v = state.u.values, state.v.values
    u_star = kern.softmin_to_source(v)
    v_star = kern.softmin_to_target(u)
    e_row = float(np.abs(kern.p * np.expm1(kern.k * (u_star - u))).sum())
    e_col = float(np.abs(kern.q * np.expm1(kern.k * (v_star - v))).sum())
    return e_row, e_col


def rho_density(u, kern):
    """Density of the once-iterated measure against mu: rho = e^{k(S(u)-u)}.

    S(u) = u[v[u]] is the one-step map. The weighted sum <p, rho> is 1 up
    to rounding because the inner v-update makes the target marginal
    exact.
    """
    values = _values(u)
    su = kern.softmin_to_source(kern.softmin_to_target(values))
    return np.exp(kern.k * (su - values))


def _c_transform_from_rows(u_values, kern, n_target):
    """Exact c-transform u^c(y) = max_i (-c(x_i, y) - u_i) by row sweeps."""
    out = np.full(n_target, -np.inf)
    for i in range(len(u_values)):
        np.maximum(out, -kern.cost_row(i) - u_values[i], out=out)
    return out


def energy_diagnostics(u, kern):
    """Energy record {F, I_mu, L_nu, J} at a potential u on the source.

    F = I_mu - L_nu with I_mu = <p, u> and L_nu = -<q, v[u]>; J replaces
    the softmin by the exact c-transform. The softmin never exceeds the
    exact maximum, so F <= J always, with equality in the k -> infinity
    limit. J costs a full O(N^2) sweep over cost rows; the others are
    single kernel applications.
    """
    values = _values(u)
    v = kern.softmin_to_target(values)
    I_mu = float(kern.p @ values)
    L_nu = -float(kern.q @ v)
    uc = _c_transform_from_rows(values, kern, len(kern.q))
    J = I_mu + float(kern.q @ uc)
    return {"F": I_mu - L_nu, "I_mu": I_mu, "L_nu": L_nu, "J": J}


def plan_row(state, kern, i):
    """Row i of the plan, shape (N_target,)."""
    expo = -state.k * (kern.cost_row(i) + state.u.values[i] + state.v.values)
    return np.exp(expo) * kern.p[i] * kern.q


def entropic_cost(state, kern):
    """Duality closed form -(<p,u> + <q,v>) of the regularized cost.

    Valid at (approximate) fixed points. The state's cost_warning flag says
    whether either marginal error exceeds 1e-6, when the value is indicative
    only. When the state's last TraceRecord is of its own step m, as for
    every state run_until or sinkhorn_step returns, the errors are read from
    it, bit for bit what marginal_errors measures there, with no kernel
    application; any other state is measured with marginal_errors.
    """
    if state.trace and state.trace[-1].m == state.m:
        last = state.trace[-1]
        e_row, e_col = last.e_row, last.e_col
    else:
        e_row, e_col = marginal_errors(state, kern)
    state.cost_warning = bool(max(e_row, e_col) > 1e-6)
    return -(float(kern.p @ state.u.values) + float(kern.q @ state.v.values))


def hilbert_distance(u1, u2):
    """Oscillation of the difference: sup(u1-u2) - inf(u1-u2).

    Zero exactly when the two potentials differ by a constant, which is
    the right notion of distance for objects defined modulo R.
    """
    a, b = _values(u1), _values(u2)
    if a.shape != b.shape:
        raise ValueError("potentials live on different supports")
    d = a - b
    return float(d.max() - d.min())


def normalized_potentials(state):
    """(u, v) shifted so u[0] = 0, with the plan left invariant."""
    shift = state.u.values[0]
    return state.u.values - shift, state.v.values + shift


def _is_integer(value):
    """Whether value is a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_dense_cap(points):
    """Refuse a dense route over more than DENSE_POINT_CAP points, before it allocates."""
    if points > DENSE_POINT_CAP:
        raise ValueError(f"the dense route is quadratic; {points} points exceeds the "
                         f"{DENSE_POINT_CAP} point cap")


def _check_weights(weights, name="weights"):
    """Refuse a weight array with a negative, NaN or infinite entry, naming it."""
    if not np.all((weights >= 0.0) & (weights < np.inf)):  # NaN fails both
        raise ValueError(f"{name} must be finite and nonnegative")


def _finite_min(values):
    """values as floats and their minimum, refused unless that minimum is finite."""
    values = np.asarray(values, dtype=float)
    shift = values.min()
    if not np.isfinite(shift):  # a NaN or -inf entry, or every entry +inf
        raise ValueError(_NON_FINITE)
    return values, shift


class DenseApplicator:
    """Exact log-domain backend: the one dense softmin of the package.

    Reduces kernel rows log K = -k c, shaped (*out_shape, *in_shape), in
    blocks with the max-shifted log-sum-exp of Peyre & Cuturi
    (arXiv:1803.00567, sec. 4.4): O(N^2) per application, O(block * N)
    memory beyond the rows. Between point clouds they are the M x N matrix,
    refused past DENSE_POINT_CAP points before it is allocated; a grid's
    are zero-copy windows of one table, uncapped, serving both directions.
    It is the reference the fast routes are certified against, and each
    fast route is one of these whose rows wait for their first exact use.
    The input rule of every route, checked once by _setup, raises ValueError naming
    what fails: k finite and > 0; source weights p and target weights q 1-D, one per
    support point, finite, nonnegative and of positive total mass; a log-kernel
    matrix free of NaN and +inf (-inf is a vanishing kernel); and, at each
    application, a potential of finite minimum (+inf entries above it drop out).
    """

    def __init__(self, k, p, q, cost):
        cost = np.asarray(cost, dtype=float)
        if cost.ndim != 2 or not np.all(np.isfinite(cost)):
            raise ValueError("cost matrix must be 2-D and finite")
        _check_dense_cap(max(cost.shape))
        self._setup(k, p, q, lambda: -self.k * cost, cost.shape)
        self._build_dense()

    @classmethod
    def from_log_kernel(cls, k, p, q, log_kernel):
        """Applicator over the matrix log_kernel() returns, built only under the cap.

        Entry [i, j] is log K between source i and target j, -inf where K vanishes.
        """
        _check_dense_cap(max(np.size(p), np.size(q)))
        rows = np.asarray(log_kernel(), dtype=float)
        if rows.ndim != 2 or not np.all(rows < np.inf):  # NaN fails too
            raise ValueError("log kernel must be a 2-D matrix with no NaN or +inf entry")
        app = cls.__new__(cls)
        app._setup(k, p, q, lambda: rows, rows.shape)
        app._build_dense()
        return app

    def _setup(self, k, p, q, log_kernel, shape, symmetric=False):
        """Check and keep k, the weights and the builder; symmetric rows serve both ways."""
        if not 0.0 < k < np.inf:  # also refuses NaN
            raise ValueError(f"k must be finite and > 0, got k={k!r}")
        p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
        for side, w, n in (("source", p, shape[0]), ("target", q, shape[1])):
            if w.shape != (n,):
                raise ValueError(f"{side} weights must have shape ({n},), got {w.shape}")
            _check_weights(w, f"{side} weights")
            if not w.sum() > 0.0:
                raise ValueError(f"{side} weights must have positive total mass")
        self.k, self.p, self.q = float(k), p, q
        with np.errstate(divide="ignore"):  # a zero weight's log is the intended -inf
            self.log_p, self.log_q = np.log(self.p), np.log(self.q)
        self._log_kernel, self._symmetric = log_kernel, symmetric

    def _build_dense(self):
        """Build the rows, then drop the builder; a matrix's transpose serves the targets."""
        rows = self._log_kernel()
        self._to_source = rows
        self._to_target = rows if self._symmetric else np.ascontiguousarray(rows.T)
        self._log_kernel = None

    @property
    def size(self):
        return self.p.size

    def _softmin(self, values, log_weights, to_target):
        """The exact log-sum-exp over the rows of one direction.

        A block, along the first output axis of which one index fits 2^22
        entries, fills one reused buffer with its rows plus the shifted log
        weights. Each row's largest term is taken out, the rest shifted by
        it, exponentiated and summed; the row's value is log1p(sum) plus
        that term, the arithmetic of scipy.special.logsumexp (bitwise unless
        the maximum is tied). A row whose maximum is -inf gives -inf.
        """
        if self._log_kernel is not None:
            self._build_dense()
        rows = self._to_target if to_target else self._to_source
        out_shape = rows.shape[: rows.ndim // 2]
        s = (-self.k * values + log_weights).reshape(rows.shape[len(out_shape) :])
        sizes = [math.prod(rows.shape[a + 1 :]) for a in range(len(out_shape))]
        d = next((a for a, size in enumerate(sizes) if size <= 1 << 22), len(sizes) - 1)
        block = max(1, min(out_shape[d], (1 << 22) // sizes[d]))
        buf, out, start = np.empty(block * sizes[d]), np.empty(math.prod(out_shape)), 0
        for outer in np.ndindex(out_shape[:d]):
            for first in range(0, out_shape[d], block):
                terms = rows[outer + (slice(first, first + block),)]
                terms = np.add(terms, s, out=buf[: terms.size].reshape(terms.shape))
                terms = terms.reshape(-1, s.size)
                r = np.arange(len(terms))
                top = terms.argmax(axis=1)
                peak = terms[r, top]
                terms[r, top] = -np.inf
                terms -= np.where(peak == -np.inf, 0.0, peak)[:, None]
                # exp is exactly 0 below -746, and several times faster from -inf
                np.copyto(terms, -np.inf, where=terms < -746.0)
                np.exp(terms, out=terms)
                out[start : start + len(terms)] = np.log1p(terms.sum(axis=1)) + peak
                start += len(terms)
        out /= self.k
        return out

    def softmin_to_target(self, u):
        """v(y_j) = log(sum_i exp(-k(c_ij + u_i)) p_i) / k."""
        return self._softmin(_finite_min(u)[0], self.log_p, True)

    def softmin_to_source(self, v):
        """u(x_i) = log(sum_j exp(-k(c_ij + v_j)) q_j) / k."""
        return self._softmin(_finite_min(v)[0], self.log_q, False)

    def cost_row(self, i):
        if self._log_kernel is not None:
            self._build_dense()
        rows = self._to_source
        return -rows[np.unravel_index(i, rows.shape[: rows.ndim // 2])].ravel() / self.k

    def describe(self):
        return {
            "manifold": "generic",
            "backend": "dense",
            "k": self.k,
            "points": int(self.p.size),
        }


class LinearDomainApplicator(DenseApplicator):
    """A fast route: its own exact route plus a linear-domain shortcut.

    Subclasses pass _setup (DenseApplicator's input rule) the builder of their
    exact route's rows, set _linear_apply to their kernel on a positive vector
    (it may return a buffer it owns and overwrites on the next call) and call _bind_pair
    with the buffer the weights are formed in. That binds the softmin pair
    once, as two closures over k and -k as 0-d arrays, the log weights,
    the buffer, the kernel and the ufuncs they call, assigned as the
    instance's own softmin_to_target and softmin_to_source: an
    application is its numpy calls in one Python frame plus the kernel's
    own. An application takes the potential's minimum, refused unless
    finite, and shifts by it, so the largest scaled weight is exactly 1; forms
    exp(-k (values - shift) + log_weights) in the buffer, applies the
    kernel and takes the log back, log(out) / k - shift, into the one
    fresh array it returns; but only when the output's minimum exceeds
    the route's _floor (NaN never does): the one trust check of the fast
    routes. The floor is 0, or k * tiny / torus.SUBNORMAL_REL_ERROR on the
    exact 1-D torus product. DenseApplicator._softmin redoes an untrusted
    application, counted in .fallbacks; past DENSE_POINT_CAP points,
    where a redo of the whole vector costs N^2 terms per application, the
    run aborts with NumericalAbortError instead. The exact route itself has
    no cap: mode="direct" (SphereDenseApplicator on the sphere, --backend
    direct in the CLI) runs it at any size. cost_row reads
    the exact rows: a linear-domain apply rounds away the kernel's tail.
    The closures reach the applicator only through a weak proxy, for that
    redo, so binding makes no reference cycle; the redo calls the route's own
    methods, so a _build_dense patched on the instance still applies. So
    a caller that keeps only the pair must keep the applicator too: a redo
    after the applicator is gone raises ReferenceError.
    """

    fallbacks = 0
    _floor = 0.0

    def _bind_pair(self, w):
        """Assign the pair's two closures to the instance, forming the weights in w.

        w is a vector of len(p) == len(q) floats that both directions share.
        Until this runs (mode="direct" never runs it) the pair is
        DenseApplicator's.
        """
        self.softmin_to_target = self._bound_softmin(self.log_p, True, w)
        self.softmin_to_source = self._bound_softmin(self.log_q, False, w)

    def _bound_softmin(self, log_weights, to_target, w):
        """One direction of the pair as a closure (see the class docstring)."""
        kernel, floor, route = self._linear_apply, self._floor, weakref.proxy(self)
        neg_k, k, shift = np.array(-self.k), np.array(self.k), np.empty(())
        asarray, minimum, isfinite = np.asarray, np.minimum.reduce, math.isfinite
        subtract, multiply, add, exp, log, divide = (np.subtract, np.multiply, np.add,
                                                     np.exp, np.log, np.divide)

        def softmin(values):
            values = asarray(values, dtype=float)
            minimum(values, out=shift)
            if not isfinite(shift):  # a NaN or -inf entry, or every entry +inf
                raise ValueError(_NON_FINITE)
            subtract(values, shift, w)
            multiply(w, neg_k, w)
            add(w, log_weights, w)
            out = kernel(exp(w, w))
            if minimum(out) > floor:
                out = log(out)
                divide(out, k, out)
                return subtract(out, shift, out)
            return route._redo(values, log_weights, to_target)

        return softmin

    def _redo(self, values, log_weights, to_target):
        """An untrusted application: the exact route, or an abort past the cap."""
        if self.size > DENSE_POINT_CAP:
            raise NumericalAbortError(
                f"linear-domain kernel application underflowed double precision on "
                f"{self.size} points; past DENSE_POINT_CAP={DENSE_POINT_CAP} points a fast "
                f"route refuses to redo it on the exact route (N^2 terms per application); "
                f"mode=\"direct\" or SphereDenseApplicator (--backend direct) runs the "
                f"exact route, uncapped",
                {"stage": "linear-domain apply", "points": self.size,
                 "dense_point_cap": DENSE_POINT_CAP, "fallbacks": self.fallbacks})
        self.fallbacks += 1
        return DenseApplicator._softmin(self, values, log_weights, to_target)
