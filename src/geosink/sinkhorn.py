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
manifold only builds its log-kernel matrix. The fast routes (torus FFT or
product, sphere SHT) derive from LinearDomainApplicator, which redoes an
application whose output it cannot trust on a lazily built DenseApplicator.

One step maps u_m to u_{m+1} = u[v_{m+1}] with v_{m+1} = v[u_m]. Because
the u-update runs last, the source marginal of the induced plan is exact
after every full step; the target marginal error is the quantity that
decays along the run, and it is what the stopping rule watches. Energy
bookkeeping uses F(u) = <p, u> + <q, v[u]>, which never increases.

Every softmin_to_* call returns a fresh array that no later call writes
into: run_until keeps three of them across steps and callers keep the
returned potentials. What a backend needs inside an application (the
linear-domain weights, transform spectra, product blocks) lives in
buffers the backend owns and reuses, so one application of a torus fast
route allocates nothing of the support's size except the array it
returns (the sphere route keeps fresh temporaries; see sphere.py).

Iterates are kept raw during the run (the dynamic-in-m comparisons need
unnormalized values); normalization to u[0] = 0 happens at readout,
with the compensating shift applied to v so the plan is untouched.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

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
    "softmin_update",
    "sinkhorn_step",
    "run_until",
    "marginal_errors",
    "rho_density",
    "energy_diagnostics",
    "plan_entry",
    "plan_row",
    "entropic_cost",
    "hilbert_distance",
    "normalized_potentials",
]

STAGNATION_EPS = 1e-15
STAGNATION_RUNS = 5

# the dense (quadratic) route refuses supports with more points than this
DENSE_POINT_CAP = 4096


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


@dataclass
class TraceRecord:
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


def softmin_update(pot, direction, kern):
    """One softmin application, either source-to-target or target-to-source.

    direction "x_to_y" maps a potential on X to v(y) =
    k^-1 log sum_i e^{-k(c(x_i,y)+u(x_i))} p_i; "y_to_x" is symmetric.
    """
    values = pot.values if isinstance(pot, Potential) else np.asarray(pot, float)
    if not np.all(np.isfinite(values)):
        raise ValueError("potential contains non-finite entries")
    if direction == "x_to_y":
        out = kern.softmin_to_target(values)
    elif direction == "y_to_x":
        out = kern.softmin_to_source(values)
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return Potential(out)


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
    number of steps regardless of the error. The returned state records
    the reason under .stop_reason and one TraceRecord per step; its
    cost_warning is False until entropic_cost measures it.

    Each step costs two kernel applications plus one shared with the
    trace bookkeeping: the trailing softmin w = v[u_{m+1}] that measures
    the target-marginal error is exactly the next step's v-update, so it
    is reused. e_row is 0, as the u-update makes the source marginal exact.

    The finiteness of each softmin output is screened through the dot
    product with p or q that the step takes anyway (any NaN or inf entry
    makes it non-finite); only a non-finite screen runs the full check,
    which raises NumericalAbortError naming the stage, m and the count of
    bad entries.
    """
    if m_max is None:
        m_max = m_max_schedule(float(kern.k), A)
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    if state.m >= m_max:
        return state

    u = state.u.values.copy()
    v_cur = state.v.values
    v_next = None
    n_x, n_y = len(kern.p), len(kern.q)
    scratch = np.empty(max(n_x, n_y))
    trace_list = list(state.trace)
    m = state.m
    flat = 0
    reason = "m_max"
    while m < m_max:
        t0 = time.perf_counter()
        m += 1
        if v_next is None:
            v_next = kern.softmin_to_target(u)
            if not np.isfinite(kern.q @ v_next):
                _check_finite(v_next, "v-update", m)
        u_next = kern.softmin_to_source(v_next)
        I_mu = float(kern.p @ u_next)
        if not np.isfinite(I_mu):
            _check_finite(u_next, "u-update", m)
        w = kern.softmin_to_target(u_next)
        qw = float(kern.q @ w)
        if not np.isfinite(qw):
            _check_finite(w, "trace softmin", m)
        # e_col = sum |q (e^{k (w - v_next)} - 1)|, then sup |u_next - u|
        d = np.subtract(w, v_next, out=scratch[:n_y])
        d *= kern.k
        np.expm1(d, out=d)
        d *= kern.q
        e_col = float(np.abs(d, out=d).sum())
        d = np.subtract(u_next, u, out=scratch[:n_x])
        record = TraceRecord(
            m=m,
            F=I_mu + qw,
            I_mu=I_mu,
            e_row=0.0,
            e_col=e_col,
            sup_change=float(np.abs(d, out=d).max()),
            wall_time_ms=(time.perf_counter() - t0) * 1e3,
        )
        trace_list.append(record)
        v_cur = v_next
        u, v_next = u_next, w
        if tol is not None and record.e_col <= tol:
            reason = "tol"
            break
        flat = flat + 1 if record.sup_change < STAGNATION_EPS else 0
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
    values = u.values if isinstance(u, Potential) else np.asarray(u, float)
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
    values = u.values if isinstance(u, Potential) else np.asarray(u, float)
    v = kern.softmin_to_target(values)
    I_mu = float(kern.p @ values)
    L_nu = -float(kern.q @ v)
    uc = _c_transform_from_rows(values, kern, len(kern.q))
    J = I_mu + float(kern.q @ uc)
    return {"F": I_mu - L_nu, "I_mu": I_mu, "L_nu": L_nu, "J": J}


def plan_entry(state, i, j, kern):
    """One plan entry gamma_ij = e^{-k(c_ij + u_i + v_j)} p_i q_j."""
    c_ij = kern.cost_row(i)[j]
    expo = -state.k * (c_ij + state.u.values[i] + state.v.values[j])
    return float(np.exp(expo) * kern.p[i] * kern.q[j])


def plan_row(state, kern, i):
    """Row i of the plan, shape (N_target,)."""
    expo = -state.k * (kern.cost_row(i) + state.u.values[i] + state.v.values)
    return np.exp(expo) * kern.p[i] * kern.q


def entropic_cost(state, kern, errors=None):
    """Duality closed form -(<p,u> + <q,v>) of the regularized cost.

    Valid at (approximate) fixed points. errors is the state's (e_row,
    e_col) when already measured, as run_until's last TraceRecord holds
    them; None measures them with marginal_errors. The state's cost_warning
    flag says whether either exceeds 1e-6, when the value is indicative only.
    """
    e_row, e_col = marginal_errors(state, kern) if errors is None else errors
    state.cost_warning = bool(max(e_row, e_col) > 1e-6)
    return -(float(kern.p @ state.u.values) + float(kern.q @ state.v.values))


def hilbert_distance(u1, u2):
    """Oscillation of the difference: sup(u1-u2) - inf(u1-u2).

    Zero exactly when the two potentials differ by a constant, which is
    the right notion of distance for objects defined modulo R.
    """
    a = u1.values if isinstance(u1, Potential) else np.asarray(u1, float)
    b = u2.values if isinstance(u2, Potential) else np.asarray(u2, float)
    if a.shape != b.shape:
        raise ValueError("potentials live on different supports")
    d = a - b
    return float(d.max() - d.min())


def normalized_potentials(state):
    """(u, v) shifted so u[0] = 0, with the plan left invariant."""
    shift = state.u.values[0]
    return state.u.values - shift, state.v.values + shift


class DenseApplicator:
    """Exact log-domain backend: the one dense softmin of the package.

    Holds the log-kernel matrix log K[i, j] = -k c(x_i, y_j) and reduces
    it in contiguous row blocks with the max-shifted log-sum-exp, the
    stabilised form of Peyre & Cuturi (arXiv:1803.00567, sec. 4.4), so an
    application needs O(block * N) memory beyond the matrix. It costs
    O(N^2) per application and refuses supports past DENSE_POINT_CAP
    points before allocating anything. It is the reference the fast
    routes are certified against and the route they fall back to.
    """

    def __init__(self, k, p, q, cost):
        cost = np.asarray(cost, dtype=float)
        if not np.all(np.isfinite(cost)):
            raise ValueError("cost matrix must be finite")
        self._load(k, p, q, lambda: -float(k) * cost, symmetric=False)

    @classmethod
    def from_log_kernel(cls, k, p, q, log_kernel, symmetric=False):
        """Applicator over the matrix log_kernel() returns, built only under the cap.

        log_kernel() gives log K[i, j] between source i and target j; -inf
        marks a vanishing kernel entry. With symmetric=True the kernel
        lives on one node set and the one matrix serves both directions,
        row r holding the kernel against every input for output r, which
        is how a convolution applies it.
        """
        app = cls.__new__(cls)
        app._load(k, p, q, log_kernel, symmetric)
        return app

    def _load(self, k, p, q, log_kernel, symmetric):
        self.k = float(k)
        self.p = np.asarray(p, dtype=float)
        self.q = np.asarray(q, dtype=float)
        self.log_p, self.log_q = np.log(self.p), np.log(self.q)
        points = max(self.p.size, self.q.size)
        if points > DENSE_POINT_CAP:
            raise ValueError(
                f"the dense route is quadratic; {points} points exceeds the "
                f"{DENSE_POINT_CAP} point cap"
            )
        log_K = log_kernel()
        if log_K.shape != (self.p.size, self.q.size):
            raise ValueError("cost matrix shape must be (len(p), len(q))")
        self._to_source = log_K
        self._to_target = log_K if symmetric else np.ascontiguousarray(log_K.T)

    @property
    def size(self):
        return self.p.size

    def _softmin(self, rows, values, log_weights):
        s = -self.k * np.asarray(values, dtype=float) + log_weights
        n_out, n_in = rows.shape
        out = np.empty(n_out)
        block = max(1, min(n_out, (1 << 22) // n_in))
        for start in range(0, n_out, block):
            out[start : start + block] = logsumexp(rows[start : start + block] + s, axis=1)
        return out / self.k

    def softmin_to_target(self, u):
        return self._softmin(self._to_target, u, self.log_p)

    def softmin_to_source(self, v):
        return self._softmin(self._to_source, v, self.log_q)

    def cost_row(self, i):
        return -self._to_source[i] / self.k

    def describe(self):
        return {
            "manifold": "generic",
            "backend": "dense",
            "k": self.k,
            "points": int(self.p.size),
        }


class LinearDomainApplicator:
    """Core of the fast routes (torus product and FFT, sphere SHT).

    Subclasses set mode and supply _linear_apply(w), the kernel on a
    positive vector (it may return a buffer it owns and overwrites on the
    next call), and _build_dense, the same kernel as a DenseApplicator. An
    application shifts by the minimum of the potential, so the largest
    scaled weight is exactly 1 (a NaN or -inf entry makes that minimum
    non-finite and raises ValueError), forms the weights (_weights, in a
    scratch vector of the applicator), applies the kernel in the linear
    domain and takes the log back (_log_back, into the one fresh array the
    application returns), but only when the output's minimum exceeds the
    route's _floor (NaN never does): this is the one trust check of the
    fast routes. The floor is 0, or k * tiny /
    torus.SUBNORMAL_REL_ERROR on the exact 1-D torus product (see there).
    An untrusted application is redone on the dense route, built on first
    use and counted in .fallbacks; past DENSE_POINT_CAP points, where that
    route is quadratic, the run aborts instead. mode "direct" always takes
    it.
    """

    fallbacks = 0
    _dense = None
    _floor = 0.0
    _scratch = None

    def __init__(self, k, p, q):
        self.k = float(k)
        self.p = np.asarray(p, dtype=float)
        self.q = np.asarray(q, dtype=float)
        self.log_p = np.log(self.p)
        self.log_q = np.log(self.q)

    @property
    def size(self):
        return self.p.size

    def _softmin(self, values, log_weights, to_target):
        values = np.asarray(values, dtype=float)
        if self.mode != "direct":
            shift = values.min()
            if not np.isfinite(shift):  # a NaN or -inf entry, or every entry +inf
                raise ValueError("potential contains non-finite entries")
            out = self._linear_apply(self._weights(values, shift, log_weights))
            if out.min() > self._floor:
                return self._log_back(out, shift)
            if self.size > DENSE_POINT_CAP:
                raise NumericalAbortError(
                    f"linear-domain kernel application underflowed double "
                    f"precision on {self.size} points, and the exact "
                    f"log-domain fallback is capped at "
                    f"DENSE_POINT_CAP={DENSE_POINT_CAP} points",
                    {"stage": "linear-domain apply", "points": self.size,
                     "dense_point_cap": DENSE_POINT_CAP,
                     "fallbacks": self.fallbacks},
                )
            self.fallbacks += 1
        if self._dense is None:
            self._dense = self._build_dense()
        if to_target:
            return self._dense.softmin_to_target(values)
        return self._dense.softmin_to_source(values)

    def _weights(self, values, shift, log_weights):
        """exp(-k (values - shift) + log_weights), formed in the scratch vector."""
        if self._scratch is None:
            self._scratch = np.empty(max(self.p.size, self.q.size))
        w = np.subtract(values, shift, out=self._scratch[: values.size])
        w *= -self.k
        w += log_weights
        return np.exp(w, out=w)

    def _log_back(self, out, shift):
        """log(out) / k - shift, in the one fresh array the application returns."""
        out = np.log(out)
        out /= self.k
        out -= shift
        return out

    def softmin_to_target(self, u):
        """v(y_j) = log(sum_i exp(-k(c_ij + u_i)) p_i) / k."""
        return self._softmin(u, self.log_p, True)

    def softmin_to_source(self, v):
        """u(x_i) = log(sum_j exp(-k(c_ij + v_j)) q_j) / k."""
        return self._softmin(v, self.log_q, False)
