"""Independent reference computations for the test suite.

Every function here reaches an expected value through a route the
library does not use: extended-precision arithmetic (mpmath), linear
programming (HiGHS), spectral series, closed forms, or brute
enumeration. Tests compare library output against these; nothing in
this module imports the package under test.
"""

import mpmath
import numpy as np
from numpy.polynomial import legendre as npleg
from scipy.optimize import linprog
from scipy.special import erf, lpmv


def mp_scaling_potentials(cost, p, q, k=1.0, tol=1e-30, max_iter=200000, dps=50):
    """Sinkhorn fixed point of a small instance at dps-digit precision.

    Plain alternating scaling on the kernel matrix K = e^{-k c} in the
    weighted form a_i = 1 / (K (b q))_i, b_j = 1 / (K^T (a p))_j, run
    until the row marginal matches p to tol. Returns float potentials
    (u, v) = (-log a / k, -log b / k) shifted so u[0] = 0, which is the
    normalization the library reports.
    """
    cost = np.asarray(cost, dtype=float)
    n, m = cost.shape
    with mpmath.workdps(dps):
        K = [[mpmath.e ** (-k * cost[i, j]) for j in range(m)] for i in range(n)]
        pw = [mpmath.mpf(float(w)) for w in p]
        qw = [mpmath.mpf(float(w)) for w in q]
        a = [mpmath.mpf(1)] * n
        b = [mpmath.mpf(1)] * m
        for _ in range(max_iter):
            b = [1 / sum(K[i][j] * a[i] * pw[i] for i in range(n)) for j in range(m)]
            a = [1 / sum(K[i][j] * b[j] * qw[j] for j in range(m)) for i in range(n)]
            # the a-update just enforced the row marginal, so convergence
            # must be judged on the column marginal it disturbed
            err = max(
                abs(b[j] * sum(K[i][j] * a[i] * pw[i] for i in range(n)) - 1)
                for j in range(m)
            )
            if err <= tol:
                break
        u = [-mpmath.log(ai) / k for ai in a]
        v = [-mpmath.log(bj) / k for bj in b]
        shift = u[0]
        u = np.array([float(ui - shift) for ui in u])
        v = np.array([float(vj + shift) for vj in v])
    return u, v


def lp_transport_cost(cost, p, q):
    """Exact unregularized transport cost by linear programming.

    Equality-constrained LP over the n*m plan entries, solved with
    HiGHS. The last column constraint is dropped (redundant given the
    rest plus the mass balance), which keeps the system full rank.
    """
    cost = np.asarray(cost, dtype=float)
    n, m = cost.shape
    rows = []
    rhs = []
    for i in range(n):
        row = np.zeros(n * m)
        row[i * m : (i + 1) * m] = 1.0
        rows.append(row)
        rhs.append(p[i])
    for j in range(m - 1):
        row = np.zeros(n * m)
        row[j::m] = 1.0
        rows.append(row)
        rhs.append(q[j])
    res = linprog(
        cost.ravel(),
        A_eq=np.array(rows),
        b_eq=np.array(rhs),
        bounds=(0.0, None),
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"LP failed: {res.message}")
    return float(res.fun)


def heat_spectral_sum(delta, t, terms=60, dps=40):
    """Periodized 1-D heat kernel by its Fourier series at high precision.

    Sum over |j| <= terms of e^{-4 pi^2 j^2 t} e^{2 pi i j delta}; the
    real cosine form. Poisson summation says this equals the Gaussian
    image sum, which is the route the library takes.
    """
    with mpmath.workdps(dps):
        d = mpmath.mpf(float(delta))
        tt = mpmath.mpf(float(t))
        total = mpmath.mpf(1)
        for j in range(1, terms + 1):
            total += 2 * mpmath.e ** (-4 * mpmath.pi**2 * j * j * tt) * mpmath.cos(
                2 * mpmath.pi * j * d
            )
        return float(total)


def scipy_assoc_legendre(l, m, x):
    """Ferrers P_l^m with Condon-Shortley phase, from scipy."""
    return lpmv(m, l, np.asarray(x, dtype=float))


def mp_assoc_legendre(l, m, x, dps=40):
    """The same three-term recurrence run at dps digits.

    Isolates rounding: any disagreement with the double-precision value
    beyond ~1e-12 relative is accumulated floating-point error, not a
    formula bug.
    """
    with mpmath.workdps(dps):
        xv = mpmath.mpf(float(x))
        s = mpmath.sqrt(max(0, 1 - xv * xv))
        pmm = mpmath.mpf(1)
        for i in range(1, m + 1):
            pmm = pmm * (-(2 * i - 1)) * s
        if l == m:
            return float(pmm)
        pm1 = xv * (2 * m + 1) * pmm
        if l == m + 1:
            return float(pm1)
        for ll in range(m + 2, l + 1):
            pm1, pmm = ((2 * ll - 1) * xv * pm1 - (ll + m - 1) * pmm) / (ll - m), pm1
        return float(pm1)


def normalized_legendre(l, m, x):
    """Pbar_l^m with integral of Pbar^2 over [-1,1] equal to 2.

    Built from scipy's Ferrers function and the exact normalization
    factor sqrt((2l+1) (l-m)!/(l+m)!) computed in mpmath, so large
    factorial ratios do not lose digits.
    """
    with mpmath.workdps(40):
        factor = mpmath.sqrt(
            (2 * l + 1) * mpmath.factorial(l - m) / mpmath.factorial(l + m)
        )
    return float(factor) * lpmv(m, l, np.asarray(x, dtype=float))


def dense_plan(u, v, k, cost, p, q):
    """Plan matrix gamma_ij = e^{-k(c_ij + u_i + v_j)} p_i q_j, explicitly."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    expo = -k * (np.asarray(cost, dtype=float) + u[:, None] + v[None, :])
    return np.exp(expo) * np.outer(p, q)


def torus_min_image_cost(x, y):
    """Half squared periodic distance by brute search over images.

    Minimizes |x - y + m|^2 / 2 over every m in {-1, 0, 1}^n. Slower and
    dumber than per-coordinate reduction, which is the point.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    n = x.size
    best = np.inf
    for flat in range(3**n):
        m = np.array([(flat // 3**i) % 3 - 1 for i in range(n)], dtype=float)
        best = min(best, 0.5 * float(((x - y + m) ** 2).sum()))
    return best


def zonal_kernel_matrix(xyz, multipliers):
    """Dense zonal kernel sum_l mult_l (2l+1) P_l(x_i . x_j).

    The addition theorem collapses the per-order sum of products of
    unit-norm spherical harmonics to (2l+1) P_l of the inner product;
    evaluating the Legendre series with numpy's Clenshaw recurrence
    keeps this independent of the library's own Legendre tables.
    """
    gram = np.clip(np.asarray(xyz) @ np.asarray(xyz).T, -1.0, 1.0)
    series = np.asarray(multipliers, dtype=float) * (
        2.0 * np.arange(len(multipliers)) + 1.0
    )
    return npleg.legval(gram, series)


def mp_lattice_phase_sum(alpha_mp, h_mp, k, dps=30):
    """k^{-1/2} sum over the k-point lattice of e^{-k alpha} h, in mpmath.

    alpha_mp and h_mp take a single mpmath scalar. Used to certify the
    library's double-precision lattice sums on closed-form phases.
    """
    with mpmath.workdps(dps):
        total = mpmath.mpf(0)
        for i in range(k):
            x = mpmath.mpf(i) / k
            total += mpmath.e ** (-k * alpha_mp(x)) * h_mp(x)
        return float(total / mpmath.sqrt(k))


def gaussian_window_integral(radius):
    """Closed form for the integral of e^{-x^2/2} over [-R, R]."""
    return float(np.sqrt(2.0 * np.pi) * erf(radius / np.sqrt(2.0)))


def random_feasible_plans(p, q, n_plans, rng, sharpen=200.0):
    """Feasible couplings of (p, q) for dominance checks, by IPFP rounding.

    Draws random positive matrices biased toward permutation-ish
    patterns with a softmax at the given sharpness, then projects the
    whole batch onto the coupling polytope by alternating normalization.
    200 rounds gets the marginals to ~1e-12; a final rank-one correction
    (which leaves column sums untouched because the row defects sum to
    zero) makes the row marginals exact to rounding. Returns an array of
    shape (n_plans, len(p), len(q)).
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    logits = rng.standard_normal((n_plans, p.size, q.size)) * np.log(sharpen)
    plans = np.exp(logits - logits.max(axis=(1, 2), keepdims=True))
    for _ in range(200):
        plans *= (p / plans.sum(axis=2))[:, :, None]
        plans *= (q / plans.sum(axis=1))[:, None, :]
    r = p[None, :] - plans.sum(axis=2)
    plans += r[:, :, None] * q[None, None, :]
    return plans


def rotation_matching_walk(p, q, k, theta, collect=False):
    """Monotone quantile matching of p against q rotated by mass theta.

    The target is lifted to the line (atom j recurs at j/k + m for every
    integer m) and its quantile axis shifts by theta; source quantiles
    [0, 1) then match monotonically by a two-pointer walk. Each matched
    chunk is priced at half its squared line displacement. O(k) Python
    steps: the loop geosink.parabolic._rotation_matching vectorizes, kept
    as its reference. Returns (cost, {(i, j): mass} or None).
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
