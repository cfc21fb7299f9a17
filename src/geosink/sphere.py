"""Round-sphere grids, spherical harmonic transforms, and kernel backends.

Grids are pole-free equiangular: for bandwidth W there are 2(W+1) colatitude
rings at theta_i = pi (i + 1/2) / (2(W+1)) and as many equispaced longitudes.
The colatitudes are Chebyshev angles, so the classical Fejer quadrature
weights integrate polynomials in cos(theta) up to degree 2W+1 exactly, which
makes analysis of degree-W fields exact: the sampled Gram matrix of the
orthonormal harmonics is the identity to rounding.

Conventions. The surface measure is normalized to total mass 1. Harmonics
are Y_lm(phi, theta) = Pbar_l^m(cos theta) e^{i m phi} with Pbar the fully
normalized associated Legendre function (Condon-Shortley phase included),
so the Y_lm are orthonormal and sum_m Y_lm(x) conj(Y_lm(y)) =
(2l+1) P_l(x.y). The Laplacian eigenvalue at degree l is l(l+1).

Two transform flavours exist on purpose:

- sht_forward / sht_inverse: quadrature-weighted analysis and synthesis,
  the exact inverse pair for band-limited data.
- sht_adjoint: the plain (unweighted) sum over nodes against conj(Y_lm).
  Applying a zonal kernel matrix K_ij = sum_l mult_l (2l+1) P_l(x_i.x_j)
  to a vector is, exactly, synthesis of mult * adjoint; this identity is
  algebraic and holds for any vector, which is what the scaling iteration
  needs.

Both run in O(W^3) by separating the longitude FFT from a dense Legendre
contraction per order.

Kernel backends: SphereDenseApplicator is the exact sinkhorn.DenseApplicator
route over windows of one ring table of SphereKernelSpec.log_kernel, the one
definition of each kernel. SphereSHTApplicator is that route plus the zonal
kernel applied through that pair in the linear domain, the route it takes.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial.legendre import leggauss, legvander, legval

from .sinkhorn import (DenseApplicator, LinearDomainApplicator, _check_dense_cap,
                       _finite_min, _is_integer, kernel_heat_time)

__all__ = [
    "SphericalGrid",
    "HarmonicCoeffs",
    "assoc_legendre",
    "sht_forward",
    "sht_inverse",
    "sht_adjoint",
    "bandlimited_heat_apply",
    "bandlimited_heat_matrix",
    "positive_heat_multipliers",
    "antenna_legendre_coeffs",
    "antenna_kernel_apply",
    "antenna_kernel_matrix",
    "antenna_height",
    "reflector_map",
    "zonal_profile_min",
    "zonal_log_kernel",
    "SphereKernelSpec",
    "SphereDenseApplicator",
    "SphereSHTApplicator",
]

MAX_BANDWIDTH = 128


def assoc_legendre(l, m, x):
    """Associated Legendre function P_l^m (Ferrers, Condon-Shortley phase).

    Upward recurrence in l seeded at the diagonal; stable in double
    precision through degree ~64 (the raw diagonal values overflow well
    past that). Requires 0 <= m <= l.
    """
    if m < 0 or l < 0 or m > l:
        raise ValueError(f"need 0 <= m <= l, got l={l}, m={m}")
    x = np.asarray(x, dtype=float)
    s = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    pmm = np.ones_like(x)
    for i in range(1, m + 1):
        pmm = pmm * (-(2 * i - 1)) * s
    if l == m:
        return pmm
    pm1 = x * (2 * m + 1) * pmm
    if l == m + 1:
        return pm1
    for ll in range(m + 2, l + 1):
        pm1, pmm = ((2 * ll - 1) * x * pm1 - (ll + m - 1) * pmm) / (ll - m), pm1
    return pm1


def _fejer_weights(n):
    """Fejer (first kind) weights for nodes cos(pi (i+1/2)/n), i = 0..n-1.

    Exact for polynomials of degree <= n-1 against dx on [-1, 1].
    """
    i = np.arange(n)
    theta = np.pi * (i + 0.5) / n
    m = np.arange(1, n // 2 + 1)
    terms = np.cos(2.0 * np.outer(theta, m)) / (4.0 * m * m - 1.0)
    return (2.0 / n) * (1.0 - 2.0 * terms.sum(axis=1))


def _normalized_legendre_table(L, mu):
    """Fully normalized associated Legendre values, shape (L+1, L+1, len(mu)).

    Entry [l, m, :] holds Pbar_l^m(mu) for 0 <= m <= l (zero above the
    diagonal). Normalization: integral of Pbar^2 over mu in [-1,1] is 2,
    so that Pbar_l^m(cos theta) e^{i m phi} has unit norm against the
    mass-one surface measure. Condon-Shortley phase included.
    """
    mu = np.asarray(mu, dtype=float)
    s = np.sqrt(np.maximum(0.0, 1.0 - mu * mu))
    out = np.zeros((L + 1, L + 1, mu.size))
    out[0, 0] = 1.0
    for m in range(1, L + 1):
        out[m, m] = -np.sqrt((2.0 * m + 1.0) / (2.0 * m)) * s * out[m - 1, m - 1]
    for m in range(0, L + 1):
        if m + 1 <= L:
            out[m + 1, m] = np.sqrt(2.0 * m + 3.0) * mu * out[m, m]
        for l in range(m + 2, L + 1):
            a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = np.sqrt(
                ((2.0 * l + 1.0) * ((l - 1.0) ** 2 - m * m))
                / ((2.0 * l - 3.0) * (l * l - m * m))
            )
            out[l, m] = a * mu * out[l - 1, m] - b * out[l - 2, m]
    return out


class SphericalGrid:
    """Pole-free equiangular grid carrying exact quadrature to degree 2W+1.

    Nodes are indexed ring-major: node i*n_phi + j sits at colatitude
    theta_i and longitude phi_j. Angle arrays follow the (phi, theta)
    coordinate order used for sphere points everywhere in this package.
    """

    def __init__(self, W):
        if not _is_integer(W):
            raise ValueError(f"bandwidth W must be an integer, got {W}")
        if W < 1:
            raise ValueError(f"bandwidth must be >= 1, got {W}")
        if W > MAX_BANDWIDTH:
            raise ValueError(f"bandwidth {W} is out of the supported range (<= 128)")
        self.W = int(W)
        self.n_theta = 2 * (self.W + 1)
        self.n_phi = 2 * (self.W + 1)
        self.thetas = np.pi * (np.arange(self.n_theta) + 0.5) / self.n_theta
        self.phis = 2.0 * np.pi * np.arange(self.n_phi) / self.n_phi
        self.mu = np.cos(self.thetas)
        # ring weights against the normalized measure (sum over rings = 1)
        self.ring_weights = _fejer_weights(self.n_theta) / 2.0
        self.node_weights = np.repeat(self.ring_weights / self.n_phi, self.n_phi)
        self._angles = None
        self._embed = None
        self._table = None

    @property
    def size(self):
        return self.n_theta * self.n_phi

    def angles(self):
        """(N, 2) array of (phi, theta) per node, ring-major order; cached, read-only."""
        if self._angles is None:
            phi, theta = np.meshgrid(self.phis, self.thetas, indexing="xy")
            self._angles = _read_only(np.column_stack([phi.ravel(), theta.ravel()]))
        return self._angles

    def embed(self):
        """(N, 3) unit vectors for all nodes; cached, read-only."""
        if self._embed is None:
            ang = self.angles()
            self._embed = _read_only(sphere_embed(ang[:, 0], ang[:, 1]))
        return self._embed

    def legendre_table(self):
        """Normalized associated Legendre table up to degree W; cached, read-only."""
        if self._table is None:
            self._table = _read_only(_normalized_legendre_table(self.W, self.mu))
        return self._table


def _read_only(a):
    # cached arrays are shared by every caller of the grid
    a.flags.writeable = False
    return a


def sphere_embed(phi, theta):
    """Unit vectors from (phi, theta); stacks along the last axis."""
    phi = np.asarray(phi, dtype=float)
    theta = np.asarray(theta, dtype=float)
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)


@dataclass
class HarmonicCoeffs:
    """Triangular table of harmonic coefficients up to degree W.

    data[l, m + W] is the coefficient of Y_lm; entries with |m| > l are
    identically zero.
    """

    W: int
    data: np.ndarray

    @classmethod
    def zeros(cls, W):
        return cls(W, np.zeros((W + 1, 2 * W + 1), dtype=complex))

    def get(self, l, m):
        return self.data[l, m + self.W]

    def set(self, l, m, value):
        if abs(m) > l:
            raise ValueError(f"|m| <= l required, got l={l}, m={m}")
        self.data[l, m + self.W] = value

    def copy(self):
        return HarmonicCoeffs(self.W, self.data.copy())

    def mask_violation(self):
        """Largest |coefficient| sitting outside the triangle |m| <= l."""
        L = self.W
        ls = np.arange(L + 1)[:, None]
        ms = np.abs(np.arange(-L, L + 1))[None, :]
        return float(np.max(np.abs(self.data * (ms > ls))))


def _check_degree(grid, L):
    """Refuse a degree L above the grid's bandwidth W."""
    if L > grid.W:
        raise ValueError(f"degree {L} exceeds grid bandwidth {grid.W}")


def _signed_tables(grid, L):
    """Legendre tables for both m signs: shape (L+1, 2L+1, n_theta).

    Column m + L corresponds to order m; negative orders pick up the
    parity factor (-1)^|m| relating Pbar_l^{-|m|} to Pbar_l^{|m|}.
    Every analysis and synthesis takes its tables here, so this is where
    a degree L above the grid's bandwidth is refused (_check_degree),
    which the table slice would otherwise truncate silently.
    """
    _check_degree(grid, L)
    table = grid.legendre_table()[: L + 1, : L + 1, :]
    ms = np.arange(-L, L + 1)
    signed = table[:, np.abs(ms), :].astype(float).copy()
    neg = ms < 0
    signs = np.where(neg, (-1.0) ** np.abs(ms), 1.0)
    return signed * signs[None, :, None], ms


def _analysis(grid, values, L, ring_factor):
    """Shared core of sht_forward (quadrature weights) and sht_adjoint (ones)."""
    signed, ms = _signed_tables(grid, L)
    vals = np.asarray(values).reshape(grid.n_theta, grid.n_phi)
    F = np.fft.fft(vals, axis=1)
    cols = F[:, ms % grid.n_phi] * ring_factor[:, None]
    out = HarmonicCoeffs(L, np.einsum("lmt,tm->lm", signed, cols))
    return out


def sht_forward(grid, values):
    """Harmonic analysis: coefficients of the band-limited interpolant.

    Exact (to rounding) through degree W for data sampled from a field of
    bandwidth <= W, by the quadrature exactness of the grid.
    """
    ring = grid.ring_weights / grid.n_phi
    return _analysis(grid, values, grid.W, ring)


def sht_adjoint(grid, values, L=None):
    """Unweighted sums beta_lm = sum_nodes values conj(Y_lm), up to degree L."""
    if L is None:
        L = grid.W
    return _analysis(grid, values, L, np.ones(grid.n_theta))


def sht_inverse(grid, coeffs):
    """Harmonic synthesis at the grid nodes; returns a complex array.

    Real data come back with imaginary parts at rounding level whenever
    the coefficients satisfy the conjugate symmetry of a real field.
    """
    L = coeffs.W
    signed, ms = _signed_tables(grid, L)
    rings = np.einsum("lmt,lm->tm", signed, coeffs.data)
    buf = np.zeros((grid.n_theta, grid.n_phi), dtype=complex)
    buf[:, ms % grid.n_phi] += rings
    vals = np.fft.ifft(buf, axis=1) * grid.n_phi
    return vals.ravel()


# ---------------------------------------------------------------------------
# zonal kernels (heat, antenna)
# ---------------------------------------------------------------------------


def _apply_zonal(grid, values, multipliers):
    """Apply K_ij = sum_l mult_l (2l+1) P_l(x_i . x_j) to a real vector."""
    L = len(multipliers) - 1
    beta = sht_adjoint(grid, values, L)
    beta.data *= np.asarray(multipliers, dtype=float)[:, None]
    return sht_inverse(grid, beta).real


def bandlimited_heat_apply(grid, t, values, W=None):
    """Heat semigroup e^{-t Laplacian} truncated at degree W, acting on fields.

    Quadrature-weighted analysis, multipliers e^{-t l(l+1)}, synthesis:
    the discretization of the integral operator against the mass-one
    surface measure. Constants are fixed for every t, and t = 0 is allowed
    and gives the plain band-limiting projection. Matches dense application
    of the kernel matrix to the quadrature-weighted field.
    """
    if not 0.0 <= t < np.inf:
        raise ValueError(f"heat time must be nonnegative and finite, got t={t}")
    if W is None:
        W = grid.W
    _check_degree(grid, W)
    coeffs = sht_forward(grid, values)
    mult = np.zeros(grid.W + 1)
    mult[: W + 1] = heat_multipliers(t, W)
    coeffs.data *= mult[:, None]
    return sht_inverse(grid, coeffs).real


def heat_multipliers(t, W):
    l = np.arange(W + 1)
    return np.exp(-t * l * (l + 1.0))


@lru_cache(maxsize=64)
def positive_heat_multipliers(t, W):
    """heat_multipliers(t, W), refused when the truncated kernel is not positive.

    The refusal names the smallest larger W that makes it positive, if any.
    Cached and read-only, as every kernel row reads them.
    """
    mult = heat_multipliers(t, W)
    if zonal_profile_min(mult) > 0.0:
        return _read_only(mult)
    advice = f"raise t (no bandwidth W <= {MAX_BANDWIDTH} makes it positive)"
    for wider in range(W + 1, MAX_BANDWIDTH + 1):
        if zonal_profile_min(heat_multipliers(t, wider)) > 0.0:
            advice = f"raise W to {wider}"
            break
    raise ValueError(f"truncated heat kernel is not positive at t={t:g}, W={W}; {advice}")


def bandlimited_heat_matrix(grid, t):
    """Dense degree-W heat kernel matrix (for checks and small runs)."""
    _check_dense_cap(grid.size)
    xyz = grid.embed()
    return _zonal_kernel(xyz, xyz, heat_multipliers(t, grid.W))


def _zonal_series(multipliers):
    """Legendre series sum mult_l (2l+1) P_l of a zonal kernel profile."""
    l = np.arange(len(multipliers))
    return (2.0 * l + 1.0) * np.asarray(multipliers, dtype=float)


def _zonal_kernel(a, b, multipliers):
    """K(a_i, b_j) = sum_l mult_l (2l+1) P_l(a_i . b_j) for unit vectors a, b.

    The dot products are summed elementwise, not by BLAS, which rounds one
    row alone differently: so a row of K is bitwise that row of the matrix.
    """
    cos = a[:, 0:1] * b[:, 0]
    cos += a[:, 1:2] * b[:, 1]
    cos += a[:, 2:3] * b[:, 2]
    return legval(np.clip(cos, -1.0, 1.0, out=cos), _zonal_series(multipliers))


def zonal_log_kernel(a, b, multipliers):
    """log K(a_i, b_j) of a zonal kernel between unit vectors a (M, 3), b (N, 3).

    -inf where the Legendre series is not positive. The series rounds to
    about eps times the kernel's peak, so entries far below a row's peak
    are rounding noise, not the kernel's tail.
    """
    K = _zonal_kernel(a, b, multipliers)
    with np.errstate(divide="ignore"):
        return np.log(np.maximum(K, 0.0))


def zonal_profile_min(multipliers):
    """Minimum over 20001 points of [-1, 1] of the profile sum mult_l (2l+1) P_l(s).

    Positivity of the profile implies positivity of the whole kernel
    matrix for any node placement.
    """
    s = np.linspace(-1.0, 1.0, 20001)
    return float(legval(s, _zonal_series(multipliers)).min())


def antenna_legendre_coeffs(k):
    """Legendre coefficients of s -> 2^k (1 - s)^k, exact by Gauss quadrature.

    The integrand against P_l has degree at most 2k, so k+1 Gauss nodes
    integrate it exactly. Returns c_0..c_k with
    2^k (1-s)^k = sum_l c_l P_l(s).
    """
    if k < 1:
        raise ValueError(f"power must be >= 1, got {k}")
    nodes, weights = leggauss(k + 1)
    vander = legvander(nodes, k)
    integrand = weights * (2.0 ** k) * (1.0 - nodes) ** k
    l = np.arange(k + 1)
    return (2.0 * l + 1.0) / 2.0 * (integrand @ vander)


def antenna_multipliers(k, degree=None):
    """Per-degree multipliers of the antenna kernel, zero above degree k."""
    if degree is None:
        degree = k
    if degree < k:
        raise ValueError(f"expansion degree {degree} below kernel degree {k}")
    c = antenna_legendre_coeffs(k)
    mult = np.zeros(degree + 1)
    mult[: k + 1] = c / (2.0 * np.arange(k + 1) + 1.0)
    return mult


def antenna_kernel_apply(grid, values, k, degree=None):
    """Apply the kernel 2^k (1 - x.y)^k through its harmonic expansion.

    The kernel is a degree-k polynomial in x.y, hence exactly band-limited
    at degree k: raising the expansion degree past k changes nothing.
    Requires grid bandwidth >= the expansion degree.
    """
    return _apply_zonal(grid, values, antenna_multipliers(k, degree))


def antenna_kernel_matrix(grid, k):
    """Dense antenna kernel matrix 2^k (1 - x_i . x_j)^k = |x_i - x_j|^(2k)."""
    _check_dense_cap(grid.size)
    xyz = grid.embed()
    return np.exp(SphereKernelSpec("antenna", k).log_kernel(xyz, xyz, grid.W))


def antenna_height(a, k):
    """Radial height h = a^(1/k) from a positive scaling vector."""
    a = np.asarray(a, dtype=float)
    if np.any(a <= 0) or not np.all(np.isfinite(a)):
        raise ValueError("scaling vector must be positive and finite")
    return a ** (1.0 / k)


def reflector_map(grid, h):
    """Outgoing directions after reflection off the radial graph h(x) x.

    Rays leave the origin along each node direction, hit the surface, and
    reflect specularly. The outward normal is h x - grad_S h, never shorter
    than h, with the gradient from finite differences of h on the grid
    (centered in longitude with wraparound, one-sided at the extreme
    colatitude rings). Returns (directions, ok) where ok flags nodes whose
    direction is finite. For h constant every ray returns to the origin:
    directions = -x.
    """
    h = np.asarray(h, dtype=float).reshape(grid.n_theta, grid.n_phi)
    if np.any(h <= 0):
        raise ValueError("heights must be positive")
    dtheta = np.pi / grid.n_theta
    dphi = 2.0 * np.pi / grid.n_phi
    h_th = np.empty_like(h)
    h_th[1:-1] = (h[2:] - h[:-2]) / (2.0 * dtheta)
    h_th[0] = (-3.0 * h[0] + 4.0 * h[1] - h[2]) / (2.0 * dtheta)
    h_th[-1] = (3.0 * h[-1] - 4.0 * h[-2] + h[-3]) / (2.0 * dtheta)
    h_ph = (np.roll(h, -1, axis=1) - np.roll(h, 1, axis=1)) / (2.0 * dphi)

    st, ct = np.sin(grid.thetas)[:, None], np.cos(grid.thetas)[:, None]
    sp, cp = np.sin(grid.phis), np.cos(grid.phis)

    def field(x, y, z):
        return np.stack(np.broadcast_arrays(x, y, z, h)[:3], axis=-1)

    xhat = field(st * cp, st * sp, ct)
    # grad_S h = h_theta e_theta + (h_phi / sin theta) e_phi
    normal = (h[..., None] * xhat - h_th[..., None] * field(ct * cp, ct * sp, -st)
              - (h_ph / st)[..., None] * field(-sp, cp, 0.0))
    nhat = normal / np.linalg.norm(normal, axis=-1, keepdims=True)
    directions = xhat - 2.0 * np.sum(xhat * nhat, axis=-1, keepdims=True) * nhat
    return directions.reshape(-1, 3), np.isfinite(directions).all(axis=-1).ravel()


# ---------------------------------------------------------------------------
# applicators for the scaling iteration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SphereKernelSpec:
    """Kernel choice for a sphere instance.

    kind "heat": degree-W truncated heat kernel at time t (default 2/k),
    with 0 < t < inf. kind "antenna": 2^k (1 - x.y)^k, band-limited at
    degree k; takes no t. k is finite and >= 1, and for the antenna an integer.
    log_kernel is the one definition of each kernel's entries.
    """

    kind: str
    k: int
    t: float | None = None

    def __post_init__(self):
        if self.kind not in ("heat", "antenna"):
            raise ValueError(f"unknown sphere kernel kind {self.kind!r}")
        if self.kind == "antenna" and not _is_integer(self.k):  # a polynomial degree
            raise ValueError(f"the antenna's k must be an integer, got k={self.k!r}")
        if not (np.isfinite(self.k) and self.k >= 1):  # also refuses NaN
            raise ValueError(f"sharpness k must be finite and >= 1, got k={self.k!r}")
        kernel_heat_time(self.kind, self.k, self.t)

    @property
    def heat_time(self):
        return kernel_heat_time(self.kind, self.k, self.t)

    def multipliers(self, grid):
        """Per-degree multipliers; a heat kernel must also be positive."""
        if self.kind == "heat":
            return positive_heat_multipliers(self.heat_time, grid.W)
        if self.k > grid.W:
            raise ValueError(f"kernel degree {self.k} exceeds grid bandwidth {grid.W}")
        return antenna_multipliers(self.k)

    def log_kernel(self, a, b, W):
        """log K(a_i, b_j) between unit vectors a (M, 3) and b (N, 3).

        Heat: zonal_log_kernel of the positive degree-W truncation; entries
        far below a row's peak are the series' rounding noise. Antenna: the
        closed form k log|a_i - b_j|^2 at any W, exact in every entry and
        -inf only where a_i = b_j. Both sum elementwise, so a row is bitwise
        its row of the matrix.
        """
        if self.kind == "heat":
            return zonal_log_kernel(a, b, positive_heat_multipliers(self.heat_time, W))
        chord = np.zeros((len(a), len(b)))
        for axis in range(3):
            chord += np.square(a[:, axis : axis + 1] - b[:, axis])
        with np.errstate(divide="ignore"):
            np.log(chord, out=chord)
        chord *= self.k
        return chord


def _on_grid(app, grid, spec, p, q):
    """Give app its exact route, whose builder never holds app; return spec's multipliers."""
    mult = spec.multipliers(grid)
    app._setup(spec.k, p, q, partial(_ring_windows, grid, spec), (grid.size, grid.size),
               symmetric=True)
    app.grid, app.spec = grid, spec
    return mult


def _ring_windows(grid, spec):
    """Kernel rows, shape (n_theta, n_phi) * 2, as zero-copy windows of one table.

    The kernel of nodes (r, a), (s, b) depends on r, s, (b - a) mod n_phi
    only: node (r, a)'s row is the window at n_phi - a of ring r's row of the
    table from each ring's first node to every node, doubled in longitude.
    """
    xyz, n_theta, n_phi = grid.embed(), grid.n_theta, grid.n_phi
    table = np.tile(spec.log_kernel(xyz[::n_phi], xyz, grid.W).reshape(n_theta, -1, n_phi), 2)
    return sliding_window_view(table, n_phi, axis=-1)[:, :, n_phi:0:-1].transpose(0, 2, 1, 3)


def _describe(grid, spec):
    return {
        "manifold": "sphere",
        "W": grid.W,
        "k": spec.k,
        "kernel": spec.kind,
        "heat_time": spec.heat_time,
        "points": grid.size,
    }


class SphereDenseApplicator(DenseApplicator):
    """Log-domain softmin over the rows of spec.log_kernel, windows of one ring table.

    Antenna rows are exact; heat entries far below a row's peak are series
    rounding noise. The antenna's diagonal entries are -inf, which the
    log-sum-exp reduction handles (the off diagonal keeps outputs finite).
    """

    def __init__(self, grid, spec, p, q):
        _on_grid(self, grid, spec, p, q)

    def describe(self):
        return {**_describe(self.grid, self.spec), "backend": "dense"}


class SphereSHTApplicator(LinearDomainApplicator):
    """Accelerated linear-domain softmin through the harmonic expansion.

    DenseApplicator's input rule holds. Each application applies the zonal
    kernel in O(W^3) in the linear domain (see LinearDomainApplicator for the
    shift, the trust check, the redo on SphereDenseApplicator's rows, counted
    in .fallbacks, and the abort past DENSE_POINT_CAP nodes). The softmin
    pair is bound at construction like the torus's, but owns no buffer: its
    weights and its log back are fresh arrays (see _bound_softmin).
    """

    def __init__(self, grid, spec, p, q):
        self._mult = _on_grid(self, grid, spec, p, q)
        self._linear_apply = partial(_apply_zonal, grid, multipliers=self._mult)
        self._bind_pair(None)

    # The weights and the log back allocate fresh temporaries here. Forming
    # them in place, as the torus routes do, cut a W=64 apply from about
    # 2200 to 1250 minor page faults in criterion 6's round-robin bench and
    # pulled its sphere slope from 1.45-1.48 to 1.33-1.47 (five fresh
    # processes each), against its floor of 1.35.
    def _bound_softmin(self, log_weights, to_target, w):
        """One direction of the pair, weights and log back in fresh arrays (w unused)."""
        k, kernel, floor = self.k, self._linear_apply, self._floor
        route = weakref.proxy(self)

        def softmin(values):
            values, shift = _finite_min(values)
            out = kernel(np.exp(-k * (values - shift) + log_weights))
            if out.min() > floor:
                return np.log(out) / k - shift
            return route._redo(values, log_weights, to_target)

        return softmin

    def describe(self):
        return {**_describe(self.grid, self.spec), "backend": "sht",
                "sht_fallbacks": self.fallbacks}
