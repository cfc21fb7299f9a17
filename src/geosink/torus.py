"""Flat-torus grids, costs, and kernel application backends.

The torus is [0,1)^n with opposite faces identified. Grids are the uniform
lattices with k points per axis, and the transport cost is half the squared
periodic distance,

    c(x, y) = min over integer shifts m of |x + m - y|^2 / 2,

which decouples per axis. Kernel application (the inner loop of the scaling
iteration) comes in two flavours. The exact one is the package's single
dense route, sinkhorn.DenseApplicator, over a matrix built here: the
circulant log_K[a, b] = log_profile[(a - b) mod k] per axis on the lattice,
or the log-kernel between two point clouds. The fast one is an FFT circular
convolution in the linear domain that exploits the translation invariance
of the kernel. It checks its own output and redoes an application that
underflows to nonpositive values on the dense route, or aborts with
NumericalAbortError when the lattice is past DENSE_POINT_CAP points.

Kernels: the Gaussian profile exp(-k c) for sharpness k, or the periodized
heat kernel at time t (an image sum over integer shifts), used through the
cost -log(K_t)/k so both fit the same exp(-k cost) shape.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .sinkhorn import DENSE_POINT_CAP, DenseApplicator, LinearDomainApplicator

try:  # numpy >= 2: the gufuncs that np.fft.rfft and np.fft.irfft call
    from numpy.fft import _pocketfft_umath as _pocketfft
except ImportError:  # numpy 1.x
    _pocketfft = None

__all__ = [
    "TorusGrid",
    "TorusKernelSpec",
    "torus_cost",
    "torus_cost_matrix",
    "torus_heat_kernel",
    "torus_log_kernel",
    "fft_apply",
    "FFTUnderflowError",
    "TorusLatticeApplicator",
]

_LATTICE_POINT_CAP = 10_000_000


class FFTUnderflowError(FloatingPointError):
    """FFT convolution produced a nonpositive or non-finite value."""


@dataclass(frozen=True)
class TorusGrid:
    """Uniform lattice with k points per axis on the n-torus.

    Points are ordered lexicographically (C order over the per-axis index
    arrays), so index i corresponds to the multi-index unravel of i.
    """

    n: int
    k: int

    def __post_init__(self):
        if self.n not in (1, 2, 3):
            raise ValueError(f"torus dimension must be 1, 2 or 3, got {self.n}")
        if self.k < 2:
            raise ValueError(f"need at least 2 points per axis, got k={self.k}")
        if self.k ** self.n > _LATTICE_POINT_CAP:
            raise ValueError(
                f"lattice k^n = {self.k ** self.n} exceeds the "
                f"{_LATTICE_POINT_CAP} point capacity"
            )

    @property
    def size(self):
        return self.k ** self.n

    @property
    def spacing(self):
        return 1.0 / self.k

    @property
    def shape(self):
        return (self.k,) * self.n

    @property
    def axis(self):
        return np.arange(self.k) / self.k

    def points(self):
        """All lattice points, shape (k^n, n), lexicographic order."""
        axes = np.meshgrid(*([self.axis] * self.n), indexing="ij")
        return np.stack(axes, axis=-1).reshape(-1, self.n)

    def displacements(self):
        """Displacement lattice delta_j = x_j - x_0, shape (k,)*n + (n,)."""
        axes = np.meshgrid(*([self.axis] * self.n), indexing="ij")
        return np.stack(axes, axis=-1)

    def index_of(self, coords):
        """Lattice index of a point that lies exactly on the grid."""
        coords = np.atleast_1d(np.asarray(coords, dtype=float))
        idx = np.rint(coords * self.k).astype(int) % self.k
        if not np.allclose(idx / self.k, coords % 1.0, atol=1e-12):
            raise ValueError(f"{coords} is not a lattice point for k={self.k}")
        return int(np.ravel_multi_index(tuple(idx), (self.k,) * self.n))


def torus_cost(x, y):
    """Half squared periodic distance between point arrays of shape (..., n)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = np.abs(x - y) % 1.0
    d = np.minimum(d, 1.0 - d)
    return 0.5 * np.sum(d * d, axis=-1)


def torus_cost_matrix(xs, ys):
    """Cost matrix c(xs_i, ys_j), shape (len(xs), len(ys)). Dense; small inputs."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    return torus_cost(xs[:, None, :], ys[None, :, :])


def torus_heat_kernel(delta, t, images=3):
    """Periodized heat kernel on the n-torus by image sum.

    Evaluates (4 pi t)^(-n/2) * sum over |m|_inf <= images of
    exp(-|delta + m|^2 / (4 t)) for displacement arrays of shape (..., n).
    The cutoff default images=3 is far below 1e-12 relative truncation for
    t <= 0.05; larger times may need a larger cutoff (the spectral sum in
    the tests provides the cross-check).
    """
    if t <= 0:
        raise ValueError(f"heat time must be positive, got t={t}")
    delta = np.asarray(delta, dtype=float)
    n = delta.shape[-1]
    log_val = _log_heat_image_sum(delta, t, images, n)
    return np.exp(log_val)


def _log_heat_image_sum(delta, t, images, n):
    """log of the image sum, computed stably for small t."""
    offsets = np.array(
        list(itertools.product(range(-images, images + 1), repeat=n)), dtype=float
    )
    # shape (..., P): exponent for each image offset
    sq = np.sum((delta[..., None, :] + offsets) ** 2, axis=-1)
    exponents = -sq / (4.0 * t)
    return logsumexp(exponents, axis=-1) - 0.5 * n * np.log(4.0 * np.pi * t)


@dataclass(frozen=True)
class TorusKernelSpec:
    """Kernel choice for a torus instance.

    kind "gaussian" is exp(-k c) with c the half squared periodic distance;
    kind "heat" is the periodized heat kernel at time t (default 2/k),
    normalized by its value at zero displacement so the profile lies in
    (0, 1]. The normalization adds a constant to the effective cost, which
    the scaling iteration does not see.
    """

    kind: str
    k: int
    t: float | None = None
    images: int = 3

    def __post_init__(self):
        if self.kind not in ("gaussian", "heat"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.k < 2:
            raise ValueError(f"sharpness k must be >= 2, got {self.k}")
        if self.kind == "heat":
            t = self.heat_time
            if t <= 0:
                raise ValueError(f"heat time must be positive, got {t}")

    @property
    def heat_time(self):
        if self.kind != "heat":
            return None
        return 2.0 / self.k if self.t is None else self.t

    def log_cost_profile(self, grid):
        """-k * cost on the displacement lattice, shape (k,)*n.

        This is the log of the kernel profile; for the heat kernel the
        profile is normalized to 1 at zero displacement.
        """
        if grid.k != self.k:
            raise ValueError(
                f"grid resolution {grid.k} does not match kernel sharpness {self.k}"
            )
        deltas = grid.displacements()
        if self.kind == "gaussian":
            return -self.k * torus_cost(deltas, np.zeros(grid.n))
        log_k = _log_heat_image_sum(deltas, self.heat_time, self.images, grid.n)
        origin = (0,) * grid.n
        return log_k - log_k[origin]

    def cost_profile(self, grid):
        """Effective cost on the displacement lattice: -log(profile)/k."""
        return -self.log_cost_profile(grid) / self.k


def torus_log_kernel(xs, ys, spec):
    """Log-kernel matrix -k c(xs_i, ys_j) between torus point sets.

    Gaussian: c is the half squared periodic distance. Heat: the log of
    the image sum, normalized to 0 at zero displacement as on the lattice.
    Dense; DenseApplicator.from_log_kernel calls it only under the cap.
    """
    if spec.kind == "gaussian":
        return -float(spec.k) * torus_cost_matrix(xs, ys)
    n = xs.shape[1]
    delta = xs[:, None, :] - ys[None, :, :]
    log_k = _log_heat_image_sum(delta, spec.heat_time, spec.images, n)
    return log_k - _log_heat_image_sum(np.zeros(n), spec.heat_time, spec.images, n)


def _circulant_log_kernel(log_profile):
    """N x N matrix log_K[a, b] = log_profile[(a - b) mod k] per axis.

    a and b are lexicographic flat lattice indices; row a is the kernel
    the FFT convolution applies for output a. Gathered through per-axis
    k x k difference tables, so nothing larger than the result is built.
    """
    k, n = log_profile.shape[0], log_profile.ndim
    diff = (np.arange(k)[:, None] - np.arange(k)[None, :]) % k
    index = []
    for axis in range(n):
        shape = [1] * (2 * n)
        shape[axis] = shape[n + axis] = k
        index.append(diff.reshape(shape))
    return log_profile[tuple(index)].reshape(k**n, k**n)


# ---------------------------------------------------------------------------
# kernel application
# ---------------------------------------------------------------------------


def _rfft(x):
    """np.fft.rfft of a 1-D array as float64, bitwise, minus the wrapper.

    np.fft's Python wrapper costs about as much as a 1024-point transform
    itself, so calling the same gufunc directly halves a small apply and
    keeps its time proportional to the transform's work.
    """
    x = np.asarray(x, dtype=float)
    if _pocketfft is None:
        return np.fft.rfft(x)
    n = x.shape[0]
    ufunc = _pocketfft.rfft_n_even if n % 2 == 0 else _pocketfft.rfft_n_odd
    return ufunc(x, 1.0, out=np.empty(n // 2 + 1, dtype=complex))


def _irfft(x, n):
    """np.fft.irfft(x, n=n) of a 1-D complex spectrum, as _rfft."""
    if _pocketfft is None:
        return np.fft.irfft(x, n=n)
    return _pocketfft.irfft(x, 1.0 / n, out=np.empty(n))


def fft_apply(profile, vec):
    """Circular convolution sum_i profile[j - i] vec_i via the real FFT.

    profile has shape (k,)*n, vec is flat of length k^n in lexicographic
    order. Raises FFTUnderflowError when the result has a nonpositive or
    non-finite entry, so the caller can fall back to the exact route.
    """
    if profile.ndim == 1:
        profile_hat = _rfft(profile)
    else:
        profile_hat = np.fft.rfftn(profile)
    return _fft_apply_hat(profile_hat, profile.shape, vec)


def _fft_apply_hat(profile_hat, shape, vec):
    if len(shape) == 1:
        out = _irfft(_rfft(vec) * profile_hat, shape[0])
    else:
        axes = tuple(range(len(shape)))
        out = np.fft.irfftn(
            np.fft.rfftn(vec.reshape(shape)) * profile_hat, s=shape, axes=axes
        ).ravel()
    lo = out.min()
    if not lo > 0.0:  # catches nonpositive values and NaN in one pass
        raise FFTUnderflowError(
            "fft kernel application produced nonpositive values"
        )
    return out


class TorusLatticeApplicator(LinearDomainApplicator):
    """Kernel application on the common lattice, direct or FFT mode.

    mode "direct" always takes the exact log-domain route. mode "fft"
    convolves in the linear domain by FFT (see LinearDomainApplicator for
    the shift, the fallback to the exact route on underflow, counted in
    .fallbacks, and the abort past DENSE_POINT_CAP points). The exact
    route is the circulant log-kernel over DenseApplicator, built on
    first use.
    """

    def __init__(self, grid, spec, p, q, mode="direct"):
        if grid.k != spec.k:
            raise ValueError(
                f"grid resolution {grid.k} does not match kernel sharpness {spec.k}"
            )
        if mode not in ("direct", "fft"):
            raise ValueError(f"unknown mode {mode!r}")
        if np.shape(p) != (grid.size,) or np.shape(q) != (grid.size,):
            raise ValueError("weight vectors must match the lattice size")
        super().__init__(spec.k, p, q)
        self.grid = grid
        self.spec = spec
        self.mode = mode
        self._log_profile = spec.log_cost_profile(grid)
        self._cost_profile = -self._log_profile / self.k
        if mode == "fft":
            self._profile_hat = np.fft.rfftn(np.exp(self._log_profile))

    def _linear_apply(self, w):
        return _fft_apply_hat(self._profile_hat, self.grid.shape, w)

    def _build_dense(self):
        return DenseApplicator.from_log_kernel(
            self.k, self.p, self.q,
            lambda: _circulant_log_kernel(self._log_profile), symmetric=True,
        )

    def cost_row(self, i):
        """Cost row c(x_i, .) over the target lattice, shape (N,)."""
        multi = tuple(int(m) for m in np.unravel_index(i, self.grid.shape))
        rolled = np.roll(self._cost_profile, shift=multi, axis=tuple(range(self.grid.n)))
        return rolled.ravel()

    def describe(self):
        return {
            "manifold": "torus",
            "n": self.grid.n,
            "k": self.spec.k,
            "kernel": self.spec.kind,
            "heat_time": self.spec.heat_time,
            "points": self.grid.size,
            "backend": self.mode,
            "fft_fallbacks": self.fallbacks,
        }
