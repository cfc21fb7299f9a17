"""Flat-torus grids, costs, and kernel application backends.

The torus is [0,1)^n with opposite faces identified. Grids are the uniform
lattices with k points per axis, and the transport cost is half the squared
periodic distance,

    c(x, y) = min over integer shifts m of |x + m - y|^2 / 2,

which decouples per axis. Kernel application (the inner loop of the scaling
iteration) comes in two flavours. The exact one is the package's single
dense route, sinkhorn.DenseApplicator, over a matrix built here: the
circulant log_K[a, b] = log_profile[(a - b) mod k] per axis on the lattice,
or the log-kernel between two point clouds. The fast one works in the
linear domain and exploits the kernel's translation invariance: an FFT
convolution on the 2-D and 3-D lattices, and on the 1-D lattice the exact
circulant product out[j] = sum_i profile[(j - i) mod k] w_i. Each output
of that product is a sum of k positive terms, so its relative error is at
most about k * eps (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., sec. 4.2) whatever range the outputs span; against
extended precision it stays below 3e-15 for k from 2 to 8192. An FFT
would instead put an absolute error of order eps * log2(k) * ||w||_2 *
sum(profile) into every output (ibid., sec. 24.1), swamping the small
outputs of a peaked potential.

Kernels: the Gaussian profile exp(-k c) for sharpness k, or the periodized
heat kernel at time t (an image sum over integer shifts of the displacement
reduced to [-1/2, 1/2)), used through the cost -log(K_t)/k so both fit the
same exp(-k cost) shape.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .sinkhorn import (DENSE_POINT_CAP, DenseApplicator, LinearDomainApplicator,
                       kernel_heat_time)

try:  # the gufuncs that np.fft.rfft and np.fft.irfft call (numpy 2)
    from numpy.fft import _pocketfft_umath as _pocketfft
except ImportError:  # private, so a later numpy may move it: use np.fft
    _pocketfft = None

__all__ = [
    "TorusGrid",
    "TorusKernelSpec",
    "torus_cost",
    "torus_cost_matrix",
    "torus_heat_kernel",
    "heat_image_cutoff",
    "torus_log_kernel",
    "fft_apply",
    "FFTUnderflowError",
    "TorusLatticeApplicator",
]

_LATTICE_POINT_CAP = 10_000_000

_EPS = np.finfo(float).eps
# terms below tiny (subnormal, or flushed to zero) sum to less than k * tiny,
# so they change a 1-D output above the floor k * tiny / SUBNORMAL_REL_ERROR
# by at most this relative amount; the 1-D route trusts such outputs
SUBNORMAL_REL_ERROR = 1e-13
# output rows per BLAS block of the 1-D circulant product
_BLOCK = 32
# OpenBLAS runs a GEMM of m * n * k <= 65536 * 4 multiply-adds on one
# thread (its GEMM_MULTITHREAD_THRESHOLD); a shared pool's threads can wait
# on each other for milliseconds under load
_GEMM_SERIAL = 1 << 18


class FFTUnderflowError(FloatingPointError):
    """FFT convolution produced a nonpositive or NaN value."""


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


def torus_heat_kernel(delta, t, images=None):
    """Periodized heat kernel on the n-torus by image sum.

    Evaluates (4 pi t)^(-n/2) * sum over |m|_inf <= images of
    exp(-|delta + m|^2 / (4 t)) for displacement arrays of shape (..., n),
    each displacement first reduced to its minimum image in [-1/2, 1/2),
    as TorusKernelSpec.log_kernel does, so the kernel is periodic in delta.
    The default images=None takes heat_image_cutoff(t), which converges
    to rounding on that window; the spectral sum in the tests provides
    the cross-check.
    """
    if t <= 0:
        raise ValueError(f"heat time must be positive, got t={t}")
    delta = np.asarray(delta, dtype=float)
    n = delta.shape[-1]
    if images is None:
        images = heat_image_cutoff(t)
    log_val = _log_heat_image_sum(_wrap(delta), t, images, n)
    return np.exp(log_val)


def _wrap(delta):
    """Displacements reduced to [-1/2, 1/2) per axis, the minimum image."""
    return delta - np.floor(delta + 0.5)


def _log_heat_image_sum(delta, t, images, n):
    """log of the image sum, computed stably for small t.

    The cube of image offsets factors over the axes, so the log is a sum
    of 1-D image sums and memory stays linear in the cutoff.
    """
    log_sum = sum(_log_axis_images(delta[..., a], t, images) for a in range(n))
    return log_sum - 0.5 * n * np.log(4.0 * np.pi * t)


def _log_axis_images(d, t, images):
    """log sum over |m| <= images of exp(-(d + m)^2 / (4t)), elementwise.

    Terms are scaled by the largest one, the image nearest to d, and
    summed in +-m pairs, so the result is bitwise even in d.
    """
    nearest = np.clip(np.rint(-d), -images, images)
    top = -((d + nearest) ** 2) / (4.0 * t)

    def term(m):
        return np.exp(-((d + m) ** 2) / (4.0 * t) - top)

    total = term(0.0)
    for m in range(1, images + 1):
        total = total + (term(float(m)) + term(float(-m)))
    return top + np.log(total)


MIN_IMAGE_SHELLS = 3  # fewest image shells a heat kernel sums


def heat_image_cutoff(t):
    """Image shells summed for a displacement in [-1/2, 1/2) at heat time t.

    Every neglected image lies at least M + 1/2 away, so its term is
    below eps relative once M >= sqrt(4 t ln(1/eps)) - 1/2;
    MIN_IMAGE_SHELLS is the floor, raised only when t needs it (t > 0.05).
    """
    need = math.ceil(math.sqrt(4.0 * t * math.log(1.0 / _EPS)) - 0.5)
    return max(MIN_IMAGE_SHELLS, need)


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

    def __post_init__(self):
        if self.kind not in ("gaussian", "heat"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.k < 2:
            raise ValueError(f"sharpness k must be >= 2, got {self.k}")
        kernel_heat_time(self.kind, self.k, self.t)

    @property
    def heat_time(self):
        return kernel_heat_time(self.kind, self.k, self.t)

    @property
    def image_cutoff(self):
        """Image shells the heat kernel sums: heat_image_cutoff(heat_time)."""
        return heat_image_cutoff(self.heat_time)

    def log_kernel(self, delta):
        """-k * cost at displacements of shape (..., n): the normalized log kernel.

        Gaussian: the cost is the half squared periodic distance. Heat: the
        log of the image sum over the minimum-image displacement, less its
        value at zero displacement, so the kernel lies in (0, 1].
        """
        delta = np.asarray(delta, dtype=float)
        if self.kind == "gaussian":
            return -self.k * torus_cost(delta, 0.0)
        n, t, images = delta.shape[-1], self.heat_time, self.image_cutoff
        return (_log_heat_image_sum(_wrap(delta), t, images, n)
                - _log_heat_image_sum(np.zeros(n), t, images, n))

    def log_cost_profile(self, grid):
        """log_kernel on the displacement lattice, shape (k,)*n."""
        if grid.k != self.k:
            raise ValueError(
                f"grid resolution {grid.k} does not match kernel sharpness {self.k}"
            )
        return self.log_kernel(grid.displacements())


def torus_log_kernel(xs, ys, spec):
    """Log-kernel matrix spec.log_kernel(xs_i - ys_j) between torus point sets.

    Dense; DenseApplicator.from_log_kernel calls it only under the cap.
    """
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    return spec.log_kernel(xs[:, None, :] - ys[None, :, :])


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
    NaN entry.
    """
    profile_hat = _rfft(profile) if profile.ndim == 1 else np.fft.rfftn(profile)
    out = _fft_convolve(profile_hat, profile.shape, vec)
    if not out.min() > 0.0:  # catches nonpositive values and NaN in one pass
        raise FFTUnderflowError("fft kernel application produced nonpositive values")
    return out


def _fft_convolve(profile_hat, shape, vec, spectrum=None, out=None):
    """The circular convolution of fft_apply, unchecked.

    In 2-D and 3-D it writes into spectrum (complex, profile_hat's shape)
    and out (float, shape) when they are given, and allocates them when
    not. The inverse makes np.fft.irfftn's calls, its complex passes in
    place, so no temporary spectrum is built.
    """
    if len(shape) == 1:
        return _irfft(_rfft(vec) * profile_hat, shape[0])
    spectrum = np.fft.rfftn(vec.reshape(shape), out=spectrum)
    spectrum *= profile_hat
    for axis in range(len(shape) - 1):
        np.fft.ifft(spectrum, axis=axis, out=spectrum)
    return np.fft.irfft(spectrum, n=shape[-1], out=out).ravel()


class TorusLatticeApplicator(LinearDomainApplicator):
    """Kernel application on the common lattice, direct or fast mode.

    The exact route is DenseApplicator's softmin over the circulant
    log-kernel, built at the first exact application; mode "direct" takes
    it every time. mode "fft" applies the kernel in the linear domain (see
    LinearDomainApplicator for the shift, the trust check and the redo,
    counted in .fallbacks, or abort past DENSE_POINT_CAP points): by FFT in
    2-D and 3-D; in 1-D, under the same name, as the exact circulant
    product, trusted above k * tiny / 1e-13. Its output block [j0, j0 + B)
    is H @ w[(j0 + i) mod k], with H[r, i] = profile[(r - i) mod k] the
    B x k head of the circulant, built at the first apply. The windows of
    w are rows of a zero-copy view over a doubled w, gathered a few at a
    time: no k x k matrix is built.
    """

    _head_t = None

    def __init__(self, grid, spec, p, q, mode="direct"):
        if grid.k != spec.k:
            raise ValueError(
                f"grid resolution {grid.k} does not match kernel sharpness {spec.k}"
            )
        if mode not in ("direct", "fft"):
            raise ValueError(f"unknown mode {mode!r}")
        if np.shape(p) != (grid.size,) or np.shape(q) != (grid.size,):
            raise ValueError("weight vectors must match the lattice size")
        self._log_profile = log_profile = spec.log_cost_profile(grid)
        # the builder holds the profile, not the applicator
        self._setup(spec.k, p, q, lambda: _circulant_log_kernel(log_profile),
                    symmetric=True)
        self.grid = grid
        self.spec = spec
        self.mode = mode
        self._cost_profile = -log_profile / self.k
        if mode == "fft":
            if grid.n == 1:
                self._floor = grid.k * np.finfo(float).tiny / SUBNORMAL_REL_ERROR
            else:
                self._profile_hat = np.fft.rfftn(np.exp(self._log_profile))
                self._spectrum = np.empty_like(self._profile_hat)
                self._out = np.empty(grid.shape)

    def _softmin(self, values, shift, log_weights, to_target):
        if self.mode == "direct":
            return DenseApplicator._softmin(self, values, shift, log_weights, to_target)
        return super()._softmin(values, shift, log_weights, to_target)

    def _linear_apply(self, w):
        """The kernel on w, in a buffer the applicator reuses."""
        if self.grid.n == 1:
            return self._circulant_product(w)
        return _fft_convolve(self._profile_hat, self.grid.shape, w,
                             self._spectrum, self._out)

    def _circulant_product(self, w):
        """out[j] = sum_i profile[(j - i) mod k] w_i, B outputs per window.

        Each BLAS product takes at least two windows (one alone would go to
        GEMV) and, up to k = 4096, at most _GEMM_SERIAL multiply-adds, so
        it runs on one thread whatever the size of the BLAS pool.
        """
        k = self.grid.k
        if self._head_t is None:
            block = min(_BLOCK, k)
            profile = np.exp(self._log_profile)
            # H.T[i, r] = profile[(r - i) mod k]: row i reads the profile from (k - i) mod k
            self._head_t = sliding_window_view(
                np.concatenate((profile, profile[:block])), block)[:0:-1].copy()
            # a window may run past k - 1 into the second copy of w
            self._doubled = np.empty(2 * k)
            self._windows = sliding_window_view(self._doubled, k)
            self._starts = np.arange(0, k, block)
            self._rows = max(2, _GEMM_SERIAL // (block * k))
            self._blocks = np.empty((self._starts.size, block))
        self._doubled.reshape(2, k)[:] = w
        starts, rows, blocks = self._starts, self._rows, self._blocks
        for c in range(0, starts.size, rows):
            c = max(0, min(c, starts.size - rows))  # the last product redoes a few windows
            # fancy indexing gathers just these windows (np.take copies the view whole)
            np.matmul(self._windows[starts[c : c + rows]], self._head_t,
                      out=blocks[c : c + rows])
        return blocks.ravel()[:k]  # past k - 1 the last block repeats outputs 0, 1, ...

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
