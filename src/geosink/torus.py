"""Flat-torus grids, costs, and kernel application backends.

The torus is [0,1)^n with opposite faces identified. Grids are the uniform
lattices with k points per axis, and the transport cost is half the squared
periodic distance,

    c(x, y) = min over integer shifts m of |x + m - y|^2 / 2,

which decouples per axis. Kernel application (the inner loop of the scaling
iteration) comes in two flavours. The exact one is the package's single
dense route, sinkhorn.DenseApplicator, over kernel rows built here: on the
lattice log_K[a, b] = log_profile[(a - b) mod k] per axis, each row a
window of one table (no N x N matrix, no point cap), or the log-kernel
matrix between two point clouds. The fast one works in the linear domain
and exploits the kernel's translation invariance: an FFT convolution on
the 2-D and 3-D lattices, and on the 1-D lattice the exact circulant
product out[j] = sum_i profile[(j - i) mod k] w_i. Each output of that
product is a sum of k positive terms, so its relative error is at most
about k * eps (Higham, Accuracy and Stability of Numerical Algorithms,
2nd ed., sec. 4.2) whatever range the outputs span; against extended
precision it stays below 3e-15 for k from 2 to 8192, and on the tests'
cosine potentials it agrees with the dense route to about one ulp (k |gap|
at most 1.2e-13 for k up to 1024). An FFT would instead put an absolute
error of order eps * log2(k) * ||w||_2 * sum(profile) into every output
(ibid., sec. 24.1), swamping the small outputs of a peaked potential.

Kernels: the Gaussian profile exp(-k c) for sharpness k, or the periodized
heat kernel at time t (an image sum over integer shifts of the displacement
reduced to [-1/2, 1/2)), used through the cost -log(K_t)/k so both fit the
same exp(-k cost) shape. Both are products over the axes, so their log is
a sum of per-axis log terms, and TorusKernelSpec evaluates it from one
displacement array per axis that broadcast together. The lattice profile
passes the k-point axis, laid along each axis, and so evaluates k n terms
for its k^n entries; a point-cloud kernel passes the M x N differences of
one coordinate at a time, so no M x N x n array is built.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# DENSE_POINT_CAP is imported from here as well as from sinkhorn
from .sinkhorn import DENSE_POINT_CAP, LinearDomainApplicator, _is_integer, kernel_heat_time

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
        if not (_is_integer(self.n) and _is_integer(self.k)):
            raise ValueError(f"torus grid sizes must be integers, got n={self.n}, k={self.k}")
        # Python ints, so k ** n cannot wrap around as a fixed-width numpy int would
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "k", int(self.k))
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
        return self.displacements().reshape(-1, self.n)

    def displacements(self):
        """Displacement lattice delta_j = x_j - x_0, shape (k,)*n + (n,)."""
        axes = np.meshgrid(*([self.axis] * self.n), indexing="ij")
        return np.stack(axes, axis=-1)

    def index_of(self, coords):
        """Lattice index of a point within 1e-12 of the grid, across the seam too."""
        coords = np.atleast_1d(np.asarray(coords, dtype=float))
        scaled = coords * self.k
        nearest = np.rint(scaled)
        if not np.all(np.abs(scaled - nearest) <= 1e-12 * self.k):  # NaN fails
            raise ValueError(f"{coords} is not a lattice point for k={self.k}")
        idx = nearest.astype(int) % self.k
        return int(np.ravel_multi_index(tuple(idx), self.shape))


def torus_cost(x, y):
    """Half squared periodic distance between point arrays of shape (..., n)."""
    delta = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    return _half_squared_distance(np.moveaxis(delta, -1, 0))


def _half_squared_distance(deltas):
    """Half squared periodic distance from per-axis displacements.

    deltas yields one array per axis, and they broadcast together. Each
    axis's squared wrapped distance is added from 0 in axis order, then
    the sum is halved: the order np.sum takes over a last axis of length
    n < 8. Only the running sum and one axis's terms are alive at a time.
    """
    total = 0
    for d in deltas:
        d = np.abs(d) % 1.0
        d = np.minimum(d, 1.0 - d)
        total = total + d * d
    return 0.5 * total


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
    the cross-check. t must satisfy 0 < t < inf. The log is the sum of
    per-axis log image sums, as in TorusKernelSpec.
    """
    t = kernel_heat_time("heat", None, t)  # refuses t unless 0 < t < inf
    delta = np.asarray(delta, dtype=float)
    n = delta.shape[-1]
    if images is None:
        images = heat_image_cutoff(t)
    wrapped = (_wrap(d) for d in np.moveaxis(delta, -1, 0))
    return np.exp(_log_heat_image_sum(wrapped, t, images, n))


def _wrap(delta):
    """Displacements reduced to [-1/2, 1/2) per axis, the minimum image."""
    return delta - np.floor(delta + 0.5)


def _log_heat_image_sum(deltas, t, images, n):
    """log of the image sum over n axes, computed stably for small t.

    The cube of image offsets factors over the axes, so the log is a sum
    of 1-D image sums and memory stays linear in the cutoff. deltas yields
    one minimum-image displacement array per axis, and they broadcast
    together; the 1-D logs are added from 0 in axis order, then the
    normalization n/2 log(4 pi t) is subtracted.
    """
    log_sum = sum(_log_axis_images(d, t, images) for d in deltas)
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

    Both kernels factor over the axes, so the log kernel is a sum of
    per-axis log terms (_axis_log_kernel). Each caller feeds it one
    displacement array per axis: log_kernel the columns of its delta,
    log_cost_profile the k-point axis laid along each axis, and
    torus_log_kernel the M x N differences of one coordinate.
    """

    kind: str
    k: int
    t: float | None = None

    def __post_init__(self):
        if self.kind not in ("gaussian", "heat"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if not (np.isfinite(self.k) and self.k >= 2):  # also refuses NaN
            raise ValueError(f"sharpness k must be finite and >= 2, got k={self.k!r}")
        kernel_heat_time(self.kind, self.k, self.t)

    @property
    def heat_time(self):
        return kernel_heat_time(self.kind, self.k, self.t)

    @property
    def image_cutoff(self):
        """Image shells the heat kernel sums: heat_image_cutoff(heat_time)."""
        return heat_image_cutoff(self.heat_time)

    def _axis_log_kernel(self, deltas, n):
        """-k * cost from per-axis displacements: the normalized log kernel.

        deltas yields n arrays, the displacements along axes 0 to n - 1,
        which broadcast together to the result's shape; it is read once,
        one axis at a time. Gaussian: the cost is the half squared periodic
        distance, each axis's squared wrapped distance added in axis order,
        then scaled by 0.5 and by -k. Heat: each axis's log image sum over
        its minimum-image displacement, added from 0 in axis order, less
        the normalization and less the same sum at zero displacement, so
        the kernel lies in (0, 1].
        """
        if self.kind == "gaussian":
            return -self.k * _half_squared_distance(deltas)
        t, images = self.heat_time, self.image_cutoff
        return (_log_heat_image_sum((_wrap(d) for d in deltas), t, images, n)
                - _log_heat_image_sum(np.zeros(n), t, images, n))

    def log_kernel(self, delta):
        """-k * cost at displacements of shape (..., n): the normalized log kernel.

        The sum of per-axis log terms over the columns delta[..., a]; see
        _axis_log_kernel.
        """
        delta = np.asarray(delta, dtype=float)
        return self._axis_log_kernel(np.moveaxis(delta, -1, 0), delta.shape[-1])

    def log_cost_profile(self, grid):
        """log_kernel on the displacement lattice, shape (k,)*n.

        Axis a's displacements are grid.axis laid along dimension a, and
        broadcasting the per-axis terms forms the profile: k n kernel terms
        and one k^n sum, with no k^n x n displacement array.
        """
        if grid.k != self.k:
            raise ValueError(
                f"grid resolution {grid.k} does not match kernel sharpness {self.k}"
            )
        n = grid.n
        deltas = (grid.axis.reshape((-1,) + (1,) * (n - 1 - a)) for a in range(n))
        return self._axis_log_kernel(deltas, n)


def torus_log_kernel(xs, ys, spec):
    """Log-kernel matrix spec.log_kernel(xs_i - ys_j) between torus point sets.

    Axis a feeds the per-axis sum the M x N differences of coordinate a,
    one axis at a time, so no M x N x n array is built. Dense;
    DenseApplicator.from_log_kernel calls it only under the cap.
    """
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    n = xs.shape[-1]
    if ys.shape[-1] != n:
        raise ValueError(
            f"point sets differ in dimension: {n} and {ys.shape[-1]} coordinates")
    deltas = (xs[:, None, a] - ys[None, :, a] for a in range(n))
    return spec._axis_log_kernel(deltas, n)


def _lattice_windows(log_profile):
    """Kernel rows log_K[a, b] = log_profile[(a - b) mod k] per axis, shape (k,)*2n.

    Output a's row, the kernel the FFT convolution applies for it, is the
    zero-copy window at k - a on every axis of one table, the profile
    reversed and doubled along each axis: log_profile[-j mod k] for j < 2k.
    """
    k, n = log_profile.shape[0], log_profile.ndim
    table = log_profile[np.ix_(*[-np.arange(2 * k) % k] * n)]
    return sliding_window_view(table, log_profile.shape)[(slice(k, 0, -1),) * n]


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


def _circulant_product(log_profile):
    """The 1-D kernel out[j] = sum_i profile[(j - i) mod k] w_i, as a closure.

    Output block [j0, j0 + B) is H @ w[(j0 + i) mod k], with H[r, i] =
    profile[(r - i) mod k] the B x k head of the circulant. doubled holds
    w twice, so the window of w at j0 is a row of a zero-copy view over
    it; the windows of one BLAS product are copied into one gather buffer.
    Returns the closure and doubled's first half, where the softmin pair
    forms its weights: the closure copies w there unless w is that half,
    and returns a view of the output blocks, overwritten by the next call.
    The head, the gather buffer, the output blocks and the block schedule
    are built at the first call: no k x k matrix is built.

    Each BLAS product takes at least two windows (one alone would go to
    GEMV) and, up to k = 4096, at most _GEMM_SERIAL multiply-adds, so it
    runs on one thread whatever the size of the BLAS pool. An apply costs
    O(k^2) arithmetic at BLAS-3 speed. Past DENSE_POINT_CAP nothing bounds
    that cost: the head alone takes 256 k bytes (2.6 GB at the lattice cap
    of 10^7 points).
    """
    k = log_profile.size
    doubled = np.empty(2 * k)
    first, second = doubled[:k], doubled[k:]
    head_t = schedule = out = None

    def product(w):
        nonlocal head_t, schedule, out
        if head_t is None:
            head_t, schedule, out = _circulant_schedule(log_profile, doubled)
        if w is not first:
            first[...] = w
        second[...] = first
        for windows, gathered, blocks in schedule:
            gathered[...] = windows
            np.matmul(gathered, head_t, out=blocks)
        return out

    return product, first


def _circulant_schedule(log_profile, doubled):
    """The transposed head, block schedule and output view of _circulant_product.

    The schedule holds one (windows, gathered, blocks) triple per BLAS
    product: the view of its windows over doubled, the gather buffer and
    its rows of the output blocks.
    """
    k = log_profile.size
    block = min(_BLOCK, k)
    # H.T[i, r] = profile[(r - i) mod k]: the exact route's first rows
    head_t = np.exp(_lattice_windows(log_profile)[:block]).T.copy()
    # a window may run past k - 1 into the second copy of w
    windows = sliding_window_view(doubled, k)[:k:block]
    n_windows = windows.shape[0]
    rows = min(n_windows, max(2, _GEMM_SERIAL // (block * k)))
    gathered = np.empty((rows, k))
    blocks = np.empty((n_windows, block))
    schedule = []
    for c in range(0, n_windows, rows):
        c = min(c, n_windows - rows)  # the last product redoes a few windows
        schedule.append((windows[c : c + rows], gathered, blocks[c : c + rows]))
    # past k - 1 the last block repeats outputs 0, 1, ...
    return head_t, schedule, blocks.reshape(-1)[:k]


class TorusLatticeApplicator(LinearDomainApplicator):
    """Kernel application on the common lattice, direct or fast mode.

    The exact route is DenseApplicator's softmin over _lattice_windows,
    built at the first exact application, with no point cap; mode "direct"
    takes it every time. mode "fft" binds the linear-domain softmin pair at
    construction (see LinearDomainApplicator for the shift, the trust check
    and the redo, counted in .fallbacks, or abort past DENSE_POINT_CAP
    points) over one of two kernels. In 2-D and 3-D it is the FFT
    convolution, not certified: its floor is 0, so it falls back only on a
    nonpositive output. The pair forms its weights in a
    lattice-sized buffer and the convolution runs in a spectrum and an
    output the applicator keeps. In 1-D, under the same name (kept for
    compatibility), it is the exact circulant product (_circulant_product),
    trusted above k * tiny / 1e-13; the pair forms its weights in the first
    half of the product's doubled buffer, and the product's head and block
    schedule are built at the first application, so construction costs no
    more than the direct mode's.
    """

    def __init__(self, grid, spec, p, q, mode="direct"):
        log_profile = spec.log_cost_profile(grid)  # checks grid.k == spec.k
        if mode not in ("direct", "fft"):
            raise ValueError(f"unknown mode {mode!r}")
        if np.shape(p) != (grid.size,) or np.shape(q) != (grid.size,):
            raise ValueError("weight vectors must match the lattice size")
        # the builder holds the profile, not the applicator
        self._setup(spec.k, p, q, lambda: _lattice_windows(log_profile), symmetric=True)
        self.grid, self.spec, self.mode = grid, spec, mode
        if mode == "fft":
            if grid.n == 1:
                self._floor = grid.k * np.finfo(float).tiny / SUBNORMAL_REL_ERROR
                self._linear_apply, buffer = _circulant_product(log_profile)
            else:
                profile_hat = np.fft.rfftn(np.exp(log_profile))
                buffer = np.empty(grid.size)
                self._linear_apply = partial(
                    _fft_convolve, profile_hat, grid.shape,
                    spectrum=np.empty_like(profile_hat), out=np.empty(grid.shape))
            self._bind_pair(buffer)

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
