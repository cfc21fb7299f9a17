"""Discrete probability measures on the flat torus and the round sphere.

Measures arrive in two ways: by sampling a log-density exponent f (the
measure is proportional to e^{-f} dV) on a structured grid, or from a
point-cloud text file. Either way the result is a `DiscreteMeasure`:
a chart tag, a coordinate array, and probability weights normalized by
explicit division (pairwise summation keeps this deterministic and is
plenty accurate at the sizes we run).

Every measure, from a grid or a file, passes one validation: weights
finite, nonnegative and summing to 1, coordinates finite, and points
pairwise distinct under exact float equality (0.0 equals -0.0). The
distinctness test is linear when the rows already strictly increase in
lexicographic order, as lattice and sphere-grid points do, and one
lexicographic sort of the rows, O(N log N), otherwise.

Torus charts use coordinates in [0, 1)^n. Sphere charts use (phi, theta)
with phi in [0, 2*pi) and theta strictly inside (0, pi); the grids used
by the fast backends never touch the poles. Every point and measure takes
coordinates outside those ranges through one rule, _chart_coords.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expressions import parse_expression
from .sphere import SphericalGrid, sphere_embed
from .torus import TorusGrid, torus_cost

__all__ = [
    "EXP_BOUND",
    "ManifoldPoint",
    "DensityField",
    "DiscreteMeasure",
    "discretize_torus",
    "discretize_sphere",
    "load_point_cloud",
    "check_density_property",
]

# largest |exponent| we allow before e^{-f} leaves double range
EXP_BOUND = 700.0


@dataclass(frozen=True)
class ManifoldPoint:
    """A single point, tagged by chart: "torus" (n coords) or "sphere" (phi, theta)."""

    chart: str
    coords: tuple

    def __post_init__(self):
        coords = _chart_coords(self.chart, np.array([self.coords], dtype=float))
        object.__setattr__(self, "coords", tuple(coords[0].tolist()))

    def to_unit_vector(self):
        if self.chart != "sphere":
            raise ValueError("only sphere points embed as unit vectors")
        return sphere_embed(self.coords[0], self.coords[1])


class DensityField:
    """Log-density exponent f, so the associated measure is e^{-f} dV.

    Wraps a vectorized evaluator over coordinate rows. The classmethods
    build evaluators from expression strings: torus expressions use the
    variables x1..xn, sphere expressions use phi and theta.
    """

    def __init__(self, chart, evaluator, source=None):
        self.chart = chart
        self._evaluator = evaluator
        self.source = source

    @classmethod
    def _expression(cls, chart, text, names):
        """Field of an expression whose i-th variable is coordinate column i."""
        expr = parse_expression(text, names)

        def evaluate(coords):
            coords = np.atleast_2d(np.asarray(coords, dtype=float))
            env = {name: coords[:, i] for i, name in enumerate(names)}
            return np.broadcast_to(
                np.asarray(expr(env), dtype=float), (coords.shape[0],)
            ).copy()

        return cls(chart, evaluate, source=text)

    @classmethod
    def torus_expression(cls, text, n):
        return cls._expression("torus", text, [f"x{i + 1}" for i in range(n)])

    @classmethod
    def sphere_expression(cls, text):
        return cls._expression("sphere", text, ["phi", "theta"])

    @classmethod
    def constant(cls, chart, value=0.0):
        return cls(
            chart,
            lambda coords: np.full(np.atleast_2d(coords).shape[0], float(value)),
            source=repr(float(value)),
        )

    def __call__(self, coords):
        values = self._evaluator(coords)
        if not np.all(np.isfinite(values)):
            raise ValueError("density exponent evaluated to a non-finite value")
        if np.any(np.abs(values) > EXP_BOUND):
            raise ValueError(
                f"density exponent exceeds {EXP_BOUND} in magnitude; "
                "e^{-f} would leave double-precision range"
            )
        return values


def _chart_coords(chart, coords):
    """coords (N, d) as a chart takes them: 1 to 3 torus coordinates modulo 1,
    or sphere (phi, theta) pairs, phi modulo 2 pi and theta refused outside (0, pi)."""
    if chart == "torus":
        if not 1 <= coords.shape[1] <= 3:
            raise ValueError("torus points have 1 to 3 coordinates")
        columns, period = slice(None), 1.0
    elif chart == "sphere":
        if coords.shape[1] != 2:
            raise ValueError("sphere points are (phi, theta) pairs")
        theta = coords[:, 1]
        if not (theta.min() > 0.0 and theta.max() < np.pi):  # NaN fails too
            bad = np.flatnonzero(~((theta > 0.0) & (theta < np.pi)))
            raise ValueError(f"colatitude must lie in (0, pi), got {theta[bad[0]]}")
        columns, period = slice(0, 1), 2.0 * np.pi
    else:
        raise ValueError(f"unknown chart {chart!r}")
    part = coords[:, columns]  # copied only to wrap, so grids pass as is
    if not (part.min() >= 0.0 and part.max() < period):
        coords = coords.copy()
        part = coords[:, columns]
        np.remainder(part, period, out=part)
        part[part == period] = 0.0  # a tiny negative's remainder rounds up to the period
    return coords


def _rows_increase(coords, columns):
    """True when each row is lexicographically greater than the one before,
    columns compared in the given order under float < and ==."""
    tied = np.ones(coords.shape[0] - 1, dtype=bool)  # equal in every column so far
    for j in columns:
        before, after = coords[:-1, j], coords[1:, j]
        if (tied & ~(after >= before)).any():  # a smaller later row, or a NaN
            return False
        tied &= after == before
    return not tied.any()


def _has_repeated_row(coords):
    """True when two rows are equal in every column.

    Rows that strictly increase lexicographically, columns read first to
    last (the order of TorusGrid.points) or last to first (the ring-major
    SphericalGrid.angles), form a chain and so are pairwise distinct: that
    test is O(N d). Any other input takes one lexicographic sort, which
    makes equal rows adjacent, O(N log N). Both use float ==, so 0.0
    matches -0.0 while rows one ulp apart stay distinct.
    """
    d = coords.shape[1]
    if coords.shape[0] < 2:
        return False
    if _rows_increase(coords, range(d)) or (
        d > 1 and _rows_increase(coords, range(d - 1, -1, -1))
    ):
        return False
    # lexsort needs at least one key; rows without columns are all equal
    rows = coords[np.lexsort(coords.T)] if d else coords
    return bool((rows[1:] == rows[:-1]).all(axis=1).any())


class DiscreteMeasure:
    """Weighted point cloud: chart tag, (N, d) coordinates, weights summing to 1.

    The constructor checks, in order, each in O(N d) vectorized work
    unless said otherwise:
    - one weight per point;
    - weights finite and nonnegative;
    - weights summing to 1 within 1e-12;
    - coordinates finite;
    - the chart's rule (_chart_coords): 1 to 3 torus coordinates or sphere
      (phi, theta) pairs with theta in (0, pi); coordinates outside the
      period are wrapped on a copy;
    - points pairwise distinct (_has_repeated_row): linear for points in
      lexicographic order, as every grid gives them, one sort otherwise.
    Per-row masks are built only to word an error.
    """

    def __init__(self, chart, coords, weights):
        coords = np.asarray(coords, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if chart == "torus" and coords.ndim == 1 and weights.shape == coords.shape:
            coords = coords[:, None]  # N points of the 1-D torus, not one point
        coords = np.atleast_2d(coords)
        if weights.shape != (coords.shape[0],):
            raise ValueError("one weight per point required")
        if np.any(weights < 0) or not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite and nonnegative")
        total = float(weights.sum())
        if not np.isclose(total, 1.0, rtol=0.0, atol=1e-12):
            raise ValueError(f"weights must sum to 1 within 1e-12, got {total!r}")
        if not np.isfinite(coords).all():
            bad = np.flatnonzero(~np.isfinite(coords).all(axis=1))
            raise ValueError(
                f"point coordinates must be finite; {bad.size} of "
                f"{coords.shape[0]} points are not, the first is row "
                f"{bad[0]}: {coords[bad[0]].tolist()}"
            )
        coords = _chart_coords(chart, coords)
        if _has_repeated_row(coords):
            raise ValueError("points must be pairwise distinct")
        self.chart = chart
        self.coords = coords
        self.weights = weights

    @property
    def size(self):
        return self.coords.shape[0]

    def point(self, i):
        return ManifoldPoint(self.chart, tuple(self.coords[i]))

    def __iter__(self):
        return (self.point(i) for i in range(self.size))


def _normalized_from_log(log_w):
    # shift before exponentiating so a constant added to f cancels exactly
    w = np.exp(log_w - log_w.max())
    return w / w.sum()


def discretize_torus(f, k, n):
    """Sample e^{-f} dV on the uniform k^n lattice and normalize.

    Accepts a DensityField or an expression string over x1..xn. A constant
    shift of f leaves the weights unchanged.
    """
    if isinstance(f, str):
        f = DensityField.torus_expression(f, n)
    grid = TorusGrid(n, k)
    pts = grid.points()
    weights = _normalized_from_log(-f(pts))
    return DiscreteMeasure("torus", pts, weights)


def discretize_sphere(f, grid):
    """Sample e^{-f} against the quadrature weights of a SphericalGrid.

    For f constant the output weights are exactly the quadrature weights.
    """
    if isinstance(f, str):
        f = DensityField.sphere_expression(f)
    if not isinstance(grid, SphericalGrid):
        raise TypeError("discretize_sphere needs a SphericalGrid")
    ang = grid.angles()
    log_w = np.log(grid.node_weights) - f(ang)
    return DiscreteMeasure("sphere", ang, _normalized_from_log(log_w))


# ---------------------------------------------------------------------------
# point-cloud files
# ---------------------------------------------------------------------------

_TORUS_TAGS = {"torus1": 1, "torus2": 2, "torus3": 3}


def _parse_record(tag, fields, lineno, ndim):
    """Return (chart, coords, weight-or-None) for one whitespace-split record."""
    if tag in _TORUS_TAGS:
        n = _TORUS_TAGS[tag]
        chart = "torus"
    elif tag == "torus":
        # bare tag: dimension from the caller, or unambiguous single coordinate
        chart = "torus"
        if ndim is not None:
            n = ndim
        elif len(fields) == 1:
            n = 1
        else:
            raise ValueError(
                f"line {lineno}: bare 'torus' tag is ambiguous with "
                f"{len(fields)} numbers; use torus1/torus2/torus3"
            )
    elif tag == "sphere":
        chart = "sphere"
        n = 2
    else:
        raise ValueError(f"line {lineno}: unknown chart tag {tag!r}")
    if len(fields) not in (n, n + 1):
        raise ValueError(
            f"line {lineno}: expected {n} coordinates plus optional weight, "
            f"got {len(fields)} numbers"
        )
    try:
        numbers = [float(s) for s in fields]
    except ValueError as exc:
        raise ValueError(f"line {lineno}: {exc}") from None
    coords = numbers[:n]
    weight = numbers[n] if len(numbers) == n + 1 else None
    # DiscreteMeasure wraps the coordinates; this check names the line
    if chart == "sphere" and not 0.0 < coords[1] < np.pi:
        raise ValueError(f"line {lineno}: colatitude {coords[1]} outside (0, pi)")
    return chart, coords, weight


def load_point_cloud(path, renormalize=False, ndim=None):
    """Read a whitespace-separated point cloud file into a DiscreteMeasure.

    Each record is `chart_tag coord1 ... [weight]`; `#` starts a comment.
    Weights are all-or-none; when absent every point gets 1/N. A weight
    sum farther than 1e-6 from 1 is rejected unless renormalize is set.
    """
    charts, rows, weights = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            chart, coords, weight = _parse_record(
                fields[0], fields[1:], lineno, ndim
            )
            charts.append(chart)
            rows.append(coords)
            weights.append(weight)
    if not rows:
        raise ValueError(f"{path}: no records found")
    if len(set(charts)) != 1:
        raise ValueError(f"{path}: mixed chart tags")
    dims = {len(r) for r in rows}
    if len(dims) != 1:
        raise ValueError(f"{path}: inconsistent coordinate counts")
    has_w = [w is not None for w in weights]
    if any(has_w) and not all(has_w):
        raise ValueError(f"{path}: weights must be given for all points or none")
    coords = np.array(rows, dtype=float)
    if all(has_w):
        w = np.array(weights, dtype=float)
        # before the division: renormalized, all-negative weights turn positive
        if np.any(w < 0):
            raise ValueError(f"{path}: negative weight")
        total = float(w.sum())
        if abs(total - 1.0) > 1e-6 and not renormalize:
            raise ValueError(
                f"{path}: weights sum to {total!r}; pass renormalize to accept"
            )
        w = w / total
    else:
        w = np.full(len(rows), 1.0 / len(rows))
    return DiscreteMeasure(charts[0], coords, w)


# ---------------------------------------------------------------------------
# density property
# ---------------------------------------------------------------------------


def _ball_masses(measure, centers, radius):
    if measure.chart == "torus":
        dist = np.sqrt(2.0 * torus_cost(measure.coords[None, :, :], centers[:, None, :]))
    else:
        xyz = sphere_embed(measure.coords[:, 0], measure.coords[:, 1])
        cxyz = sphere_embed(centers[:, 0], centers[:, 1])
        # chordal metric: comparable to the geodesic one at small radius
        dist = np.linalg.norm(xyz[None, :, :] - cxyz[:, None, :], axis=2)
    return (measure.weights[None, :] * (dist <= radius)).sum(axis=1)


def check_density_property(measure, k, radius, sample_centers):
    """Minimum over centers of k^{-1} log m(B(center, radius)).

    Values near zero from below mean every sampled ball carries mass
    bounded below by e^{k * value}; an empty ball gives -inf. Centers are
    coordinate rows in the measure's chart (torus distances are periodic
    euclidean, so a torus center and its shift by whole periods give the
    same mass; sphere distances are chordal).
    """
    centers = np.atleast_2d(np.asarray(sample_centers, dtype=float))
    if centers.shape[1] != measure.coords.shape[1]:
        raise ValueError("center dimension does not match the measure")
    masses = _ball_masses(measure, centers, radius)
    with np.errstate(divide="ignore"):
        values = np.log(masses) / k
    worst = int(np.argmin(values))
    return {
        "min": float(values[worst]),
        "worst_center": centers[worst].tolist(),
        "values": values,
    }
