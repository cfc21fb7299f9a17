"""Discretization, point-cloud files, and the ball-mass density check."""

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from geosink.measures import (
    DensityField,
    DiscreteMeasure,
    ManifoldPoint,
    check_density_property,
    discretize_sphere,
    discretize_torus,
    load_point_cloud,
)
from geosink.sphere import SphericalGrid
from geosink.torus import TorusGrid


class TestDiscretizeTorus:
    def test_uniform_density(self):
        mu = discretize_torus("0", 4, 1)
        assert_allclose(mu.coords.ravel(), [0.0, 0.25, 0.5, 0.75])
        assert_allclose(mu.weights, 0.25)

    def test_cosine_density_direct_evaluation(self):
        # f = cos(2 pi x) on {0, 1/4, 1/2, 3/4} gives e^{-f} = (1/e, 1, e, 1)
        mu = discretize_torus("cos(2*pi*x1)", 4, 1)
        raw = np.array([np.exp(-1.0), 1.0, np.e, 1.0])
        assert_allclose(mu.weights, raw / raw.sum(), rtol=1e-14)

    def test_constant_shift_cancels(self):
        # the normalizer subtracts the max before exponentiating, so the
        # only residue of the shift is the rounding of the addition itself
        a = discretize_torus("cos(2*pi*x1)", 16, 1)
        b = discretize_torus("cos(2*pi*x1) + 7", 16, 1)
        assert_allclose(b.weights, a.weights, rtol=1e-14)

    def test_weights_sum_to_one(self, rng):
        mu = discretize_torus("sin(2*pi*x1) + 0.5*cos(4*pi*x2)", 8, 2)
        assert mu.coords.shape == (64, 2)
        assert abs(mu.weights.sum() - 1.0) <= 1e-12


class TestDiscretizeSphere:
    def test_uniform_density_gives_quadrature_weights(self):
        grid = SphericalGrid(8)
        mu = discretize_sphere("0", grid)
        assert_allclose(mu.weights, grid.node_weights, rtol=1e-14)

    def test_z_coordinate_density_matches_per_node_evaluation(self):
        grid = SphericalGrid(8)
        mu = discretize_sphere("cos(theta)", grid)
        raw = grid.node_weights * np.exp(-np.cos(grid.angles()[:, 1]))
        assert_allclose(mu.weights, raw / raw.sum(), rtol=1e-13)

    def test_weights_sum_to_one(self):
        grid = SphericalGrid(12)
        mu = discretize_sphere("sin(theta)*cos(phi) + 0.3*cos(theta)^2", grid)
        assert abs(mu.weights.sum() - 1.0) <= 1e-12


class TestLoadPointCloud:
    def test_equal_weights_file(self, tmp_path):
        path = tmp_path / "pts.txt"
        path.write_text(
            "# four points, same mass\n"
            "torus1 0.0 0.25\n"
            "torus1 0.25 0.25\n"
            "torus1 0.5 0.25\n"
            "torus1 0.75 0.25\n"
        )
        mu = load_point_cloud(path)
        assert_allclose(mu.weights, 0.25)
        assert_allclose(mu.coords.ravel(), [0.0, 0.25, 0.5, 0.75])

    def test_explicit_weights_kept(self, tmp_path):
        path = tmp_path / "pts.txt"
        path.write_text("torus1 0.1 0.2\ntorus1 0.6 0.8\n")
        mu = load_point_cloud(path)
        assert_allclose(mu.weights, [0.2, 0.8])

    def test_missing_weights_default_to_uniform(self, tmp_path):
        # rotated octahedron: all six vertices stay clear of the poles
        r = 1.0 / np.sqrt(2.0)
        xyz = np.array(
            [
                [r, 0.0, -r],
                [-r, 0.0, r],
                [0.0, 1.0, 0.0],
                [0.0, -1.0, 0.0],
                [r, 0.0, r],
                [-r, 0.0, -r],
            ]
        )
        phi = np.arctan2(xyz[:, 1], xyz[:, 0])
        theta = np.arccos(xyz[:, 2])
        lines = "".join(f"sphere {p} {t}\n" for p, t in zip(phi, theta))
        path = tmp_path / "oct.txt"
        path.write_text(lines)
        mu = load_point_cloud(path)
        assert mu.coords.shape == (6, 2)
        assert_allclose(mu.weights, 1.0 / 6.0)

    def test_pole_rejected(self, tmp_path):
        path = tmp_path / "pole.txt"
        path.write_text("sphere 0.0 0.0\n")
        with pytest.raises(ValueError, match="colatitude"):
            load_point_cloud(path)

    def test_partial_weights_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("torus1 0.1 0.5\ntorus1 0.6\n")
        with pytest.raises(ValueError, match="all points or none"):
            load_point_cloud(path)

    def test_weight_sum_guard_and_renormalize(self, tmp_path):
        path = tmp_path / "off.txt"
        path.write_text("torus1 0.1 0.3\ntorus1 0.6 0.3\n")
        message = f"{path}: weights sum to 0.6; pass renormalize to accept"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_point_cloud(path)
        mu = load_point_cloud(path, renormalize=True)
        assert_allclose(mu.weights, [0.5, 0.5])

    def test_mixed_charts_rejected(self, tmp_path):
        path = tmp_path / "mix.txt"
        path.write_text("torus1 0.1\nsphere 0.0 1.0\n")
        with pytest.raises(ValueError, match="mixed"):
            load_point_cloud(path)

    @pytest.mark.parametrize(
        "text, renormalize",
        [("torus1 0.1 -0.5\ntorus1 0.6 -0.5\n", True),
         ("torus1 0.1 -0.5\ntorus1 0.6 1.5\n", False)],
        ids=["all-negative-renormalized", "mixed-signs-summing-to-one"],
    )
    def test_negative_weight_rejected(self, tmp_path, text, renormalize):
        # divided by their total, all-negative weights turn positive, so only
        # the loader's check, made before the division, refuses them
        path = tmp_path / "neg.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{path}: negative weight$"):
            load_point_cloud(path, renormalize=renormalize)

    def test_file_without_records_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# comments only\n\n")
        with pytest.raises(ValueError, match=f"^{path}: no records found$"):
            load_point_cloud(path)

    def test_inconsistent_coordinate_counts_rejected(self, tmp_path):
        path = tmp_path / "dims.txt"
        path.write_text("torus1 0.1\ntorus2 0.2 0.3\n")
        with pytest.raises(ValueError, match=f"^{path}: inconsistent coordinate counts$"):
            load_point_cloud(path)

    @pytest.mark.parametrize(
        "text, message",
        [("torus 0.1 0.2\n",
          "line 1: bare 'torus' tag is ambiguous with 2 numbers; use torus1/torus2/torus3"),
         ("torus1 0.1\nplane 0.1\n", "line 2: unknown chart tag 'plane'"),
         ("torus1 0.1 0.2 0.3\n",
          "line 1: expected 1 coordinates plus optional weight, got 3 numbers"),
         ("torus1 0.1\ntorus1 abc\n", "line 2: could not convert string to float: 'abc'")],
        ids=["bare-torus", "unknown-tag", "number-count", "non-numeric"],
    )
    def test_malformed_record_names_its_line(self, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_point_cloud(path)
        assert str(info.value) == message


class TestManifoldPoint:
    def test_torus_coords_wrap(self):
        pt = ManifoldPoint("torus", (1.25, -0.25))
        assert_allclose(pt.coords, (0.25, 0.75))

    def test_sphere_unit_vector(self):
        pt = ManifoldPoint("sphere", (0.0, np.pi / 2))
        assert_allclose(pt.to_unit_vector(), [1.0, 0.0, 0.0], atol=1e-15)


class TestCheckDensityProperty:
    def test_uniform_lattice_ball_masses_by_enumeration(self):
        mu = discretize_torus("0", 8, 1)
        centers = mu.coords
        out = check_density_property(mu, k=8, radius=0.25, sample_centers=centers)
        # radius 0.25 around any lattice point covers exactly 5 of 8 nodes
        # (offsets 0, +-1/8, +-2/8), so every ball mass is 5/8
        assert_allclose(out["min"], np.log(5.0 / 8.0) / 8.0, rtol=1e-12)

    def test_empty_ball_flags_minus_inf(self):
        mu = discretize_torus("0", 4, 1)
        atom = ManifoldPoint("torus", (0.0,))
        single = DiscreteMeasure("torus", np.array([atom.coords]), np.array([1.0]))
        out = check_density_property(
            single, k=4, radius=0.1, sample_centers=np.array([[0.5]])
        )
        assert out["min"] == -np.inf
        assert mu.weights.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("n, k", [(1, 32), (2, 8)])
    def test_centers_whole_periods_apart_give_the_same_masses(self, rng, n, k):
        mu = discretize_torus(" + ".join(f"cos(2*pi*x{i + 1})" for i in range(n)), k, n)
        centers = rng.random((6, n))
        want = check_density_property(mu, k, 2.0 / k, centers)["values"]
        for periods in (-1.0, 2.0, 3.0):
            got = check_density_property(mu, k, 2.0 / k, centers + periods)["values"]
            assert_array_equal(got, want)

    def test_radius_covering_everything_gives_zero(self):
        mu = discretize_torus("cos(2*pi*x1)", 8, 1)
        out = check_density_property(
            mu, k=8, radius=1.0, sample_centers=np.array([[0.3]])
        )
        assert_allclose(out["min"], 0.0, atol=1e-15)


class TestDensityField:
    def test_exponent_bound_enforced(self):
        f = DensityField.torus_expression("1000*x1", 1)
        with pytest.raises(ValueError, match="magnitude"):
            f(np.array([[0.9]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_exponent_rejected(self, bad):
        f = DensityField("torus", lambda coords: np.array([0.0, bad]))
        with pytest.raises(ValueError, match="^density exponent evaluated to a non-finite"):
            f(np.zeros((2, 1)))

    def test_constant_field(self):
        f = DensityField.constant("torus", 1.5)
        assert_allclose(f(np.zeros((3, 1))), 1.5)


def _uniform(coords):
    coords = np.asarray(coords, dtype=float)
    n = coords.shape[0]
    return DiscreteMeasure("torus", coords, np.full(n, 1.0 / n))


def _cloud(tmp_path, text):
    path = tmp_path / "cloud.txt"
    path.write_text(text)
    return load_point_cloud(path)


ULP = np.nextafter(0.5, 1.0) - 0.5

# every lattice (n, k) and sphere bandwidth W the benchmark workloads build
WORKLOAD_LATTICES = [(1, 16), (1, 32), (1, 64), (1, 128), (1, 256), (1, 384),
                     (2, 64), (2, 128), (2, 192)]
WORKLOAD_BANDWIDTHS = [16, 31, 32, 48, 64]

DISTINCTNESS = [
    pytest.param(lambda tmp: _uniform([[0.1, 0.2], [0.5, 0.5], [0.3, 0.9], [0.1, 0.2]]),
                 False, id="duplicate-not-adjacent"),
    pytest.param(lambda tmp: _uniform([[0.0], [-0.0]]), False, id="signed-zero"),
    # -0.0 and 0.0 sort as equal keys, so no row can slip between the pair
    pytest.param(lambda tmp: _uniform([[-0.0, -0.0], [0.7, -0.0], [0.0, 0.0]]),
                 False, id="signed-zero-in-both-columns"),
    pytest.param(lambda tmp: _cloud(tmp, "torus1 0.25\ntorus1 0.5\ntorus1 1.25\n"),
                 False, id="cloud-wraps-onto-a-point"),
    pytest.param(lambda tmp: _uniform([[0.1, 0.2], [0.1, 0.3], [0.4, 0.2]]),
                 True, id="equal-in-one-column"),
    pytest.param(lambda tmp: _uniform([[0.5], [0.5 + ULP]]), True, id="one-ulp-apart"),
    pytest.param(lambda tmp: _uniform([[0.3, 0.5], [0.3, 0.5 + ULP], [0.3, 0.5 - ULP / 2]]),
                 True, id="one-ulp-apart-in-one-column"),
] + [
    pytest.param(lambda tmp, n=n, k=k: discretize_torus("0", k, n), True,
                 id=f"lattice-n{n}-k{k}")
    for n, k in WORKLOAD_LATTICES
] + [
    pytest.param(lambda tmp, W=W: discretize_sphere("0", SphericalGrid(W)), True,
                 id=f"sphere-W{W}")
    for W in WORKLOAD_BANDWIDTHS
]


class TestValidation:
    @pytest.mark.parametrize("build, accepted", DISTINCTNESS)
    def test_distinctness(self, tmp_path, build, accepted):
        if accepted:
            assert build(tmp_path).size > 1
        else:
            with pytest.raises(ValueError, match="^points must be pairwise distinct$"):
                build(tmp_path)

    def test_distinctness_matches_a_set_of_rows(self, rng):
        # few distinct values per column, signed zeros among them, so about
        # half the arrays repeat a row; Python tuples compare floats by ==.
        # Each array is also taken sorted with columns read first to last
        # and last to first, the two orders that skip the sort.
        values = np.array([-0.0, 0.0, 0.25, 0.5, 0.5 + ULP])

        def check(coords):
            distinct = len({tuple(row) for row in coords}) == coords.shape[0]
            try:
                _uniform(coords)
                accepted = True
            except ValueError as exc:
                assert str(exc) == "points must be pairwise distinct"
                accepted = False
            assert accepted == distinct, coords
            return accepted

        verdicts = set()
        for _ in range(300):
            n, d = rng.integers(2, 7), rng.integers(1, 4)
            coords = values[rng.integers(0, len(values), size=(n, d))]
            verdicts.add(check(coords))
            for keys in (coords.T[::-1], coords.T):
                verdicts.add(check(coords[np.lexsort(keys)]))
        assert verdicts == {True, False}
        lattice = TorusGrid(2, 4).points()
        adjacent = np.insert(lattice, 6, lattice[5], axis=0)
        assert not check(adjacent)
        assert not check(np.array([[0.25, -0.0], [0.25, 0.0], [0.5, 0.0]]))
        assert not check(np.array([[-0.0, 0.25], [0.0, 0.25], [0.0, 0.5]]))

    def test_grid_measures_never_sort(self, monkeypatch, rng):
        def no_sort(keys):
            raise AssertionError("lexsort called")

        monkeypatch.setattr(np, "lexsort", no_sort)
        for n in (1, 2, 3):
            discretize_torus("0", 5, n)
        for W in (16, 64):
            discretize_sphere("0", SphericalGrid(W))
        for chart, points in [("torus", TorusGrid(2, 5).points()),
                              ("sphere", SphericalGrid(16).angles())]:
            shuffled = points[rng.permutation(len(points))]
            with pytest.raises(AssertionError, match="lexsort called"):
                DiscreteMeasure(chart, shuffled, np.full(len(points), 1.0 / len(points)))

    @pytest.mark.parametrize("weights", [[-0.5, 1.5], [np.nan, 1.0], [np.inf, 0.0]])
    def test_weights_must_be_finite_and_nonnegative(self, weights):
        with pytest.raises(ValueError, match="^weights must be finite and nonnegative$"):
            DiscreteMeasure("torus", [[0.1], [0.5]], weights)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError,
                           match=r"^weights must sum to 1 within 1e-12, got 0\.9$"):
            DiscreteMeasure("torus", [[0.1], [0.5]], [0.5, 0.4])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinates_rejected(self, bad):
        with pytest.raises(ValueError, match=r"finite; 1 of 3 points .* row 1: \[0.2, "):
            _uniform([[0.1, 0.2], [0.2, bad], [0.3, 0.4]])

    def test_two_nan_rows_rejected(self):
        with pytest.raises(ValueError, match="finite; 2 of 2 points"):
            _uniform([[np.nan], [np.nan]])

    @pytest.mark.parametrize(
        "text", ["torus1 0.1\ntorus1 nan\n", "torus1 0.1\ntorus1 inf\n",
                 "sphere 0.1 1.0\nsphere nan 1.0\n"],
        ids=["torus-nan", "torus-inf", "sphere-nan-longitude"],
    )
    def test_non_finite_cloud_rejected(self, tmp_path, text):
        with pytest.raises(ValueError, match="coordinates must be finite"):
            _cloud(tmp_path, text)


class TestFlatCoordinates:
    def test_torus_flat_vector_with_a_weight_per_entry_is_a_column(self):
        m = DiscreteMeasure("torus", [0.1, 0.5], [0.5, 0.5])
        assert m.coords.shape == (2, 1)
        assert_allclose(m.coords.ravel(), [0.1, 0.5])

    def test_flat_vector_with_one_weight_is_one_point(self):
        m = DiscreteMeasure("torus", [0.1, 0.5], [1.0])
        assert m.coords.shape == (1, 2)

    def test_sphere_flat_vector_is_one_point(self):
        # (phi, theta) of one node; two weights do not make it two points
        m = DiscreteMeasure("sphere", [0.1, 0.5], [1.0])
        assert m.coords.shape == (1, 2)
        with pytest.raises(ValueError, match="one weight per point required"):
            DiscreteMeasure("sphere", [0.1, 0.5], [0.5, 0.5])

    def test_length_mismatch_still_raises(self):
        with pytest.raises(ValueError, match="one weight per point required"):
            DiscreteMeasure("torus", [0.1, 0.5, 0.7], [0.5, 0.5])


class TestChartRule:
    def test_torus_points_one_period_apart_are_one_point(self):
        with pytest.raises(ValueError, match="^points must be pairwise distinct$"):
            DiscreteMeasure("torus", [[0.5], [1.5]], [0.5, 0.5])

    def test_torus_coordinates_are_taken_modulo_one(self):
        m = DiscreteMeasure("torus", [[-0.25, 0.5], [1.5, 2.0]], [0.5, 0.5])
        assert m.coords.tolist() == [[0.75, 0.5], [0.5, 0.0]]

    def test_a_remainder_that_rounds_to_one_is_zero(self):
        # -1e-20 % 1.0 rounds to 1.0, which is the point 0
        m = DiscreteMeasure("torus", [[-1e-20], [0.5]], [0.5, 0.5])
        assert m.coords.tolist() == [[0.0], [0.5]]
        with pytest.raises(ValueError, match="pairwise distinct"):
            DiscreteMeasure("torus", [[-1e-20], [0.0]], [0.5, 0.5])

    def test_sphere_longitudes_are_taken_modulo_two_pi(self):
        m = DiscreteMeasure("sphere", [[-0.5, 1.0], [7.0, 2.0]], [0.5, 0.5])
        assert_allclose(m.coords, [[2.0 * np.pi - 0.5, 1.0], [7.0 - 2.0 * np.pi, 2.0]],
                        rtol=0, atol=1e-15)
        assert m.coords[:, 1].tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("theta", [0.0, np.pi, -0.5, 4.0])
    def test_sphere_colatitude_outside_the_open_range_rejected(self, theta):
        with pytest.raises(ValueError, match=r"colatitude must lie in \(0, pi\)"):
            DiscreteMeasure("sphere", [[0.1, 1.0], [0.2, theta]], [0.5, 0.5])

    def test_sphere_points_are_pairs(self):
        with pytest.raises(ValueError, match="pairs"):
            DiscreteMeasure("sphere", [[0.1, 1.0, 0.5]], [1.0])

    def test_the_caller_array_is_not_wrapped_in_place(self):
        coords = np.array([[1.25], [0.5]])
        m = DiscreteMeasure("torus", coords, [0.5, 0.5])
        assert coords.tolist() == [[1.25], [0.5]]
        assert m.coords.tolist() == [[0.25], [0.5]]

    @pytest.mark.parametrize("n, k", WORKLOAD_LATTICES)
    def test_lattices_pass_unchanged(self, n, k):
        assert np.array_equal(discretize_torus("0", k, n).coords, TorusGrid(n, k).points())

    @pytest.mark.parametrize("W", WORKLOAD_BANDWIDTHS)
    def test_sphere_grids_pass_unchanged(self, W):
        grid = SphericalGrid(W)
        assert discretize_sphere("0", grid).coords is grid.angles()

    def test_cloud_colatitude_error_names_the_line(self, tmp_path):
        with pytest.raises(ValueError, match=r"^line 2: colatitude 3.5 outside"):
            _cloud(tmp_path, "sphere 0.1 1.0\nsphere 0.2 3.5\n")

    def test_a_point_takes_the_measure_rule(self):
        assert ManifoldPoint("torus", (-1e-20, 1.5)).coords == (0.0, 0.5)
        m = DiscreteMeasure("sphere", [[-0.5, 1.0]], [1.0])
        assert ManifoldPoint("sphere", (-0.5, 1.0)).coords == tuple(m.coords[0])
        with pytest.raises(ValueError, match="unknown chart"):
            ManifoldPoint("plane", (0.5, 0.5))

    def test_cloud_wrap_is_the_measure_wrap(self, tmp_path):
        mu = _cloud(tmp_path, "sphere -0.5 1.0\nsphere 7.0 2.0\n")
        ref = DiscreteMeasure("sphere", [[-0.5, 1.0], [7.0, 2.0]], [0.5, 0.5])
        assert np.array_equal(mu.coords, ref.coords)
