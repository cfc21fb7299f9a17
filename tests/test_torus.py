"""Torus lattice geometry, kernels, and the two application backends."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import oracles
from geosink.measures import discretize_torus
from geosink.sinkhorn import (
    DenseApplicator,
    NumericalAbortError,
    initial_state,
    run_until,
)
from geosink.torus import (
    FFTUnderflowError,
    TorusGrid,
    TorusKernelSpec,
    TorusLatticeApplicator,
    _fft_convolve,
    _log_axis_images,
    _rfft,
    fft_apply,
    torus_cost,
    torus_cost_matrix,
    torus_heat_kernel,
    torus_log_kernel,
)


class TestTorusGrid:
    def test_points_and_spacing(self):
        grid = TorusGrid(1, 4)
        assert grid.size == 4
        assert grid.spacing == 0.25
        assert_allclose(grid.points().ravel(), [0.0, 0.25, 0.5, 0.75])

    def test_two_dim_ordering(self):
        grid = TorusGrid(2, 3)
        pts = grid.points()
        assert pts.shape == (9, 2)
        # lexicographic: second coordinate varies fastest
        assert_allclose(pts[1], [0.0, 1.0 / 3.0])
        assert_allclose(pts[3], [1.0 / 3.0, 0.0])

    def test_index_of_roundtrip(self):
        grid = TorusGrid(2, 5)
        for i in (0, 7, 24):
            assert grid.index_of(grid.points()[i]) == i

    def test_off_lattice_rejected(self):
        with pytest.raises(ValueError, match="not a lattice point"):
            TorusGrid(1, 8).index_of([0.3])

    def test_near_miss_past_the_absolute_tolerance_rejected(self):
        # 5e-6 from point 3 of k = 4, inside a relative tolerance of 1e-5
        with pytest.raises(ValueError, match="not a lattice point"):
            TorusGrid(1, 4).index_of([0.750005])

    @pytest.mark.parametrize("x", [-1e-14, 1.0 - 1e-14, 1.0, -1.0])
    def test_points_across_the_seam_are_point_zero(self, x):
        assert TorusGrid(1, 4).index_of([x]) == 0
        assert TorusGrid(2, 4).index_of([0.25, x]) == 4

    def test_dimension_guard(self):
        with pytest.raises(ValueError, match="dimension"):
            TorusGrid(4, 3)

    @pytest.mark.parametrize("n, k", [(1, 16.5), (1, 16.0), (1.0, 16), (True, 16), (1, True),
                                      (1, "16"), (1, np.float64(16))])
    def test_non_integer_sizes_refused(self, n, k):
        with pytest.raises(ValueError, match=f"must be integers, got n={n}, k={k}"):
            TorusGrid(n, k)

    def test_numpy_integer_sizes_accepted(self):
        grid = TorusGrid(np.int64(2), np.int32(8))
        assert grid.size == 64 and grid.points().shape == (64, 2)

    def test_numpy_integer_size_cannot_wrap_past_the_cap(self):
        # np.int32(2000) ** 3 wraps to a negative int32
        with pytest.raises(ValueError, match="exceeds"):
            TorusGrid(3, np.int32(2000))


class TestTorusCost:
    def test_coincident_points(self):
        assert torus_cost(np.array([0.7]), np.array([0.7])) == 0.0

    def test_wrap_around(self):
        assert_allclose(torus_cost(np.array([0.9]), np.array([0.1])), 0.02)

    def test_matrix_shape(self):
        xs = np.array([[0.0], [0.5]])
        ys = np.array([[0.25]])
        m = torus_cost_matrix(xs, ys)
        assert m.shape == (2, 1)
        assert_allclose(m.ravel(), [0.5 * 0.0625, 0.5 * 0.0625])

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
            min_size=2,
            max_size=6,
        ).filter(lambda v: len(v) % 2 == 0)
    )
    @settings(deadline=None, max_examples=60)
    def test_matches_brute_image_search(self, coords):
        n = len(coords) // 2
        x = np.array(coords[:n])
        y = np.array(coords[n:])
        assert_allclose(
            torus_cost(x, y), oracles.torus_min_image_cost(x, y), atol=1e-15
        )


class TestHeatKernel:
    def test_even_in_delta(self):
        d = np.linspace(0.0, 0.5, 11)[:, None]
        assert np.array_equal(torus_heat_kernel(d, 0.05), torus_heat_kernel(-d, 0.05))

    def test_matches_spectral_sum(self):
        for delta in (0.0, 0.2, 0.5):
            val = torus_heat_kernel(np.array([delta]), 0.05)
            ref = oracles.heat_spectral_sum(delta, 0.05)
            assert_allclose(val, ref, atol=1e-10)

    def test_image_cutoff_converged(self):
        # at the times the library actually runs (t = 2/k <= 0.05 for
        # k >= 40) the default cutoff sits far below rounding
        grid = TorusGrid(1, 64)
        d = grid.points()
        for t in (0.01, 0.025, 0.05):
            k3 = torus_heat_kernel(d, t, images=3)
            k6 = torus_heat_kernel(d, t, images=6)
            assert np.max(np.abs(k3 - k6) / k6) < 1e-12

    def test_second_image_shell_negligible_on_representatives(self):
        # min-image displacements in [-1/2, 1/2]: adding the third image
        # shell moves nothing at t = 0.05
        d = (np.arange(64) / 64.0)[:, None]
        d = np.where(d > 0.5, d - 1.0, d)
        k2 = torus_heat_kernel(d, 0.05, images=2)
        k3 = torus_heat_kernel(d, 0.05, images=3)
        assert np.max(np.abs(k2 - k3)) < 1e-12

    def test_nonpositive_time_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            torus_heat_kernel(np.zeros((1, 1)), 0.0)

    @pytest.mark.parametrize("images", [None, 10])
    def test_periodic_in_delta(self, images):
        # 3.7 and 0.7 are -0.3 a period or four away; without the
        # minimum-image reduction 3.7 fell outside the image window
        vals = torus_heat_kernel(np.array([[3.7], [-0.3], [0.7]]), 0.01, images=images)
        assert_allclose(vals, vals[1], rtol=1e-13, atol=0.0)
        assert vals[1] == pytest.approx(oracles.heat_spectral_sum(0.3, 0.01), rel=1e-12)

    @pytest.mark.parametrize("t", [0.25, 0.5, 1.0])
    def test_default_cutoff_converged_at_long_times(self, t):
        # three image shells alone leave 9e-4 relative error at t = 0.5
        for delta in (0.0, 0.2, 0.5):
            val = torus_heat_kernel(np.array([delta]), t)
            ref = oracles.heat_spectral_sum(delta, t)
            assert_allclose(val, ref, rtol=1e-12, atol=0.0)


class TestKernelSpec:
    def test_gaussian_profile_is_cost(self):
        grid = TorusGrid(1, 8)
        spec = TorusKernelSpec("gaussian", 8)
        prof = spec.log_cost_profile(grid)
        ref = -8.0 * torus_cost(grid.displacements(), np.zeros(1))
        assert_allclose(prof, ref, atol=1e-15)

    def test_heat_profile_normalized_at_origin(self):
        grid = TorusGrid(1, 64)
        spec = TorusKernelSpec("heat", 64)
        prof = spec.log_cost_profile(grid)
        assert prof[0] == 0.0
        assert np.all(prof <= 0.0)

    def test_small_k_heat_profile_is_even(self):
        # t = 2/k = 0.25 at k=8: the image sum needs more than the default
        # three shells, summed around the minimum-image displacement
        grid = TorusGrid(2, 8)
        spec = TorusKernelSpec("heat", 8)
        prof = spec.log_cost_profile(grid)
        reflected = prof[np.ix_((-np.arange(8)) % 8, (-np.arange(8)) % 8)]
        assert np.abs(prof - reflected).max() <= 1e-15
        # the 2-D heat kernel is the product of two 1-D spectral sums
        axis = [oracles.heat_spectral_sum(d, 0.25) for d in grid.axis]
        ref = np.log(np.outer(axis, axis)) - 2.0 * np.log(axis[0])
        assert_allclose(prof, ref, atol=1e-13)

    def test_long_time_heat_profile_factors(self):
        # t = 0.3 needs 7 image shells per axis; the 3-D profile is the sum
        # of three 1-D log spectral sums
        grid = TorusGrid(3, 16)
        spec = TorusKernelSpec("heat", 16, t=0.3)
        assert spec.image_cutoff == 7
        prof = spec.log_cost_profile(grid)
        axis = np.log([oracles.heat_spectral_sum(d, 0.3) for d in grid.axis])
        axis = axis - axis[0]
        ref = axis[:, None, None] + axis[None, :, None] + axis[None, None, :]
        assert_allclose(prof, ref, atol=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["gaussian", "heat"])
    def test_cloud_kernel_is_the_lattice_profile(self, kind, n):
        # one kernel definition: a cloud on the lattice sees the profile bitwise
        for k in (12, 7):
            grid = TorusGrid(n, k)
            spec = TorusKernelSpec(kind, k)
            pts = grid.points()
            cloud = torus_log_kernel(pts, pts[:1], spec)[:, 0]
            assert np.array_equal(cloud, spec.log_cost_profile(grid).ravel())

    @pytest.mark.parametrize("n, k", [(1, 64), (1, 9), (2, 12), (2, 9), (3, 8), (3, 7)])
    @pytest.mark.parametrize("kind, t", [("gaussian", None), ("heat", None), ("heat", 0.3)])
    def test_per_axis_kernel_is_the_lattice_formula(self, kind, t, n, k):
        # the full-lattice formulas the per-axis sums replaced, inline: every
        # kernel entry point must equal them bit for bit, signed zeros too
        grid = TorusGrid(n, k)
        spec = TorusKernelSpec(kind, k, t)
        delta = grid.displacements()
        if kind == "gaussian":
            d = np.abs(delta - 0.0) % 1.0
            d = np.minimum(d, 1.0 - d)
            ref = -k * (0.5 * np.sum(d * d, axis=-1))
        else:
            t, images = spec.heat_time, spec.image_cutoff
            assert t != 0.3 or images > 3

            def image_sum(delta):
                log_sum = sum(_log_axis_images(delta[..., a], t, images)
                              for a in range(n))
                return log_sum - 0.5 * n * np.log(4.0 * np.pi * t)

            wrapped = image_sum(delta - np.floor(delta + 0.5))
            ref = wrapped - image_sum(np.zeros(n))
            assert _same_bits(torus_heat_kernel(delta, t), np.exp(wrapped))
        assert ref.shape == grid.shape
        assert _same_bits(spec.log_cost_profile(grid), ref)
        assert _same_bits(spec.log_kernel(delta), ref)
        pts = grid.points()
        cloud = torus_log_kernel(pts, pts, spec)
        assert _same_bits(cloud[:, 0], ref.ravel())
        assert _same_bits(cloud, spec.log_kernel(pts[:, None, :] - pts[None, :, :]))

    def test_kernel_construction_never_builds_the_displacement_lattice(
            self, monkeypatch):
        # the profile costs k n kernel terms, not a k^n x n lattice
        def no_lattice(grid):
            raise AssertionError("displacements called")

        monkeypatch.setattr(TorusGrid, "displacements", no_lattice)
        for n, k in ((2, 12), (3, 6)):
            grid = TorusGrid(n, k)
            weights = np.full(grid.size, 1.0 / grid.size)
            for kind in ("gaussian", "heat"):
                spec = TorusKernelSpec(kind, k)
                assert spec.log_cost_profile(grid).shape == grid.shape
                for mode in ("fft", "direct"):
                    app = TorusLatticeApplicator(grid, spec, weights, weights, mode=mode)
                    assert np.isfinite(app.softmin_to_target(np.zeros(grid.size))).all()
        with pytest.raises(AssertionError, match="displacements called"):
            TorusGrid(2, 4).points()

    def test_cloud_dimension_mismatch_rejected(self):
        spec = TorusKernelSpec("gaussian", 8)
        with pytest.raises(ValueError, match="differ in dimension: 2 and 1"):
            torus_log_kernel(np.zeros((3, 2)), np.zeros((4, 1)), spec)

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            TorusKernelSpec("gaussian", 8).log_cost_profile(TorusGrid(1, 16))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            TorusKernelSpec("poisson", 8)

    @pytest.mark.parametrize("t", [0.0, -1.0, np.nan, np.inf])
    def test_heat_time_must_be_finite_and_positive(self, t):
        message = "heat time t must be finite and positive"
        with pytest.raises(ValueError, match=message):
            TorusKernelSpec("heat", 8, t=t)
        # the bare image sum takes the same rule, with or without a cutoff
        for images in (None, 3):
            with pytest.raises(ValueError, match=message):
                torus_heat_kernel(np.zeros((2, 1)), t, images=images)

    def test_gaussian_refuses_t(self):
        with pytest.raises(ValueError, match="t applies to the heat kernel only"):
            TorusKernelSpec("gaussian", 8, t=0.5)


def _same_bits(a, b):
    """Equal shapes and equal float64 bit patterns, so -0.0 differs from 0.0."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _direct_softmin(grid, spec, values, weights):
    """out_j = log(sum_i K_ji exp(-k values_i) w_i) / k on the direct route."""
    app = TorusLatticeApplicator(grid, spec, weights, weights, mode="direct")
    return app.softmin_to_target(values)


class TestDirectSoftmin:
    def test_uniform_zero_potential_gives_constant(self):
        grid = TorusGrid(1, 16)
        spec = TorusKernelSpec("gaussian", 16)
        out = _direct_softmin(grid, spec, np.zeros(16), np.full(16, 1.0 / 16.0))
        assert np.ptp(out) < 1e-14

    def test_matches_high_precision_summation(self, rng):
        # 8-point instance, cost rebuilt from the closed form and the
        # whole log-sum-exp redone in 50-digit arithmetic
        import mpmath

        k = 8
        grid = TorusGrid(1, k)
        spec = TorusKernelSpec("gaussian", k)
        u = rng.standard_normal(k)
        w = rng.random(k) + 0.1
        w = w / w.sum()
        out = _direct_softmin(grid, spec, u, w)
        pts = grid.points()
        with mpmath.workdps(50):
            ref = []
            for j in range(k):
                total = mpmath.mpf(0)
                for i in range(k):
                    c = oracles.torus_min_image_cost(pts[i], pts[j])
                    total += mpmath.e ** (-k * (c + u[i])) * w[i]
                ref.append(float(mpmath.log(total) / k))
        assert_allclose(out, ref, atol=1e-13)

    def test_point_cap_enforced(self):
        grid = TorusGrid(2, 128)  # 16384 points
        spec = TorusKernelSpec("gaussian", 128)
        w = np.full(grid.size, 1.0 / grid.size)
        with pytest.raises(ValueError, match="cap"):
            _direct_softmin(grid, spec, np.zeros(grid.size), w)

    def test_two_dim_matches_dense_cost_matrix(self, rng):
        # the multi-index circulant gather against the closed-form cost
        k = 8
        grid = TorusGrid(2, k)
        spec = TorusKernelSpec("gaussian", k)
        p = rng.random(grid.size) + 0.2
        q = rng.random(grid.size) + 0.2
        p, q = p / p.sum(), q / q.sum()
        direct = TorusLatticeApplicator(grid, spec, p, q, mode="direct")
        pts = grid.points()
        dense = DenseApplicator(k, p, q, torus_cost_matrix(pts, pts))
        u = 0.3 * rng.standard_normal(grid.size)
        assert_allclose(direct.softmin_to_target(u), dense.softmin_to_target(u),
                        atol=1e-13)
        assert_allclose(direct.softmin_to_source(u), dense.softmin_to_source(u),
                        atol=1e-13)


class TestFFTApply:
    def test_delta_recovers_kernel_row(self):
        grid = TorusGrid(1, 32)
        profile = np.exp(TorusKernelSpec("gaussian", 32).log_cost_profile(grid))
        e0 = np.zeros(32)
        e0[0] = 1.0
        assert_allclose(fft_apply(profile, e0), profile, rtol=1e-12)

    def test_constant_input_gives_constant(self):
        grid = TorusGrid(1, 32)
        profile = np.exp(TorusKernelSpec("gaussian", 32).log_cost_profile(grid))
        out = fft_apply(profile, np.ones(32))
        assert_allclose(out, profile.sum(), rtol=1e-12)

    def test_matches_direct_summation(self, rng):
        n = 8
        profile = np.exp(rng.standard_normal(n))
        vec = rng.random(n) + 0.05
        ref = np.array(
            [sum(profile[(j - i) % n] * vec[i] for i in range(n)) for j in range(n)]
        )
        assert_allclose(fft_apply(profile, vec), ref, rtol=1e-12)

    def test_two_dim_matches_direct_summation(self, rng):
        k = 4
        profile = np.exp(rng.standard_normal((k, k)))
        vec = rng.random(k * k) + 0.05
        v2 = vec.reshape(k, k)
        ref = np.zeros((k, k))
        for a in range(k):
            for b in range(k):
                for i in range(k):
                    for j in range(k):
                        ref[a, b] += profile[(a - i) % k, (b - j) % k] * v2[i, j]
        assert_allclose(fft_apply(profile, vec), ref.ravel(), rtol=1e-12)

    def test_underflow_raises(self):
        profile = np.full(16, 1e-300)
        vec = np.full(16, 1e-300)
        with pytest.raises(FFTUnderflowError):
            fft_apply(profile, vec)


def _lattice_instance(k, n, rng, mode):
    grid = TorusGrid(n, k)
    spec = TorusKernelSpec("gaussian", k)
    p = rng.random(grid.size) + 0.2
    q = rng.random(grid.size) + 0.2
    return grid, TorusLatticeApplicator(grid, spec, p / p.sum(), q / q.sum(), mode=mode)


class TestLatticeApplicator:
    def test_fft_matches_direct_backend(self, rng):
        for k, n in ((64, 1), (8, 2)):
            _, direct = _lattice_instance(k, n, np.random.default_rng(5), "direct")
            _, fast = _lattice_instance(k, n, np.random.default_rng(5), "fft")
            u = 0.3 * np.random.default_rng(6).standard_normal(k**n)
            assert_allclose(
                fast.softmin_to_target(u), direct.softmin_to_target(u), atol=1e-10
            )
            assert_allclose(
                fast.softmin_to_source(u), direct.softmin_to_source(u), atol=1e-10
            )

    def test_cost_row_matches_closed_form(self, rng):
        grid, app = _lattice_instance(16, 1, rng, "direct")
        pts = grid.points()
        for i in (0, 5, 15):
            assert_allclose(
                app.cost_row(i), torus_cost_matrix(pts[i : i + 1], pts).ravel(),
                atol=1e-15,
            )

    @staticmethod
    def _spike_instance(spike_weight=None):
        rng = np.random.default_rng(11)
        k = 4096
        grid = TorusGrid(1, k)
        spec = TorusKernelSpec("gaussian", k)
        w = rng.random(k) + 0.5
        w = w / w.sum()
        if spike_weight is not None:
            w[k // 2] = spike_weight
        app = TorusLatticeApplicator(grid, spec, w, w, mode="fft")
        ref = TorusLatticeApplicator(grid, spec, w, w, mode="direct")
        u = np.zeros(k)
        u[k // 2] = -2.0  # one deep spike: every other scaled weight underflows
        return app, ref, u

    def test_underflow_falls_back_to_exact_route(self):
        # the spike sits on a node of weight 1e-100, so the far outputs of
        # the exact sum fall below k * tiny / delta: a true underflow
        app, ref, u = self._spike_instance(spike_weight=1e-100)
        out = app.softmin_to_target(u)
        assert app.fallbacks == 1
        assert np.array_equal(out, ref.softmin_to_target(u))

    def test_deep_spike_repaired_without_fallback(self):
        # on an ordinary weight every output of the exact product is
        # representable, so the dense route is never entered
        app, ref, u = self._spike_instance()
        out = app.softmin_to_target(u)
        assert app.fallbacks == 0
        assert_allclose(out, ref.softmin_to_target(u), atol=1e-15, rtol=0.0)

    def test_underflow_past_the_cap_aborts(self, monkeypatch):
        rng = np.random.default_rng(11)
        # 16384 points, past the dense cap; a narrow heat kernel, since the
        # 2-D Gaussian at k=128 stays above the FFT's rounding floor
        grid = TorusGrid(2, 128)
        spec = TorusKernelSpec("heat", 128, t=1e-3)
        w = rng.random(grid.size) + 0.5
        w = w / w.sum()
        app = TorusLatticeApplicator(grid, spec, w, w, mode="fft")

        def quadratic_route():
            raise AssertionError("entered the quadratic route")

        monkeypatch.setattr(app, "_build_dense", quadratic_route)
        u = np.zeros(grid.size)
        u[grid.size // 2] = -2.0  # one deep spike underflows the shifted convolution
        with pytest.raises(NumericalAbortError, match="underflow") as info:
            app.softmin_to_target(u)
        message = str(info.value)
        assert str(grid.size) in message and "DENSE_POINT_CAP" in message
        assert app.fallbacks == 0

    def test_over_budget_redo_past_the_cap_aborts(self, monkeypatch):
        # 8192 points, past the dense cap: a potential of amplitude 0.01
        # spreads the outputs over many decades, which the exact product
        # serves without the quadratic route
        grid = TorusGrid(1, 8192)
        spec = TorusKernelSpec("gaussian", 8192)
        w = np.full(grid.size, 1.0 / grid.size)
        app = TorusLatticeApplicator(grid, spec, w, w, mode="fft")

        def quadratic_route():
            raise AssertionError("entered the quadratic route")

        monkeypatch.setattr(app, "_build_dense", quadratic_route)
        u = 0.01 * np.cos(2.0 * np.pi * grid.points().ravel())
        v = app.softmin_to_target(u)
        assert app.fallbacks == 0
        scaled = np.exp(-grid.k * (u - u.min())) * w
        sample = np.arange(0, grid.k, 61)
        exact = _extended_convolution(np.exp(spec.log_cost_profile(grid)), scaled,
                                      at=sample)
        fast = np.exp(grid.k * (v[sample] + u.min()))
        assert_allclose(fast, exact, rtol=1e-13, atol=0.0)

    def test_mode_guard(self):
        with pytest.raises(ValueError):
            _lattice_instance(8, 1, np.random.default_rng(0), "spectral")

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    @pytest.mark.parametrize("k", [32, 128])  # under and past the dense cap
    def test_non_finite_potential_rejected(self, monkeypatch, bad, k):
        grid = TorusGrid(2, k)
        w = np.full(grid.size, 1.0 / grid.size)
        app = TorusLatticeApplicator(grid, TorusKernelSpec("gaussian", k), w, w, mode="fft")

        def quadratic_route():
            raise AssertionError("entered the quadratic route")

        monkeypatch.setattr(app, "_build_dense", quadratic_route)
        u = np.zeros(grid.size)
        u[5] = bad
        for apply in (app.softmin_to_target, app.softmin_to_source):
            with pytest.raises(ValueError, match="non-finite"):
                apply(u)
        with pytest.raises(ValueError, match="non-finite"):
            app.softmin_to_target(np.full(grid.size, np.inf))
        assert app.fallbacks == 0


class TestStepAllocation:
    # a fast 2-D step allocates the two potentials it returns and nothing
    # else of the lattice's size; temporaries freed and re-allocated every
    # step made glibc trim and re-fault them (29 minor faults per step)
    N, K = 2, 192
    F = "3*(1-cos(2*pi*x1)) + (1-cos(2*pi*x2))"
    G = "3*(1-cos(2*pi*(x1-0.375))) + (1-cos(2*pi*(x2-0.25)))"

    @pytest.fixture(scope="class")
    def warm(self):
        p = discretize_torus(self.F, self.K, self.N).weights
        q = discretize_torus(self.G, self.K, self.N).weights
        app = TorusLatticeApplicator(TorusGrid(self.N, self.K),
                                     TorusKernelSpec("gaussian", self.K), p, q, mode="fft")
        return app, run_until(initial_state(app), app, tol=None, m_max=3)

    @staticmethod
    def _peak_arrays(fn, size):
        """Peak traced memory fn() adds, in arrays of size floats."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return (peak - before) / (8 * size)

    def test_apply_allocates_only_its_result(self, warm):
        app, state = warm
        for apply in (app.softmin_to_target, app.softmin_to_source):
            assert self._peak_arrays(lambda: apply(state.u.values), app.size) < 1.1

    def test_steps_allocate_only_their_potentials(self, warm):
        # run_until holds u, v and the next v across steps and one scratch
        # array: four arrays, plus the fresh potential of the step in
        # flight (the previous pair is freed before the trace softmin)
        app, state = warm
        for steps in (1, 20):
            peak = self._peak_arrays(
                lambda: run_until(state, app, tol=None, m_max=state.m + steps), app.size)
            assert peak < 6.2


class TestStepAllocation1D(TestStepAllocation):
    # the bound 1-D step likewise: the product gathers its windows into a
    # buffer it keeps, where fancy indexing once made a fresh copy
    N, K = 1, 4096
    F = "3*(1-cos(2*pi*x1))"
    G = "3*(1-cos(2*pi*(x1-0.375)))"


SMOOTH_F = "3*(1-cos(2*pi*x1))"
SMOOTH_G = "3*(1-cos(2*pi*(x1-0.375)))"


def _smooth_pair_steps(k, mode):
    p = discretize_torus(SMOOTH_F, k, 1).weights
    q = discretize_torus(SMOOTH_G, k, 1).weights
    app = TorusLatticeApplicator(TorusGrid(1, k), TorusKernelSpec("gaussian", k), p, q,
                                 mode=mode)
    state = run_until(initial_state(app), app, tol=1e-9)
    return state, app


class TestCertifiedFFT:
    """The 1-D fft route against the exact route where its output spans many decades."""

    @pytest.mark.parametrize(
        "k",
        [128, 192, 256, 384,
         pytest.param(512, marks=pytest.mark.slow),
         pytest.param(1024, marks=pytest.mark.slow)],
    )
    def test_smooth_pair_reaches_tol_like_direct(self, k):
        fast, app = _smooth_pair_steps(k, "fft")
        exact, _ = _smooth_pair_steps(k, "direct")
        assert exact.stop_reason == "tol"
        assert fast.stop_reason == "tol"
        assert fast.m <= 1.1 * exact.m
        assert app.fallbacks == 0

    @pytest.mark.parametrize("kind", ["gaussian", "heat"])
    @pytest.mark.parametrize(
        "k", [8, 127, 128, 384, 1024, pytest.param(4096, marks=pytest.mark.slow)]
    )
    def test_apply_matches_direct(self, kind, k):
        rng = np.random.default_rng(k)
        grid = TorusGrid(1, k)
        spec = TorusKernelSpec(kind, k)
        p = rng.random(k) + 0.2
        q = rng.random(k) + 0.2
        p, q = p / p.sum(), q / q.sum()
        fast = TorusLatticeApplicator(grid, spec, p, q, mode="fft")
        exact = TorusLatticeApplicator(grid, spec, p, q, mode="direct")
        x = grid.points().ravel()
        for amp in (0.05, 0.2, 1.0):
            for freq in (1, 3, 7):
                u = amp * np.cos(2.0 * np.pi * freq * x + 6.0 * rng.random())
                gap_t = fast.softmin_to_target(u) - exact.softmin_to_target(u)
                gap_s = fast.softmin_to_source(u) - exact.softmin_to_source(u)
                assert k * np.abs(gap_t).max() <= 1e-12
                assert k * np.abs(gap_s).max() <= 1e-12
        assert fast.fallbacks == 0

    @pytest.mark.parametrize("kind", ["gaussian", "heat"])
    @pytest.mark.parametrize("k", [16, 127, 1000, 4093, 4096])
    def test_fft_error_within_certified_scale(self, kind, k):
        # the FFT convolution's forward error obeys max_j |error_j| <= S
        # with S = eps * log2(k) * ||w||_2 * sum(profile), an absolute
        # bound that swamps small outputs (why the 1-D route is the exact
        # product); check it against an extended-precision convolution on
        # spikes, noise, a weight vector spanning hundreds of decades and
        # scaled cosine potentials, at odd, prime and power-of-two sizes
        rng = np.random.default_rng(k)
        grid = TorusGrid(1, k)
        profile = np.exp(TorusKernelSpec(kind, k).log_cost_profile(grid))
        profile_hat = _rfft(profile)
        x = grid.points().ravel()
        spike = np.zeros(k)
        spike[k // 3] = 1.0
        inputs = [spike, rng.random(k), np.exp(-k * rng.random(k))]
        for amp in (0.05, 1.0, 3.0):
            u = amp * np.cos(2.0 * np.pi * 3 * x + 6.0 * rng.random())
            inputs.append(np.exp(-k * (u - u.min())) * (rng.random(k) + 0.2) / k)
        for w in inputs:
            out = _fft_convolve(profile_hat, (k,), w)
            scale = np.finfo(float).eps * np.log2(k) * np.sqrt(w @ w) * profile.sum()
            assert np.abs(out - _extended_convolution(profile, w)).max() <= scale

    @pytest.mark.parametrize("kind", ["gaussian", "heat"])
    @pytest.mark.parametrize("k", [2, 8, 33, 127, 1000, 1500, 4093])
    def test_product_within_summation_bound(self, kind, k):
        # each output of the 1-D route is a sum of k positive terms, so its
        # relative error is at most about k * eps, at any size (below the
        # block, not a multiple of it, prime, a window count the BLAS
        # products do not divide) and whatever range it spans
        rng = np.random.default_rng(k)
        grid = TorusGrid(1, k)
        spec = TorusKernelSpec(kind, k)
        p = np.full(k, 1.0 / k)
        app = TorusLatticeApplicator(grid, spec, p, p, mode="fft")
        profile = np.exp(spec.log_cost_profile(grid))
        x = grid.points().ravel()
        inputs = [rng.random(k) / k, np.exp(-k * rng.random(k)) / k]
        for amp in (0.05, 1.0, 3.0):
            u = amp * np.cos(2.0 * np.pi * 3 * x + 6.0 * rng.random())
            inputs.append(np.exp(-k * (u - u.min())) * (rng.random(k) + 0.2) / k)
        for w in inputs:
            out = app._linear_apply(w)
            exact = _extended_convolution(profile, w)
            assert np.all(np.abs(out - exact) <= k * np.finfo(float).eps * exact)


    @pytest.mark.parametrize("k", [16, 384, 1000, 2500, 4096])
    def test_products_stay_single_threaded(self, monkeypatch, k):
        # OpenBLAS runs a GEMM of at most 2^18 multiply-adds on one thread,
        # and a single window would go to GEMV, which threads from k = 288
        shapes = []
        matmul = np.matmul

        def spy(a, b, **kwargs):
            shapes.append((a.shape, b.shape))
            return matmul(a, b, **kwargs)

        grid = TorusGrid(1, k)
        p = np.full(k, 1.0 / k)
        app = TorusLatticeApplicator(grid, TorusKernelSpec("gaussian", k), p, p, mode="fft")
        monkeypatch.setattr(np, "matmul", spy)
        app._linear_apply(p)
        assert shapes
        for (rows, n), (n2, block) in shapes:
            assert n == n2 == k
            assert rows >= min(2, -(-k // block))
            assert rows * n * block <= 1 << 18

def _extended_convolution(profile, w, at=None):
    """sum_i profile[(j - i) mod k] w_i in extended precision, rounded to float.

    Computed for every output j, or for the outputs listed in at.
    """
    k = profile.size
    rev = profile[::-1]
    rows = np.lib.stride_tricks.sliding_window_view(np.concatenate((rev, rev)), k)
    wide = w.astype(np.longdouble)
    at = np.arange(k) if at is None else np.asarray(at)
    out = np.empty(at.size)
    for start in range(0, at.size, 256):
        j = at[start : start + 256]
        out[start : start + j.size] = rows[k - 1 - j].astype(np.longdouble) @ wide
    return out
