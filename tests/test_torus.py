"""Torus lattice geometry, kernels, and the two application backends."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import oracles
from geosink.sinkhorn import DenseApplicator, NumericalAbortError
from geosink.torus import (
    FFTUnderflowError,
    TorusGrid,
    TorusKernelSpec,
    TorusLatticeApplicator,
    fft_apply,
    torus_cost,
    torus_cost_matrix,
    torus_heat_kernel,
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

    def test_dimension_guard(self):
        with pytest.raises(ValueError, match="dimension"):
            TorusGrid(4, 3)


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

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            TorusKernelSpec("gaussian", 8).log_cost_profile(TorusGrid(1, 16))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            TorusKernelSpec("poisson", 8)


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

    def test_underflow_falls_back_to_exact_route(self):
        rng = np.random.default_rng(11)
        k = 4096
        grid = TorusGrid(1, k)
        spec = TorusKernelSpec("gaussian", k)
        w = rng.random(k) + 0.5
        w = w / w.sum()
        app = TorusLatticeApplicator(grid, spec, w, w, mode="fft")
        ref = TorusLatticeApplicator(grid, spec, w, w, mode="direct")
        u = np.zeros(k)
        u[k // 2] = -2.0  # one deep spike underflows the shifted convolution
        out = app.softmin_to_target(u)
        assert app.fallbacks == 1
        assert np.array_equal(out, ref.softmin_to_target(u))

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

    def test_mode_guard(self):
        with pytest.raises(ValueError):
            _lattice_instance(8, 1, np.random.default_rng(0), "spectral")
