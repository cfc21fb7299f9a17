"""Sphere grid, harmonic transforms, zonal kernels, and the reflector map."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from geosink.measures import discretize_sphere
from geosink.sinkhorn import NumericalAbortError, initial_state, marginal_errors, run_until
from geosink.sphere import (
    HarmonicCoeffs,
    SphereDenseApplicator,
    SphereKernelSpec,
    SphereSHTApplicator,
    SphericalGrid,
    antenna_height,
    antenna_kernel_apply,
    antenna_kernel_matrix,
    antenna_legendre_coeffs,
    assoc_legendre,
    bandlimited_heat_apply,
    bandlimited_heat_matrix,
    heat_multipliers,
    reflector_map,
    sht_adjoint,
    sht_forward,
    sht_inverse,
    sphere_embed,
    zonal_log_kernel,
)


class TestAssocLegendre:
    def test_known_polynomials(self):
        assert assoc_legendre(1, 0, 0.3) == pytest.approx(0.3, abs=1e-15)
        assert assoc_legendre(2, 0, 0.0) == pytest.approx(-0.5, abs=1e-15)

    def test_high_degree_against_extended_precision(self):
        for x in (-0.7, 0.1, 0.64):
            val = assoc_legendre(20, 10, x)
            ref = oracles.mp_assoc_legendre(20, 10, x)
            assert abs(val - ref) <= 1e-11 * max(1.0, abs(ref))

    def test_sweep_against_scipy(self):
        x = np.linspace(-0.95, 0.95, 7)
        for l in range(6):
            for m in range(l + 1):
                assert_allclose(
                    assoc_legendre(l, m, x),
                    oracles.scipy_assoc_legendre(l, m, x),
                    rtol=1e-12,
                    atol=1e-13,
                )

    def test_order_guard(self):
        with pytest.raises(ValueError, match="0 <= m <= l"):
            assoc_legendre(2, 3, 0.5)


class TestSphericalGrid:
    def test_nodes_avoid_poles(self):
        grid = SphericalGrid(8)
        theta = grid.angles()[:, 1]
        assert theta.min() > 0.0
        assert theta.max() < np.pi

    def test_weights_sum_to_one(self):
        grid = SphericalGrid(12)
        assert abs(grid.node_weights.sum() - 1.0) < 1e-13

    def test_quadrature_kills_harmonics_through_double_degree(self):
        # the grid promises exact integrals of fields band-limited at
        # 2W+1; every nonconstant Y integrates to zero
        W = 6
        grid = SphericalGrid(W)
        ang = grid.angles()
        mu = np.cos(ang[:, 1])
        for l in range(1, 2 * W + 2):
            for m in (0, min(l, 3)):
                y = oracles.normalized_legendre(l, m, mu) * np.exp(1j * m * ang[:, 0])
                assert abs(grid.node_weights @ y) < 1e-12

    def test_legendre_table_matches_oracle(self):
        grid = SphericalGrid(10)
        table = grid.legendre_table()
        for l, m in ((0, 0), (3, 2), (10, 10), (9, 4)):
            assert_allclose(
                table[l, m],
                oracles.normalized_legendre(l, m, grid.mu),
                rtol=1e-12,
                atol=1e-13,
            )

    def test_embed_unit_norm(self):
        grid = SphericalGrid(5)
        assert_allclose(np.linalg.norm(grid.embed(), axis=1), 1.0, atol=1e-14)

    def test_geometry_is_cached_read_only(self):
        grid = SphericalGrid(6)
        for method in (grid.angles, grid.embed, grid.legendre_table):
            cached = method()
            assert method() is cached
            assert not cached.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                cached[0] = 0.0

    def test_no_caller_writes_into_the_cached_geometry(self, rng):
        grid = SphericalGrid(8)
        phi, theta = np.meshgrid(grid.phis, grid.thetas, indexing="xy")
        ang = np.column_stack([phi.ravel(), theta.ravel()])
        xyz = sphere_embed(ang[:, 0], ang[:, 1])
        p = grid.node_weights
        discretize_sphere("cos(theta)", grid)
        for kind in ("heat", "antenna"):
            spec = SphereKernelSpec(kind, 4)
            SphereSHTApplicator(grid, spec, p, p).cost_row(3)
            SphereDenseApplicator(grid, spec, p, p)
        bandlimited_heat_matrix(grid, 0.1)
        antenna_kernel_matrix(grid, 4)
        reflector_map(grid, 1.0 + 0.01 * rng.random(grid.size))
        assert np.array_equal(grid.angles(), ang)
        assert np.array_equal(grid.embed(), xyz)

    def test_bandwidth_guards(self):
        with pytest.raises(ValueError):
            SphericalGrid(0)
        with pytest.raises(ValueError):
            SphericalGrid(129)

    @pytest.mark.parametrize("W", [16.7, 16.0, True, "16", np.float64(8)])
    def test_non_integer_bandwidth_refused(self, W):
        with pytest.raises(ValueError, match=f"bandwidth W must be an integer, got {W}"):
            SphericalGrid(W)

    def test_numpy_integer_bandwidth_accepted(self):
        assert SphericalGrid(np.int64(8)).size == SphericalGrid(8).size


class TestHarmonicCoeffs:
    def test_triangle_guard(self):
        c = HarmonicCoeffs.zeros(4)
        with pytest.raises(ValueError, match="m"):
            c.set(1, 2, 1.0)

    def test_mask_violation_sees_off_triangle_garbage(self):
        c = HarmonicCoeffs.zeros(4)
        assert c.mask_violation() == 0.0
        c.data[1, 0] = 5.0  # (l=1, m=-4) slot, outside the triangle
        assert c.mask_violation() == 5.0


def _random_bandlimited(grid, W, seed):
    """Random real band-limited field via synthesis of symmetric coeffs."""
    rng = np.random.default_rng(seed)
    coeffs = HarmonicCoeffs.zeros(grid.W)
    for l in range(W + 1):
        coeffs.set(l, 0, rng.standard_normal())
        for m in range(1, l + 1):
            z = rng.standard_normal() + 1j * rng.standard_normal()
            coeffs.set(l, m, z)
            coeffs.set(l, -m, (-1.0) ** m * np.conj(z))
    return sht_inverse(grid, coeffs).real, coeffs


class TestShtForward:
    def test_constant_field(self):
        grid = SphericalGrid(6)
        coeffs = sht_forward(grid, np.full(grid.size, 2.5))
        assert coeffs.get(0, 0) == pytest.approx(2.5, abs=1e-13)
        rest = coeffs.data.copy()
        rest[0, coeffs.W] = 0.0
        assert np.abs(rest).max() < 1e-12

    def test_pure_harmonic_lands_on_its_coefficients(self):
        grid = SphericalGrid(8)
        ang = grid.angles()
        mu = np.cos(ang[:, 1])
        field = oracles.normalized_legendre(3, 2, mu) * np.cos(2.0 * ang[:, 0])
        coeffs = sht_forward(grid, field)
        # Re Y_3^2 = (Y_{3,2} + Y_{3,-2})/2 in this normalization
        assert coeffs.get(3, 2) == pytest.approx(0.5, abs=1e-10)
        assert coeffs.get(3, -2) == pytest.approx(0.5, abs=1e-10)
        rest = coeffs.data.copy()
        rest[3, coeffs.W + 2] = 0.0
        rest[3, coeffs.W - 2] = 0.0
        assert np.abs(rest).max() < 1e-10

    def test_roundtrip_on_bandlimited_field(self):
        grid = SphericalGrid(8)
        field, coeffs = _random_bandlimited(grid, 8, seed=4)
        back = sht_forward(grid, field)
        assert np.abs(back.data - coeffs.data).max() < 1e-10


class TestShtInverse:
    def test_zero_coefficients(self):
        grid = SphericalGrid(4)
        out = sht_inverse(grid, HarmonicCoeffs.zeros(4))
        assert np.abs(out).max() == 0.0

    def test_single_dipole_coefficient(self):
        grid = SphericalGrid(4)
        coeffs = HarmonicCoeffs.zeros(4)
        coeffs.set(1, 0, 1.0)
        out = sht_inverse(grid, coeffs)
        ref = np.sqrt(3.0) * np.cos(grid.angles()[:, 1])
        assert_allclose(out.real, ref, atol=1e-13)
        assert np.abs(out.imag).max() < 1e-13

    def test_degree_cap(self):
        grid = SphericalGrid(4)
        with pytest.raises(ValueError, match="^degree 6 exceeds grid bandwidth 4$"):
            sht_inverse(grid, HarmonicCoeffs.zeros(6))

    def test_synthesis_then_analysis_identity(self):
        grid = SphericalGrid(10)
        field, coeffs = _random_bandlimited(grid, 10, seed=9)
        back = sht_forward(grid, field)
        assert np.abs(back.data - coeffs.data).max() < 1e-10


class TestShtAdjoint:
    def test_matches_unweighted_node_sums(self, rng):
        W = 4
        grid = SphericalGrid(W)
        values = rng.standard_normal(grid.size)
        ang = grid.angles()
        mu = np.cos(ang[:, 1])
        out = sht_adjoint(grid, values)
        for l in range(W + 1):
            for m in range(-l, l + 1):
                pl = oracles.normalized_legendre(l, abs(m), mu)
                y = pl * np.exp(1j * abs(m) * ang[:, 0])
                if m < 0:
                    y = (-1.0) ** abs(m) * np.conj(y)
                ref = values @ np.conj(y)
                assert abs(out.get(l, m) - ref) < 1e-10

    def test_degree_cap(self):
        grid = SphericalGrid(4)
        with pytest.raises(ValueError, match="exceeds"):
            sht_adjoint(grid, np.ones(grid.size), L=5)


class TestHeatApply:
    def test_zero_time_is_bandlimit_projection(self):
        grid = SphericalGrid(8)
        field, _ = _random_bandlimited(grid, 8, seed=2)
        out = bandlimited_heat_apply(grid, 0.0, field)
        assert np.abs(out - field).max() < 1e-10

    def test_constant_field_fixed(self):
        grid = SphericalGrid(6)
        out = bandlimited_heat_apply(grid, 0.3, np.full(grid.size, 1.7))
        assert_allclose(out, 1.7, atol=1e-12)

    def test_matches_dense_oracle_matrix(self, rng):
        # the operator is the kernel matrix applied to the field against
        # the quadrature measure
        grid = SphericalGrid(8)
        values = rng.standard_normal(grid.size)
        t = 0.25
        K = oracles.zonal_kernel_matrix(grid.embed(), heat_multipliers(t, 8))
        assert_allclose(
            bandlimited_heat_apply(grid, t, values),
            K @ (grid.node_weights * values),
            atol=1e-8,
        )

    def test_kernel_matrix_rows_integrate_to_one(self):
        grid = SphericalGrid(6)
        K = bandlimited_heat_matrix(grid, 0.3)
        assert_allclose(K @ grid.node_weights, 1.0, atol=1e-12)

    def test_truncation_degree_drops_high_harmonics(self):
        grid = SphericalGrid(8)
        ang = grid.angles()
        field = oracles.normalized_legendre(6, 0, np.cos(ang[:, 1]))
        out = bandlimited_heat_apply(grid, 0.0, field, W=4)
        assert np.abs(out).max() < 1e-10

    def test_dense_helper_agrees_with_oracle(self):
        grid = SphericalGrid(6)
        t = 0.5
        assert_allclose(
            bandlimited_heat_matrix(grid, t),
            oracles.zonal_kernel_matrix(grid.embed(), heat_multipliers(t, 6)),
            atol=1e-12,
        )

    def test_negative_time_rejected(self):
        grid = SphericalGrid(4)
        with pytest.raises(ValueError, match="nonnegative"):
            bandlimited_heat_apply(grid, -0.1, np.ones(grid.size))

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_non_finite_time_rejected(self, t):
        # both used to return an all-NaN field
        grid = SphericalGrid(4)
        with pytest.raises(ValueError, match="finite"):
            bandlimited_heat_apply(grid, t, np.ones(grid.size))


class TestAntennaKernel:
    def test_degree_one_expansion(self):
        assert_allclose(antenna_legendre_coeffs(1), [2.0, -2.0], atol=1e-14)

    def test_expansion_reproduces_power_profile(self):
        # sum_l c_l P_l(s) must rebuild 2^k (1-s)^k on [-1, 1]
        k = 5
        c = antenna_legendre_coeffs(k)
        s = np.linspace(-1.0, 1.0, 101)
        rebuilt = np.polynomial.legendre.legval(s, c)
        assert_allclose(rebuilt, 2.0**k * (1.0 - s) ** k, atol=1e-11)

    def test_apply_matches_dense_matrix(self, rng):
        grid = SphericalGrid(8)
        values = rng.standard_normal(grid.size)
        K = antenna_kernel_matrix(grid, 8)
        assert_allclose(
            antenna_kernel_apply(grid, values, 8), K @ values, rtol=1e-10, atol=1e-8
        )

    def test_dense_matrix_agrees_with_legendre_series_oracle(self):
        grid = SphericalGrid(6)
        from geosink.sphere import antenna_multipliers

        K_direct = antenna_kernel_matrix(grid, 6)
        K_series = oracles.zonal_kernel_matrix(grid.embed(), antenna_multipliers(6))
        assert_allclose(K_direct, K_series, atol=1e-10)

    def test_delta_input_reads_off_kernel_column(self):
        grid = SphericalGrid(8)
        j = 17
        e = np.zeros(grid.size)
        e[j] = 1.0
        out = antenna_kernel_apply(grid, e, 8)
        xyz = grid.embed()
        s = np.clip(xyz @ xyz[j], -1.0, 1.0)
        assert_allclose(out, 2.0**8 * (1.0 - s) ** 8, rtol=1e-10, atol=1e-8)

    def test_raising_expansion_degree_changes_nothing(self, rng):
        # the kernel is a degree-k polynomial in x.y; degrees above k
        # carry exactly zero weight
        grid = SphericalGrid(12)
        values = rng.standard_normal(grid.size)
        a = antenna_kernel_apply(grid, values, 8)
        b = antenna_kernel_apply(grid, values, 8, degree=12)
        assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()

    def test_bandwidth_guard(self):
        grid = SphericalGrid(4)
        with pytest.raises(ValueError, match="bandwidth"):
            antenna_kernel_apply(grid, np.ones(grid.size), 8)


class TestAntennaHeight:
    def test_unit_scaling_vector(self):
        assert_allclose(antenna_height(np.ones(5), 8), 1.0)

    def test_power_of_two(self):
        assert_allclose(antenna_height(np.full(5, 2.0**8), 8), 2.0, rtol=1e-14)

    def test_scaling_law(self, rng):
        a = rng.random(9) + 0.5
        lam = 3.7
        assert_allclose(
            antenna_height(lam * a, 4),
            lam ** (1.0 / 4.0) * antenna_height(a, 4),
            rtol=1e-13,
        )

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            antenna_height(np.array([1.0, 0.0]), 4)


class TestReflectorMap:
    def test_unit_sphere_retroreflects(self):
        grid = SphericalGrid(8)
        directions, ok = reflector_map(grid, np.ones(grid.size))
        assert ok.all()
        assert_allclose(directions, -grid.embed(), atol=1e-8)

    def test_scaling_invariance(self):
        grid = SphericalGrid(8)
        d1, ok1 = reflector_map(grid, np.full(grid.size, 1.0))
        d2, ok2 = reflector_map(grid, np.full(grid.size, 4.2))
        assert ok1.all() and ok2.all()
        assert_allclose(d1, d2, atol=1e-8)

    def test_geometric_identities(self, rng):
        # smooth nonconstant height: outputs are unit vectors and the
        # reflection preserves the angle with the estimated normal
        grid = SphericalGrid(12)
        ang = grid.angles()
        h = np.exp(0.15 * np.cos(ang[:, 1]) + 0.1 * np.sin(ang[:, 1]) * np.cos(ang[:, 0]))
        directions, ok = reflector_map(grid, h)
        assert ok.all()
        assert_allclose(np.linalg.norm(directions, axis=1), 1.0, atol=1e-8)
        x = grid.embed()
        # recover the normal from incoming and outgoing rays: r = x - 2(x.n)n
        # means x - r is parallel to n
        n = x - directions
        n = n / np.linalg.norm(n, axis=1)[:, None]
        assert np.abs(np.abs((x * n).sum(axis=1)) - np.abs((directions * n).sum(axis=1))).max() < 1e-8


class TestSphereKernelSpec:
    @pytest.mark.parametrize("t", [0.0, -1.0, np.nan, np.inf])
    def test_heat_time_must_be_finite_and_positive(self, t):
        with pytest.raises(ValueError, match="heat time t must be finite and positive"):
            SphereKernelSpec("heat", 8, t=t)

    def test_antenna_refuses_t(self):
        with pytest.raises(ValueError, match="t applies to the heat kernel only"):
            SphereKernelSpec("antenna", 8, t=0.3)

    def test_antenna_rows_are_exact(self):
        # the Legendre series gave -inf and rounding noise in the kernel's
        # tail here; the closed form matches |x - y|^(2k) in every entry
        import mpmath

        grid, k = SphericalGrid(31), 16
        p = grid.node_weights
        dense = SphereDenseApplicator(grid, SphereKernelSpec("antenna", k), p, p)
        log_K = dense._to_source
        assert np.isneginf(np.diag(log_K)).all()
        assert np.isfinite(log_K).sum() == grid.size * (grid.size - 1)
        xyz = grid.embed()
        rng = np.random.default_rng(3)
        worst = 0.0
        with mpmath.workdps(50):
            for i in rng.choice(grid.size, 8, replace=False):
                row = dense.cost_row(i)
                for j in rng.choice(grid.size, 200, replace=False):
                    if j == i:
                        continue
                    chord = sum((mpmath.mpf(float(a)) - mpmath.mpf(float(b))) ** 2
                                for a, b in zip(xyz[i], xyz[j]))
                    exact = -mpmath.log(chord ** k) / k
                    worst = max(worst, abs(row[j] - float(exact)))
        assert worst <= 1e-14, worst


class TestSphereApplicators:
    def test_sht_matches_dense_heat_backend(self, rng):
        grid = SphericalGrid(8)
        spec = SphereKernelSpec("heat", 8)
        w = rng.random(grid.size) + 0.5
        p = w / w.sum()
        dense = SphereDenseApplicator(grid, spec, p, p)
        fast = SphereSHTApplicator(grid, spec, p, p)
        u = 0.1 * rng.standard_normal(grid.size)
        assert_allclose(
            fast.softmin_to_target(u), dense.softmin_to_target(u), atol=1e-10
        )
        assert_allclose(
            fast.softmin_to_source(u), dense.softmin_to_source(u), atol=1e-10
        )

    def test_transport_self_converges(self):
        grid = SphericalGrid(6)
        spec = SphereKernelSpec("heat", 6)
        p = grid.node_weights
        kern = SphereSHTApplicator(grid, spec, p, p)
        state = run_until(initial_state(kern), kern, tol=1e-9, m_max=2000)
        assert state.stop_reason == "tol"
        e_row, e_col = marginal_errors(state, kern)
        assert max(e_row, e_col) <= 1e-9

    def test_truncated_heat_positivity_guard(self):
        grid = SphericalGrid(8)
        spec = SphereKernelSpec("heat", 8, t=0.001)
        with pytest.raises(ValueError, match="not positive"):
            SphereSHTApplicator(grid, spec, grid.node_weights, grid.node_weights)

    @pytest.mark.parametrize(
        "k, t, W, advice",
        [(34, None, 68, "raise t (no bandwidth W <= 128 makes it positive)"),
         (10, 0.2, 2, "raise W to 6")],
        ids=["cli-defaults", "truncation"],
    )
    def test_heat_positivity_advice(self, k, t, W, advice):
        # at the CLI defaults past k = 33 the profile minimum is rounding
        # error that no bandwidth removes; at t = 0.2, W = 2 it is truncation
        grid = SphericalGrid(W)
        spec = SphereKernelSpec("heat", k, t=t)
        with pytest.raises(ValueError, match="not positive") as info:
            SphereSHTApplicator(grid, spec, grid.node_weights, grid.node_weights)
        assert str(info.value).endswith(advice)

    def test_antenna_spec_roundtrip(self, rng):
        grid = SphericalGrid(8)
        spec = SphereKernelSpec("antenna", 4)
        w = rng.random(grid.size) + 0.5
        p = w / w.sum()
        dense = SphereDenseApplicator(grid, spec, p, p)
        fast = SphereSHTApplicator(grid, spec, p, p)
        u = 0.05 * rng.standard_normal(grid.size)
        assert_allclose(
            fast.softmin_to_target(u), dense.softmin_to_target(u), atol=1e-8
        )

    @pytest.mark.parametrize("kind", ["heat", "antenna"])
    def test_cost_rows_are_the_dense_rows(self, kind):
        # one SHT apply of a unit vector was 4.4e-9 off in k * cost at W=16,
        # k=16, heat kernel, its rounding swamping the kernel's tail
        grid = SphericalGrid(16)
        spec = SphereKernelSpec(kind, 16)
        p = grid.node_weights
        dense = SphereDenseApplicator(grid, spec, p, p)
        fast = SphereSHTApplicator(grid, spec, p, p)
        for i in (0, 5, grid.size // 2, grid.size - 1):
            assert np.array_equal(fast.cost_row(i), dense.cost_row(i))

    def test_cost_row_is_bitwise_the_uncached_row(self):
        # the row from embedding the angles afresh, as before the grid
        # cached its geometry
        grid = SphericalGrid(16)
        p = grid.node_weights
        fast = SphereSHTApplicator(grid, SphereKernelSpec("heat", 16), p, p)
        phi, theta = np.meshgrid(grid.phis, grid.thetas, indexing="xy")
        xyz = sphere_embed(phi.ravel(), theta.ravel())
        for i in (0, 7, grid.size - 1):
            ref = -zonal_log_kernel(xyz[i : i + 1], xyz, fast._mult)[0] / fast.k
            assert np.array_equal(fast.cost_row(i), ref)
            assert np.array_equal(fast.cost_row(i), ref)

    def test_underflow_past_the_cap_aborts(self, monkeypatch):
        grid = SphericalGrid(32)  # 4356 nodes, past the dense cap
        p = grid.node_weights
        fast = SphereSHTApplicator(grid, SphereKernelSpec("antenna", 16), p, p)

        def quadratic_route():
            raise AssertionError("entered the quadratic route")

        monkeypatch.setattr(fast, "_build_dense", quadratic_route)
        u = np.zeros(grid.size)
        u[grid.size // 2] = -5.0
        with pytest.raises(NumericalAbortError, match="underflow") as info:
            fast.softmin_to_target(u)
        assert info.value.diagnostics["points"] == grid.size
        assert fast.fallbacks == 0


class TestSphereEmbed:
    def test_axes(self):
        assert_allclose(sphere_embed(0.0, np.pi / 2), [1, 0, 0], atol=1e-15)
        assert_allclose(sphere_embed(np.pi / 2, np.pi / 2), [0, 1, 0], atol=1e-15)
        assert_allclose(sphere_embed(0.0, 1e-9), [0, 0, 1], atol=1e-8)
