"""c-transforms, the parabolic reference solver, and the exact circle oracle."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.ndimage import map_coordinates, spline_filter

import oracles
from geosink import parabolic
from geosink.measures import DensityField, discretize_torus
from geosink.parabolic import (
    ParabolicState,
    c_transform,
    check_quasiconvex,
    circle_ot_oracle,
    exp_convergence_fit,
    ma_residual,
    parabolic_step,
    solve_parabolic,
)
from geosink.sinkhorn import (
    NumericalAbortError,
    hilbert_distance,
    initial_state,
    normalized_potentials,
    run_until,
)
from geosink.torus import TorusGrid, TorusKernelSpec, TorusLatticeApplicator, torus_cost_matrix


def _lattice_costs(k):
    pts = TorusGrid(1, k).points()
    return torus_cost_matrix(pts, pts)


def _dyadic_potentials(k, rng):
    """Potentials whose entries and cost differences stay exact in binary."""
    return rng.integers(-512, 513, size=k) / 256.0


class TestCTransform:
    def test_zero_potential_zero_transform(self):
        cost = _lattice_costs(16)
        out = c_transform(np.zeros(16), cost)
        # the diagonal (cost 0) is the maximizer everywhere
        assert np.array_equal(out, np.zeros(16))

    def test_triple_transform_is_single_transform(self, rng):
        # exact idempotence; dyadic inputs keep every float subtraction
        # exact, so the identity holds bitwise
        cost = _lattice_costs(32)
        for _ in range(50):
            u = _dyadic_potentials(32, rng)
            uc = c_transform(u, cost)
            uccc = c_transform(c_transform(uc, cost), cost)
            assert np.array_equal(uccc, uc)

    def test_triple_transform_continuous_inputs(self, rng):
        # general floats can overshoot by one ulp in fl(a - fl(a - t));
        # the transform is still monotone, so u^ccc >= u^c exactly
        cost = _lattice_costs(32)
        for _ in range(50):
            u = rng.standard_normal(32)
            uc = c_transform(u, cost)
            uccc = c_transform(c_transform(uc, cost), cost)
            assert (uccc >= uc).all()
            assert np.abs(uccc - uc).max() <= 1e-15

    def test_double_transform_below_identity(self, rng):
        cost = _lattice_costs(32)
        for _ in range(50):
            u = _dyadic_potentials(32, rng)
            ucc = c_transform(c_transform(u, cost), cost)
            assert (ucc <= u).all()

    def test_order_reversal(self, rng):
        cost = _lattice_costs(24)
        u1 = rng.standard_normal(24)
        u2 = u1 + rng.random(24)
        assert (c_transform(u1, cost) >= c_transform(u2, cost)).all()

    def test_rectangular_grids(self):
        xs = TorusGrid(1, 8).points()
        ys = TorusGrid(1, 16).points()
        cost = torus_cost_matrix(xs, ys)
        out = c_transform(np.zeros(8), cost)
        assert out.shape == (16,)
        # off-lattice targets sit at most half a source cell from a source
        assert out.max() <= 0.0
        assert out.min() >= -0.5 * (1.0 / 16) ** 2

    def test_shape_guard(self):
        with pytest.raises(ValueError, match="rows"):
            c_transform(np.zeros(4), np.zeros((5, 5)))

    def test_discrete_legendre_relation(self):
        # at matched points, curvatures of u and u^c are reciprocal.
        # The lattice transform carries O(dx^2) argmax-quantization noise,
        # so the curvature of u^c needs a balanced wide stencil (step
        # ~sqrt(dx)); the product gap then refines like dx^(3/4)
        def worst_gap(k):
            grid = TorusGrid(1, k)
            pts = grid.points()
            cost = torus_cost_matrix(pts, pts)
            x = pts[:, 0]
            u = np.cos(2.0 * np.pi * x) / (8.0 * np.pi**2)
            uc = c_transform(u, cost)
            match = np.argmax(-cost - u[:, None], axis=0)
            dx = grid.spacing
            upp = (np.roll(u, -1) - 2 * u + np.roll(u, 1)) / dx**2
            r = int(round(np.sqrt(k)))
            h = r * dx
            ucpp = (np.roll(uc, -r) - 2 * uc + np.roll(uc, r)) / h**2
            return np.abs((1.0 + upp[match]) * (1.0 + ucpp) - 1.0).max()

        gap = worst_gap(128)
        assert gap <= 0.08
        assert worst_gap(256) <= 0.75 * gap


class TestCheckQuasiconvex:
    def test_zero_is_unit_eigenvalue(self):
        out = check_quasiconvex(np.zeros(32))
        assert out["min_eig"] == 1.0
        assert out["ok"]

    def test_small_cosine_is_quasiconvex(self):
        x = TorusGrid(1, 64).points()[:, 0]
        u = np.cos(2.0 * np.pi * x) / (8.0 * np.pi**2)
        out = check_quasiconvex(u)
        assert out["ok"]
        # 1 + u'' dips to 1/2 at the crest, plus O(dx^2) stencil error
        assert out["min_eig"] == pytest.approx(0.5, abs=2e-3)

    def test_full_cosine_is_not(self):
        x = TorusGrid(1, 64).points()[:, 0]
        out = check_quasiconvex(np.cos(2.0 * np.pi * x))
        assert not out["ok"]
        assert out["min_eig"] < -30.0

    def test_two_dimensional_zero(self):
        out = check_quasiconvex(np.zeros((8, 8)))
        assert out["min_eig"] == 1.0 and out["ok"]

    def test_grid_reshape(self):
        grid = TorusGrid(2, 8)
        out = check_quasiconvex(np.zeros(64), grid)
        assert out["ok"]

    def test_dimension_guard(self):
        with pytest.raises(ValueError, match="n in"):
            check_quasiconvex(np.zeros((4, 4, 4)))

    def test_non_square_refused(self):
        # the stencil's neighbour offsets assume N x N; an 8 x 12 array
        # used to give a wrong min_eig
        with pytest.raises(ValueError, match=r"square 2-D u, got shape \(8, 12\)"):
            check_quasiconvex(np.zeros((8, 12)))


def _fresh_state(k):
    dx = 1.0 / k
    return ParabolicState(
        u=np.zeros(k), t=0.0, dx=dx, dt=0.2 * dx * dx
    )


class TestParabolicStep:
    def test_equal_forcing_is_stationary(self):
        state = _fresh_state(64)
        x = TorusGrid(1, 64).points()[:, 0]
        f = 0.3 * np.cos(2.0 * np.pi * x)
        nxt = parabolic_step(state, f, f)
        assert np.abs(nxt.u).max() < 1e-15
        assert nxt.t == pytest.approx(state.dt)
        assert nxt.quasiconvex

    def test_common_constant_cancels(self, rng):
        state = _fresh_state(32)
        x = TorusGrid(1, 32).points()[:, 0]
        f = 0.2 * np.cos(2.0 * np.pi * x)
        g = 0.2 * np.sin(2.0 * np.pi * x)
        a = parabolic_step(state, f, g)
        b = parabolic_step(state, f + 1.3, g + 1.3)
        assert_allclose(a.u, b.u, atol=1e-14)

    def test_shift_equivariance(self):
        x = TorusGrid(1, 32).points()[:, 0]
        f = 0.2 * np.cos(2.0 * np.pi * x)
        g = 0.2 * np.cos(2.0 * np.pi * (x - 0.25))
        base = _fresh_state(32)
        shifted = ParabolicState(
            u=base.u + 0.7, t=0.0, dx=base.dx, dt=base.dt
        )
        a = parabolic_step(base, f, g)
        b = parabolic_step(shifted, f, g)
        assert_allclose(b.u, a.u + 0.7, atol=1e-14)

    def test_expression_forcing_accepted(self):
        state = _fresh_state(32)
        nxt = parabolic_step(state, "0.1*cos(2*pi*x1)", "0.1*cos(2*pi*x1)")
        assert np.abs(nxt.u).max() < 1e-15

    def test_euler_self_convergence(self):
        # halving dt halves the time-discretization error: the same-grid
        # runs differ by O(dt), so consecutive differences shrink 2x
        grid = TorusGrid(1, 32)
        f = "0.2*cos(2*pi*x1)"
        g = "0.2*cos(2*pi*(x1-0.3))"
        dt0 = 0.2 * grid.spacing**2

        def final(dt):
            return solve_parabolic(np.zeros(32), f, g, 0.5, grid, dt=dt)[-1].u

        u1, u2, u4 = final(dt0), final(dt0 / 2), final(dt0 / 4)
        d12 = np.abs(u1 - u2).max()
        d24 = np.abs(u2 - u4).max()
        assert d12 / d24 == pytest.approx(2.0, abs=0.4)


class TestSolveParabolic:
    def test_equal_forcing_stays_zero(self):
        grid = TorusGrid(1, 32)
        states = solve_parabolic(np.zeros(32), "cos(2*pi*x1)", "cos(2*pi*x1)", 0.05, grid)
        assert len(states) == 1
        assert np.abs(states[-1].u).max() < 1e-12

    def test_record_times_are_hit_exactly(self):
        grid = TorusGrid(1, 16)
        wanted = [0.01, 0.037, 0.05]
        states = solve_parabolic(
            np.zeros(16), "0.1*cos(2*pi*x1)", "0.1*sin(2*pi*x1)", 0.05, grid,
            record_times=wanted,
        )
        assert [s.t for s in states] == pytest.approx(wanted, abs=1e-12)

    def test_array_of_record_times_reads_as_the_list(self):
        # a numpy array once failed on its ambiguous truth value
        grid = TorusGrid(1, 16)
        args = (np.zeros(16), "0.1*cos(2*pi*x1)", "0.1*sin(2*pi*x1)", 0.05, grid)
        wanted = np.linspace(0.0, 0.05, 3)
        from_array = solve_parabolic(*args, record_times=wanted)
        from_list = solve_parabolic(*args, record_times=wanted.tolist())
        assert [s.t for s in from_array] == [s.t for s in from_list]
        for a, b in zip(from_array, from_list):
            assert np.array_equal(a.u, b.u) and a.min_eig == b.min_eig

    def test_record_beyond_horizon_rejected(self):
        grid = TorusGrid(1, 16)
        with pytest.raises(ValueError, match="within"):
            solve_parabolic(np.zeros(16), "0", "0", 0.1, grid, record_times=[0.2])

    def test_negative_record_time_rejected(self):
        grid = TorusGrid(1, 16)
        with pytest.raises(ValueError, match=r"within \[0, T\]"):
            solve_parabolic(np.zeros(16), "0", "0", 0.1, grid, record_times=[-0.1])

    @pytest.mark.parametrize("times", [
        [float("nan")],  # once recorded t = 0.0 alone and never reached T
        [0.01, float("nan")],  # once recorded t = 0.01 twice
        [float("nan"), 0.01],
        [float("inf")],
        [float("-inf")],
    ])
    def test_non_finite_record_time_rejected(self, times):
        grid = TorusGrid(1, 16)
        with pytest.raises(ValueError, match=r"within \[0, T\]"):
            solve_parabolic(np.zeros(16), "0", "0", 0.05, grid, record_times=times)

    @pytest.mark.parametrize("dt", [0.0, -1e-4, float("nan"), float("inf")])
    def test_step_must_be_finite_and_positive(self, dt):
        # a step that is not positive never advances t toward T
        grid = TorusGrid(1, 16)
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            solve_parabolic(np.zeros(16), "0", "0", 0.01, grid, dt=dt)

    @pytest.mark.parametrize("T", [-0.01, float("nan"), float("inf")])
    def test_horizon_must_be_finite_and_nonnegative(self, T):
        grid = TorusGrid(1, 16)
        with pytest.raises(ValueError, match="T must be finite and nonnegative"):
            solve_parabolic(np.zeros(16), "0", "0", T, grid, dt=1e-3)

    def test_zero_horizon_records_the_initial_min_eig(self):
        grid = TorusGrid(2, 16)
        x = grid.points().reshape(grid.shape + (2,))
        u0 = 1e-3 * np.cos(2.0 * np.pi * (x[..., 0] + 2.0 * x[..., 1]))
        (state,) = solve_parabolic(u0.ravel(), "0", "0", 0.0, grid, record_times=[0.0])
        assert state.t == 0.0 and np.array_equal(state.u, u0)
        assert state.min_eig == check_quasiconvex(u0)["min_eig"]

    def test_nonconvex_start_aborts(self):
        grid = TorusGrid(1, 64)
        u0 = np.cos(2.0 * np.pi * grid.points()[:, 0])
        with pytest.raises(NumericalAbortError, match="quasi-convex"):
            solve_parabolic(u0, "0", "0", 0.01, grid)

    def test_oversized_dt_blows_up(self):
        grid = TorusGrid(1, 32)
        with pytest.raises(NumericalAbortError):
            solve_parabolic(
                np.zeros(32), "0.2*cos(2*pi*x1)", "0.2*sin(2*pi*x1)", 1.0, grid,
                dt=grid.spacing,
            )

    def test_default_dt_is_stable_in_two_dimensions(self):
        # at 0.2 dx^2 (the 1-D default) this pair loses det(I + H) > 0 by
        # t = 0.08; the default 0.2 dx^2 / n = 0.1 dx^2 reaches T
        grid = TorusGrid(2, 32)
        f = "0.3*(1-cos(2*pi*x1)) + 0.2*(1-cos(2*pi*x2))"
        g = "0.3*(1-cos(2*pi*(x1-0.25))) + 0.2*(1-cos(2*pi*(x2-0.5)))"
        final = solve_parabolic(np.zeros(grid.size), f, g, 0.1, grid)[-1]
        assert final.dt == pytest.approx(0.1 * grid.spacing**2, rel=1e-15)
        assert final.t == pytest.approx(0.1, abs=1e-12)
        assert final.min_eig > 0.5

    @pytest.mark.slow
    def test_long_run_settles_to_small_residual(self):
        grid = TorusGrid(1, 32)
        f = "0.3*(1-cos(2*pi*x1))"
        g = "0.3*(1-cos(2*pi*(x1-0.25)))"
        final = solve_parabolic(np.zeros(32), f, g, 8.0, grid)[-1]
        assert final.quasiconvex
        # spatial truncation is O(dx^2) ~ 1e-3 at this resolution
        assert ma_residual(final.u, f, g, grid) <= 1e-2

    @pytest.mark.slow
    def test_exponential_settling_rate_positive(self):
        grid = TorusGrid(1, 32)
        f = "0.3*(1-cos(2*pi*x1))"
        g = "0.3*(1-cos(2*pi*(x1-0.25)))"
        times = list(np.linspace(0.25, 6.0, 24)) + [12.0]
        states = solve_parabolic(np.zeros(32), f, g, 12.0, grid, record_times=times)
        fit = exp_convergence_fit(states)
        assert fit["rate"] > 0.0
        assert fit["A_fit"] > 0.0


def _spline_reference(coeffs, coords):
    return map_coordinates(coeffs, coords, order=3, mode="grid-wrap", prefilter=False)


class TestSplineEvaluation:
    """The 2-D tap cache and the direct 1-D call against map_coordinates."""

    @pytest.mark.parametrize("N", [8, 13, 64])
    def test_taps_match_map_coordinates(self, rng, N):
        coeffs = rng.standard_normal((N, N))
        taps = parabolic._SplineTaps(coeffs)
        nodes = np.indices((N, N), dtype=float).reshape(2, -1)
        out = np.empty(N * N)
        for _ in range(4):
            coords = nodes + rng.uniform(-3.0, 3.0, nodes.shape)
            # points on and just past both ends of the period
            coords[:, :6] = [[-3.0, -1e-12, 0.0, N - 1e-12, N, N + 2.5]] * 2
            assert (coords < 0).any() and (coords >= N).any()
            ref = _spline_reference(coeffs, coords)
            assert np.abs(taps(coords, out) - ref).max() <= 1e-15

    def test_cached_patches_match_a_fresh_evaluator(self, rng):
        grid = TorusGrid(2, 32)
        g = rng.standard_normal(grid.size)
        f = np.zeros(grid.size)
        forcing = parabolic._Forcing(grid, f, g, normalize=False)
        taps = parabolic._SplineTaps(forcing.g_coeffs)
        nodes = forcing.nodes.reshape(2, -1)
        coords = nodes + rng.uniform(0.1, 0.9, nodes.shape)
        out = np.empty(grid.size)
        taps(coords, out)
        for _ in range(6):
            # most points stay in their cell, a random few jump by 1-2 cells
            cells = np.floor(coords)
            coords = cells + rng.uniform(0.1, 0.9, coords.shape)
            jump = rng.random(grid.size) < 0.1
            coords[:, jump] += rng.integers(-2, 3, (2, jump.sum()))
            moved = (np.floor(coords) != cells).any(axis=0)
            assert 0 < moved.sum() < grid.size
            got = taps(coords, out).copy()
            fresh = parabolic._SplineTaps(forcing.g_coeffs)
            assert np.array_equal(got, fresh(coords, np.empty(grid.size)))
            assert np.array_equal(got, forcing.g_at(coords, np.empty(grid.size)))
            assert np.abs(got - _spline_reference(forcing.g_coeffs, coords)).max() <= 1e-15

    def test_direct_call_matches_map_coordinates(self, rng, monkeypatch):
        grid = TorusGrid(1, 64)
        forcing = parabolic._Forcing(grid, np.zeros(64), rng.standard_normal(64), False)
        coords = forcing.nodes + rng.uniform(-3.0, 3.0, (1, 64))
        direct = forcing.g_at(coords, np.empty(64)).copy()
        # without the private entry point the wrapper is called instead
        monkeypatch.setattr(parabolic, "_geometric_transform", None)
        wrapped = forcing.g_at(coords, np.empty(64))
        assert np.array_equal(direct, wrapped)
        assert np.array_equal(direct, _spline_reference(forcing.g_coeffs, coords))


def _reference_flow(u, f, g, T, dt):
    """solve_parabolic's march to T as plain expressions on map_coordinates."""
    dx = 1.0 / u.shape[0]
    nodes = np.indices(u.shape, dtype=float)
    g_coeffs = spline_filter(g, order=3, mode="grid-wrap")
    t = 0.0
    while t < T - 1e-12:
        step = min(dt, T - t)
        ext = np.pad(u, 1, mode="wrap")
        mid = (slice(1, -1),) * u.ndim

        def at(*offsets):
            return ext[tuple(slice(1 + o, ext.shape[0] - 1 + o) for o in offsets)]

        axes = [tuple(int(b == a) for b in range(u.ndim)) for a in range(u.ndim)]
        fwd = [at(*o) for o in axes]
        bwd = [at(*(-i for i in o)) for o in axes]
        seconds = [(p - 2.0 * ext[mid] + m) / (dx * dx) for p, m in zip(fwd, bwd)]
        if u.ndim == 1:
            det = 1.0 + seconds[0]
        else:
            b = (at(1, 1) - at(1, -1) - at(-1, 1) + at(-1, -1)) / (4.0 * dx * dx)
            det = (1.0 + seconds[0]) * (1.0 + seconds[1]) - b * b
        coords = np.stack([n + (p - m) / (2.0 * dx) / dx for n, p, m in zip(nodes, fwd, bwd)])
        g_at = _spline_reference(g_coeffs, coords.reshape(u.ndim, -1)).reshape(u.shape)
        u = u + step * (np.log(det) - g_at + f)
        t += step
    return u


class TestFusedStepper:
    def _pair(self, grid, rng):
        x = grid.points()
        f = 0.2 * np.cos(2.0 * np.pi * x).sum(axis=1)
        g = 0.2 * np.cos(2.0 * np.pi * (x - rng.random(grid.n))).sum(axis=1)
        return f.reshape(grid.shape), g.reshape(grid.shape)

    def test_one_dimensional_trajectory_is_bitwise_the_reference(self, rng):
        grid = TorusGrid(1, 64)
        f, g = self._pair(grid, rng)
        u0 = 1e-3 * np.cos(2.0 * np.pi * grid.points()[:, 0])
        dt = 0.2 * grid.spacing**2
        T = 150.5 * dt  # ends on a partial step
        got = solve_parabolic(u0, f, g, T, grid, normalize=False)[-1].u
        assert np.array_equal(got, _reference_flow(u0, f, g, T, dt))

    def test_two_dimensional_trajectory_matches_the_reference(self, rng):
        grid = TorusGrid(2, 24)
        f, g = self._pair(grid, rng)
        dt = 0.1 * grid.spacing**2
        T = 80 * dt
        got = solve_parabolic(np.zeros(grid.size), f, g, T, grid, normalize=False)[-1].u
        ref = _reference_flow(np.zeros(grid.shape), f, g, T, dt)
        assert np.abs(got - ref).max() <= 1e-13

    def test_two_dimensional_tap_cache_is_bitwise_the_spline_call(self, rng, monkeypatch):
        grid = TorusGrid(2, 24)
        f, g = self._pair(grid, rng)
        T = 80 * 0.1 * grid.spacing**2  # 80 steps of the default dt
        cached = solve_parabolic(np.zeros(grid.size), f, g, T, grid, normalize=False)
        built = []

        def spline_call(coeffs, size):
            built.append(size)
            return lambda coords, out: map_coordinates(
                coeffs, coords, output=out, order=3, mode="grid-wrap", prefilter=False)

        monkeypatch.setattr(parabolic, "_SplineTaps", spline_call)
        direct = solve_parabolic(np.zeros(grid.size), f, g, T, grid, normalize=False)
        # the run switched to its cache once, at its second step
        assert len(built) == 1
        assert np.array_equal(cached[-1].u, direct[-1].u)

    def test_fortran_ordered_start_runs_the_same_flow(self, rng):
        # the stepper works on the flat storage of its padded copy, which
        # must be a view of that copy whatever the layout of u0
        grid = TorusGrid(2, 16)
        f, g = self._pair(grid, rng)
        x = grid.points().reshape(grid.shape + (2,))
        u0 = 1e-3 * np.cos(2.0 * np.pi * (x[..., 0] + 2.0 * x[..., 1]))
        c_run = solve_parabolic(u0, f, g, 0.01, grid, normalize=False)[-1].u
        f_run = solve_parabolic(np.asfortranarray(u0), f, g, 0.01, grid, normalize=False)
        assert np.array_equal(c_run, f_run[-1].u)

    def test_residual_and_step_use_the_same_right_hand_side(self, rng):
        grid = TorusGrid(2, 16)
        f, g = self._pair(grid, rng)
        x = grid.points().reshape(grid.shape + (2,))
        u = 1e-3 * np.cos(2.0 * np.pi * (x[..., 0] + 2.0 * x[..., 1]))
        state = ParabolicState(u=u, t=0.0, dx=grid.spacing, dt=1e-4)
        step = parabolic_step(state, f, g, grid)
        rhs = (step.u - u) / state.dt
        resid = ma_residual(u, f, g, grid, normalize=False)
        assert resid == pytest.approx(np.abs(rhs).max(), rel=1e-9)

    def test_three_dimensions_rejected(self):
        grid = TorusGrid(3, 4)
        state = ParabolicState(u=np.zeros(grid.shape), t=0.0, dx=0.25, dt=1e-3)
        with pytest.raises(ValueError, match="n in"):
            parabolic_step(state, np.zeros(64), np.zeros(64), grid)

    def test_non_square_rejected(self):
        state = ParabolicState(u=np.zeros((8, 12)), t=0.0, dx=0.125, dt=1e-4)
        with pytest.raises(ValueError, match=r"square 2-D u, got shape \(8, 12\)"):
            parabolic_step(state, "0.1*cos(2*pi*x1)", "0.1*cos(2*pi*x2)")


def _raised(call):
    """The NumericalAbortError call raises, with every warning made an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalAbortError) as info:
            call()
    return info.value


class TestScreens:
    """Each step screens its rhs and its u with one sum each and runs the
    exact test only when a sum is not finite. The errors keep the type,
    message, diagnostics and step of an entrywise check, and no
    RuntimeWarning of the unchecked arithmetic escapes."""

    def test_mid_run_determinant_loss(self):
        # test_oversized_dt_blows_up's instance: 1 + u_xx turns negative
        # in the state after three steps, so the fourth step aborts
        grid = TorusGrid(1, 32)
        dt = grid.spacing

        def run(T):
            return solve_parabolic(np.zeros(32), "0.2*cos(2*pi*x1)", "0.2*sin(2*pi*x1)",
                                   T, grid, dt=dt)

        err = _raised(lambda: run(1.0))
        assert str(err) == "det(I + H) lost positivity"
        assert err.diagnostics == {"min_det": -0.7682491788363315,
                                   "t_context": "parabolic step"}
        # recording that state names the step: t = 3 dt, where min_eig
        # (1 + u_xx itself in 1-D) is the determinant the step rejected
        err = _raised(lambda: run(3 * dt))
        assert str(err) == "quasi-convexity lost during run"
        assert err.diagnostics == {"t": 0.09375, "min_eig": -0.7682491788363315}
        assert run(2 * dt)[-1].t == 2 * dt

    def test_nan_forcing_aborts_the_run(self):
        grid = TorusGrid(1, 32)
        f = np.zeros(32)
        f[5] = np.nan
        err = _raised(lambda: solve_parabolic(np.zeros(32), f, "0", 0.01, grid))
        assert str(err) == "non-finite values in parabolic run"
        assert err.diagnostics == {"t": 0.0}

    def test_nan_forcing_aborts_one_step(self):
        f = np.zeros(32)
        f[5] = np.nan
        state = ParabolicState(u=np.zeros(32), t=0.5, dx=1 / 32, dt=1e-4)
        err = _raised(lambda: parabolic_step(state, f, np.zeros(32)))
        assert str(err) == "non-finite values in parabolic step"
        assert err.diagnostics == {"t": 0.5}

    def test_residual_on_degenerate_determinant(self):
        grid = TorusGrid(1, 64)
        u = np.cos(2.0 * np.pi * grid.points()[:, 0])
        err = _raised(lambda: ma_residual(u, "0", "0", grid))
        assert str(err) == "det(I + H) lost positivity"
        assert err.diagnostics == {"min_det": -38.44671910136276,
                                   "t_context": "parabolic step"}

    def test_two_dimensional_determinant_loss(self):
        grid = TorusGrid(2, 16)
        err = _raised(lambda: solve_parabolic(
            np.zeros(grid.size), "0.3*cos(2*pi*x1)", "0.3*sin(2*pi*x2)", 1.0, grid,
            dt=grid.spacing))
        assert str(err) == "det(I + H) lost positivity"
        assert err.diagnostics == {"min_det": -6.4356986096050806,
                                   "t_context": "parabolic step"}

    def test_overflowing_sums_of_finite_entries_pass(self):
        # rhs = 1e308 at every node and u = 5e307 after the step: both
        # screens' sums overflow, the exact tests pass, the run goes on
        grid = TorusGrid(1, 32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (state,) = solve_parabolic(np.zeros(32), np.full(32, 1e308), np.zeros(32),
                                       0.5, grid, dt=0.5, normalize=False)
        assert state.t == 0.5
        assert np.array_equal(state.u, np.full(32, 5e307))
        assert state.min_eig == 1.0
        with np.errstate(over="ignore"):
            assert np.sum(state.u) == np.inf


class TestMAResidual:
    def test_zero_on_matched_forcing(self):
        grid = TorusGrid(1, 32)
        assert ma_residual(np.zeros(32), "cos(2*pi*x1)", "cos(2*pi*x1)", grid) < 1e-12

    def test_raises_on_degenerate_determinant(self):
        grid = TorusGrid(1, 64)
        u = np.cos(2.0 * np.pi * grid.points()[:, 0])
        with pytest.raises(NumericalAbortError, match="positivity"):
            ma_residual(u, "0", "0", grid)

    def test_expression_forcing_is_sampled_once(self, monkeypatch):
        grid = TorusGrid(2, 16)
        f = "0.2*(1-cos(2*pi*x1)) + 0.1*cos(2*pi*x2)"
        g = "0.2*(1-cos(2*pi*(x1-0.3))) + 0.1*cos(2*pi*(x2-0.1))"
        sampled = DensityField.torus_expression(f, 2)(grid.points())
        g_sampled = DensityField.torus_expression(g, 2)(grid.points())
        calls = []
        sample = parabolic._sample_exponent
        monkeypatch.setattr(parabolic, "_sample_exponent",
                            lambda h, grid: calls.append(h) or sample(h, grid))
        parabolic._expression_forcing.cache_clear()
        x = grid.points().reshape(grid.shape + (2,))
        u = 1e-3 * np.cos(2.0 * np.pi * (x[..., 0] + 2.0 * x[..., 1]))
        first = ma_residual(u, f, g, grid)
        assert calls == [f, g]
        # the second call reuses the samples, and a 2-D reuse still calls
        # the spline routine, not the tap cache of a flow
        assert ma_residual(u, f, g, grid) == first
        assert ma_residual(0.5 * u, f, g, grid) != first
        assert calls == [f, g]
        assert ma_residual(u, sampled, g_sampled, grid) == first

    @pytest.mark.slow
    def test_sinkhorn_potential_approximately_solves_the_pde(self):
        # the converged scaling potential at moderate sharpness carries
        # an O(log k / k) entropic blur; 0.2 is a comfortable ceiling
        k = 64
        f = "0.4*(1-cos(2*pi*x1))"
        g = "0.4*(1-cos(2*pi*(x1-0.3)))"
        src = discretize_torus(f, k, 1)
        tgt = discretize_torus(g, k, 1)
        grid = TorusGrid(1, k)
        kern = TorusLatticeApplicator(
            grid, TorusKernelSpec("gaussian", k), src.weights, tgt.weights, mode="fft"
        )
        state = run_until(initial_state(kern), kern, tol=1e-10, m_max=20000)
        u, _ = normalized_potentials(state)
        assert ma_residual(u, f, g, grid) <= 0.2


class TestCircleOracle:
    def test_identity_on_equal_measures(self, rng):
        w = rng.random(12) + 0.1
        p = w / w.sum()
        out = circle_ot_oracle(p, p)
        assert out["cost"] == 0.0
        assert all(i == j for i, j, _ in out["pairs"])

    def test_antipodal_deltas(self):
        p = np.zeros(8)
        q = np.zeros(8)
        p[0] = 1.0
        q[4] = 1.0
        out = circle_ot_oracle(p, q)
        assert out["cost"] == pytest.approx(0.125, abs=1e-15)
        assert out["pairs"] == [(0, 4, 1.0)]

    def test_matches_linear_program(self, rng):
        for k in (5, 8, 12):
            w1 = rng.random(k) + 0.05
            w2 = rng.random(k) + 0.05
            p = w1 / w1.sum()
            q = w2 / w2.sum()
            cost = _lattice_costs(k)
            ref = oracles.lp_transport_cost(cost, p, q)
            assert circle_ot_oracle(p, q)["cost"] == pytest.approx(ref, abs=1e-10)

    def test_pairs_form_a_feasible_plan_with_the_stated_cost(self, rng):
        k = 16
        w1, w2 = rng.random(k) + 0.05, rng.random(k) + 0.05
        p, q = w1 / w1.sum(), w2 / w2.sum()
        out = circle_ot_oracle(p, q)
        cost = _lattice_costs(k)
        row = np.zeros(k)
        col = np.zeros(k)
        total = 0.0
        for i, j, m in out["pairs"]:
            row[i] += m
            col[j] += m
            total += m * cost[i, j]
        assert_allclose(row, p, atol=1e-12)
        assert_allclose(col, q, atol=1e-12)
        assert total == pytest.approx(out["cost"], abs=1e-12)

    @pytest.mark.slow
    def test_dominates_random_feasible_plans(self, rng):
        k = 16
        w1, w2 = rng.random(k) + 0.05, rng.random(k) + 0.05
        p, q = w1 / w1.sum(), w2 / w2.sum()
        opt = circle_ot_oracle(p, q)["cost"]
        cost = _lattice_costs(k)
        plans = oracles.random_feasible_plans(p, q, 10000, rng)
        plan_costs = np.einsum("pij,ij->p", plans, cost)
        assert opt <= plan_costs.min() + 1e-8

    def test_rotation_invariance(self, rng):
        k = 10
        w1, w2 = rng.random(k) + 0.05, rng.random(k) + 0.05
        p, q = w1 / w1.sum(), w2 / w2.sum()
        base = circle_ot_oracle(p, q)["cost"]
        for s in (1, 3, 7):
            rot = circle_ot_oracle(np.roll(p, s), np.roll(q, s))["cost"]
            assert rot == pytest.approx(base, abs=1e-12)

    @staticmethod
    def _all_pairs_alignments(Pc, Qc, theta):
        # the sweep as it once ran: all k^2 ladder differences, then the test
        diffs = (Pc[:, None] - Qc[None, :]).ravel()
        near = []
        for shift in (-1.0, 0.0, 1.0):
            cand = diffs + shift
            near.extend(float(t) for t in cand[np.abs(cand - theta) <= 1e-6])
        return near

    @staticmethod
    def _oracle_pair(k, kind, rng):
        if kind == "random":
            w1, w2 = rng.random(k) + 0.05, rng.random(k) + 0.05
            return w1 / w1.sum(), w2 / w2.sum()
        if kind == "uniform":  # every ladder step aligns with many others
            return np.full(k, 1.0 / k), np.full(k, 1.0 / k)
        f, g = {"wells": ("3*(1-cos(2*pi*x1))", "3*(1-cos(2*pi*(x1-0.375)))"),
                "flat-peaked": ("0", "5*(1-cos(2*pi*(x1-0.5)))")}[kind]
        return discretize_torus(f, k, 1).weights, discretize_torus(g, k, 1).weights

    @pytest.mark.parametrize("k, kind", [
        (k, kind) for k in (8, 64, 300, 1024) for kind in ("random", "wells", "flat-peaked")
    ] + [(8, "uniform"), (64, "uniform"), (300, "uniform")])
    def test_windowed_sweep_keeps_the_all_pairs_candidates(self, monkeypatch, rng, k, kind):
        p, q = self._oracle_pair(k, kind, rng)
        out = circle_ot_oracle(p, q)
        Pc, Qc = np.cumsum(p), np.cumsum(q)
        for theta in (out["rotation"], Pc[k // 3] - Qc[k // 2], 0.0, 0.123456, -0.5):
            assert (parabolic._alignments(Pc, Qc, theta)
                    == self._all_pairs_alignments(Pc, Qc, theta))
        monkeypatch.setattr(parabolic, "_alignments", self._all_pairs_alignments)
        assert circle_ot_oracle(p, q) == out

    def test_sweep_evaluates_each_distinct_candidate_once(self, monkeypatch):
        # the criterion-9 pair, whose ladders align many times over
        k = 4096
        p = discretize_torus("6*(1-cos(2*pi*x1))", k, 1).weights
        q = discretize_torus("6*(1-cos(2*pi*(x1-0.25)))", k, 1).weights
        Pc, Qc = np.cumsum(p), np.cumsum(q)
        matching, thetas = parabolic._rotation_matching, []

        def counting(Pc, Qc, theta, collect=False):
            thetas.append(theta)
            return matching(Pc, Qc, theta, collect)

        monkeypatch.setattr(parabolic, "_rotation_matching", counting)
        out = circle_ot_oracle(p, q)
        # 93 golden-section evaluations, the last at its minimizer, then the
        # sweep, then the collecting pass at the rotation found
        golden = thetas[92]
        candidates = [0.0] + parabolic._alignments(Pc, Qc, golden)
        distinct = list(dict.fromkeys(candidates))
        assert (len(candidates), len(distinct)) == (49, 29)
        assert thetas[93:-1] == distinct
        # the sweep over the full candidate list, duplicates included
        best, rotation = matching(Pc, Qc, golden)[0], golden
        for t in candidates:
            val = matching(Pc, Qc, t)[0]
            if val < best:
                best, rotation = val, t
        _, pair_map = matching(Pc, Qc, rotation, collect=True)
        pairs = [(int(i), int(j), float(m)) for (i, j), m in pair_map.items()]
        assert out == {"cost": float(best), "rotation": float(rotation), "pairs": pairs}

    def test_sweep_memory_is_linear_in_k(self, traced_peak):
        # the all-pairs sweep held 4096^2 floats per shift (512 MB); the
        # sweep alone is traced, as tracing the golden section's O(k)
        # Python walk takes seconds
        p, q = self._oracle_pair(4096, "uniform", None)
        Pc, Qc = np.cumsum(p), np.cumsum(q)
        # the rotation of p onto itself
        near, peak = traced_peak(lambda: parabolic._alignments(Pc, Qc, 0.0))
        assert len(near) >= 4096
        assert peak < 16 * 2**20

    def test_input_guards(self):
        with pytest.raises(ValueError, match="1-D"):
            circle_ot_oracle(np.ones((2, 2)) / 4, np.ones((2, 2)) / 4)
        with pytest.raises(ValueError, match="sum to 1"):
            circle_ot_oracle(np.ones(4), np.ones(4) / 4)

    @pytest.mark.parametrize("bad, match", [
        # summed to 1, this once gave cost 0.009375 and an infeasible plan
        ((0.5, -0.1, 0.3, 0.3), "nonnegative"),
        ((0.5, np.nan, 0.25, 0.25), "finite"),
        ((0.5, np.inf, 0.25, 0.25), "finite"),
    ])
    @pytest.mark.parametrize("side", ["source", "target"])
    def test_refuses_negative_or_non_finite_weights(self, bad, match, side):
        bad, uniform = np.array(bad), np.full(4, 0.25)
        pair = (bad, uniform) if side == "source" else (uniform, bad)
        with pytest.raises(ValueError, match=match):
            circle_ot_oracle(*pair)

    @pytest.mark.parametrize("k", [4, 5, 16, 63, 128, 512])
    def test_merged_ladders_match_the_two_pointer_walk(self, rng, k):
        # the vectorized matching against the loop it replaced, at golden
        # section probes, ladder alignments and the rotations near +-1
        for kind in ("random", "wells", "flat-peaked", "uniform"):
            p, q = self._oracle_pair(k, kind, rng)
            Pc, Qc = np.cumsum(p), np.cumsum(q)
            thetas = [-1.0, -0.999999, -0.5, 0.0, 0.3, 0.999999, 1.0,
                      Pc[k // 3] - Qc[k // 2], Pc[1] - Qc[0] - 1.0, *rng.uniform(-1, 1, 8)]
            for theta in thetas:
                cost, pairs = parabolic._rotation_matching(Pc, Qc, theta, collect=True)
                ref_cost, ref_pairs = oracles.rotation_matching_walk(p, q, k, theta,
                                                                     collect=True)
                assert abs(cost - ref_cost) <= 1e-14
                assert parabolic._rotation_matching(Pc, Qc, theta)[0] == cost
                assert list(pairs) == list(ref_pairs)
                gap = np.array([pairs[key] - ref_pairs[key] for key in pairs])
                assert np.abs(gap).max() <= 1e-15


class TestExpConvergenceFit:
    def test_exact_exponential(self):
        times = np.concatenate([np.linspace(0.0, 8.0, 33), [50.0]])
        traj = [(t, np.array([np.exp(-2.0 * t), 0.3])) for t in times]
        fit = exp_convergence_fit(traj)
        assert fit["rate"] == pytest.approx(2.0, abs=1e-6)

    def test_constant_trajectory_rejected(self):
        traj = [(float(t), np.ones(4)) for t in range(10)]
        with pytest.raises(ValueError, match="insufficient"):
            exp_convergence_fit(traj)

    def test_short_trajectory_rejected(self):
        with pytest.raises(ValueError, match="at least 5"):
            exp_convergence_fit([(0.0, np.zeros(2))] * 4)


def test_sinkhorn_and_the_flow_contract_at_one_rate():
    # Step m = t k of plain Sinkhorn tracks the parabolic flow at time t, so
    # the per-step contraction of the iteration, rescaled by k, is the
    # exponential settling rate of the flow. MILD pair of the acceptance tests.
    f, g = "0.3*(1-cos(2*pi*x1))", "0.3*(1-cos(2*pi*(x1-0.25)))"
    k = 256
    p, q = discretize_torus(f, k, 1).weights, discretize_torus(g, k, 1).weights
    app = TorusLatticeApplicator(TorusGrid(1, k), TorusKernelSpec("gaussian", k=k), p, q,
                                 mode="fft")
    state = run_until(initial_state(app), app, tol=1e-13, A=12.0)
    assert state.stop_reason == "tol"
    e_col = np.array([r.e_col for r in state.trace])
    clean = (e_col > 1e-12) & (e_col < 1e-4)
    pairs = clean[:-1] & clean[1:]
    sinkhorn_rate = np.median(-k * np.log(e_col[1:][pairs] / e_col[:-1][pairs]))

    N, T = 64, 1.5
    traj = solve_parabolic(np.zeros(N), f, g, T, TorusGrid(1, N),
                           record_times=[T * i / 29 for i in range(30)])
    times = np.array([s.t for s in traj[:-1]])
    osc = np.array([hilbert_distance(s.u, traj[-1].u) for s in traj[:-1]])
    fit = (osc > 1e-11) & (osc < 1e-3)
    assert pairs.sum() >= 10 and fit.sum() >= 5
    flow_rate = -np.polyfit(times[fit], np.log(osc[fit]), 1)[0]
    assert sinkhorn_rate == pytest.approx(flow_rate, rel=0.01)
