"""Scaling iteration core: softmin updates, energy, marginals, plans."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import oracles
from geosink.parabolic import c_transform
from geosink.measures import discretize_torus
from geosink.sinkhorn import (
    DenseApplicator,
    LinearDomainApplicator,
    NumericalAbortError,
    Potential,
    energy_diagnostics,
    entropic_cost,
    hilbert_distance,
    initial_state,
    m_max_schedule,
    marginal_errors,
    normalized_potentials,
    plan_entry,
    plan_row,
    rho_density,
    run_until,
    sinkhorn_step,
    softmin_update,
)
from geosink.sphere import (SphereDenseApplicator, SphereKernelSpec,
                            SphereSHTApplicator, SphericalGrid)
from geosink.torus import TorusGrid, TorusKernelSpec, TorusLatticeApplicator


def _zero_cost_applicator(n=4, k=2.0, rng=None):
    rng = rng or np.random.default_rng(3)
    p = rng.random(n) + 0.2
    q = rng.random(n) + 0.2
    return DenseApplicator(k, p / p.sum(), q / q.sum(), np.zeros((n, n)))


def _two_by_two():
    # p = (1/2, 1/2), q = (1/4, 3/4), kernel [[1, 1/2], [1/2, 1]] at k = 1
    cost = np.array([[0.0, np.log(2.0)], [np.log(2.0), 0.0]])
    return DenseApplicator(1.0, np.array([0.5, 0.5]), np.array([0.25, 0.75]), cost)


def _uniform_lattice(k, mode="direct"):
    grid = TorusGrid(1, k)
    spec = TorusKernelSpec("gaussian", k)
    w = np.full(k, 1.0 / k)
    return TorusLatticeApplicator(grid, spec, w, w, mode=mode)


class TestSoftminUpdate:
    def test_zero_cost_zero_potential(self):
        kern = _zero_cost_applicator()
        v = softmin_update(np.zeros(4), "x_to_y", kern)
        assert_allclose(v.values, 0.0, atol=1e-15)

    def test_two_point_scalar_arithmetic(self):
        kern = DenseApplicator(
            1.0,
            np.array([0.5, 0.5]),
            np.array([1.0]),
            np.array([[0.0], [1.0]]),
        )
        v = softmin_update(np.zeros(2), "x_to_y", kern)
        assert_allclose(v.values, [np.log(0.5 + 0.5 * np.exp(-1.0))], rtol=1e-15)

    def test_converges_to_c_transform(self):
        # softmin -> u^c as k grows, error shrinking roughly like 1/k
        u_field = lambda x: 0.05 * np.cos(2.0 * np.pi * x)
        errs = {}
        for k in (64, 128):
            kern = _uniform_lattice(k)
            u = u_field(np.arange(k) / k)
            v = softmin_update(u, "x_to_y", kern).values
            cost = np.stack([kern.cost_row(i) for i in range(k)])
            errs[k] = np.max(np.abs(v - c_transform(u, cost)))
        ratio = errs[64] / errs[128]
        assert 1.5 <= ratio <= 2.5

    def test_direction_guard(self):
        with pytest.raises(ValueError, match="direction"):
            softmin_update(np.zeros(4), "sideways", _zero_cost_applicator())

    def test_non_finite_potential_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            softmin_update(np.array([0.0, np.nan, 0, 0]), "x_to_y",
                           _zero_cost_applicator())

    @pytest.mark.parametrize("route", ["dense", "torus1-fft", "torus2-fft", "sphere-sht"])
    def test_inf_entry_gives_the_backend_output(self, route):
        # softmin_update leaves the potential to the backend's own rule
        kern = _every_route(route)
        values = 0.1 * np.random.default_rng(5).random(kern.p.size)
        values[2] = np.inf
        want = kern.softmin_to_target(values)
        assert np.array_equal(softmin_update(values, "x_to_y", kern).values, want)
        values = 0.1 * np.random.default_rng(6).random(kern.q.size)
        values[1] = np.inf
        want = kern.softmin_to_source(values)
        assert np.array_equal(softmin_update(values, "y_to_x", kern).values, want)


class TestSinkhornStep:
    def test_self_transport_fixed_point_after_one_step(self):
        kern = _uniform_lattice(16)
        state = sinkhorn_step(initial_state(kern), kern)
        u, v = normalized_potentials(state)
        assert np.ptp(state.u.values) < 1e-14
        assert_allclose(u, 0.0, atol=1e-14)

    def test_zero_cost_plan_factorizes(self):
        kern = _zero_cost_applicator()
        state = sinkhorn_step(initial_state(kern), kern)
        for i in range(4):
            assert_allclose(plan_row(state, kern, i), kern.p[i] * kern.q, rtol=1e-13)

    def test_two_by_two_matches_high_precision_scaling(self):
        # k = 1 degenerates the A k ln k schedule to a single step, so the
        # cap is passed explicitly here and below
        kern = _two_by_two()
        u_ref, v_ref = oracles.mp_scaling_potentials(
            np.array([[0.0, np.log(2.0)], [np.log(2.0), 0.0]]),
            [0.5, 0.5],
            [0.25, 0.75],
            k=1.0,
        )
        state = run_until(initial_state(kern), kern, tol=1e-13, m_max=5000)
        u, v = normalized_potentials(state)
        assert_allclose(u, u_ref, atol=1e-12)
        assert_allclose(v, v_ref, atol=1e-12)

    def test_two_by_two_converges_quickly(self):
        kern = _two_by_two()
        state = run_until(initial_state(kern), kern, tol=1e-9, m_max=500)
        assert state.stop_reason == "tol"
        assert state.m < 200

    def test_step_increment_is_log_density(self, rng):
        n = 12
        cost = rng.random((n, n))
        p = rng.random(n) + 0.2
        q = rng.random(n) + 0.2
        kern = DenseApplicator(3.0, p / p.sum(), q / q.sum(), cost)
        state = initial_state(kern)
        for _ in range(4):
            rho = rho_density(state.u, kern)
            nxt = sinkhorn_step(state, kern)
            incr = nxt.u.values - state.u.values
            assert_allclose(incr, np.log(rho) / kern.k, atol=1e-12)
            state = nxt


class TestRhoDensity:
    def test_zero_cost_zero_potential(self):
        kern = _zero_cost_applicator()
        assert_allclose(rho_density(np.zeros(4), kern), 1.0, rtol=1e-15)

    def test_near_one_at_fixed_point(self):
        kern = _two_by_two()
        state = run_until(initial_state(kern), kern, tol=1e-11, m_max=5000)
        assert_allclose(rho_density(state.u, kern), 1.0, atol=1e-9)

    def test_weighted_mean_is_one(self, rng):
        kern = _uniform_lattice(32)
        u = 0.1 * rng.standard_normal(32)
        rho = rho_density(u, kern)
        assert abs(float(kern.p @ rho) - 1.0) < 1e-13

    def test_smooth_potential_matches_jacobian_form(self):
        # rho_{ku}(x) ~ det(1 + u'')(x) e^{f - g(x + u')} for smooth data;
        # both marginals uniform here (f = g = 0), so the Jacobian factor
        # is the whole story. The gap closes like log(k)/k (measured
        # err*k/log k constant at 0.51 over k = 32..128): fit the
        # constant at k = 32 and require the k = 64 error under it.
        amp = 1.0 / (32.0 * np.pi**2)
        errs = {}
        for k in (32, 64):
            kern = _uniform_lattice(k)
            x = np.arange(k) / k
            u = amp * np.cos(2.0 * np.pi * x)
            upp = -amp * (2.0 * np.pi) ** 2 * np.cos(2.0 * np.pi * x)
            rho = rho_density(u, kern)
            errs[k] = np.max(np.abs(rho - (1.0 + upp)))
        C = errs[32] * 32.0 / np.log(32.0)
        assert errs[64] <= 1.15 * C * np.log(64.0) / 64.0
        assert errs[64] < errs[32]


class TestEnergyDiagnostics:
    def test_zero_cost_zero_potential(self):
        out = energy_diagnostics(np.zeros(4), _zero_cost_applicator())
        assert_allclose([out["F"], out["J"]], 0.0, atol=1e-15)

    def test_constant_shift_invariance(self, rng):
        kern = _uniform_lattice(16)
        u = 0.2 * rng.standard_normal(16)
        a = energy_diagnostics(u, kern)
        b = energy_diagnostics(u + 2.75, kern)
        # mathematically exact; in floats the shift rides through one
        # logsumexp and two dot products, hence the rounding allowance
        assert abs(a["F"] - b["F"]) < 5e-14
        assert abs(a["J"] - b["J"]) < 5e-14

    def test_f_below_j(self, rng):
        # the softmin is a smoothed max, so the entropic value sits under
        # the exact-transform Kantorovich value
        kern = _uniform_lattice(24)
        u = 0.3 * rng.standard_normal(24)
        out = energy_diagnostics(u, kern)
        assert out["F"] <= out["J"] + 1e-15

    def test_descent_along_iterates(self):
        kern = _two_by_two()
        state = initial_state(kern)
        prev = energy_diagnostics(state.u, kern)["F"]
        for _ in range(25):
            state = sinkhorn_step(state, kern)
            cur = energy_diagnostics(state.u, kern)["F"]
            assert cur <= prev + 1e-12
            prev = cur


class TestRunUntil:
    def test_self_transport_stops_immediately(self):
        kern = _uniform_lattice(16)
        state = run_until(initial_state(kern), kern, tol=1e-9)
        assert state.m == 1
        assert state.stop_reason == "tol"
        e_row, e_col = marginal_errors(state, kern)
        assert max(e_row, e_col) < 1e-14

    def test_m_max_stop(self):
        kern = _two_by_two()
        state = run_until(initial_state(kern), kern, tol=1e-30, m_max=7)
        assert state.m == 7
        assert state.stop_reason == "m_max"

    def test_schedule_default_cap(self, rng):
        n = 10
        cost = rng.random((n, n))
        p = rng.random(n) + 0.2
        q = rng.random(n) + 0.2
        kern = DenseApplicator(8.0, p / p.sum(), q / q.sum(), cost)
        state = run_until(initial_state(kern), kern, tol=None, A=0.3)
        assert state.m == int(np.ceil(0.3 * 8 * np.log(8.0)))
        assert state.stop_reason == "m_max"

    @pytest.mark.parametrize("A", [0.0, -1.0, float("nan"), float("inf")])
    def test_schedule_needs_positive_finite_A(self, A):
        # a non-positive A once capped the solve at one silent step
        with pytest.raises(ValueError, match="A must be finite and > 0"):
            m_max_schedule(16, A)
        kern = _two_by_two()
        with pytest.raises(ValueError, match="A must be finite and > 0"):
            run_until(initial_state(kern), kern, tol=1e-9, A=A)

    def test_stagnation_stop(self):
        kern = _uniform_lattice(16)
        state = run_until(initial_state(kern), kern, tol=None, m_max=100)
        assert state.stop_reason == "stagnated"
        assert state.m < 100

    def test_trace_records_are_per_step(self):
        kern = _two_by_two()
        state = run_until(initial_state(kern), kern, tol=1e-9)
        assert len(state.trace) == state.m
        assert [r.m for r in state.trace] == list(range(1, state.m + 1))
        for r in state.trace:
            assert r.e_row == 0.0

    @pytest.mark.parametrize("bad", [
        {"m_max": float("nan")},  # once returned m = 0 and an empty trace
        {"m_max": 2.5},  # once ran 3 steps
        {"m_max": 3.0},
        {"m_max": 0},
        {"m_max": np.int64(-1)},
        {"m_max": True},
        {"m_max": "3"},
        {"tol": float("nan")},  # once never stopped on tol
        {"tol": np.float64("nan")},
    ])
    def test_refuses_values_the_cli_refuses(self, bad):
        kern = _two_by_two()
        name = next(iter(bad))
        with pytest.raises(ValueError, match=name):
            run_until(initial_state(kern), kern, **{"tol": 1e-9, **bad})

    @pytest.mark.parametrize("m_max", [3, np.int64(3)])
    @pytest.mark.parametrize("tol", [None, 0.0])
    def test_fixed_step_runs(self, m_max, tol):
        kern = _two_by_two()
        state = run_until(initial_state(kern), kern, tol=tol, m_max=m_max)
        assert state.m == 3 and len(state.trace) == 3
        assert state.stop_reason == "m_max"


def _reference_run(app, tol, m_max):
    """run_until from u = 0 as plain expressions over the route's _linear_apply.

    Each softmin shifts by the minimum, takes exp, applies the kernel,
    takes the log, divides by k and subtracts the shift back; e_col and
    sup_change are the expressions run_until's docstring states. Returns
    (u, v, the TraceRecord fields but wall_time_ms, stop reason).
    """
    k = app.k

    def softmin(values, log_weights):
        shift = values.min()
        out = app._linear_apply(np.exp(-k * (values - shift) + log_weights))
        assert out.min() > app._floor  # the trusted branch only
        return np.log(out) / k - shift

    u, v_cur = np.zeros(app.size), np.zeros(app.size)
    v = softmin(u, app.log_p)
    records, flat, reason = [], 0, "m_max"
    for m in range(1, m_max + 1):
        u_next = softmin(v, app.log_q)
        w = softmin(u_next, app.log_p)
        I_mu = float(app.p @ u_next)
        e_col = float(np.abs(app.q * np.expm1(k * (w - v))).sum())
        sup_change = float(np.abs(u_next - u).max())
        records.append((m, I_mu + float(app.q @ w), I_mu, 0.0, e_col, sup_change))
        u, v_cur, v = u_next, v, w
        if e_col <= tol:
            reason = "tol"
            break
        flat = flat + 1 if sup_change < 1e-15 else 0
        if flat >= 5:
            reason = "stagnated"
            break
    return u, v_cur, records, reason


class TestBoundStep:
    # run_until and the fast routes bind their ufuncs, constants and
    # buffers once; the arithmetic must stay that of the plain expressions
    @pytest.mark.parametrize("kind", ["gaussian", "heat"])
    @pytest.mark.parametrize("k", [16, 64, 256])
    def test_one_dimensional_run_is_bitwise_the_reference(self, kind, k):
        p = discretize_torus("6*(1-cos(2*pi*x1))", k, 1).weights
        q = discretize_torus("6*(1-cos(2*pi*(x1-0.25)))", k, 1).weights
        app = TorusLatticeApplicator(TorusGrid(1, k), TorusKernelSpec(kind, k), p, q,
                                     mode="fft")
        state = run_until(initial_state(app), app, tol=1e-12, A=4.0)
        u, v, records, reason = _reference_run(app, 1e-12, m_max_schedule(k, 4.0))
        assert app.fallbacks == 0
        assert state.stop_reason == reason and state.m == len(records)
        assert np.array_equal(state.u.values, u) and np.array_equal(state.v.values, v)
        assert [(r.m, r.F, r.I_mu, r.e_row, r.e_col, r.sup_change)
                for r in state.trace] == records

    @pytest.mark.parametrize("kind", ["torus-1d", "torus-2d", "sphere"])
    def test_bound_pair_makes_no_reference_cycle(self, kind):
        # the pair reaches its applicator through a weak reference, so a
        # dropped applicator and its buffers go at once, not at the next
        # collection of the cycle collector
        kern = _fast_applicator(kind)
        kern.softmin_to_target(np.zeros(kern.size))
        ref = weakref.ref(kern)
        gc.disable()
        try:
            del kern
            assert ref() is None
        finally:
            gc.enable()


class TestRouteBinding:
    # a fast route's softmin pair is the instance's own two closures, with
    # no forwarding method between a caller and them
    @pytest.mark.parametrize("kind", ["torus-1d", "torus-2d", "sphere"])
    def test_fast_route_owns_its_pair(self, kind):
        kern = _fast_applicator(kind)
        assert "softmin_to_target" in vars(kern) and "softmin_to_source" in vars(kern)

    def test_the_fast_route_class_defines_no_pair(self):
        names = {"softmin_to_target", "softmin_to_source", "_bound_to_target",
                 "_bound_to_source"}
        assert not names & vars(LinearDomainApplicator).keys()

    def test_direct_lattice_route_takes_the_dense_pair(self):
        p, q = _product_weights(16, 1)
        kern = TorusLatticeApplicator(TorusGrid(1, 16), TorusKernelSpec("gaussian", 16),
                                      p, q, mode="direct")
        assert "softmin_to_target" not in vars(kern)
        assert kern.softmin_to_target.__func__ is DenseApplicator.softmin_to_target
        assert kern.softmin_to_source.__func__ is DenseApplicator.softmin_to_source

    def test_a_redo_after_the_applicator_is_gone_raises(self):
        # the pair holds its applicator through a weak proxy; a narrow heat
        # kernel against a peaked potential makes the 2-D route redo
        p = np.full(256, 1.0 / 256)
        kern = TorusLatticeApplicator(TorusGrid(2, 16), TorusKernelSpec("heat", 16, 1e-3),
                                      p, p, mode="fft")
        u = np.full(256, 100.0)
        u[0] = 0.0
        apply = kern.softmin_to_target
        apply(u)
        assert kern.fallbacks == 1
        del kern
        with pytest.raises(ReferenceError):
            apply(u)


class _Injecting:
    """Dense backend whose call number `at` (from 1) returns two bad entries."""

    def __init__(self, at, bad, rng):
        n = 6
        p = rng.random(n) + 0.2
        q = rng.random(n) + 0.2
        self._inner = DenseApplicator(3.0, p / p.sum(), q / q.sum(), rng.random((n, n)))
        self.k, self.p, self.q = self._inner.k, self._inner.p, self._inner.q
        self.at, self.bad, self.calls = at, bad, 0

    def _out(self, out):
        self.calls += 1
        if self.calls == self.at:
            out[[1, 4]] = self.bad
        return out

    def softmin_to_target(self, u):
        return self._out(self._inner.softmin_to_target(u))

    def softmin_to_source(self, v):
        return self._out(self._inner.softmin_to_source(v))


class TestFinitenessGuard:
    # the calls of run_until: 1 is step 1's v-update, then each step m
    # takes a u-update (call 2m) and the trace softmin (call 2m + 1)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at, stage, m", [(1, "v-update", 1), (4, "u-update", 2),
                                              (5, "trace softmin", 2)])
    def test_injected_entry_aborts_at_its_stage(self, rng, bad, at, stage, m):
        kern = _Injecting(at, bad, rng)
        with pytest.raises(NumericalAbortError) as info:
            run_until(initial_state(kern), kern, tol=None, m_max=5)
        assert str(info.value) == f"non-finite values after {stage} at iteration {m}"
        assert info.value.diagnostics == {"stage": stage, "m": m, "bad_entries": 2}
        assert kern.calls == at

    def test_finite_run_is_not_stopped(self, rng):
        kern = _Injecting(0, np.nan, rng)
        state = run_until(initial_state(kern), kern, tol=None, m_max=5)
        assert state.m == 5 and kern.calls == 11


def _product_weights(k, n):
    f = " + ".join(f"{a}*(1-cos(2*pi*x{i + 1}))" for i, a in enumerate((3, 1, 0.5)[:n]))
    g = " + ".join(f"{a}*(1-cos(2*pi*(x{i + 1}-{s})))"
                   for i, (a, s) in enumerate(((3, 0.375), (1, 0.25), (0.5, 0.125))[:n]))
    return discretize_torus(f, k, n).weights, discretize_torus(g, k, n).weights


def _fast_applicator(kind):
    if kind == "sphere":
        grid = SphericalGrid(16)
        w = grid.node_weights
        return SphereSHTApplicator(grid, SphereKernelSpec("heat", 8), w, w)
    n, k = {"torus-1d": (1, 64), "torus-2d": (2, 16), "torus-3d": (3, 8)}[kind]
    p, q = _product_weights(k, n)
    return TorusLatticeApplicator(TorusGrid(n, k), TorusKernelSpec("gaussian", k), p, q,
                                  mode="fft")


def _every_route(name, edit=lambda p, q: (p, q)):
    # edit(p, q) -> the weights the route is built with
    rng = np.random.default_rng(4)
    if name.startswith("dense"):
        p, q = rng.random(6) + 0.2, rng.random(5) + 0.2
        p, q, cost = p / p.sum(), q / q.sum(), rng.random((6, 5))
        p, q = edit(p, q)
        if name == "dense":
            return DenseApplicator(3.0, p, q, cost)
        return DenseApplicator.from_log_kernel(3.0, p, q, lambda: -3.0 * cost)
    if name.startswith("torus"):
        n, mode = int(name[5]), name.split("-")[1]
        k = {1: 32, 2: 8}[n]
        p, q = edit(*_product_weights(k, n))
        return TorusLatticeApplicator(TorusGrid(n, k), TorusKernelSpec("gaussian", k),
                                      p, q, mode=mode)
    grid = SphericalGrid(6)
    w = grid.node_weights
    cls = SphereSHTApplicator if name == "sphere-sht" else SphereDenseApplicator
    return cls(grid, SphereKernelSpec("heat", 4), *edit(w, w))


class TestGridRowsMemory:
    # the exact grid routes read each kernel row as a window of one table:
    # their N x N matrices once peaked at 256 MiB (torus) and 640 MiB (sphere)
    @pytest.mark.parametrize("route", ["torus-1d-4096", "sphere-W31"])
    def test_construct_and_apply_stay_under_64_mb(self, traced_peak, route):
        if route.startswith("torus"):
            grid = TorusGrid(1, 4096)
            p = q = np.full(grid.size, 1.0 / grid.size)

            def construct():
                return TorusLatticeApplicator(grid, TorusKernelSpec("gaussian", grid.k),
                                              p, q, mode="direct")
        else:
            grid = SphericalGrid(31)
            p = q = grid.node_weights

            def construct():
                return SphereDenseApplicator(grid, SphereKernelSpec("heat", 16), p, q)
        u = 0.1 * np.random.default_rng(6).random(grid.size)
        out, peak = traced_peak(lambda: construct().softmin_to_target(u))
        assert np.isfinite(out).all()
        assert peak <= 64 * 2**20, peak / 2**20


class TestInputRule:
    # every route refuses a potential whose minimum is not finite; the
    # exact routes once returned NaN (from a NaN entry) or +inf (from -inf)
    @pytest.mark.parametrize("route", [
        "dense", "dense-log-kernel", "torus1-direct", "torus1-fft", "torus2-direct",
        "torus2-fft", "sphere-sht", "sphere-dense",
    ])
    @pytest.mark.parametrize("bad", ["nan", "-inf", "all+inf"])
    @pytest.mark.parametrize("to_target", [True, False])
    def test_non_finite_minimum_is_refused(self, route, bad, to_target):
        kern = _every_route(route)
        n = kern.p.size if to_target else kern.q.size
        if bad == "all+inf":
            values = np.full(n, np.inf)
        else:
            values = np.zeros(n)
            values[1] = float(bad)
        apply = kern.softmin_to_target if to_target else kern.softmin_to_source
        with pytest.raises(ValueError, match="^potential contains non-finite entries$"):
            apply(values)

    @pytest.mark.parametrize("route", ["dense", "torus1-direct", "torus2-fft", "sphere-sht"])
    def test_inf_entries_above_a_finite_minimum_are_kept(self, route):
        # an entry of +inf only drops its term from every sum
        kern = _every_route(route)
        values = 0.1 * np.random.default_rng(5).random(kern.p.size)
        values[2] = np.inf
        out = kern.softmin_to_target(values)
        assert np.all(np.isfinite(out))


_ROUTES = ["dense", "dense-log-kernel", "torus1-direct", "torus1-fft", "torus2-direct",
           "torus2-fft", "sphere-sht", "sphere-dense"]


def _spoil(w, bad):
    w = np.array(w, dtype=float)
    if bad == "2-D":
        return w[:, None]
    if bad == "wrong size":
        return np.append(w, w[0])
    if bad == "all zero":
        return np.zeros_like(w)
    w[1] = {"negative": -1e-6, "nan": np.nan, "+inf": np.inf}[bad]
    return w


class TestWeightRule:
    # every route checks k and both weight vectors once, at construction;
    # a bad weight once aborted at the first apply past the dense cap
    @pytest.mark.parametrize("route", _ROUTES)
    @pytest.mark.parametrize("bad", ["negative", "nan", "+inf", "2-D", "wrong size",
                                     "all zero"])
    @pytest.mark.parametrize("side", ["source", "target"])
    def test_bad_weights_are_refused_naming_the_side(self, route, bad, side):
        def edit(p, q):
            return (_spoil(p, bad), q) if side == "source" else (p, _spoil(q, bad))

        with pytest.raises(ValueError, match=f"^{side} weights must "):
            _every_route(route, edit)

    @pytest.mark.parametrize("k", [0.0, -1.0, np.nan, np.inf])
    def test_bad_k_is_refused(self, k):
        p, q = np.full(3, 1.0 / 3), np.full(2, 0.5)
        with pytest.raises(ValueError, match="^k must be finite and > 0"):
            DenseApplicator(k, p, q, np.zeros((3, 2)))
        with pytest.raises(ValueError, match="^k must be finite and > 0"):
            DenseApplicator.from_log_kernel(k, p, q, lambda: np.zeros((3, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_log_kernel_refuses_nan_and_plus_inf(self, bad):
        p = np.full(3, 1.0 / 3)
        log_kernel = np.zeros((3, 3))
        log_kernel[0, 1] = bad
        with pytest.raises(ValueError, match="^log kernel must be"):
            DenseApplicator.from_log_kernel(2.0, p, p, lambda: log_kernel)

    def test_log_kernel_keeps_minus_inf(self):
        # a vanishing kernel entry drops its term: the same outputs as a
        # kernel whose entry is too small to count
        p = np.full(3, 1.0 / 3)
        log_kernel = -np.arange(9.0).reshape(3, 3)
        log_kernel[0, 0] = -np.inf
        tiny = log_kernel.copy()
        tiny[0, 0] = -1e4
        u = np.array([0.0, 0.1, 0.2])
        got = DenseApplicator.from_log_kernel(2.0, p, p, lambda: log_kernel)
        want = DenseApplicator.from_log_kernel(2.0, p, p, lambda: tiny)
        assert np.array_equal(got.softmin_to_target(u), want.softmin_to_target(u))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("route", _ROUTES)
    def test_zero_weights_build_quietly(self, route):
        def edit(p, q):
            p, q = p.copy(), q.copy()
            p[0] = q[-1] = 0.0
            return p, q

        kern = _every_route(route, edit)
        assert kern.log_p[0] == -np.inf and kern.log_q[-1] == -np.inf

    def test_large_grids_refuse_a_bad_weight_at_construction(self):
        grid = TorusGrid(2, 72)
        w = _spoil(np.full(grid.size, 1.0 / grid.size), "negative")
        with pytest.raises(ValueError, match="^source weights must be finite and nonnegative$"):
            TorusLatticeApplicator(grid, TorusKernelSpec("gaussian", 72), w, w, mode="fft")
        grid = SphericalGrid(32)
        w = _spoil(grid.node_weights, "nan")
        with pytest.raises(ValueError, match="^target weights must be finite and nonnegative$"):
            SphereSHTApplicator(grid, SphereKernelSpec("heat", 16), grid.node_weights, w)


class TestWholeVectorRedo:
    # the 2-D FFT and the SHT trust every positive output (floor 0), yet
    # next to a flagged output the unflagged ones can be far from exact:
    # only a redo of the whole vector gives the exact route's outputs
    def test_2d_fft(self):
        p = np.full(256, 1.0 / 256)
        grid, spec = TorusGrid(2, 16), TorusKernelSpec("heat", 16, 1e-3)
        u = np.full(256, 100.0)
        u[0] = 0.0
        fast = TorusLatticeApplicator(grid, spec, p, p, mode="fft")
        out = fast.softmin_to_target(u)
        assert fast.fallbacks == 1
        direct = TorusLatticeApplicator(grid, spec, p, p, mode="direct")
        assert np.array_equal(out, direct.softmin_to_target(u))

    def test_sht(self):
        grid, spec = SphericalGrid(31), SphereKernelSpec("antenna", 16)
        w = grid.node_weights
        u = np.zeros(grid.size)
        u[grid.size // 2] = -5.0
        fast = SphereSHTApplicator(grid, spec, w, w)
        out = fast.softmin_to_target(u)
        assert fast.fallbacks == 1
        assert np.array_equal(out, SphereDenseApplicator(grid, spec, w, w).softmin_to_target(u))


class TestFreshOutputs:
    # every softmin_to_* result is a new array no later call writes into,
    # although the fast routes run in buffers they keep between calls
    @pytest.mark.parametrize("kind", ["torus-1d", "torus-2d", "torus-3d", "sphere"])
    def test_results_survive_later_applies(self, rng, kind):
        kern = _fast_applicator(kind)
        n = kern.size
        first = [kern.softmin_to_target(0.01 * rng.random(n)),
                 kern.softmin_to_source(0.01 * rng.random(n))]
        kept = [a.copy() for a in first]
        later = [kern.softmin_to_target(0.01 * rng.random(n)),
                 kern.softmin_to_source(0.01 * rng.random(n)),
                 kern.softmin_to_target(first[1]),
                 kern.softmin_to_source(first[0])]
        for a, b in zip(first, kept):
            assert np.array_equal(a, b)
            assert not any(np.shares_memory(a, c) for c in later)
        assert not np.shares_memory(later[0], later[1])
        assert not np.shares_memory(later[2], later[3])
        assert kern.fallbacks == 0

    @pytest.mark.parametrize("kind", ["torus-1d", "torus-2d", "torus-3d", "sphere"])
    def test_run_until_potentials_survive_a_second_run(self, rng, kind):
        kern = _fast_applicator(kind)
        one = run_until(initial_state(kern), kern, tol=None, m_max=4)
        kept = one.u.values.copy(), one.v.values.copy()
        two = run_until(initial_state(kern, u0=0.01 * rng.random(kern.size)), kern,
                        tol=None, m_max=4)
        assert np.array_equal(one.u.values, kept[0])
        assert np.array_equal(one.v.values, kept[1])
        for a in (one.u.values, one.v.values):
            for b in (two.u.values, two.v.values):
                assert not np.shares_memory(a, b)


class TestMarginalErrors:
    def test_zero_cost_after_one_step(self):
        kern = _zero_cost_applicator()
        state = sinkhorn_step(initial_state(kern), kern)
        e_row, e_col = marginal_errors(state, kern)
        assert max(e_row, e_col) <= 1e-14

    def test_mid_run_matches_dense_plan(self, rng):
        n = 16
        cost = rng.random((n, n))
        p = rng.random(n) + 0.3
        q = rng.random(n) + 0.3
        kern = DenseApplicator(2.0, p / p.sum(), q / q.sum(), cost)
        state = initial_state(kern)
        for _ in range(3):
            state = sinkhorn_step(state, kern)
        plan = oracles.dense_plan(
            state.u.values, state.v.values, 2.0, cost, kern.p, kern.q
        )
        e_row_ref = np.abs(plan.sum(axis=1) - kern.p).sum()
        e_col_ref = np.abs(plan.sum(axis=0) - kern.q).sum()
        e_row, e_col = marginal_errors(state, kern)
        assert abs(e_row - e_row_ref) < 1e-12
        assert abs(e_col - e_col_ref) < 1e-12


class TestPlanAccess:
    def test_zero_cost_fixed_point_plan(self):
        kern = _zero_cost_applicator()
        state = sinkhorn_step(initial_state(kern), kern)
        for i in range(4):
            for j in range(4):
                assert_allclose(
                    plan_entry(state, i, j, kern), kern.p[i] * kern.q[j], rtol=1e-13
                )

    def test_symmetric_two_by_two_closed_form(self):
        # p = q = (1/2, 1/2), kernel [[1, t], [t, 1]] with t = 1/2 forces
        # equal scalings: plan = [[1/3, 1/6], [1/6, 1/3]]
        t = 0.5
        cost = np.array([[0.0, -np.log(t)], [-np.log(t), 0.0]])
        kern = DenseApplicator(1.0, np.array([0.5, 0.5]), np.array([0.5, 0.5]), cost)
        state = run_until(initial_state(kern), kern, tol=1e-13)
        plan = np.stack([plan_row(state, kern, i) for i in range(2)])
        assert_allclose(plan, [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], atol=1e-13)

    def test_row_consistent_with_entries(self, rng):
        kern = _uniform_lattice(8)
        state = sinkhorn_step(initial_state(kern), kern)
        row = plan_row(state, kern, 3)
        assert_allclose(row[5], plan_entry(state, 3, 5, kern), rtol=1e-15)


class TestEntropicCost:
    def test_zero_cost_self_transport_is_exactly_zero(self):
        # u = v = 0 is the genuine fixed point here, so the duality value
        # vanishes identically
        kern = _zero_cost_applicator()
        state = run_until(initial_state(kern), kern, tol=1e-12, m_max=50)
        assert entropic_cost(state, kern) == 0.0

    def test_lattice_self_transport_carries_entropic_bias(self):
        # with a real cost the converged duality value is the entropy
        # offset of the blurred plan: positive, O(log k / k), far from
        # the unregularized transport cost of zero only at this scale
        k = 16
        kern = _uniform_lattice(k)
        state = run_until(initial_state(kern), kern, tol=1e-9)
        cost = entropic_cost(state, kern)
        assert 0.0 < cost <= 2.0 * np.log(k) / k

    def test_shift_invariance_exact(self):
        kern = _two_by_two()
        state = run_until(initial_state(kern), kern, tol=1e-11, m_max=5000)
        base = entropic_cost(state, kern)
        state.u.values[:] = state.u.values + 0.5
        state.v.values[:] = state.v.values - 0.5
        assert entropic_cost(state, kern) == pytest.approx(base, abs=1e-15)

    def test_cost_warning_set_far_from_fixed_point(self):
        kern = _two_by_two()
        state = initial_state(kern)
        state.u.values[:] = np.array([0.0, 2.0])
        entropic_cost(state, kern)
        assert state.cost_warning


def _readme_pair(k=64):
    p = discretize_torus("3*(1-cos(2*pi*x1))", k, 1).weights
    q = discretize_torus("3*(1-cos(2*pi*(x1-0.375)))", k, 1).weights
    return TorusLatticeApplicator(TorusGrid(1, k), TorusKernelSpec("gaussian", k), p, q,
                                  mode="fft")


class TestReadout:
    """run_until's last record is the final readout, and the flag follows its state."""

    def test_resumed_run_clears_the_cost_warning(self):
        kern = _readme_pair()
        short = run_until(initial_state(kern), kern, tol=1e-9, m_max=3)
        entropic_cost(short, kern)
        assert short.stop_reason == "m_max" and short.cost_warning
        resumed = run_until(short, kern, tol=1e-9)
        assert resumed.stop_reason == "tol"
        assert not resumed.cost_warning
        resumed.cost_warning = True
        entropic_cost(resumed, kern)
        assert not resumed.cost_warning

    @pytest.mark.parametrize("tol, m_max, warned", [(1e-9, None, False), (None, 3, True)],
                             ids=["tol-stop", "m_max-stop"])
    def test_measured_errors_give_the_same_cost_and_flag(self, tol, m_max, warned):
        kern = _readme_pair()
        state = run_until(initial_state(kern), kern, tol=tol, m_max=m_max)
        last = state.trace[-1]
        # the trailing softmin of the last step is the one marginal_errors redoes
        assert marginal_errors(state, kern) == (0.0, last.e_col) == (last.e_row, last.e_col)
        cost = entropic_cost(state, kern)
        assert state.cost_warning is warned
        state.cost_warning = not warned
        assert entropic_cost(state, kern, errors=(last.e_row, last.e_col)) == cost
        assert state.cost_warning is warned


class TestHilbertDistance:
    def test_constant_difference_is_zero(self, rng):
        u = rng.standard_normal(9)
        assert hilbert_distance(u, u + 3.7) == pytest.approx(0.0, abs=1e-15)

    def test_unit_gap(self):
        assert hilbert_distance(np.array([0.0, 1.0]), np.zeros(2)) == 1.0

    def test_geometric_decay_along_run(self):
        kern = _two_by_two()
        final = run_until(initial_state(kern), kern, tol=1e-13, m_max=5000)
        dists = []
        state = initial_state(kern)
        for _ in range(8):
            state = sinkhorn_step(state, kern)
            dists.append(hilbert_distance(state.u, final.u))
        dists = np.array(dists)
        assert np.all(dists > 0.0)
        assert np.all(dists[1:] / dists[:-1] < 1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="support"):
            hilbert_distance(np.zeros(3), np.zeros(4))


class TestValidation:
    def test_initial_state_shape_guard(self):
        kern = _zero_cost_applicator()
        with pytest.raises(ValueError, match="shape"):
            initial_state(kern, u0=np.zeros(5))

    def test_initial_state_finite_guard(self):
        kern = _zero_cost_applicator()
        with pytest.raises(ValueError, match="finite"):
            initial_state(kern, u0=np.array([0, 0, np.inf, 0.0]))

    def test_dense_applicator_cost_shape(self):
        with pytest.raises(ValueError, match="shape"):
            DenseApplicator(1.0, np.ones(2) / 2, np.ones(3) / 3, np.zeros((2, 2)))

    def test_dense_applicator_finite_cost(self):
        with pytest.raises(ValueError, match="finite"):
            DenseApplicator(
                1.0, np.ones(2) / 2, np.ones(2) / 2, np.array([[0.0, np.inf], [0, 0]])
            )


@st.composite
def _small_instances(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return n, seed


class TestProperties:
    @given(_small_instances())
    @settings(deadline=None, max_examples=40)
    def test_energy_never_increases(self, inst):
        n, seed = inst
        rng = np.random.default_rng(seed)
        cost = rng.random((n, n))
        p = rng.random(n) + 0.1
        q = rng.random(n) + 0.1
        kern = DenseApplicator(4.0, p / p.sum(), q / q.sum(), cost)
        state = initial_state(kern)
        prev = np.inf
        for _ in range(12):
            state = sinkhorn_step(state, kern)
            assert state.trace[-1].F <= prev + 1e-12
            prev = state.trace[-1].F

    @given(_small_instances())
    @settings(deadline=None, max_examples=40)
    def test_marginal_error_hits_tolerance(self, inst):
        n, seed = inst
        rng = np.random.default_rng(seed)
        cost = rng.random((n, n))
        p = rng.random(n) + 0.1
        q = rng.random(n) + 0.1
        kern = DenseApplicator(4.0, p / p.sum(), q / q.sum(), cost)
        state = run_until(initial_state(kern), kern, tol=1e-10, A=20.0)
        if state.stop_reason == "tol":
            e_row, e_col = marginal_errors(state, kern)
            assert max(e_row, e_col) <= 1e-10
