"""Timed passes over a workload's instances, with optional span tracing.

Each instance runs the calls its CLI command makes: discretize, build the
applicator (or grid), solve, and read out. Sinkhorn: run_until, then
marginal_errors and entropic_cost. Parabolic: solve_parabolic, then
ma_residual at every record. An untraced pass only reads the clock around
set-up and around solve plus readout. A traced pass also records spans,
pass -> instance -> {setup -> {discretize, construct}, run_until -> apply...,
readout -> apply...}, and wraps each applicator in a proxy that times every
softmin call.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from statistics import median

import numpy as np

from geosink.measures import discretize_sphere, discretize_torus
from geosink.parabolic import ma_residual, solve_parabolic
from geosink.sinkhorn import entropic_cost, initial_state, marginal_errors, run_until
from geosink.sphere import SphereKernelSpec, SphereSHTApplicator, SphericalGrid
from geosink.torus import TorusGrid, TorusKernelSpec, TorusLatticeApplicator
from workloads import ParabolicCase, SphereCase, TorusCase

# Errors a solve can raise on a bad instance: NumericalAbortError is a
# RuntimeError, FFT/SHT underflow a FloatingPointError (an ArithmeticError),
# and rejected kernels or inputs a ValueError.
SOLVE_ERRORS = (ArithmeticError, RuntimeError, ValueError)

MIN_PASSES = 3
SETUP_MIN_REPS = 2
SETUP_SHARE = 0.1
WARMUP_STEPS = 3
WARMUP_HORIZON = 1e-5

perf_counter = time.perf_counter


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


class _Span:
    __slots__ = ("tracer", "name", "sid", "t0")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.sid = tr.next_id
        tr.next_id += 1
        tr.stack.append(self.sid)
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = perf_counter()
        tr = self.tracer
        tr.stack.pop()
        tr.spans.append((self.sid, tr.stack[-1], self.name, self.t0, t1))
        return False


class Tracer:
    """Spans (id, parent id, name, start, end) kept in memory until the run ends."""

    def __init__(self, first_id=0):
        self.spans = []
        self.stack = [None]
        self.next_id = first_id

    def span(self, name):
        return _Span(self, name)

    def leaf(self, name, t0, t1):
        sid = self.next_id
        self.next_id += 1
        self.spans.append((sid, self.stack[-1], name, t0, t1))

    def wrap(self, applicator, name):
        return TimedApplicator(applicator, self, name)


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    """Stand-in for untraced passes: records nothing, wraps nothing."""

    _span = _NoSpan()

    def span(self, name):
        return self._span

    def wrap(self, applicator, name):
        return applicator


class TimedApplicator:
    """Backend proxy that records one leaf span per softmin call.

    Satisfies the backend contract of geosink.sinkhorn by forwarding
    k, p, q, log_p, log_q, cost_row and describe to the wrapped applicator.
    """

    def __init__(self, inner, tracer, name):
        self._inner = inner
        self._tracer = tracer
        self._name = name
        self.k = inner.k
        self.p, self.q = inner.p, inner.q
        self.log_p, self.log_q = inner.log_p, inner.log_q

    def softmin_to_target(self, u):
        t0 = perf_counter()
        out = self._inner.softmin_to_target(u)
        self._tracer.leaf(self._name, t0, perf_counter())
        return out

    def softmin_to_source(self, v):
        t0 = perf_counter()
        out = self._inner.softmin_to_source(v)
        self._tracer.leaf(self._name, t0, perf_counter())
        return out

    def cost_row(self, i):
        return self._inner.cost_row(i)

    def describe(self):
        return self._inner.describe()


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """What one instance run produced: timings, stop data and the solution."""

    label: str
    setup_s: float = 0.0
    solve_s: float = 0.0
    reached: bool = False
    stop: str = "error"
    steps: int = 0
    fallbacks: int = 0
    error: str | None = None
    result: dict = field(default_factory=dict)


def setup_case(case, tracer):
    """Discretize and construct; returns what the solve needs."""
    if isinstance(case, TorusCase):
        with tracer.span("measures.discretize"):
            p = discretize_torus(case.f, case.k, case.n).weights
            q = discretize_torus(case.g, case.k, case.n).weights
        with tracer.span("torus.construct"):
            app = TorusLatticeApplicator(
                TorusGrid(case.n, case.k), TorusKernelSpec("gaussian", k=case.k),
                p, q, mode="fft",
            )
        return app
    if isinstance(case, SphereCase):
        with tracer.span("sphere.construct"):
            grid = SphericalGrid(case.W)
        with tracer.span("measures.discretize"):
            p = discretize_sphere(case.f, grid).weights
            q = discretize_sphere(case.g, grid).weights
        with tracer.span("sphere.construct"):
            app = SphereSHTApplicator(grid, SphereKernelSpec(case.kernel, case.k), p, q)
        return app
    grid = TorusGrid(case.n, case.N)
    with tracer.span("parabolic.setup"):
        # a zero-horizon call samples and prefilters the forcing and runs
        # the initial quasi-convexity check
        solve_parabolic(np.zeros(grid.size), case.f, case.g, 0.0, grid,
                        dt=case.dt, record_times=[0.0])
    return grid


def euler_steps(record_times, dt):
    """Steps solve_parabolic takes: it lands exactly on each record time."""
    t, steps = 0.0, 0
    for target in record_times:
        while t < target - 1e-12:
            t += min(dt, target - t)
            steps += 1
    return steps


def solve_case(case, built, tracer, out):
    """Solve and read out, filling out; the applicator is fresh per call."""
    if isinstance(case, ParabolicCase):
        grid = built
        times = [float(t) for t in np.linspace(0.0, case.T, case.records + 1)[1:]]
        with tracer.span("parabolic.solve"):
            traj = solve_parabolic(np.zeros(grid.size), case.f, case.g, case.T, grid,
                                   dt=case.dt, record_times=times)
        residuals = []
        for st in traj:
            with tracer.span("parabolic.residual"):
                residuals.append(ma_residual(st.u, case.f, case.g, grid))
        out.reached = True
        out.stop = "horizon"
        out.result = {"min_eig": [st.min_eig for st in traj], "residuals": residuals,
                      "record_times": times, "dt": traj[0].dt}
        return
    app = built
    layer = "torus.apply" if isinstance(case, TorusCase) else "sphere.apply"
    kern = tracer.wrap(app, layer)
    with tracer.span("sinkhorn.run_until"):
        state = run_until(initial_state(kern), kern, tol=case.tol, A=case.A)
    with tracer.span("sinkhorn.readout"):
        _, e_col = marginal_errors(state, kern)
        cost = entropic_cost(state, kern)
    out.reached = state.stop_reason == "tol"
    out.stop = state.stop_reason
    out.steps = state.m
    out.fallbacks = app.fallbacks
    out.result = {"u": state.u.values, "v": state.v.values, "p": app.p, "q": app.q,
                  "e_col": e_col, "cost": cost}


def run_case(case, tracer):
    """One instance, set-up through readout; errors become a failed outcome."""
    out = Outcome(case.label)
    with tracer.span("instance"):
        try:
            t0 = perf_counter()
            with tracer.span("setup"):
                built = setup_case(case, tracer)
            t1 = perf_counter()
            solve_case(case, built, tracer, out)
            t2 = perf_counter()
        except SOLVE_ERRORS as exc:
            out.error = f"{type(exc).__name__}: {exc}"
            return out
    out.setup_s, out.solve_s = t1 - t0, t2 - t1
    if isinstance(case, ParabolicCase):
        out.steps = euler_steps(out.result["record_times"], out.result["dt"])
    return out


def run_pass(cases, tracer):
    with tracer.span("pass"):
        return [run_case(case, tracer) for case in cases]


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


@dataclass
class Measurement:
    cases: list
    untraced: list = field(default_factory=list)  # list of passes (lists of Outcome)
    traced: list = field(default_factory=list)  # list of (passes, Tracer)
    setup_samples: dict = field(default_factory=lambda: defaultdict(list))

    @property
    def all_passes(self):
        return self.untraced + [p for p, _ in self.traced]


def measure_setup(cases, samples, budget_s):
    """Repeat every instance's set-up for about budget_s, at least twice."""
    null = NullTracer()
    start = perf_counter()
    reps = 0
    while reps < SETUP_MIN_REPS or perf_counter() - start < budget_s:
        for case in cases:
            t0 = perf_counter()
            try:
                setup_case(case, null)
            except SOLVE_ERRORS:
                continue
            samples[case.label].append(perf_counter() - t0)
        reps += 1


def warm_up(cases):
    """Set up each instance and take a few solver steps, untimed.

    The first solve at each size in a fresh process runs up to twice as
    slow (memory the allocator has not yet kept), which would skew the
    first timed pass.
    """
    null = NullTracer()
    for case in cases:
        try:
            built = setup_case(case, null)
            if isinstance(case, ParabolicCase):
                solve_parabolic(np.zeros(built.size), case.f, case.g, WARMUP_HORIZON,
                                built, dt=case.dt)
            else:
                run_until(initial_state(built), built, tol=case.tol, m_max=WARMUP_STEPS)
        except SOLVE_ERRORS:
            continue


def measure(cases, seconds, trace):
    """Whole passes until the time is used, each after a round of set-ups.

    Each round of set-ups takes about SETUP_SHARE * seconds / MIN_PASSES, so
    set-up is sampled across the run rather than in one burst. Untraced
    runs make at least MIN_PASSES passes. Traced runs alternate untraced
    and traced passes, at least two of each, so the tracing overhead is
    taken against untraced passes of the same run.
    """
    m = Measurement(cases)
    warm_up(cases)
    null = NullTracer()
    start = perf_counter()
    pass_times = []
    next_id = 0
    while True:
        t0 = perf_counter()
        measure_setup(cases, m.setup_samples, SETUP_SHARE * seconds / MIN_PASSES)
        if trace and len(m.traced) < len(m.untraced):
            tracer = Tracer(next_id)
            m.traced.append((run_pass(cases, tracer), tracer))
            next_id = tracer.next_id
        else:
            m.untraced.append(run_pass(cases, null))
        pass_times.append(perf_counter() - t0)
        enough = (min(len(m.untraced), len(m.traced)) >= 2 if trace
                  else len(pass_times) >= MIN_PASSES)
        if enough and perf_counter() - start + median(pass_times) > seconds:
            break
    for passes in m.all_passes:
        for out in passes:
            if out.error is None:
                m.setup_samples[out.label].append(out.setup_s)
    return m


def summed_median(passes, attr):
    """Sum over instances of each instance's median over passes."""
    per_case = defaultdict(list)
    for outcomes in passes:
        for out in outcomes:
            if out.error is None:
                per_case[out.label].append(getattr(out, attr))
    return sum(median(v) for v in per_case.values())


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

APPLY_SPANS = ("torus.apply", "sphere.apply")


def layer_figures(spans, outcomes, cases):
    """Per-layer figures of one traced pass."""
    names = {s[0]: s[2] for s in spans}
    total = defaultdict(float)
    count = Counter()
    covered = defaultdict(float)
    run_until_applies = 0
    for sid, parent, name, t0, t1 in spans:
        total[name] += t1 - t0
        count[name] += 1
        if parent is not None:
            covered[parent] += t1 - t0
            if name in APPLY_SPANS and names.get(parent) == "sinkhorn.run_until":
                run_until_applies += 1
    sinkhorn_self = sum(t1 - t0 - covered[sid] for sid, _, name, t0, t1 in spans
                        if name == "sinkhorn.run_until")

    by_kind = defaultdict(list)
    for case, out in zip(cases, outcomes):
        by_kind[type(case)].append(out)
    sinkhorn_outs = by_kind[TorusCase] + by_kind[SphereCase]
    stops = Counter(out.stop for out in sinkhorn_outs)
    steps = sum(out.steps for out in sinkhorn_outs)
    par_steps = sum(out.steps for out in by_kind[ParabolicCase])
    torus_fb = sum(out.fallbacks for out in by_kind[TorusCase])
    sphere_fb = sum(out.fallbacks for out in by_kind[SphereCase])

    def per_call_us(name):
        return 1e6 * total[name] / count[name] if count[name] else 0.0

    return {
        "sinkhorn.steps": steps,
        "sinkhorn.applies": run_until_applies,
        "sinkhorn.stop_tol": stops["tol"],
        "sinkhorn.stop_m_max": stops["m_max"],
        "sinkhorn.stop_stagnated": stops["stagnated"],
        "sinkhorn.self_s": sinkhorn_self,
        "sinkhorn.step_us": 1e6 * total["sinkhorn.run_until"] / steps if steps else 0.0,
        "sinkhorn.readout_s": total["sinkhorn.readout"],
        "torus.apply_s": total["torus.apply"],
        "torus.apply_us": per_call_us("torus.apply"),
        "torus.fallbacks": torus_fb,
        "torus.fallback_frac": (torus_fb / count["torus.apply"]
                                if count["torus.apply"] else 0.0),
        "torus.setup_s": total["torus.construct"],
        "sphere.apply_s": total["sphere.apply"],
        "sphere.apply_us": per_call_us("sphere.apply"),
        "sphere.fallbacks": sphere_fb,
        "sphere.setup_s": total["sphere.construct"],
        "measures.discretize_s": total["measures.discretize"],
        "parabolic.steps": par_steps,
        "parabolic.step_us": (1e6 * total["parabolic.solve"] / par_steps
                              if par_steps else 0.0),
        "parabolic.residual_s": total["parabolic.residual"],
        "parabolic.setup_s": total["parabolic.setup"],
    }


def layer_metrics(m):
    """Median over traced passes; counts come from the first traced pass."""
    figures = [layer_figures(tr.spans, outs, m.cases) for outs, tr in m.traced]
    merged = {}
    for name, first in figures[0].items():
        if isinstance(first, int):
            merged[name] = first
        else:
            merged[name] = median(f[name] for f in figures)
    untraced = summed_median(m.untraced, "solve_s")
    traced = summed_median([outs for outs, _ in m.traced], "solve_s")
    merged["trace.overhead_s"] = traced - untraced
    merged["trace.overhead_frac"] = (traced - untraced) / untraced if untraced else 0.0
    return merged


def counts_repeat(m):
    """True when every pass gave the same stops, steps and fallbacks."""
    keys = {tuple((o.stop, o.steps, o.fallbacks) for o in passes)
            for passes in m.all_passes}
    return len(keys) == 1


# ---------------------------------------------------------------------------
# single-layer timings outside the solves
# ---------------------------------------------------------------------------


def _median_call_s(fn, reps):
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return median(times)


def kernel_timings(cases, reps=15):
    """Public fft_apply and SHT pair per call, and first Legendre table build.

    Summed over the workload's distinct lattice sizes and bandwidths; zero
    for a layer the workload does not use.
    """
    from geosink.sphere import sht_adjoint, sht_inverse
    from geosink.torus import fft_apply

    rng = np.random.default_rng(0)
    fft_us = 0.0
    for n, k in sorted({(c.n, c.k) for c in cases if isinstance(c, TorusCase)}):
        grid = TorusGrid(n, k)
        profile = np.exp(TorusKernelSpec("gaussian", k=k).log_cost_profile(grid))
        # entries in [1, 2) keep every convolution output positive
        vec = 1.0 + rng.random(grid.size)
        fft_us += 1e6 * _median_call_s(lambda: fft_apply(profile, vec), reps)
    sht_us = 0.0
    legendre_s = 0.0
    for W in sorted({c.W for c in cases if isinstance(c, SphereCase)}):
        grid = SphericalGrid(W)
        values = rng.random(grid.size)
        grid.legendre_table()
        sht_us += 1e6 * _median_call_s(
            lambda: sht_inverse(grid, sht_adjoint(grid, values)), reps)
        fresh = [SphericalGrid(W) for _ in range(5)]
        legendre_s += median(_median_call_s(g.legendre_table, 1) for g in fresh)
    return {"torus.fft_us": fft_us, "sphere.sht_us": sht_us,
            "sphere.legendre_s": legendre_s}
