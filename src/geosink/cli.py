"""Batch command line driver.

Subcommands: `transport {torus|sphere}` and `antenna` run the scaling
iteration from a JSON config and write potentials/trace/summary artifacts
(`antenna` adds the reflector's); `parabolic` runs the finite-difference
reference flow; `diagnose` runs self-check suites (stationary-phase,
density, sht, bench) and reports pass/fail.

Configs are single JSON objects with explicit constants; the summary
echoes the fully resolved config so a run is reproducible from its own
artifacts. CSV floats are written with repr (shortest round-trip), which
makes outputs byte-identical across runs up to the timing columns.

Exit codes: 0 success, 1 diagnostic suite failure, 2 config error,
3 numerical abort (a diagnostic dump is written next to the artifacts).

Heavy imports happen inside command bodies, after --threads has had a
chance to pin the BLAS/OpenMP pool sizes.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from dataclasses import fields
from functools import cache, partial
from operator import attrgetter
from pathlib import Path

import click

_REQUIRED = object()

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class ConfigError(click.ClickException):
    exit_code = 2


def _set_threads(n):
    if n is None:
        return
    if n < 1:
        raise ConfigError(f"--threads must be positive, got {n}")
    for var in _THREAD_VARS:
        os.environ[var] = str(n)


def _load_config(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return cfg


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value):
    return _is_int(value) or isinstance(value, float) and math.isfinite(value)


def _list_of(is_item):
    return lambda value: isinstance(value, list) and all(map(is_item, value))


_INT = ("an integer", _is_int)
_REAL = ("a finite number", _is_real)
_TEXT = ("a string", lambda value: isinstance(value, str))
_POSITIVE = ("a positive finite number", lambda value: _is_real(value) and value > 0)
# slopes and rates are fitted across these lists, so one value is too few
_RISING = ("a list of at least two strictly increasing integers",
           lambda value: _list_of(_is_int)(value) and len(value) > 1
           and all(a < b for a, b in zip(value, value[1:])))
_SIZES = ("a list of integers with at least two distinct values",
          lambda value: _list_of(_is_int)(value) and len(set(value)) > 1)

# the JSON type each config key takes, across every command's schema: an
# integer key takes integers only, a real key finite integers or floats (not
# the NaN and Infinity that Python's parser lets through), and a bool is
# never a number. null is allowed where the schema default is null or
# derived, and on tol, where it runs a fixed number of steps.
_KEY_TYPES = {
    "manifold": _TEXT, "f": _TEXT, "g": _TEXT, "source_cloud": _TEXT,
    "target_cloud": _TEXT, "backend": _TEXT, "kernel": _TEXT,
    "n": _INT, "k": _INT, "W": _INT, "m_max": _INT, "k_grid": _INT,
    "records": _INT, "seed": _INT,
    "t": _REAL, "T": _REAL, "dt": _REAL, "A": _POSITIVE, "radius": _POSITIVE,
    "tol": ("a finite number or null", lambda value: value is None or _is_real(value)),
    "normalize": ("true or false", lambda value: isinstance(value, bool)),
    "record_times": ("a list of finite numbers", _list_of(_is_real)),
    "ks": _RISING, "torus_sizes": _SIZES, "sphere_bandwidths": _SIZES,
}


def _setup(config_path, schema, command, threads, out_path, **overrides):
    """The preamble every command shares; returns (resolved config, out dir).

    Pins the thread pools, rejects unknown keys, applies the schema's
    defaults and then the CLI overrides that were given, and checks each
    value's JSON type and the manifold. A callable default is derived last
    from the resolved config (the step cap, the sphere bandwidth), so the
    summary echoes its value.
    """
    _set_threads(threads)
    cfg = _load_config(config_path) if config_path else {}
    unknown = sorted(set(cfg) - set(schema))
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {unknown}")
    for key, default in schema.items():
        if key not in cfg and default is _REQUIRED:
            raise ConfigError(f"{command}: missing required config key {key!r}")
        cfg.setdefault(key, None if callable(default) else default)
    cfg.update((key, val) for key, val in overrides.items() if val is not None)
    for key, default in schema.items():
        what, valid = _KEY_TYPES[key]
        nullable = default is None or callable(default)
        if not (valid(cfg[key]) or nullable and cfg[key] is None):
            raise ConfigError(f"{command}: config key {key!r} must be {what}, "
                              f"got {json.dumps(cfg[key])}")
    if cfg.get("manifold") != schema.get("manifold"):
        raise ConfigError(
            f"config manifold is {cfg['manifold']!r}, expected {schema['manifold']}"
        )
    for key, default in schema.items():
        if callable(default) and cfg[key] is None:
            cfg[key] = default(cfg)
    out = Path(out_path)
    out.mkdir(parents=True, exist_ok=True)
    return cfg, out


def _default_m_max(cfg):
    from .sinkhorn import m_max_schedule

    return m_max_schedule(cfg["k"], cfg["A"])


def _default_W(cfg):
    return 2 * cfg["k"]


def _fmt(value):
    if isinstance(value, float):
        # plain-float repr is the shortest round-trip form; numpy scalars
        # would otherwise print their type wrapper under numpy 2.x
        return repr(float(value))
    return str(value)


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _environment():
    """Library versions and thread settings in effect, for summary.json."""
    import platform

    import numpy as np
    import scipy

    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_env": {var: os.environ.get(var) for var in _THREAD_VARS},
        "affinity": None if affinity is None else len(affinity),
        "blas_threads": _blas_threads(),
    }


def _blas_threads():
    """Thread count the OpenBLAS bundled with numpy reports, or None when unreadable."""
    import ctypes

    import numpy as np

    for lib in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs")
                      .glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _guard_numerics(work, out):
    """Run work(); map numerical aborts to exit 3 and bad inputs to exit 2.

    A ValueError surfacing here always traces back to a config value (a
    malformed expression, a bad cloud file, record times outside the
    horizon), so it gets the config-error exit code rather than a
    traceback. Genuine numerical aborts also leave a diagnostic dump.
    """
    from .sinkhorn import NumericalAbortError

    try:
        return work()
    except NumericalAbortError as exc:
        dump = out / "abort.json"
        _write_json(dump, {"error": str(exc), "diagnostics": exc.diagnostics})
        click.echo(f"numerical abort: {exc} (dump at {dump})", err=True)
        sys.exit(3)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _solve_and_report(cfg, out, coord_header, applicator, xs, ys, extras=None):
    """Solve to cfg's stop rule and write what every Sinkhorn command reports.

    Writes potentials.csv (potentials_target.csv too when the supports
    differ), trace.csv and summary.json, and echoes one line. `extras`, if
    given, takes the normalized source potential u, writes its own
    artifacts and returns further summary fields.
    """
    import numpy as np

    from .sinkhorn import (TraceRecord, entropic_cost, initial_state, normalized_potentials,
                           run_until)

    t0 = time.perf_counter()
    state = initial_state(applicator)
    state = run_until(state, applicator, tol=cfg["tol"], A=cfg["A"], m_max=cfg["m_max"])
    wall_ms = (time.perf_counter() - t0) * 1e3
    # the last step measured the final errors; e_row is 0 after its u-update
    e_row, e_col = state.trace[-1].e_row, state.trace[-1].e_col
    cost = entropic_cost(state, applicator, (e_row, e_col))
    u, v = normalized_potentials(state)

    shared = xs is ys or (
        len(u) == len(v) and np.array_equal(np.asarray(xs), np.asarray(ys))
    )
    if shared:
        header = coord_header + ("u", "v")
        rows = [tuple(x) + (u[i], v[i]) for i, x in enumerate(xs)]
    else:
        header = coord_header + ("u",)
        rows = [tuple(x) + (u[i],) for i, x in enumerate(xs)]
        _write_csv(
            out / "potentials_target.csv",
            coord_header + ("v",),
            [tuple(y) + (v[j],) for j, y in enumerate(ys)],
        )
    _write_csv(out / "potentials.csv", header, rows)
    columns = [f.name for f in fields(TraceRecord)]
    _write_csv(out / "trace.csv", columns, map(attrgetter(*columns), state.trace))
    summary = {
        "config": cfg,
        "k": cfg["k"],
        "N": int(len(u)),
        "m_stop": state.m,
        "stop_reason": state.stop_reason,
        "entropic_cost": cost,
        "cost_warning": state.cost_warning,
        "e_row": e_row,
        "e_col": e_col,
        "m_max": cfg["m_max"],
        "backend": applicator.describe(),
        "wall_time_ms": wall_ms,
        "environment": _environment(),
    }
    if extras is not None:
        summary.update(extras(u))
    _write_json(out / "summary.json", summary)
    click.echo(
        f"stop={state.stop_reason} m={state.m} cost={cost:.6g} "
        f"err=({e_row:.3g},{e_col:.3g}) -> {out}"
    )


def _side(cfg, which, renormalize, sample):
    """(points, weights, sampled) for the source or target side: its cloud
    file, or its expression sampled on the grid by sample(expr)."""
    from .measures import load_point_cloud

    manifold, ndim = cfg.get("manifold", "sphere"), cfg.get("n")
    cloud = cfg.get(f"{which}_cloud")
    expr = cfg[{"source": "f", "target": "g"}[which]]
    if cloud is not None and expr is not None:
        raise ConfigError(f"give either an expression or a cloud for {which}, not both")
    if cloud is not None:
        measure = load_point_cloud(cloud, renormalize=renormalize, ndim=ndim)
        if measure.chart != manifold:
            raise ConfigError(f"{cloud}: expected {manifold} points")
        if ndim is not None and measure.coords.shape[1] != ndim:
            raise ConfigError(f"{cloud}: dimension mismatch with n={ndim}")
        return measure.coords, measure.weights, False
    if expr is None:
        raise ConfigError(f"{which} side needs an expression or a cloud")
    measure = sample(expr)
    return measure.coords, measure.weights, True


def _build_applicator(cfg, renormalize, kind):
    """(applicator, xs, ys) for a Sinkhorn config on either manifold.

    Two sampled sides run the grid route the backend names; a cloud on
    either side runs the dense route between the point sets, on the direct
    backend only, and builds no grid for itself. An antenna config (no
    manifold, backend, cloud or t key) runs the sphere's SHT route.
    """
    from . import measures, sphere, torus
    from .sinkhorn import DenseApplicator

    k, manifold = cfg["k"], cfg.get("manifold", "sphere")
    backend = cfg.get("backend", "sht")
    if manifold == "torus":
        spec = torus.TorusKernelSpec(kind, k, cfg["t"])
        grid = partial(torus.TorusGrid, cfg["n"], k)
        sample = partial(measures.discretize_torus, k=k, n=cfg["n"])
        routes = {mode: partial(torus.TorusLatticeApplicator, mode=mode)
                  for mode in ("fft", "direct")}
        log_kernel = partial(torus.torus_log_kernel, spec=spec)
    else:
        spec = sphere.SphereKernelSpec(kind, k, cfg.get("t"))
        grid = cache(partial(sphere.SphericalGrid, cfg["W"]))
        routes = {"sht": sphere.SphereSHTApplicator, "direct": sphere.SphereDenseApplicator}

        def sample(expr):
            return measures.discretize_sphere(expr, grid())

        def log_kernel(xs, ys):
            a, b = (sphere.sphere_embed(pts[:, 0], pts[:, 1]) for pts in (xs, ys))
            return spec.log_kernel(a, b, cfg["W"])

    if backend not in routes:
        raise ConfigError(
            f"{manifold} backend must be {' or '.join(routes)}, got {backend!r}"
        )
    xs, p, src_sampled = _side(cfg, "source", renormalize, sample)
    ys, q, tgt_sampled = _side(cfg, "target", renormalize, sample)
    if src_sampled and tgt_sampled:
        return routes[backend](grid(), spec, p, q), xs, ys
    if backend != "direct":
        raise ConfigError("point clouds run on the direct backend only")
    app = DenseApplicator.from_log_kernel(k, p, q, lambda: log_kernel(xs, ys))
    return app, xs, ys


@click.group()
def cli():
    """Entropic transport solvers and diagnostics on the torus and sphere."""


@cli.group()
def transport():
    """Run the scaling iteration for a transport instance."""


# ---------------------------------------------------------------------------
# transport torus
# ---------------------------------------------------------------------------

_TORUS_SCHEMA = {
    "manifold": "torus",
    "n": 1,
    "k": _REQUIRED,
    "f": None,
    "g": None,
    "source_cloud": None,
    "target_cloud": None,
    "backend": "fft",
    "kernel": "gaussian",
    "t": None,
    "tol": 1e-9,
    "A": 2.0,
    "m_max": _default_m_max,
}


@transport.command("torus")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--backend", type=click.Choice(["direct", "fft"]), default=None)
@click.option("--out", "out_path", default="out", type=click.Path())
@click.option("--threads", type=int, default=None)
@click.option("--renormalize", is_flag=True)
@click.option("--k", "k_override", type=int, default=None)
@click.option("--schedule-A", "a_override", type=float, default=None)
def transport_torus(config_path, backend, out_path, threads, renormalize,
                    k_override, a_override):
    """Solve a torus transport instance from a JSON config."""
    cfg, out = _setup(config_path, _TORUS_SCHEMA, "transport torus", threads, out_path,
                      backend=backend, k=k_override, A=a_override)

    def work():
        built = _build_applicator(cfg, renormalize, cfg["kernel"])
        _solve_and_report(cfg, out, tuple(f"x{i + 1}" for i in range(cfg["n"])), *built)

    return _guard_numerics(work, out)


# ---------------------------------------------------------------------------
# transport sphere
# ---------------------------------------------------------------------------

_SPHERE_SCHEMA = {
    "manifold": "sphere",
    "k": _REQUIRED,
    "W": _default_W,
    "f": None,
    "g": None,
    "source_cloud": None,
    "target_cloud": None,
    "backend": "sht",
    "t": None,
    "tol": 1e-9,
    "A": 2.0,
    "m_max": _default_m_max,
}


@transport.command("sphere")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--backend", type=click.Choice(["sht", "direct"]), default=None)
@click.option("--out", "out_path", default="out", type=click.Path())
@click.option("--threads", type=int, default=None)
@click.option("--renormalize", is_flag=True)
def transport_sphere(config_path, backend, out_path, threads, renormalize):
    """Solve a sphere transport instance (band-limited heat kernel cost)."""
    cfg, out = _setup(config_path, _SPHERE_SCHEMA, "transport sphere", threads, out_path,
                      backend=backend)

    def work():
        built = _build_applicator(cfg, renormalize, "heat")
        _solve_and_report(cfg, out, ("phi", "theta"), *built)

    return _guard_numerics(work, out)


# ---------------------------------------------------------------------------
# antenna
# ---------------------------------------------------------------------------

_ANTENNA_SCHEMA = {
    "k": _REQUIRED,
    "W": _default_W,
    "f": _REQUIRED,
    "g": _REQUIRED,
    "tol": 1e-9,
    "A": 2.0,
    "m_max": _default_m_max,
}


def _bin_directions(grid, directions, masses, ok):
    """Accumulate masses of reflected rays into nearest-node bins."""
    import numpy as np

    d = directions[ok]
    theta = np.arccos(np.clip(d[:, 2], -1.0, 1.0))
    phi = np.arctan2(d[:, 1], d[:, 0]) % (2.0 * np.pi)
    ring = np.clip(
        np.rint(theta * grid.n_theta / np.pi - 0.5).astype(int), 0, grid.n_theta - 1
    )
    col = np.rint(phi * grid.n_phi / (2.0 * np.pi)).astype(int) % grid.n_phi
    binned = np.zeros(grid.size)
    np.add.at(binned, ring * grid.n_phi + col, masses[ok])
    return binned


def _reflector_report(app, out, u):
    """Write heights.csv and directions.csv from u; returns the reflector fields."""
    import numpy as np

    from .sphere import antenna_height, bandlimited_heat_apply, reflector_map

    grid, p, q, k = app.grid, app.p, app.q, app.spec.k
    # the height is the k-th root of the scaling function e^{-k u};
    # u(base)=0 pins h(base)=1
    h = antenna_height(np.exp(-k * u), k)
    directions, ok = reflector_map(grid, h)
    binned = _bin_directions(grid, directions, p, ok)
    discrepancy = float(np.abs(binned - q).sum())
    # nearest-node binning quantizes the map, so the raw L1 gap carries
    # O(1) granularity noise; compare blurred densities instead (masses
    # over quadrature weights give densities, the heat operator blurs
    # them, and the weights integrate the gap back up)
    t_blur = 4.0 / grid.W**2
    smoothed = float(
        grid.node_weights
        @ np.abs(
            bandlimited_heat_apply(grid, t_blur, binned / grid.node_weights)
            - bandlimited_heat_apply(grid, t_blur, q / grid.node_weights)
        )
    )

    ang = grid.angles()
    _write_csv(out / "heights.csv", ("phi", "theta", "h"), zip(ang[:, 0], ang[:, 1], h))
    _write_csv(out / "directions.csv", ("phi", "theta", "dx", "dy", "dz", "ok"),
               zip(ang[:, 0], ang[:, 1], *directions.T, ok.astype(int)))
    return {
        "W": grid.W,
        "h_base": float(h[0]),
        "h_min": float(h.min()),
        "h_max": float(h.max()),
        "degenerate_normals": int((~ok).sum()),
        "pushforward_discrepancy": discrepancy,
        "pushforward_smoothed": smoothed,
    }


@cli.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", "out_path", default="out", type=click.Path())
@click.option("--threads", type=int, default=None)
def antenna(config_path, out_path, threads):
    """Solve the reflector problem: heights, reflected field, pushforward check."""
    cfg, out = _setup(config_path, _ANTENNA_SCHEMA, "antenna", threads, out_path)

    def work():
        app, ang, _ = _build_applicator(cfg, False, "antenna")
        _solve_and_report(cfg, out, ("phi", "theta"), app, ang, ang,
                          partial(_reflector_report, app, out))

    return _guard_numerics(work, out)


# ---------------------------------------------------------------------------
# parabolic
# ---------------------------------------------------------------------------

_PARABOLIC_SCHEMA = {
    "n": 1,
    "k_grid": _REQUIRED,
    "f": _REQUIRED,
    "g": _REQUIRED,
    "T": _REQUIRED,
    "dt": None,
    "records": 10,
    "record_times": None,
    "normalize": True,
}


@cli.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", "out_path", default="out", type=click.Path())
@click.option("--threads", type=int, default=None)
def parabolic(config_path, out_path, threads):
    """Run the finite-difference parabolic flow and export its trajectory."""
    cfg, out = _setup(config_path, _PARABOLIC_SCHEMA, "parabolic", threads, out_path)

    def work():
        import numpy as np

        from .parabolic import exp_convergence_fit, ma_residual, solve_parabolic
        from .torus import TorusGrid

        grid = TorusGrid(cfg["n"], cfg["k_grid"])
        if cfg["record_times"] is not None:
            times = [float(t) for t in cfg["record_times"]]
        else:
            times = list(np.linspace(0.0, cfg["T"], int(cfg["records"]) + 1)[1:])
        t0 = time.perf_counter()
        traj = solve_parabolic(
            np.zeros(grid.size),
            cfg["f"],
            cfg["g"],
            cfg["T"],
            grid,
            dt=cfg["dt"],
            record_times=times,
            normalize=cfg["normalize"],
        )
        wall_ms = (time.perf_counter() - t0) * 1e3

        rows = []
        prev = None
        for st in traj:
            sup_change = float(np.abs(st.u - prev).max()) if prev is not None else 0.0
            resid = ma_residual(st.u, cfg["f"], cfg["g"], grid, cfg["normalize"])
            rows.append((st.t, sup_change, st.min_eig, resid))
            prev = st.u
        _write_csv(out / "trajectory.csv", ("t", "sup_change", "min_eig", "residual"), rows)

        final = traj[-1]
        coords = grid.points()
        _write_csv(
            out / "final_state.csv",
            tuple(f"x{i + 1}" for i in range(cfg["n"])) + ("u",),
            [tuple(coords[i]) + (final.u.ravel()[i],) for i in range(grid.size)],
        )
        try:
            fit = exp_convergence_fit(traj)
        except ValueError:
            fit = None
        _write_json(
            out / "summary.json",
            {
                "config": cfg,
                "dt": final.dt,
                "dx": final.dx,
                "T": final.t,
                "final_residual": rows[-1][3],
                "min_eig": final.min_eig,
                "rate_fit": fit,
                "wall_time_ms": wall_ms,
                "environment": _environment(),
            },
        )
        click.echo(
            f"T={final.t:g} residual={rows[-1][3]:.3g} min_eig={final.min_eig:.3f} -> {out}"
        )
        return 0

    return _guard_numerics(work, out)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def _interleaved_min(calls, reps):
    """Seconds per call of each (fn, loops) pair, minimum over reps.

    Sweeps the calls round-robin, timing `loops` calls of each, and keeps
    each one's minimum across sweeps: scheduler noise only ever adds time,
    so the minimum is the cleanest estimate of the true cost, and
    interleaving decorrelates slow machine phases from any one call. The
    collector is paused during timed loops (as timeit does); with a large
    live heap its scans add a per-call constant that drowns small sizes.
    """
    import gc

    best = [float("inf")] * len(calls)
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(reps):
            for i, (fn, loops) in enumerate(calls):
                t0 = time.perf_counter()
                for _ in range(loops):
                    fn()
                best[i] = min(best[i], (time.perf_counter() - t0) / loops)
    finally:
        if was_enabled:
            gc.enable()
    return best


def bench_torus_apply(sizes):
    """Per-application seconds of fft_apply at each size, min of 11 interleaved sweeps."""
    import numpy as np

    from .torus import TorusGrid, TorusKernelSpec, fft_apply

    calls = []
    for k in sizes:
        grid = TorusGrid(1, k)
        profile = np.exp(TorusKernelSpec("gaussian", k=k).log_cost_profile(grid))
        w = np.exp(-np.linspace(0.0, 1.0, grid.size))
        fft_apply(profile, w)  # warm caches and plans
        calls.append((partial(fft_apply, profile, w), max(4, 2 ** 19 // k)))
    return [(k, float(t)) for k, t in zip(sizes, _interleaved_min(calls, 11))]


def _readme_pair_applicator(k):
    """The README's 1-D example pair at k, through the solver's fft route."""
    from .measures import discretize_torus
    from .torus import TorusGrid, TorusKernelSpec, TorusLatticeApplicator

    p = discretize_torus("3*(1-cos(2*pi*x1))", k, 1).weights
    q = discretize_torus("3*(1-cos(2*pi*(x1-0.375)))", k, 1).weights
    return TorusLatticeApplicator(TorusGrid(1, k), TorusKernelSpec("gaussian", k=k),
                                  p, q, mode="fft")


def bench_torus_route(ks):
    """Per-application seconds of the 1-D route the solver runs, interleaved.

    Times softmin_to_target of the README pair's applicator at each k, at
    the potential after 40 scaling steps, peaked as in a real solve.
    """
    from .sinkhorn import initial_state, run_until

    apps, calls = [], []  # apps keeps each route alive: its pair holds it weakly
    for k in ks:
        app = _readme_pair_applicator(k)
        u = run_until(initial_state(app), app, tol=None, m_max=40).u.values
        apps.append(app)
        calls.append((partial(app.softmin_to_target, u), 1))
    return [(k, float(t)) for k, t in zip(ks, _interleaved_min(calls, 5))]


def bench_torus_solves(ks):
    """The README pair solved through the 1-D fft route to tol 1e-9 at each k.

    One record per k: stop reason, steps, the route's fallbacks, and the
    seconds the solve took.
    """
    from .sinkhorn import initial_state, run_until

    records = []
    for k in ks:
        app = _readme_pair_applicator(k)
        t0 = time.perf_counter()
        state = run_until(initial_state(app), app, tol=1e-9)
        records.append({"k": k, "stop_reason": state.stop_reason, "steps": state.m,
                        "fft_fallbacks": app.fallbacks,
                        "seconds": time.perf_counter() - t0})
    return records


def bench_sphere_apply(bandwidths):
    """Per-application seconds of the SHT route at each bandwidth, min of 5 sweeps."""
    import numpy as np

    from .sphere import SphereKernelSpec, SphereSHTApplicator, SphericalGrid

    sizes, apps, calls = [], [], []  # apps keeps each route alive: its pair holds it weakly
    for W in bandwidths:
        grid = SphericalGrid(W)
        p = grid.node_weights.copy()
        app = SphereSHTApplicator(grid, SphereKernelSpec("heat", k=max(2, W // 2)), p, p)
        u = np.zeros(grid.size)
        app.softmin_to_target(u)
        sizes.append(grid.size)
        apps.append(app)
        calls.append((partial(app.softmin_to_target, u), 2))
    return [(n, float(t)) for n, t in zip(sizes, _interleaved_min(calls, 5))]


def fit_loglog_slope(pairs):
    import numpy as np

    ns = np.log([n for n, _ in pairs])
    ts = np.log([t for _, t in pairs])
    return float(np.polyfit(ns, ts, 1)[0])


def _suite_stationary_phase(cfg):
    import numpy as np

    from .phase import shifted_lattice_check, stationary_phase_check

    ks = cfg["ks"]

    def alpha(pts):
        x = np.atleast_2d(pts)[:, 0]
        return (1.0 - np.cos(2.0 * np.pi * x)) / (4.0 * np.pi**2)

    def one(pts):
        return np.ones(np.atleast_2d(pts).shape[0])

    errs = [stationary_phase_check(alpha, one, [0.0], k)["err"] for k in ks]
    rates = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
    shifted = [
        shifted_lattice_check(
            lambda pts, k=k: alpha(np.atleast_2d(pts) - 0.5 / k), one, [0.5 / k], k
        )["err"]
        for k in ks
    ]
    failures = []
    for k, r in zip(ks, rates):
        if not 1.5 <= r <= 2.8:
            failures.append(f"rate {r:.3f} at k={k} outside [1.5, 2.8]")
    c_on = errs[0] * ks[0]
    for k, e_off in zip(ks, shifted):
        if e_off * k > 2.0 * c_on:
            failures.append(
                f"shifted-lattice constant {e_off * k:.3g} at k={k} exceeds "
                f"twice the on-lattice constant {c_on:.3g}"
            )
    return {
        "ks": ks,
        "errors": errs,
        "rates": rates,
        "shifted_errors": shifted,
        "failures": failures,
    }


def _suite_density(cfg):
    import numpy as np

    from .measures import check_density_property, discretize_torus

    k, radius = cfg["k"], cfg["radius"]
    m = discretize_torus(cfg["f"], k, 1)
    centers = np.linspace(0.0, 1.0, 17)[:-1][:, None]
    report = check_density_property(m, k, radius, centers)
    bound = np.log(radius / 2.0) / k - np.log(k) / k
    failures = []
    if not report["min"] >= bound - 1e-9:
        failures.append(
            f"density property value {report['min']:.4f} below bound {bound:.4f}"
        )
    return {
        "k": k,
        "radius": radius,
        "min": report["min"],
        "worst_center": report["worst_center"],
        "bound": bound,
        "failures": failures,
    }


def _suite_sht(cfg):
    import numpy as np

    from .sphere import HarmonicCoeffs, SphericalGrid, sht_forward, sht_inverse

    W = cfg["W"]
    rng = np.random.default_rng(cfg["seed"])
    grid = SphericalGrid(W)
    coeffs = HarmonicCoeffs.zeros(W)
    for l in range(W + 1):
        for m in range(-l, l + 1):
            coeffs.set(l, m, rng.normal() + 1j * rng.normal())
    values = sht_inverse(grid, coeffs)
    back = sht_forward(grid, values)
    err = float(np.abs(back.data - coeffs.data).max())
    failures = []
    if err > 1e-10:
        failures.append(f"SHT roundtrip error {err:.3e} exceeds 1e-10 at W={W}")
    return {"W": W, "roundtrip_error": err, "failures": failures}


def _suite_bench(cfg):
    torus_pairs = bench_torus_apply(cfg["torus_sizes"])
    sphere_pairs = bench_sphere_apply(cfg["sphere_bandwidths"])
    torus_route = bench_torus_route([512, 1024, 2048, 4096])
    torus_solves = bench_torus_solves([256, 1024])
    torus_slope = fit_loglog_slope(torus_pairs)
    sphere_slope = fit_loglog_slope(sphere_pairs)
    failures = []
    if not 1.0 <= torus_slope <= 1.3:
        failures.append(f"torus time slope {torus_slope:.3f} outside [1.0, 1.3]")
    if not 1.35 <= sphere_slope <= 1.7:
        failures.append(f"sphere time slope {sphere_slope:.3f} outside [1.35, 1.7]")
    for rec in torus_solves:
        if rec["stop_reason"] != "tol":
            failures.append(
                f"1-D fft solve at k={rec['k']} stopped on {rec['stop_reason']} "
                f"after {rec['steps']} steps, not tol"
            )
    return {
        "torus": torus_pairs,
        "sphere": sphere_pairs,
        "torus_route": torus_route,
        "torus_route_slope": fit_loglog_slope(torus_route),
        "torus_solves": torus_solves,
        "torus_slope": torus_slope,
        "sphere_slope": sphere_slope,
        "failures": failures,
    }


# each suite with the defaults of the config keys it reads
_SUITES = {
    "stationary-phase": (_suite_stationary_phase, {"ks": [64, 128, 256]}),
    "density": (_suite_density, {"k": 32, "radius": lambda cfg: 2.0 / cfg["k"],
                                 "f": "cos(2*pi*x1)"}),
    "sht": (_suite_sht, {"W": 16, "seed": 0}),
    "bench": (_suite_bench, {"torus_sizes": [2**e for e in range(10, 17)],
                             "sphere_bandwidths": [16, 23, 32, 45, 64]}),
}


@cli.command()
@click.argument("suite", type=click.Choice(sorted(_SUITES)))
@click.option("--config", "config_path", default=None, type=click.Path())
@click.option("--out", "out_path", default="out", type=click.Path())
@click.option("--threads", type=int, default=None)
def diagnose(suite, config_path, out_path, threads):
    """Run a self-check suite; exit 1 when any assertion fails."""
    run, schema = _SUITES[suite]
    cfg, out = _setup(config_path, schema, f"diagnose {suite}", threads, out_path)

    def work():
        report = run(cfg)
        report["suite"] = suite
        report["pass"] = not report["failures"]
        _write_json(out / f"diagnose_{suite}.json", report)
        if report["failures"]:
            for line in report["failures"]:
                click.echo(f"FAIL: {line}", err=True)
            return 1
        click.echo(f"{suite}: pass -> {out}")
        return 0

    return _guard_numerics(work, out)


def main(argv=None):
    try:
        rv = cli.main(args=argv, standalone_mode=False)
        return int(rv) if isinstance(rv, int) else 0
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    except click.exceptions.Abort:
        return 130
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


if __name__ == "__main__":
    sys.exit(main())
