"""Solve-to-tolerance benchmark for geosink.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload torus-sweep --seed 0 --seconds 20 --trace 0

It imports the package from src/ of the checkout, runs one workload
(see workloads.py) in closed loop, one instance after another in this one
process, and prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics:

- solve_s: sum over instances of each one's median solve plus readout time.
- setup_s: sum over instances of each one's median set-up time (discretize
  and construct; parabolic: a zero-horizon solve_parabolic call), from a
  set-up phase that repeats every set-up and from the timed passes.
- solved_frac: share of instances that stop with tol (parabolic: reach the
  horizon). Instances that stop at m_max or stagnate count against it.
- peak_rss_mb: peak resident memory of this process after the timed passes.

--trace 1 reports the per-layer metrics instead, from traced passes that
alternate with untraced ones (harness.py). Which end-to-end metric each is
expected to move, and on which workload:

- sinkhorn.steps/applies/stop_* (counts): solve_s and solved_frac on the
  torus workloads, nothing on parabolic.
- sinkhorn.self_s, step_us, readout_s: solve_s on torus-sweep, where the
  loop's own bookkeeping is a large share of each step.
- torus.apply_s/apply_us/fallbacks/fallback_frac, torus.fft_us: solve_s on
  torus-large (the O(N^2) fallback and the 2-D transforms); torus-sweep
  has no fallbacks.
- torus.setup_s, sphere.setup_s, measures.discretize_s, parabolic.setup_s:
  setup_s on every workload.
- sphere.apply_s/apply_us/fallbacks, sphere.sht_us, sphere.legendre_s:
  solve_s on sphere (and setup_s or peak_rss_mb if tables get cached at
  construction); no torus workload.
- parabolic.steps/step_us/residual_s: solve_s on parabolic only.
- trace.overhead_s/overhead_frac: traced minus untraced solve_s.

A layer a workload does not use reports 0. Counts come from one pass and
are exact; the run's details line says whether every pass repeated them.

An instance that stops with tol but fails its reference check (checks.py)
makes correct false and the exit code 1. failed counts solves that raised.
The spans of a traced run go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import os

# BLAS and OpenMP read these once, when numpy loads, so they are set before
# anything imports numpy. One thread keeps runs comparable on a small box.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"



def declared_units(trace):
    """Metric names and units BENCHMARK.json declares for this mode."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def import_package():
    """Import geosink from this checkout's src/, or exit 2 without a result."""
    if not (SRC / "geosink" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'geosink'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import geosink

    if Path(geosink.__file__).resolve().parent != SRC / "geosink":
        print(f"perfbench: geosink loaded from {geosink.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None when it cannot be read."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas_threads": blas_threads(),
    }


def write_spans(m, workload):
    """Write every traced pass's spans, one CSV row each; the last run of a workload wins."""
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}.csv"
    with open(path, "w") as fh:
        fh.write("pass,id,parent,name,start_s,end_s\n")
        for i, (_, tracer) in enumerate(m.traced):
            for sid, parent, name, t0, t1 in tracer.spans:
                parent = "" if parent is None else parent
                fh.write(f"{i},{sid},{parent},{name},{t0!r},{t1!r}\n")
    return path


def run(cases, seed, seconds, trace):
    """Measure and check a list of instances; returns (result, details, measurement)."""
    from checks import check
    from harness import counts_repeat, kernel_timings, layer_metrics, measure, summed_median

    m = measure(cases, seconds, trace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    passes = m.all_passes
    attempted = sum(len(p) for p in passes)
    failed = sum(1 for p in passes for out in p if out.error is not None)

    first = m.untraced[0]
    if trace:
        metrics = layer_metrics(m)
        metrics.update(kernel_timings(cases))
    else:
        metrics = {
            "solve_s": summed_median(m.untraced, "solve_s"),
            "setup_s": sum(median(v) for v in m.setup_samples.values()),
            "solved_frac": sum(out.reached for out in first) / len(cases),
            "peak_rss_mb": peak_rss_mb,
        }
    units = declared_units(trace)
    if set(metrics) != set(units):
        raise RuntimeError("measured and declared metrics differ in "
                           f"{sorted(set(metrics) ^ set(units))}")

    checks = [check(case, out, seed) for case, out in zip(cases, first)
              if out.error is None]
    correct = all(c.passed for c in checks)
    details = {
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "passes": {"untraced": len(m.untraced), "traced": len(m.traced)},
        "pass_solve_s": [sum(out.solve_s for out in p) for p in passes],
        "solve_samples": {case.label: [p[i].solve_s for p in m.untraced]
                          for i, case in enumerate(cases)},
        "counts_repeat": counts_repeat(m),
        "instances": [
            {**asdict(case), "stop": out.stop, "steps": out.steps,
             "fallbacks": out.fallbacks, "error": out.error}
            for case, out in zip(cases, first)
        ],
        "checks": [c.as_dict() for c in checks],
    }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return result, details, m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    import_package()
    result, details, m = run(WORKLOADS[args.workload](args.seed), args.seed, args.seconds,
                             bool(args.trace))
    details["workload"] = args.workload
    if args.trace:
        details["spans"] = str(write_spans(m, args.workload).relative_to(ROOT))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
