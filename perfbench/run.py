"""Benchmark for varipade: run one workload, check every solve, print metrics.

    python3 perfbench/run.py --workload matrix-analytic --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root. The library is imported from ./src, never from
an installed copy; without ./src/varipade the run fails before measuring.
Everything runs on one thread of this one process, with the BLAS pinned to
one thread. Timings are scaled to a reference host speed (speed.py).

--trace 0 prints the end-to-end metrics of an untraced run; --trace 1 prints
the per-layer metrics of a traced run, which alternates untraced and traced
replays of round 0 and also reports the tracing overhead. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
--smoke runs every workload at a tiny size in both modes and checks that
every metric named in BENCHMARK.json is printed with its unit.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import pathlib
import platform
import resource
import statistics
import sys
import time
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = pathlib.Path(__file__).resolve().parent / "out"

WORKLOADS = ("matrix-analytic", "matrix-mlp", "solve-requests")
SETUP_REPEATS = 7
# every workload runs on one thread: the speed probe (speed.py) cannot time a
# thread pool's work, and unscaled pool timings spread too far on a shared host
WORKERS = 1
# the speed probe (speed.py) of each workload: the kind of work it does itself
PROBES = {"matrix-analytic": "small_arrays", "matrix-mlp": "stream", "solve-requests": "python_loop"}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "steps_per_s": "1/s",
    "solve_s.p50": "s",
    "solve_s.p95": "s",
    "time_to_tol_s": "s",
    "solved_share": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "families.jet.calls": "count",
    "families.jet.self_s": "s",
    "families.jet.computed_mb": "MB",
    "boundary.compose.self_s": "s",
    "boundary.factor.self_s": "s",
    "expressions.parse.calls": "count",
    "expressions.parse.s": "s",
    "expressions.eval.calls": "count",
    "expressions.eval.self_s": "s",
    "expressions.eval.nodes": "count",
    "loss.loss_and_grad.self_s": "s",
    "loss.sample_grid.calls": "count",
    "loss.sample_grid.self_s": "s",
    "optimize.train.self_s": "s",
    "optimize.adam_step.self_s": "s",
    "optimize.steps": "count",
    "optimize.steps_to_tol": "count",
    "optimize.failed": "count",
    "problems.pairs": "count",
    "problems.parallel_efficiency": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}
# modules whose namespaces the tracer patches
MODULES = ("varipade", "varipade.problems", "varipade.optimize", "varipade.loss",
           "varipade.boundary", "varipade.families")


def pin_threads():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def nproc():
    return len(os.sched_getaffinity(0))


def meter(name):
    import speed

    return speed.Meter(getattr(speed, PROBES[name]), speed.SAMPLE_EVERY)


def build(vp, name, seed, tiny):
    import workloads

    if name == "matrix-analytic":
        workload = workloads.Matrix(vp, meter(name), mlp=False, steps=3 if tiny else 350, min_rounds=2)
    elif name == "matrix-mlp":
        workload = workloads.Matrix(vp, meter(name), mlp=True, steps=3 if tiny else 100, min_rounds=2)
    else:
        workload = workloads.SolveRequests(vp, meter(name), seed, batch=10 if tiny else 60,
                                           steps=3 if tiny else 200)
    if tiny:
        workload.min_rounds = 1
    return workload


def set_up(name, seed, tiny, repeats):
    """Import varipade afresh, build the inputs and warm up.

    Returns the median set-up time over the repeats, scaled to the reference
    speed (speed.py), and the raw median.
    """
    setup_meter = meter(name)

    def once():
        for module in [m for m in sys.modules if m == "varipade" or m.startswith("varipade.")]:
            del sys.modules[module]
        vp = importlib.import_module("varipade")
        workload = build(vp, name, seed, tiny)
        workload.warm_up()
        return vp, workload

    raw, scaled = [], []
    for _ in range(repeats):
        gc.collect()
        (vp, workload), raw_s, scaled_s = setup_meter.time(once)
        raw.append(raw_s)
        scaled.append(scaled_s)
    if pathlib.Path(vp.__file__).resolve().parent != SRC / "varipade":
        raise RuntimeError(f"varipade imported from {vp.__file__}, not from {SRC}")
    return statistics.median(scaled), statistics.median(raw), vp, workload


def keep_going(start, units, seconds, min_units):
    """Stop once min_units are done and another unit would end past `seconds`."""
    elapsed = time.perf_counter() - start
    return units < min_units or elapsed + elapsed / units <= seconds


def census(solves, rounds):
    steps = sum(s.steps for s in solves)
    fixed = sum(s.steps for s in solves if s.grid_mode == "midpoint")
    return {
        "rounds": rounds,
        "solves": len(solves),
        "steps": steps,
        "steps_fixed_grid_share": fixed / steps,
        "steps_resampled_grid_share": (steps - fixed) / steps,
        "solves_per_family": dict(sorted(Counter(s.family for s in solves).items())),
        "solves_per_grid_n": {str(k): v for k, v in sorted(Counter(s.grid_n for s in solves).items())},
    }


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": nproc(),
        "workers": WORKERS,
    }


def same_result(a, b):
    """Bitwise-equal training outcome, so a traced replay matches its untraced run."""
    return (a.report.status == b.report.status
            and a.report.loss_history == b.report.loss_history
            and (a.report.final_params == b.report.final_params).all())


def measure(workload, seconds):
    rounds = []
    start = time.perf_counter()
    while keep_going(start, len(rounds), seconds, workload.min_rounds):
        rounds.append(workload.round(len(rounds)))
    return rounds


def end_to_end(rounds, setup_s, min_rounds):
    """End-to-end metrics of gated untraced rounds; times scaled by speed.py.

    The solve-time percentiles and time_to_tol_s are taken over the first
    min_rounds rounds, which every run measures, so they do not depend on how
    many rounds fit in the time: each round repeats the matrix's slowest
    pairs, which would shift a percentile with the round count.
    """
    solves = [s for r in rounds for s in r.solves]
    first = [s for r in rounds[:min_rounds] for s in r.solves]
    times = [s.solve_s for s in first]
    failed = sum(not s.ok for s in solves)
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(r.wall_s for r in rounds),
        "steps_per_s": sum(s.steps for s in solves) / sum(r.wall_s for r in rounds),
        "solve_s.p50": statistics.median(times),
        "solve_s.p95": statistics.quantiles(times, n=20, method="inclusive")[18],
        "time_to_tol_s": sum(s.time_to_tol_s for s in first) / min_rounds,
        "solved_share": 1.0 - failed / len(solves),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw_times = [s.raw_s for s in first]
    info = {
        "raw_wall_s": statistics.median(r.raw_s for r in rounds),
        "raw_steps_per_s": sum(s.steps for s in solves) / sum(r.raw_s for r in rounds),
        "raw_solve_s.p50": statistics.median(raw_times),
        "solve_samples": len(times),
        "samples_beyond_p95": sum(t > metrics["solve_s.p95"] for t in times),
        "failed_share": failed / len(solves),
    }
    return metrics, info


def measure_traced(workload, seconds):
    """Alternate untraced and traced replays of round 0; returns both and the spans."""
    import tracing

    tracer = tracing.Tracer()
    modules = {m: sys.modules[m] for m in MODULES}
    plain, traced, spans = [], [], []
    start = time.perf_counter()
    while keep_going(start, len(plain), seconds, 1):
        plain.append(workload.round(0))
        tracer.install(modules)
        try:
            traced.append(workload.round(0))
        finally:
            tracer.uninstall()
        spans.append(tracer.take())
    return plain, traced, spans


def per_layer(plain, traced, spans, name, problems):
    """Per-layer metrics: self times are medians over traced replays, counts exact.

    Self times are raw seconds; trace.wall_s and trace.overhead_s are scaled
    by speed.py like the end-to-end wall_s they are compared with.
    """
    import tracing

    reference = plain[0].solves
    if not all(same_result(a, b) for r in plain + traced for a, b in zip(reference, r.solves)):
        problems.append("a replay of round 0 trained differently from its first run")
    reps = []
    for r, rep in zip(traced, spans):
        by_name, by_thread = tracing.self_times(rep)
        if max(by_thread.values(), default=0.0) > r.raw_s:
            problems.append("layer self times of one thread exceed the traced wall time")
        busy = sum(s[3] - s[2] for s in rep if s[1] == tracing.SOLVE_SPAN)
        reps.append((by_name, busy / (WORKERS * r.raw_s)))

    def self_s(*names):
        return statistics.median(sum(b.get(n, (0, 0.0, 0))[1] for n in names) for b, _ in reps)

    def count(name, field=0):
        return reps[0][0].get(name, (0, 0.0, 0))[field]

    solves = traced[0].solves
    traced_wall = statistics.median(r.wall_s for r in traced)
    plain_wall = statistics.median(r.wall_s for r in plain)
    return {
        "families.jet.calls": count("families.jet"),
        "families.jet.self_s": self_s("families.jet", "families.legendre"),
        "families.jet.computed_mb": count("families.jet", 2) / 1e6,
        "boundary.compose.self_s": self_s("boundary.compose"),
        "boundary.factor.self_s": self_s("boundary.factor"),
        "expressions.parse.calls": count("expressions.parse"),
        "expressions.parse.s": self_s("expressions.parse"),
        "expressions.eval.calls": count("expressions.eval"),
        "expressions.eval.self_s": self_s("expressions.eval"),
        "expressions.eval.nodes": count("expressions.eval", 2),
        "loss.loss_and_grad.self_s": self_s("loss.loss_and_grad"),
        "loss.sample_grid.calls": count("loss.sample_grid"),
        "loss.sample_grid.self_s": self_s("loss.sample_grid"),
        "optimize.train.self_s": self_s("optimize.train"),
        "optimize.adam_step.self_s": self_s("optimize.adam_step"),
        "optimize.steps": sum(s.steps for s in solves),
        "optimize.steps_to_tol": sum(s.steps_to_tol for s in solves),
        "optimize.failed": sum(not s.ok for r in traced for s in r.solves),
        "problems.pairs": len(solves) if name.startswith("matrix") else 0,
        "problems.parallel_efficiency": statistics.median(e for _, e in reps),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - plain_wall,
        "trace.spans": len(spans[0]),
    }, {"traced_rounds": len(traced), "untraced_wall_s": plain_wall}


def run(name, seed, seconds, trace, tiny=False):
    """One benchmark run; returns (result, census, environment, info, problems)."""
    import speed
    import tracing
    import workloads

    setup_s, raw_setup_s, vp, workload = set_up(name, seed, tiny, 1 if tiny else SETUP_REPEATS)
    if trace:
        workload.meter.sample_every = None  # no probes inside the spans
        plain, traced, spans = measure_traced(workload, seconds)
        tracing.write_spans(OUT / f"spans-{name}-seed{seed}.csv", [s for rep in spans for s in rep])
        rounds = plain + traced
    else:
        rounds = measure(workload, seconds)
    solves = [workloads.check(vp, s, workload.tol) for r in rounds for s in r.solves]
    failed = sum(not s.ok for s in solves)
    problems = [
        f"{s.structure} on {s.problem.name or s.problem.integrand.text!r}: "
        f"status {s.report.status}, rel error {s.rel_error:.3g}"
        for s in solves if not s.ok
    ]
    if trace:
        metrics, info = per_layer(plain, traced, spans, name, problems)
        units = PER_LAYER
    else:
        metrics, info = end_to_end(rounds, setup_s, workload.min_rounds)
        units = END_TO_END
    info["worst_rel_error"] = {
        mode: max(s.rel_error for s in solves if s.grid_mode == mode) for mode in workload.tol
    }
    info["tolerance"] = workload.tol
    info["raw_setup_s"] = raw_setup_s
    probes = [d for _, d in workload.meter.probes]
    info["probe_s"] = {"probe": PROBES[name], "reference": speed.REFERENCE_S, "median": statistics.median(probes),
                       "count": len(probes), "sample_every": workload.meter.sample_every}
    for key, value in metrics.items():
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"metric {key} is {value!r}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(solves),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return result, census(solves, len(rounds)), environment(), info, problems


def smoke():
    """Tiny runs of every workload in both modes; checks names and units."""
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    errors = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from run.py")
    for name in WORKLOADS:
        for trace in (0, 1):
            result = run(name, 0, 0, trace, tiny=True)[0]
            printed = {k: m["unit"] for k, m in result["metrics"].items()}
            if printed != declared[trace]:
                errors.append(f"{name} --trace {trace}: printed {printed}, declared {declared[trace]}")
            print(f"smoke: {name} --trace {trace}: {len(printed)} metrics with units")
    vp = sys.modules["varipade"]
    # closed-form J of every request template against a fine quadrature of its exact solution
    for request in workloads.make_batch(0, 0, 40):
        problem = vp.Problem(vp.parse_integrand(request.text),
                             vp.BoundaryCondition(request.x_a, request.x_b, request.y_a, request.y_b))
        j = vp.functional_value(problem, request.exact, 20000)
        if abs(j - request.j_exact) > 1e-6 * max(1.0, abs(request.j_exact)):
            errors.append(f"closed-form J {request.j_exact} of {request.text!r} but quadrature gives {j}")
    rejected = []
    for fn in ("tan", "log", "abs", "sinh", "cosh", "tanh"):
        try:
            vp.parse_integrand(f"{fn}(x)")
        except vp.UnknownIdentifierError:
            rejected.append(fn)
    if rejected:
        print(f"note: README lists {' '.join(rejected)} but parse_integrand rejects them")
    for e in errors:
        print(f"smoke error: {e}", file=sys.stderr)
    print("smoke: ok" if not errors else f"smoke: {len(errors)} errors")
    return 0 if not errors else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "varipade" / "__init__.py").is_file():
        print(f"no varipade sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    result, cen, env, info, problems = run(args.workload, args.seed, args.seconds, args.trace)
    print("env: " + json.dumps(env))
    print("census: " + json.dumps(cen))
    print("info: " + json.dumps(info))
    for p in problems:
        print(f"problem: {p}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
