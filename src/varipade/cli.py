"""Command-line surface: single runs, the benchmark matrix, and curve plots.

Exit codes: 0 success, 1 configuration/parse errors, 2 training failures.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .boundary import BoundaryCondition, _finite
from .errors import VaripadeError
from .expressions import parse_integrand
from .families import param_count, parse_structure
from .loss import Problem
from .optimize import TrainConfig, train
from .plotting import write_curves_svg
from .problems import (
    builtin_cases,
    builtin_names,
    case_by_name,
    relative_error,
    run_matrix,
)


class CliError(Exception):
    pass


def _default_seed():
    env = os.environ.get("VARIPADE_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise CliError(f"VARIPADE_SEED must be an integer, got {env!r}")


def _fmt(value):
    return "" if value is None else repr(float(value))


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _problem_from_config(problem_cfg):
    """Returns (problem, j_exact or None, echo dict)."""
    has_builtin = "builtin" in problem_cfg
    has_custom = "integrand" in problem_cfg
    if has_builtin == has_custom:
        raise CliError("problem needs exactly one of 'builtin' or 'integrand'")
    if has_builtin:
        name = problem_cfg["builtin"]
        try:
            case = case_by_name(name)
        except KeyError:
            raise CliError(
                f"unknown builtin problem {name!r}; available: {', '.join(builtin_names())}"
            )
        return case.problem, case.j_exact_analytic, {"builtin": name}
    bounds = ("x_a", "x_b", "y_a", "y_b")
    for k in bounds:
        if k not in problem_cfg:
            raise CliError(f"custom problem missing field {k!r}")
        if not _finite(problem_cfg[k]):
            raise CliError(f"custom problem bounds must be numbers: {k} = {problem_cfg[k]!r}")
    keys = {k: float(problem_cfg[k]) for k in bounds}
    if not isinstance(problem_cfg["integrand"], str):
        raise CliError(f"integrand must be a string, got {problem_cfg['integrand']!r}")
    try:
        integrand = parse_integrand(problem_cfg["integrand"])
        bc = BoundaryCondition(keys["x_a"], keys["x_b"], keys["y_a"], keys["y_b"])
    except (VaripadeError, ValueError) as exc:
        raise CliError(str(exc))
    problem = Problem(integrand=integrand, bc=bc, name="custom")
    return problem, None, {"integrand": problem_cfg["integrand"], **keys}


def _train_config_from_dict(d):
    allowed = set(TrainConfig.__dataclass_fields__)
    unknown = set(d) - allowed
    if unknown:
        raise CliError(f"unknown train config fields: {sorted(unknown)}")
    try:
        return TrainConfig(**d)
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad train config: {exc}")


_CONFIG_TYPES = (("problem", dict, "an object"), ("structure", str, "a string"),
                 ("output_dir", str, "a string"), ("train", dict, "an object"))


def _load_run_config(args):
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read config {args.config}: {exc}")
        if not isinstance(cfg, dict):
            raise CliError(f"config {args.config} must be a JSON object")
        for key in ("problem", "structure", "output_dir"):
            if key not in cfg:
                raise CliError(f"config missing field {key!r}")
        for key, kind, name in _CONFIG_TYPES:
            if key in cfg and not isinstance(cfg[key], kind):
                raise CliError(f"config field {key!r} must be {name}, got {cfg[key]!r}")
        return cfg
    if args.problem is None and args.integrand is None:
        raise CliError("give --config, --problem, or --integrand")
    if args.problem is not None and args.integrand is not None:
        raise CliError("give either --problem or --integrand, not both")
    if args.structure is None:
        raise CliError("--structure is required")
    if args.out is None:
        raise CliError("--out is required")
    if args.problem is not None:
        problem = {"builtin": args.problem}
    else:
        missing = [f for f in ("xa", "xb", "ya", "yb") if getattr(args, f) is None]
        if missing:
            raise CliError(f"custom problem needs --{' --'.join(missing)}")
        problem = {
            "integrand": args.integrand,
            "x_a": args.xa, "x_b": args.xb, "y_a": args.ya, "y_b": args.yb,
        }
    train_cfg = {
        "algorithm": args.algorithm,
        "learning_rate": args.lr,
        "steps": args.steps,
        "grid_n": args.samples,
        "grid_mode": args.grid_mode,
        "seed": args.seed if args.seed is not None else _default_seed(),
        "record_every": args.record_every,
        "train_exponents": not args.freeze_exponents,
        "precondition": args.precondition,
    }
    return {
        "problem": problem,
        "structure": args.structure,
        "train": train_cfg,
        "output_dir": args.out,
    }


def _write_loss_csv(path, history, j_exact):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "loss", "j_gap"])
        for step, loss in history:
            gap = "" if j_exact is None else repr(loss - j_exact)
            writer.writerow([step, repr(loss), gap])


def cmd_run(args):
    cfg = _load_run_config(args)
    problem, j_exact, problem_echo = _problem_from_config(cfg["problem"])
    try:
        spec = parse_structure(cfg["structure"])
    except VaripadeError as exc:
        raise CliError(str(exc))
    config = _train_config_from_dict(cfg.get("train", {}))
    out_dir = cfg["output_dir"]
    os.makedirs(out_dir, exist_ok=True)
    report = train(problem, spec, config)
    _write_loss_csv(os.path.join(out_dir, "loss.csv"), report.loss_history, j_exact)
    rel = None
    if j_exact is not None and report.status != "failed":
        rel = relative_error(j_exact, report.j_final)
    summary = {
        "problem": problem_echo,
        "structure": str(spec),
        "n_params": param_count(spec),
        "j_final": report.j_final,
        "j_exact": j_exact,
        "relative_error": rel,
        "status": report.status,
        "failure_reason": report.failure_reason,
        "steps_done": report.steps_done,
        "failure_step": report.failure_step,
        "wall_time_ms": report.wall_time_ms,
        "config": {
            "problem": problem_echo,
            "structure": cfg["structure"],
            "train": {k: getattr(config, k) for k in TrainConfig.__dataclass_fields__},
            "output_dir": out_dir,
        },
    }
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    if report.status == "failed":
        print(f"training failed: {report.failure_reason}", file=sys.stderr)
        return 2
    print(f"{problem.name or 'custom'} {spec}: J = {report.j_final:.6g} ({report.status})")
    return 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def cmd_bench(args):
    cases = builtin_cases()
    if args.cases:
        wanted = set(args.cases)
        unknown = wanted - {c.index for c in cases}
        if unknown:
            raise CliError(f"unknown case indices {sorted(unknown)}; valid: 1..5")
        cases = [c for c in cases if c.index in wanted]
    for flag, value in (("--seeds", args.seeds), ("--parallel", args.parallel)):
        if value < 1:
            raise CliError(f"{flag} must be at least 1, got {value}")
    structures = args.structures or None
    if structures is not None:
        for s in structures:
            try:
                parse_structure(s)
            except VaripadeError as exc:
                raise CliError(str(exc))
    config = _train_config_from_dict({
        "algorithm": args.algorithm,
        "learning_rate": args.lr,
        "steps": args.steps,
        "grid_n": args.samples,
        "grid_mode": args.grid_mode,
        "seed": args.seed if args.seed is not None else _default_seed(),
        "record_every": args.record_every,
        "precondition": not args.no_precondition,
    })
    os.makedirs(args.out, exist_ok=True)
    matrix = run_matrix(cases, structures, config, n_seeds=args.seeds, parallel=args.parallel)
    any_failed = False
    for case in cases:
        rows = matrix.rows_for_case(case.index)
        table_path = os.path.join(args.out, f"table{case.index}.csv")
        with open(table_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["structure", "n_params", "j_final", "j_exact", "relative_error", "status"])
            for row in rows:
                writer.writerow([
                    row.structure, row.n_params, _fmt(row.j_final),
                    _fmt(row.j_exact), _fmt(row.rel_error), row.status,
                ])
        curves_path = os.path.join(args.out, f"curves{case.index}.csv")
        with open(curves_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["structure", "step", "loss", "j_gap"])
            for row in rows:
                for step, loss in row.report.loss_history:
                    writer.writerow([
                        row.structure, step, repr(loss), repr(loss - case.j_exact_analytic),
                    ])
        for row in rows:
            if row.status == "failed":
                any_failed = True
                print(f"case {case.index} {row.structure}: failed "
                      f"({row.report.failure_reason})", file=sys.stderr)
            else:
                print(f"case {case.index} {row.structure}: J = {row.j_final:.6g} "
                      f"(rel err {row.rel_error:.2e})")
    return 2 if any_failed else 0


# ---------------------------------------------------------------------------
# plot
# ---------------------------------------------------------------------------

def cmd_plot(args):
    try:
        with open(args.curves_csv, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = list(reader)
    except OSError as exc:
        raise CliError(str(exc))
    if header == ["structure", "step", "loss", "j_gap"]:
        series = {}
        try:
            for structure, step, loss, _gap in rows:
                series.setdefault(structure, []).append((float(step), float(loss)))
        except ValueError as exc:
            raise CliError(f"malformed curves CSV: {exc}")
    elif header == ["step", "loss", "j_gap"]:
        try:
            series = {"loss": [(float(s), float(l)) for s, l, _ in rows]}
        except ValueError as exc:
            raise CliError(f"malformed loss CSV: {exc}")
    else:
        raise CliError(f"unrecognized CSV header {header}")
    if not rows:
        raise CliError("CSV has no data rows")
    try:
        dropped = write_curves_svg(series, args.out_svg, logy=args.logy)
    except ValueError as exc:
        raise CliError(str(exc))
    if dropped:
        print(f"warning: dropped {dropped} nonpositive loss values on log axis", file=sys.stderr)
    print(f"wrote {args.out_svg}")
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _add_train_flags(parser, steps_default=20000):
    parser.add_argument("--algorithm", choices=["adam", "sgd"], default="adam")
    parser.add_argument("--lr", type=float, default=0.01)
    parser.add_argument("--steps", type=int, default=steps_default)
    parser.add_argument("--samples", type=int, default=1000, help="quadrature points")
    parser.add_argument("--grid-mode", choices=["midpoint", "random"], default="midpoint")
    parser.add_argument("--seed", type=int, default=None,
                        help="default: $VARIPADE_SEED or 0")
    parser.add_argument("--record-every", type=int, default=50)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="varipade",
        description="Solve 1-D fixed-endpoint variational problems with "
                    "boundary-conforming parametric approximators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="train one structure on one problem")
    run.add_argument("--config", help="JSON run config (overrides other flags)")
    run.add_argument("--problem", help=f"builtin problem: {', '.join(builtin_names())}")
    run.add_argument("--integrand", help="custom integrand in x, y, dy")
    run.add_argument("--xa", type=float)
    run.add_argument("--xb", type=float)
    run.add_argument("--ya", type=float)
    run.add_argument("--yb", type=float)
    run.add_argument("--structure", help='e.g. "Pade-[5/5]"')
    run.add_argument("--out", help="output directory")
    run.add_argument("--freeze-exponents", action="store_true",
                     help="keep both boundary exponents fixed at 1")
    run.add_argument("--precondition", action="store_true",
                     help="scale per-coordinate steps by inverse initial sensitivity")
    _add_train_flags(run)
    run.set_defaults(func=cmd_run)

    bench = sub.add_parser("bench", help="run the benchmark comparison matrix")
    bench.add_argument("--cases", type=int, nargs="+", help="case indices 1..5")
    bench.add_argument("--structures", nargs="+", help="override per-case structures")
    bench.add_argument("--seeds", type=int, default=1,
                       help="seeds per pair; rows report the median J")
    bench.add_argument("--parallel", type=int, default=1)
    bench.add_argument("--out", required=True)
    bench.add_argument("--no-precondition", action="store_true",
                       help="disable the per-coordinate sensitivity scaling")
    _add_train_flags(bench)
    bench.set_defaults(func=cmd_bench)

    plot = sub.add_parser("plot", help="render a curves CSV as a standalone SVG")
    plot.add_argument("curves_csv")
    plot.add_argument("out_svg")
    plot.add_argument("--logy", action="store_true")
    plot.set_defaults(func=cmd_plot)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
