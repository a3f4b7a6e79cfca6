"""Command-line entry point.

Subcommands: condition, pv, isolate, sample, experiment.  All output is
machine-readable JSON on stdout (``--pretty`` re-indents it); a non-finite
float is written as "inf", "-inf" or "nan".  Exit codes: 0 success, 1 usage
or input error, 2 flagged or failed run (an experiment, or a root oracle
that did not converge).  The environment variable CUBECOND_SEED overrides
the built-in default seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

from . import experiments as exps
from . import random as models
from .condition import _finest_grid_eps, global_condition, local_condition
from .experiments import DEFAULT_SEED
from .poly import _read_json_object, load_polynomial, norm1, polynomial_to_dict
from .pv import pv_subdivide
from .univariate import (
    HypothesisViolatedError,
    OracleFailedError,
    descartes_isolate,
    eps_separation_lower_bound,
    js_condition_bound,
    separation_lower_bound,
    separation_oracle,
    tree_size_bound,
)


class _Parser(argparse.ArgumentParser):
    # usage errors exit with code 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def _default_seed() -> int:
    env = os.environ.get("CUBECOND_SEED")
    if env is None:
        return DEFAULT_SEED
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"CUBECOND_SEED must be an integer, got {env!r}") from None


def _emit(obj, pretty: bool) -> None:
    # only dicts are rebuilt; allow_nan=False rejects a non-finite float in a list
    def clean(v):
        if isinstance(v, dict):
            return {k: clean(x) for k, x in v.items()}
        if isinstance(v, float) and not math.isfinite(v):
            return str(v)
        return v

    indent = 2 if pretty else None
    print(json.dumps(clean(obj), indent=indent, sort_keys=True, allow_nan=False))


def _cmd_condition(args) -> int:
    if args.eps is not None and not args.global_:
        raise ValueError("--eps sets the grid of --global; it does not apply with --point")
    f = load_polynomial(args.poly)
    if args.global_:
        eps = args.eps if args.eps is not None else max(1e-4, _finest_grid_eps(f) or 0.0)
        enclosure = global_condition(f, eps)
        _emit(
            {"lower": enclosure.lower, "upper": enclosure.upper,
             "grid_eps": enclosure.grid_eps},
            args.pretty,
        )
    else:
        _emit({"kappa": local_condition(f, args.point)}, args.pretty)
    return 0


def _cmd_pv(args) -> int:
    f = load_polynomial(args.poly)
    report = pv_subdivide(f, args.max_depth)
    if args.svg:
        exps.emit_svg(report, args.svg)
    pairs = zip(report.final_midpoints.tolist(), report.final_widths.tolist())
    _emit(
        {
            "final_count": report.final_count,
            "final_boxes": [{"m": m, "w": w} for m, w in pairs],
            "clauses": report.final_clauses,
            "processed": report.processed_count,
            "max_depth_reached": report.max_depth_reached,
            "per_depth_counts": report.per_depth_counts,
            "terminated": report.terminated,
        },
        args.pretty,
    )
    return 0


def _cmd_isolate(args) -> int:
    f = load_polynomial(args.poly)
    result = descartes_isolate(f, max_depth=args.max_depth)
    enclosure = global_condition(f, args.grid_eps)
    kappa_upper = enclosure.upper
    bounds = {
        "kappa_upper": kappa_upper,
        "separation_lower": separation_lower_bound(f, kappa_upper),
        "tree_size": tree_size_bound(f, kappa_upper),
        "js_condition": js_condition_bound(f.support_size, f.degree, norm1(f), kappa_upper),
    }
    try:
        bounds["eps_separation_lower"] = eps_separation_lower_bound(f, kappa_upper, args.eps)
    except HypothesisViolatedError:
        bounds["eps_separation_lower"] = None
    out = {
        "intervals": [[lo, hi] for lo, hi in result.intervals],
        "exact_roots": result.exact_roots,
        "tree_stats": {
            "nodes": result.tree.nodes,
            "depth": result.tree.depth,
            "per_depth": result.tree.per_depth,
        },
        "complete": result.complete,
        "bounds": bounds,
    }
    if args.oracle:
        oracle = separation_oracle(f, args.eps)
        out["oracle"] = {
            "delta": oracle.delta,
            "delta_eps": oracle.delta_eps,
            "eps": oracle.eps,
        }
    _emit(out, args.pretty)
    return 0


def _cmd_sample(args) -> int:
    model = models.load_model(args.model)
    seed = args.seed if args.seed is not None else _default_seed()
    f = models.sample(model, seed)
    _emit(polynomial_to_dict(f), args.pretty)
    return 0


def _cmd_experiment(args) -> int:
    # seed precedence: --seed flag, then the config file, then CUBECOND_SEED/default
    obj = _read_json_object(args.config, "experiment config", exps._CONFIG_FIELDS)
    seed = args.seed if args.seed is not None or "seed" in obj else _default_seed()
    overrides = {"seed": seed, "workers": args.workers}
    cfg = exps.load_config(obj)
    cfg = replace(cfg, **{key: value for key, value in overrides.items() if value is not None})
    report = exps.run_experiment(cfg)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, f"{cfg.kind}.csv")
    exps.emit_csv(report, csv_path)
    _emit(
        {
            "kind": report.kind,
            "csv": csv_path,
            "summary": report.summary,
            "violations": report.violations,
            "excluded": report.excluded,
            "flagged": report.flagged,
            "passed": report.passed,
        },
        args.pretty,
    )
    return 0 if report.passed else 2


def _build_parser() -> _Parser:
    parser = _Parser(prog="cubecond")
    parser.add_argument("--pretty", action="store_true", help="indent JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cond = sub.add_parser("condition", help="local or global condition number")
    p_cond.add_argument("poly", help="polynomial JSON file")
    group = p_cond.add_mutually_exclusive_group(required=True)
    group.add_argument("--point", type=float, nargs="+", help="evaluation point")
    group.add_argument("--global", dest="global_", action="store_true",
                       help="certified global enclosure")
    p_cond.add_argument("--eps", type=float, help="grid covering radius of --global (default "
                        "1e-4, or the finest that fits the grid work cap if coarser)")
    p_cond.set_defaults(run=_cmd_condition)

    p_pv = sub.add_parser("pv", help="subdivision of the unit cube")
    p_pv.add_argument("poly", help="polynomial JSON file")
    p_pv.add_argument("--max-depth", type=int, default=30)
    p_pv.add_argument("--svg", help="write the final boxes as SVG (n = 2 only)")
    p_pv.set_defaults(run=_cmd_pv)

    p_iso = sub.add_parser("isolate", help="real root isolation on [-1, 1]")
    p_iso.add_argument("poly", help="polynomial JSON file")
    p_iso.add_argument("--max-depth", type=int, default=40)
    p_iso.add_argument("--eps", type=float, default=1e-3)
    p_iso.add_argument("--grid-eps", type=float, default=1e-4,
                       help="covering radius for the condition enclosure")
    p_iso.add_argument("--oracle", action="store_true",
                       help="also run the all-roots separation oracle")
    p_iso.set_defaults(run=_cmd_isolate)

    p_sample = sub.add_parser("sample", help="draw one polynomial from a model")
    p_sample.add_argument("model", help="model JSON file")
    p_sample.add_argument("--seed", type=int, default=None)
    p_sample.set_defaults(run=_cmd_sample)

    p_exp = sub.add_parser("experiment", help="run a Monte Carlo experiment")
    p_exp.add_argument("config", help="experiment config JSON file")
    p_exp.add_argument("--out", required=True, help="output directory for the CSV")
    p_exp.add_argument("--seed", type=int, default=None)
    p_exp.add_argument("--workers", type=int, default=None)
    p_exp.set_defaults(run=_cmd_experiment)
    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        return args.run(args)
    except (ValueError, OSError, OracleFailedError) as exc:  # json's decode error is a ValueError
        sys.stderr.write(f"error: {exc}\n")
        return 2 if isinstance(exc, OracleFailedError) else 1


if __name__ == "__main__":
    sys.exit(main())
