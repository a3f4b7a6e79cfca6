"""Monte Carlo harness: empirical statistics of the engines vs. closed bounds.

Every experiment draws ``trials`` polynomials from a model using per-trial
substreams of a single base seed, computes a statistic per draw with one of
the deterministic engines, and pairs empirical aggregates with the matching
theoretical bound.  Pass criteria use one-sided 3-sigma Monte Carlo slack.
Reports are reproducible byte-for-byte from (config, seed); multi-worker
runs produce the same rows because trials carry their own streams and rows
are emitted in trial order.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import random as models
from .condition import global_condition, local_condition
from .poly import _is_int, _is_number, _read_json_object
from .pv import SubdivisionReport, pv_subdivide
from .univariate import (
    OracleFailedError,
    descartes_isolate,
    eps_separation_lower_bound,
    separation_lower_bound,
    separation_oracle,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "run_experiment",
    "run_tail_experiment",
    "run_pv_experiment",
    "run_descartes_experiment",
    "run_separation_experiment",
    "emit_csv",
    "emit_svg",
    "load_config",
]

EXPERIMENT_KINDS = ("tail", "pv", "descartes", "separation")


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    model: models.RandomModel
    trials: int = 1000
    seed: int = 20240817
    t_grid: tuple = (math.e, 10.0, 100.0)
    k_list: tuple = (1, 2)
    max_depth: int = 30
    grid_eps: float = 1e-4
    eps: float = 1e-3
    x0: tuple | None = None
    workers: int = 1

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass
class ExperimentReport:
    """Per-trial rows plus aggregates, all in the CSV row schema.

    Rows are dicts with keys (trial, seed, stat_name, value, bound, pass);
    aggregate rows use trial = -1 and raw per-trial statistic rows leave
    ``bound``/``pass`` empty.  ``flagged`` marks an inconclusive run (too
    many excluded trials); ``passed`` is the conjunction of the aggregate
    pass flags and not being flagged.
    """

    kind: str
    rows: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    violations: int = 0
    excluded: int = 0
    flagged: bool = False
    passed: bool = True
    wallclock: float = 0.0


def _stat_row(trial, seed, name, value, bound="", ok=""):
    return {
        "trial": trial,
        "seed": seed,
        "stat_name": name,
        "value": value,
        "bound": bound,
        "pass": ok,
    }


def _map_trials(worker, cfg: ExperimentConfig):
    indices = range(cfg.trials)
    if cfg.workers == 1:
        return [worker((cfg, i)) for i in indices]
    with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
        chunk = max(1, cfg.trials // (cfg.workers * 8))
        return list(pool.map(worker, [(cfg, i) for i in indices], chunksize=chunk))


# --- tail experiment -------------------------------------------------------

def _tail_trial(args):
    cfg, i = args
    f = models.sample(cfg.model, (cfg.seed, i))
    x0 = cfg.x0 if cfg.x0 is not None else (0.0,) * cfg.model.n
    return local_condition(f, x0)


def run_tail_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Empirical survival of kappa(f, x0) against the local tail bound."""
    if any(t < math.e for t in cfg.t_grid):
        raise ValueError("t_grid entries must be >= e")
    start = time.perf_counter()
    report = ExperimentReport(kind="tail")
    kappas = np.asarray(_map_trials(_tail_trial, cfg))
    for i, kappa in enumerate(kappas):
        report.rows.append(_stat_row(i, cfg.seed, "kappa_at_x0", float(kappa)))
    all_pass = True
    for t in cfg.t_grid:
        survival = float(np.mean(kappas >= t))
        stderr = math.sqrt(max(survival * (1.0 - survival), 0.0) / cfg.trials)
        bound = models.tail_bound_local(cfg.model, t, clamp=True)
        ok = survival - 3.0 * stderr <= bound
        all_pass = all_pass and ok
        name = f"survival_t={t:.6g}"
        report.rows.append(_stat_row(-1, cfg.seed, name, survival, bound, int(ok)))
        report.summary[name] = {"value": survival, "stderr": stderr, "bound": bound, "pass": ok}
        if not ok:
            report.violations += 1
    report.passed = all_pass
    report.wallclock = time.perf_counter() - start
    return report


# --- subdivision box count experiment --------------------------------------

def _pv_trial(args):
    cfg, i = args
    f = models.sample(cfg.model, (cfg.seed, i))
    rep = pv_subdivide(f, cfg.max_depth)
    return rep.final_count if rep.terminated else -1


def run_pv_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Mean terminated box count against the expected-box-count bound."""
    if cfg.model.n > 2 or cfg.model.degree > 16:
        raise ValueError("box-count experiment is limited to n <= 2, degree <= 16")
    start = time.perf_counter()
    report = ExperimentReport(kind="pv")
    counts = _map_trials(_pv_trial, cfg)
    finished = []
    for i, count in enumerate(counts):
        if count < 0:
            report.excluded += 1
            report.rows.append(_stat_row(i, cfg.seed, "final_boxes_nonterminated", 0))
        else:
            finished.append(count)
            report.rows.append(_stat_row(i, cfg.seed, "final_boxes", count))
    bound = models.expected_boxes_bound(cfg.model).value
    if finished:
        mean = float(np.mean(finished))
        stderr = float(np.std(finished, ddof=1) / math.sqrt(len(finished))) if len(finished) > 1 else 0.0
    else:
        mean, stderr = math.inf, 0.0
    ok = mean + 3.0 * stderr <= bound
    report.flagged = report.excluded > 0.10 * cfg.trials
    report.rows.append(_stat_row(-1, cfg.seed, "mean_final_boxes", mean, bound, int(ok)))
    report.summary["mean_final_boxes"] = {
        "value": mean,
        "stderr": stderr,
        "bound": bound,
        "pass": ok,
        "excluded": report.excluded,
    }
    if not ok:
        report.violations += 1
    report.passed = ok and not report.flagged
    report.wallclock = time.perf_counter() - start
    return report


# --- isolation tree size experiment ----------------------------------------

def _descartes_trial(args):
    cfg, i = args
    f = models.sample(cfg.model, (cfg.seed, i))
    res = descartes_isolate(f, max_depth=min(cfg.max_depth, 100))
    return res.tree.nodes if res.complete else -1


def run_descartes_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Empirical tree-size moments against the moment bound, per k in k_list."""
    if cfg.model.n != 1:
        raise ValueError("isolation experiment requires a univariate model")
    if any(k not in (1, 2, 3) for k in cfg.k_list):
        raise ValueError("k_list entries must lie in {1, 2, 3}")
    start = time.perf_counter()
    report = ExperimentReport(kind="descartes")
    sizes_raw = _map_trials(_descartes_trial, cfg)
    sizes = []
    for i, size in enumerate(sizes_raw):
        if size < 0:
            report.excluded += 1
            report.rows.append(_stat_row(i, cfg.seed, "tree_size_incomplete", 0))
        else:
            sizes.append(size)
            report.rows.append(_stat_row(i, cfg.seed, "tree_size", size))
    sizes = np.asarray(sizes, dtype=np.float64)
    report.flagged = report.excluded > 0.10 * cfg.trials
    all_pass = True
    for k in cfg.k_list:
        moments = sizes ** k
        mean = float(np.mean(moments)) if len(sizes) else math.inf
        stderr = (
            float(np.std(moments, ddof=1) / math.sqrt(len(moments))) if len(sizes) > 1 else 0.0
        )
        bound = models.descartes_moment_bound(cfg.model, k)
        ok = mean + 3.0 * stderr <= bound
        all_pass = all_pass and ok
        name = f"tree_size_moment_k={k}"
        report.rows.append(_stat_row(-1, cfg.seed, name, mean, bound, int(ok)))
        report.summary[name] = {"value": mean, "stderr": stderr, "bound": bound, "pass": ok}
        if not ok:
            report.violations += 1
    report.passed = all_pass and not report.flagged
    report.wallclock = time.perf_counter() - start
    return report


# --- separation experiment --------------------------------------------------

def _separation_trial(args):
    cfg, i = args
    f = models.sample(cfg.model, (cfg.seed, i))
    enclosure = global_condition(f, cfg.grid_eps)
    kappa_upper = enclosure.upper
    d = f.degree
    if math.isfinite(kappa_upper):
        eps = min(cfg.eps, 0.5 / (math.e * d * kappa_upper))
    else:
        eps = cfg.eps
    try:
        oracle = separation_oracle(f, eps)
    except OracleFailedError:
        return (i, "oracle_failed", 0.0, 0.0, 0.0, 0.0, 0.0)
    bound_real = separation_lower_bound(f, kappa_upper)
    if math.isfinite(kappa_upper):
        bound_eps = eps_separation_lower_bound(f, kappa_upper, eps)
    else:
        bound_eps = 0.0
    return (i, "ok", kappa_upper, oracle.delta, bound_real, oracle.delta_eps, bound_eps)


def run_separation_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Oracle-computed separations against their condition-based lower bounds."""
    if cfg.model.n != 1:
        raise ValueError("separation experiment requires a univariate model")
    if cfg.model.degree > 64:
        raise ValueError("separation experiment is limited to degree <= 64")
    start = time.perf_counter()
    report = ExperimentReport(kind="separation")
    outcomes = _map_trials(_separation_trial, cfg)
    for i, status, kappa_upper, delta, bound_real, delta_eps, bound_eps in outcomes:
        if status == "oracle_failed":
            report.excluded += 1
            report.rows.append(_stat_row(i, cfg.seed, "oracle_failed", 1))
            continue
        ok_real = delta >= bound_real
        ok_eps = delta_eps >= bound_eps
        report.rows.append(_stat_row(i, cfg.seed, "kappa_upper", kappa_upper))
        report.rows.append(_stat_row(i, cfg.seed, "delta", delta, bound_real, int(ok_real)))
        report.rows.append(_stat_row(i, cfg.seed, "delta_eps", delta_eps, bound_eps, int(ok_eps)))
        if not ok_real:
            report.violations += 1
        if not ok_eps:
            report.violations += 1
    report.flagged = report.excluded > 0.01 * cfg.trials
    ok = report.violations == 0
    report.rows.append(_stat_row(-1, cfg.seed, "violations", report.violations, 0, int(ok)))
    report.summary["violations"] = {
        "value": report.violations,
        "bound": 0,
        "pass": ok,
        "excluded": report.excluded,
    }
    report.passed = ok and not report.flagged
    report.wallclock = time.perf_counter() - start
    return report


_RUNNERS = {
    "tail": run_tail_experiment,
    "pv": run_pv_experiment,
    "descartes": run_descartes_experiment,
    "separation": run_separation_experiment,
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    return _RUNNERS[cfg.kind](cfg)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def emit_csv(report: ExperimentReport, path) -> None:
    """Write the report rows as CSV with columns trial,seed,stat_name,value,bound,pass.

    The bytes are a pure function of the report: floats are rendered with
    repr (shortest round-trip form) and rows keep trial order.
    """
    lines = ["trial,seed,stat_name,value,bound,pass"]
    for row in report.rows:
        lines.append(
            ",".join(
                _format_cell(row[key])
                for key in ("trial", "seed", "stat_name", "value", "bound", "pass")
            )
        )
    data = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(data)


_SVG_COLORS = {"value": "#4477aa", "gradient": "#ee6677"}


def emit_svg(report: SubdivisionReport, path, size: int = 640) -> None:
    """Draw a planar subdivision: one rectangle per final box, in box order.

    Boxes accepted by the value clause are blue, by the gradient clause
    orange.  Only n = 2 reports can be drawn.
    """
    if report.final_midpoints.shape[1] != 2:
        raise ValueError("svg rendering requires a planar (n = 2) subdivision")
    margin = 10.0
    span = size - 2.0 * margin

    def tx(u):
        return margin + (u + 1.0) / 2.0 * span

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect x="{margin:.2f}" y="{margin:.2f}" width="{span:.2f}" height="{span:.2f}" '
        'fill="white" stroke="black" stroke-width="1"/>',
    ]
    for box, clause in zip(report.final_boxes, report.final_clauses):
        half = box.width / 2.0
        x = tx(box.midpoint[0] - half)
        y = tx(-box.midpoint[1] - half)  # flip: svg y grows downward
        w = box.width / 2.0 * span
        parts.append(
            f'<rect x="{x:.4f}" y="{y:.4f}" width="{w:.4f}" height="{w:.4f}" '
            f'fill="{_SVG_COLORS[clause]}" fill-opacity="0.55" '
            'stroke="black" stroke-width="0.5"/>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# config files: the model description plus engine knobs
# ---------------------------------------------------------------------------

_CONFIG_FIELDS = {
    "experiment",
    "model",
    "trials",
    "seed",
    "t_grid",
    "k_list",
    "max_depth",
    "grid_eps",
    "eps",
    "x0",
    "workers",
}


def load_config(source, seed_override=None, workers_override=None) -> ExperimentConfig:
    """Read an ExperimentConfig from a JSON file path, file object or dict."""
    obj = _read_json_object(source, "experiment config")
    extras = set(obj) - _CONFIG_FIELDS
    if extras:
        raise ValueError(f"experiment config: unknown field '{sorted(extras)[0]}'")
    if "experiment" not in obj:
        raise ValueError("experiment config: missing field 'experiment'")
    if obj["experiment"] not in EXPERIMENT_KINDS:
        raise ValueError(
            f"experiment config: field 'experiment' must be one of {EXPERIMENT_KINDS}"
        )
    if "model" not in obj:
        raise ValueError("experiment config: missing field 'model'")
    model = models.load_model(obj["model"])
    kwargs = {}
    for key in ("trials", "max_depth", "seed", "workers"):
        if key in obj:
            if not _is_int(obj[key]):
                raise ValueError(f"experiment config: field '{key}' must be an integer")
            kwargs[key] = obj[key]
    for key in ("grid_eps", "eps"):
        if key in obj:
            if not _is_number(obj[key]):
                raise ValueError(f"experiment config: field '{key}' must be a number")
            kwargs[key] = float(obj[key])
    for key, is_entry, convert, entries in (
        ("t_grid", _is_number, float, "numbers"),
        ("k_list", _is_int, int, "integers"),
    ):
        if key in obj:
            if not isinstance(obj[key], list) or not obj[key] or not all(map(is_entry, obj[key])):
                raise ValueError(
                    f"experiment config: field '{key}' must be a nonempty list of {entries}"
                )
            kwargs[key] = tuple(convert(v) for v in obj[key])
    if "x0" in obj and obj["x0"] is not None:
        x0 = obj["x0"]
        if not isinstance(x0, list) or len(x0) != model.n or not all(map(_is_number, x0)):
            raise ValueError("experiment config: field 'x0' must be a list of n numbers")
        kwargs["x0"] = tuple(float(v) for v in x0)
    if seed_override is not None:
        kwargs["seed"] = seed_override
    if workers_override is not None:
        kwargs["workers"] = workers_override
    return ExperimentConfig(kind=obj["experiment"], model=model, **kwargs)
