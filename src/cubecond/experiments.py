"""Monte Carlo harness: empirical statistics of the engines vs. closed bounds.

Every experiment draws ``trials`` polynomials from a model using per-trial
substreams of a single base seed, computes a statistic per draw with one of
the deterministic engines, and pairs empirical aggregates with the matching
theoretical bound.  Pass criteria use one-sided 3-sigma Monte Carlo slack.
A worker call runs a chunk of consecutive trials, drawn as one coefficient
matrix; a tail chunk is then one kernel pass over the shared support, and a pv
chunk one subdivision walk over the boxes of all its trials.  Reports are
reproducible byte-for-byte from (config, seed), whatever the chunks and
workers: trials carry their own streams, the kernel pass and the walk give each
trial the bits of its own polynomial, and rows are emitted in trial order.
"""

from __future__ import annotations

import csv
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import random as models
from .condition import _kappa_rows, global_condition
from .poly import _build, _field, _is_int, _is_number, _list_of, _read_json_object, new_sparse
from .pv import SubdivisionReport, _subdivide_rows
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

DEFAULT_SEED = 20240817


@dataclass(frozen=True)
class ExperimentConfig:
    """An experiment; the rules of its fields and kind, not the engines', are checked here."""

    kind: str
    model: models.RandomModel
    trials: int = 1000
    seed: int = DEFAULT_SEED
    t_grid: tuple = (math.e, 10.0, 100.0)
    k_list: tuple = (1, 2)
    max_depth: int = 30
    grid_eps: float = 1e-4
    eps: float = 1e-3
    x0: tuple | None = None
    workers: int = 1

    def __post_init__(self):
        n, d, kind = self.model.n, self.model.degree, self.kind
        if kind not in _RUNNERS:
            raise ValueError(f"unknown experiment kind {kind!r}")
        for name in ("trials", "workers"):
            value = getattr(self, name)
            if not (_is_int(value) and value >= 1):
                raise ValueError(f"field {name!r} must be an integer >= 1, got {value!r}")
        models._check_seed(self.seed)  # the rule of every trial's stream (seed, i), before
        models._check_seed((self.seed, 0))  # the first; a tuple seed would nest in it
        # the tail bound is proved only on the cube and for t >= e; -1 <= nan is False
        if self.x0 is not None and (len(self.x0) != n or not all(-1 <= v <= 1 for v in self.x0)):
            raise ValueError(f"field 'x0' must be a point of [-1, 1]^{n}")
        # an empty t_grid or k_list would check nothing and pass
        if not self.t_grid or not all(t >= math.e for t in self.t_grid):
            raise ValueError(f"field 't_grid' must list some t >= e, got {self.t_grid}")
        if not self.k_list or not all(k in (1, 2, 3) for k in self.k_list):
            raise ValueError(f"field 'k_list' must list some of 1, 2, 3, got {self.k_list}")
        if kind in ("descartes", "separation") and n != 1:
            raise ValueError(f"field 'model' of kind {kind} must be univariate, got n = {n}")
        if kind == "separation" and d > 64:
            raise ValueError(f"field 'model' of kind separation needs degree <= 64, got {d}")


@dataclass
class ExperimentReport:
    """Per-trial rows plus aggregates, all in the CSV row schema.

    Rows are tuples in the column order of ``_COLUMNS``, (trial, seed,
    stat_name, value, bound, pass); aggregate rows use trial = -1 and raw
    per-trial statistic rows leave ``bound``/``pass`` empty.  ``flagged``
    marks an inconclusive run (too many excluded trials); ``passed`` is the
    conjunction of the aggregate pass flags and not being flagged.
    """

    kind: str
    rows: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    violations: int = 0
    excluded: int = 0
    flagged: bool = False
    passed: bool = True
    wallclock: float = 0.0


_COLUMNS = ("trial", "seed", "stat_name", "value", "bound", "pass")


def _stat_row(trial, seed, name, value, bound="", ok=""):
    return trial, seed, name, value, bound, ok


_CHUNK_TRIALS = 2 ** 12  # trials per worker call at most, which bounds the memory of a call


def _map_trials(worker, cfg: ExperimentConfig) -> list:
    """The outcomes of all trials in order; ``worker(cfg, C)`` returns those of a chunk
    of trials whose draws are the rows of C.  With several workers a chunk is 1/8 of a
    share, and the pool has no more processes than chunks or cores."""
    share = cfg.trials if cfg.workers == 1 else max(1, cfg.trials // (cfg.workers * 8))
    size = min(_CHUNK_TRIALS, share)
    tasks = [(cfg, range(lo, min(lo + size, cfg.trials))) for lo in range(0, cfg.trials, size)]
    run = partial(_draw_chunk, worker)
    if cfg.workers == 1:
        return [outcome for task in tasks for outcome in run(task)]
    with ProcessPoolExecutor(max_workers=min(cfg.workers, len(tasks), os.cpu_count() or 1)) as pool:
        return [outcome for chunk in pool.map(run, tasks) for outcome in chunk]


def _draw_chunk(worker, task) -> list:
    """``worker(cfg, C)`` on the draws of the trials in the chunk, each from its own stream."""
    cfg, chunk = task
    return worker(cfg, models.sample_batch(cfg.model, [(cfg.seed, i) for i in chunk]))


def _each_trial(trial, cfg, C) -> list:
    """A chunk worker for a kind whose ``trial(cfg, f)`` runs one trial on its draw f."""
    return [trial(cfg, new_sparse(cfg.model.n, zip(cfg.model.support, row))) for row in C]


# --- the harness every kind shares ------------------------------------------
# A worker returns the statistic of each trial of its chunk, or None for an excluded
# trial; a summarizer writes the rows and aggregates of the report from those outcomes.

def _run(kind, cfg: ExperimentConfig, worker, summarize) -> ExperimentReport:
    if cfg.kind != kind:
        raise ValueError(f"a {cfg.kind} config cannot run a {kind} experiment")
    start = time.perf_counter()
    report = ExperimentReport(kind=kind)
    summarize(report, cfg, _map_trials(worker, cfg))
    report.passed = report.violations == 0 and not report.flagged
    report.wallclock = time.perf_counter() - start
    return report


def _trial_rows(report, cfg, outcomes, rows_of, excluded_row, share) -> list:
    """Append each trial's rows and return the outcomes of the kept trials.

    An excluded trial gets the single row ``excluded_row``; more than
    ``share`` of the trials excluded flags the run as inconclusive.
    """
    kept = []
    for i, outcome in enumerate(outcomes):
        if outcome is None:
            report.excluded += 1
            rows = [excluded_row]
        else:
            kept.append(outcome)
            rows = rows_of(outcome)
        report.rows.extend(_stat_row(i, cfg.seed, *row) for row in rows)
    report.flagged = report.excluded > share * cfg.trials
    return kept


def _aggregate(report, cfg, name, value, bound, ok, **extra) -> None:
    """Append an aggregate row and its summary entry; a failed check is a violation."""
    report.rows.append(_stat_row(-1, cfg.seed, name, value, bound, int(ok)))
    report.summary[name] = {"value": value, **extra, "bound": bound, "pass": ok}
    report.violations += int(not ok)


def _mean_check(report, cfg, name, values, bound, **extra) -> None:
    """Aggregate the check mean + 3 stderr <= bound; no values read as an infinite mean."""
    count = len(values)
    mean = float(np.mean(values)) if count else math.inf
    stderr = float(np.std(values, ddof=1) / math.sqrt(count)) if count > 1 else 0.0
    _aggregate(report, cfg, name, mean, bound, mean + 3.0 * stderr <= bound, stderr=stderr, **extra)


# --- tail experiment -------------------------------------------------------

def _tail_trials(cfg, C):
    x0 = cfg.x0 if cfg.x0 is not None else (0.0,) * cfg.model.n
    return _kappa_rows(cfg.model.support, C, x0).tolist()


def _tail_summary(report, cfg, outcomes):
    # no tail trial is excluded: each one gives one kappa row
    report.rows.extend(_stat_row(i, cfg.seed, "kappa_at_x0", k) for i, k in enumerate(outcomes))
    kappas = np.asarray(outcomes)
    # a heavy-tailed law has no subgaussian K, and the K-bound is then 1 at every t
    heavy = math.isinf(models.model_constants(cfg.model).K)
    tail_bound = models.tail_bound_local_p if heavy else models.tail_bound_local
    for t in cfg.t_grid:
        survival = float(np.mean(kappas >= t))
        stderr = math.sqrt(max(survival * (1.0 - survival), 0.0) / cfg.trials)
        bound = tail_bound(cfg.model, t)
        ok = survival - 3.0 * stderr <= bound
        _aggregate(report, cfg, f"survival_t={t:.6g}", survival, bound, ok, stderr=stderr)


def run_tail_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Empirical survival of kappa(f, x0) against the local tail bound."""
    return _run("tail", cfg, _tail_trials, _tail_summary)


# --- subdivision box count experiment --------------------------------------

def _pv_trials(cfg, C):
    final_counts, terminated, _ = _subdivide_rows(cfg.model.support, C, cfg.max_depth)
    return [count if done else None for count, done in zip(final_counts.tolist(), terminated)]


def _pv_summary(report, cfg, outcomes):
    counts = _trial_rows(
        report, cfg, outcomes, lambda count: [("final_boxes", count)],
        ("final_boxes_nonterminated", 0), 0.10,
    )
    bound = models.expected_boxes_bound(cfg.model).value
    _mean_check(report, cfg, "mean_final_boxes", counts, bound, excluded=report.excluded)


def run_pv_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Mean terminated box count against the expected-box-count bound."""
    return _run("pv", cfg, _pv_trials, _pv_summary)


# --- isolation tree size experiment ----------------------------------------

def _descartes_trial(cfg, f):
    res = descartes_isolate(f, max_depth=cfg.max_depth)
    return res.tree.nodes if res.complete else None


def _descartes_summary(report, cfg, outcomes):
    sizes = _trial_rows(
        report, cfg, outcomes, lambda size: [("tree_size", size)], ("tree_size_incomplete", 0), 0.10
    )
    sizes = np.asarray(sizes, dtype=np.float64)
    for k in cfg.k_list:
        bound = models.descartes_moment_bound(cfg.model, k)
        _mean_check(report, cfg, f"tree_size_moment_k={k}", sizes ** k, bound)


def run_descartes_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Empirical tree-size moments against the moment bound, per k in k_list."""
    return _run("descartes", cfg, partial(_each_trial, _descartes_trial), _descartes_summary)


# --- separation experiment --------------------------------------------------

def _separation_trial(cfg, f):
    kappa_upper = global_condition(f, cfg.grid_eps).upper
    finite = math.isfinite(kappa_upper)
    eps = min(cfg.eps, 0.5 / (math.e * f.degree * kappa_upper)) if finite else cfg.eps
    try:
        oracle = separation_oracle(f, eps)
    except OracleFailedError:
        return None
    bound_real = separation_lower_bound(f, kappa_upper)
    bound_eps = eps_separation_lower_bound(f, kappa_upper, eps) if finite else 0.0
    return kappa_upper, oracle.delta, bound_real, oracle.delta_eps, bound_eps


def _separation_rows(outcome):
    kappa_upper, delta, bound_real, delta_eps, bound_eps = outcome
    return [
        ("kappa_upper", kappa_upper),
        ("delta", delta, bound_real, int(delta >= bound_real)),
        ("delta_eps", delta_eps, bound_eps, int(delta_eps >= bound_eps)),
    ]


def _separation_summary(report, cfg, outcomes):
    _trial_rows(report, cfg, outcomes, _separation_rows, ("oracle_failed", 1), 0.01)
    violations = sum(row[-1] == 0 for row in report.rows)  # the pass cells
    _aggregate(report, cfg, "violations", violations, 0, violations == 0,
               excluded=report.excluded)
    report.violations = violations  # the failed trial checks, not the aggregate


def run_separation_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Oracle-computed separations against their condition-based lower bounds."""
    return _run("separation", cfg, partial(_each_trial, _separation_trial), _separation_summary)


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

def emit_csv(report: ExperimentReport, path) -> None:
    """Write the report rows as CSV with columns trial,seed,stat_name,value,bound,pass.

    The bytes are a pure function of the report: the stdlib writer renders
    floats with repr (shortest round-trip form) and rows keep trial order.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_COLUMNS)
        writer.writerows(report.rows)


_SVG_COLORS = (None, "#4477aa", "#ee6677")  # indexed by clause code: value, gradient
_SVG_SIZE = 640  # pixels per side


def emit_svg(report: SubdivisionReport, path) -> None:
    """Draw a planar subdivision: one rectangle per final box, in box order.

    Boxes accepted by the value clause are blue, by the gradient clause
    orange.  Only n = 2 reports can be drawn.
    """
    if report.final_midpoints.shape[1] != 2:
        raise ValueError("svg rendering requires a planar (n = 2) subdivision")
    size, margin = _SVG_SIZE, 10.0
    span = size - 2.0 * margin

    def tx(u):
        return margin + (u + 1.0) / 2.0 * span

    mids, widths = report.final_midpoints.tolist(), report.final_widths.tolist()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
            f'viewBox="0 0 {size} {size}">\n'
            f'<rect x="{margin:.2f}" y="{margin:.2f}" width="{span:.2f}" height="{span:.2f}" '
            'fill="white" stroke="black" stroke-width="1"/>\n'
        )
        for (mx, my), width, code in zip(mids, widths, report.final_codes.tolist()):
            half = width / 2.0
            x = tx(mx - half)
            y = tx(-my - half)  # flip: svg y grows downward
            w = width / 2.0 * span
            fh.write(
                f'<rect x="{x:.4f}" y="{y:.4f}" width="{w:.4f}" height="{w:.4f}" '
                f'fill="{_SVG_COLORS[code]}" fill-opacity="0.55" '
                'stroke="black" stroke-width="0.5"/>\n'
            )
        fh.write("</svg>\n")


# ---------------------------------------------------------------------------
# config files: the model description plus engine knobs
# ---------------------------------------------------------------------------

def _floats(values):
    return None if values is None else tuple(map(float, values))


_INTEGER = (_is_int, "an integer", int)
_NUMBER = (_is_number, "a finite number", float)
# (check, expected, convert) for each optional field of a config file
_CONFIG_TABLE = {
    "trials": _INTEGER, "seed": _INTEGER, "max_depth": _INTEGER, "workers": _INTEGER,
    "grid_eps": _NUMBER, "eps": _NUMBER,
    "t_grid": (_list_of(_is_number), "a list of finite numbers", _floats),
    "k_list": (_list_of(_is_int), "a list of integers", tuple),
    "x0": (lambda v: v is None or _list_of(_is_number)(v), "a list of finite numbers", _floats),
}
_CONFIG_FIELDS = {"experiment", "model", *_CONFIG_TABLE}


def load_config(source) -> ExperimentConfig:
    """Read an ExperimentConfig from a JSON file path, file object or dict.

    The fields are those of ExperimentConfig, with ``experiment`` for ``kind``.
    """
    what = "experiment config"
    obj = _read_json_object(source, what, _CONFIG_FIELDS)
    kind = _field(obj, "experiment", what, lambda v: isinstance(v, str), "a string")
    model = models.load_model(_field(obj, "model", what, lambda v: True, "a model"))
    kwargs = {
        name: convert(_field(obj, name, what, check, expected))
        for name, (check, expected, convert) in _CONFIG_TABLE.items()
        if name in obj
    }
    return _build(what, ExperimentConfig, kind=kind, model=model, **kwargs)
