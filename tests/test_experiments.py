import dataclasses
import io
import json
import math
import os
import re
import tracemalloc

import numpy as np
import pytest

from cubecond import experiments as exps
from cubecond import pv
from cubecond import random as models
from cubecond.condition import local_condition
from cubecond.poly import new_sparse
from cubecond.pv import pv_subdivide

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
SUP_D5 = ((0,), (1,), (5,))
GAUSS = models.Gaussian()
UNIF = models.Uniform()


def gaussian_model(support=SUP_D5):
    return models.RandomModel(n=1, support=support, dist=GAUSS)


def test_config_loader_roundtrip_and_validation():
    cfg = exps.load_config(
        {
            "experiment": "tail",
            "model": {"n": 1, "support": [[0], [1], [5]], "dist": {"kind": "gaussian"}},
            "trials": 50,
            "seed": 3,
            "t_grid": [3.0, 10.0],
        }
    )
    assert cfg.kind == "tail" and cfg.trials == 50 and cfg.t_grid == (3.0, 10.0)
    with pytest.raises(ValueError, match="experiment"):
        exps.load_config({"model": {"n": 1, "support": [[0], [1]], "dist": {"kind": "gaussian"}}})
    with pytest.raises(ValueError, match="unknown field"):
        exps.load_config(
            {
                "experiment": "tail",
                "model": {"n": 1, "support": [[0], [1]], "dist": {"kind": "gaussian"}},
                "bogus": 1,
            }
        )


TAIL_CONFIG = {
    "experiment": "tail",
    "model": {"n": 1, "support": [[0], [1], [5]], "dist": {"kind": "gaussian"}},
}
N2_MODEL = {"n": 2, "support": [[0, 0], [1, 0], [0, 1]], "dist": {"kind": "gaussian"}}
N3_MODEL = {"n": 3, "support": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
            "dist": {"kind": "gaussian"}}
D65_MODEL = {"n": 1, "support": [[0], [1], [65]], "dist": {"kind": "gaussian"}}


@pytest.mark.parametrize(
    "fields, needle",
    [
        ({"t_grid": [None]}, "'t_grid'"),
        ({"t_grid": [True]}, "'t_grid'"),
        ({"k_list": [None]}, "'k_list'"),
        ({"k_list": [1.5]}, "'k_list'"),
        ({"x0": [[1]]}, "'x0'"),
        ({"x0": [1, 2]}, "'x0'"),
        ({"trials": True}, "'trials'"),
        ({"eps": False}, "'eps'"),
        ({"model": 0}, "model file"),
        ({"x0": [3.0]}, "'x0'"),  # outside the cube, where the tail bound is not proved
        ({"x0": [float("nan")]}, "'x0'"),  # json reads a NaN literal
        # the kind rules, checked when the config is built
        ({"t_grid": [2.0]}, "experiment config: field 't_grid'"),
        ({"k_list": [4]}, "experiment config: field 'k_list'"),
        ({"t_grid": []}, "experiment config: field 't_grid'"),
        ({"k_list": []}, "experiment config: field 'k_list'"),
        ({"experiment": "descartes", "k_list": []}, "experiment config: field 'k_list'"),
        ({"experiment": "descartes", "model": N2_MODEL}, "experiment config: field 'model'"),
        ({"experiment": "separation", "model": N2_MODEL}, "experiment config: field 'model'"),
        ({"experiment": "separation", "model": D65_MODEL}, "experiment config: field 'model'"),
        # trials and workers: a float fails the type check, 0 the rule of the built config
        ({"trials": 2.5}, "'trials'"),
        ({"trials": 0}, "experiment config: field 'trials' must be an integer >= 1, got 0"),
        ({"workers": 1.5}, "'workers'"),
        ({"workers": 0}, "experiment config: field 'workers' must be an integer >= 1, got 0"),
    ],
)
def test_config_loader_names_offending_field(fields, needle):
    with pytest.raises(ValueError, match=needle):
        exps.load_config({**TAIL_CONFIG, **fields})


@pytest.mark.parametrize("kind, field", [("tail", "t_grid"), ("descartes", "k_list")])
def test_config_refuses_an_empty_list_however_built(kind, field):
    # an empty t_grid or k_list would check nothing, and the run would report a pass
    with pytest.raises(ValueError, match=f"field '{field}' must list some"):
        exps.ExperimentConfig(kind=kind, model=gaussian_model(), trials=5, seed=1, **{field: ()})


@pytest.mark.parametrize("field", ["trials", "workers"])
@pytest.mark.parametrize("value", [2.5, True, 0], ids=repr)
def test_config_refuses_trials_or_workers_that_are_not_integers_ge_1(field, value):
    # refused when built, not inside the trial map of the run (a bool is not an integer here)
    message = f"field '{field}' must be an integer >= 1, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        exps.ExperimentConfig(kind="tail", model=gaussian_model(), **{field: value})


def test_config_rejects_a_negative_seed():
    # the rule of trial_rng, checked when the config is built and so before any trial
    message = "seed must be a non-negative integer, got -1$"
    with pytest.raises(ValueError, match=message):
        exps.ExperimentConfig(kind="tail", model=gaussian_model(), seed=-1)
    with pytest.raises(ValueError, match="experiment config: " + message):
        exps.load_config({**TAIL_CONFIG, "seed": -1})
    cfg = exps.ExperimentConfig(kind="tail", model=gaussian_model(), seed=0)
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(cfg, seed=-1)


@pytest.mark.parametrize("seed", [1.5, True, np.int64(-3), (1, 2)], ids=repr)
def test_config_refuses_a_seed_that_is_not_a_non_negative_integer(seed):
    # refused when built, not at the first draw of the run (a bool is not an integer here)
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got"):
        exps.ExperimentConfig(kind="tail", model=gaussian_model(), seed=seed)


@pytest.mark.parametrize("x0", [(3.0,), (float("nan"),), (0.1, 0.2)])
def test_config_rejects_x0_off_the_cube(x0):
    # the tail bound is proved only on the cube, however the config is built
    with pytest.raises(ValueError, match="'x0'"):
        exps.ExperimentConfig(kind="tail", model=gaussian_model(), trials=50, seed=1, x0=x0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["grid_eps", "eps", "t_grid"])
def test_config_loader_rejects_non_finite_numbers(field, value):
    payload = {**TAIL_CONFIG, field: [3.0, value] if field == "t_grid" else value}
    # json writes and reads NaN, Infinity and -Infinity literals
    with pytest.raises(ValueError, match=f"'{field}'"):
        exps.load_config(io.StringIO(json.dumps(payload)))


def test_config_loader_accepts_exactly_the_config_fields():
    cfg = exps.load_config(
        {
            **TAIL_CONFIG,
            "trials": 7,
            "seed": 2,
            "t_grid": [3.0],
            "k_list": [3],
            "max_depth": 5,
            "grid_eps": 1e-3,
            "eps": 1e-2,
            "x0": [-1.0],
            "workers": 2,
        }
    )
    assert (cfg.trials, cfg.seed, cfg.t_grid, cfg.k_list, cfg.max_depth) == (7, 2, (3.0,), (3,), 5)
    assert (cfg.grid_eps, cfg.eps, cfg.x0, cfg.workers) == (1e-3, 1e-2, (-1.0,), 2)
    # the kind is read from "experiment" only
    with pytest.raises(ValueError, match="unknown field 'kind'"):
        exps.load_config({**TAIL_CONFIG, "kind": "pv"})


def test_tail_experiment_passes_and_rejects_small_t():
    cfg = exps.ExperimentConfig(kind="tail", model=gaussian_model(), trials=400, seed=5)
    rep = exps.run_tail_experiment(cfg)
    assert rep.passed and rep.violations == 0
    with pytest.raises(ValueError):
        bad = exps.ExperimentConfig(
            kind="tail", model=gaussian_model(), trials=10, seed=5, t_grid=(2.0, 10.0)
        )
        exps.run_tail_experiment(bad)


def test_tail_experiment_checks_heavy_tails_against_the_p_bound():
    # Weibull shape 1 has no subgaussian K, so the K-bound reads 1 at every t
    m = models.RandomModel(n=1, support=SUP_D5, dist=models.WeibullSymmetric(1.0), p=1.0)
    assert math.isinf(models.model_constants(m).K)
    assert models.tail_bound_local(m, 1000.0) == 1.0
    cfg = exps.ExperimentConfig(kind="tail", model=m, trials=200, seed=1, t_grid=(100.0, 1000.0))
    rep = exps.run_tail_experiment(cfg)
    bound = rep.summary["survival_t=1000"]["bound"]
    assert bound == models.tail_bound_local_p(m, 1000.0) < 1.0
    assert rep.passed


def test_tail_experiment_refuses_overflowing_constants_before_the_first_draw(monkeypatch):
    # with sd 1e10 at scale 1e300 every draw overflows norm1; the model constant is named first
    m = models.RandomModel(n=1, support=SUP_D5, dist=models.Gaussian(0.0, 1e10), scale=1e300)
    monkeypatch.setattr(models, "sample_batch", lambda *args: pytest.fail("drew a trial"))
    cfg = exps.ExperimentConfig(kind="tail", model=m, trials=50, seed=1)
    with pytest.raises(ValueError, match="^model constant K = inf overflows$"):
        exps.run_experiment(cfg)


def test_tail_experiment_bounds_do_not_depend_on_draws():
    m = gaussian_model()
    a = exps.run_tail_experiment(
        exps.ExperimentConfig(kind="tail", model=m, trials=50, seed=1)
    )
    b = exps.run_tail_experiment(
        exps.ExperimentConfig(kind="tail", model=m, trials=50, seed=999)
    )
    for name in a.summary:
        assert a.summary[name]["bound"] == b.summary[name]["bound"]


def test_report_rows_are_tuples_in_column_order():
    cfg = exps.ExperimentConfig(kind="tail", model=gaussian_model(), trials=3, seed=5,
                                t_grid=(10.0,))
    rep = exps.run_tail_experiment(cfg)
    assert exps._COLUMNS == ("trial", "seed", "stat_name", "value", "bound", "pass")
    assert all(type(row) is tuple for row in rep.rows)
    kappa = local_condition(models.sample(cfg.model, (5, 1)), (0.0,))
    assert rep.rows[1] == (1, 5, "kappa_at_x0", kappa, "", "")
    survival = rep.summary["survival_t=10"]
    assert rep.rows[-1] == (-1, 5, "survival_t=10", survival["value"], survival["bound"], 1)


def test_a_long_tail_run_keeps_at_most_200_bytes_per_trial():
    cfg = exps.ExperimentConfig(kind="tail", model=gaussian_model(), trials=20_000, seed=5)
    exps.run_experiment(dataclasses.replace(cfg, trials=10))  # first-call caches
    tracemalloc.start()
    try:
        report = exps.run_experiment(cfg)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(report.rows) == cfg.trials + len(cfg.t_grid)
    assert retained <= 200 * cfg.trials


def test_pv_experiment_passes():
    m = models.RandomModel(n=1, support=((0,), (1,), (2,)), dist=GAUSS)
    cfg = exps.ExperimentConfig(kind="pv", model=m, trials=100, seed=5, max_depth=20)
    rep = exps.run_pv_experiment(cfg)
    assert rep.passed and not rep.flagged
    assert rep.summary["mean_final_boxes"]["bound"] == 86400.0


def test_pv_experiment_uniform_bivariate():
    m = models.RandomModel(
        n=2, support=((0, 0), (1, 0), (0, 1), (1, 1), (0, 3)), dist=UNIF
    )
    cfg = exps.ExperimentConfig(kind="pv", model=m, trials=60, seed=8, max_depth=16)
    rep = exps.run_pv_experiment(cfg)
    assert rep.passed and not rep.flagged


def test_pv_experiment_flags_truncated_runs():
    m = models.RandomModel(n=1, support=((0,), (1,), (2,)), dist=GAUSS)
    cfg = exps.ExperimentConfig(kind="pv", model=m, trials=40, seed=5, max_depth=1)
    rep = exps.run_pv_experiment(cfg)
    assert rep.flagged and not rep.passed
    assert rep.excluded > 4


def test_pv_experiment_takes_an_n3_model():
    # pv_subdivide's box budget bounds every draw, so the pv kind has no n or degree rule
    cfg = exps.load_config({"experiment": "pv", "model": N3_MODEL, "trials": 2, "max_depth": 2})
    draws = [models.sample(cfg.model, (cfg.seed, i)) for i in range(cfg.trials)]
    terminated = [pv_subdivide(f, cfg.max_depth).terminated for f in draws]
    rep = exps.run_pv_experiment(cfg)
    assert rep.excluded == terminated.count(False) == 1


def test_descartes_experiment_passes():
    m = gaussian_model(support=((0,), (1,), (13,), (64,)))
    cfg = exps.ExperimentConfig(
        kind="descartes", model=m, trials=60, seed=6, k_list=(1, 2), max_depth=60
    )
    rep = exps.run_descartes_experiment(cfg)
    assert rep.passed and rep.violations == 0
    with pytest.raises(ValueError):
        exps.run_descartes_experiment(
            exps.ExperimentConfig(kind="descartes", model=m, trials=5, seed=6, k_list=(4,))
        )


def test_descartes_experiment_leaves_max_depth_to_the_engine():
    # a depth past the engine's guard fails with its message instead of running at 100
    m = gaussian_model(support=((0,), (1,), (13,), (64,)))
    cfg = exps.ExperimentConfig(kind="descartes", model=m, trials=2, seed=6, max_depth=101)
    with pytest.raises(ValueError, match=r"max_depth must be an integer in \[1, 100\], got 101"):
        exps.run_experiment(cfg)


def test_separation_experiment_no_violations():
    m = gaussian_model(support=((0,), (1,), (5,), (17,), (33,)))
    cfg = exps.ExperimentConfig(
        kind="separation", model=m, trials=40, seed=7, grid_eps=1e-4
    )
    rep = exps.run_separation_experiment(cfg)
    assert rep.passed and rep.violations == 0


@pytest.mark.parametrize(
    "runner, cfg",
    [
        # a degree-100 model, which a separation config refuses
        (exps.run_separation_experiment,
         exps.ExperimentConfig(kind="tail", model=gaussian_model(((0,), (1,), (100,))), trials=2)),
        # n = 2, which a descartes config refuses
        (exps.run_descartes_experiment,
         exps.ExperimentConfig(kind="tail", model=models.RandomModel(
             n=2, support=((0, 0), (1, 0), (0, 1)), dist=GAUSS), trials=2)),
    ],
    ids=["separation-on-tail", "descartes-on-tail"],
)
def test_runner_refuses_a_config_of_another_kind(runner, cfg, monkeypatch):
    def no_trials(worker, cfg):
        raise AssertionError("a trial started")

    monkeypatch.setattr(exps, "_map_trials", no_trials)
    with pytest.raises(ValueError, match="tail config cannot run a (separation|descartes)"):
        runner(cfg)


SUP_D2 = ((0,), (1,), (2,))
SUP_D64 = ((0,), (1,), (13,), (64,))
SUP_D33 = ((0,), (1,), (5,), (17,), (33,))
TAIL_GOLDEN = {"kind": "tail", "trials": 20, "t_grid": (math.e, 10.0)}
# golden file stem -> ExperimentConfig fields; the files hold the CSV bytes
GOLDEN_CONFIGS = {
    "tail_seed11": {**TAIL_GOLDEN, "model": gaussian_model(), "seed": 11},
    "tail_seed22": {
        **TAIL_GOLDEN,
        "model": models.RandomModel(n=1, support=SUP_D5, dist=UNIF),
        "seed": 22,
    },
    "tail_seed33": {**TAIL_GOLDEN, "model": gaussian_model(), "seed": 33},
    "pv_seed5": {
        "kind": "pv", "model": gaussian_model(SUP_D2), "trials": 20, "seed": 5, "max_depth": 20,
    },
    # every trial stops at the depth guard: excluded rows, an infinite mean, flagged
    "pv_flagged_seed5": {
        "kind": "pv", "model": gaussian_model(SUP_D2), "trials": 20, "seed": 5, "max_depth": 1,
    },
    "pv_n2_seed8": {
        "kind": "pv",
        "model": models.RandomModel(
            n=2, support=((0, 0), (1, 0), (0, 1), (1, 1), (0, 3)), dist=UNIF
        ),
        "trials": 12,
        "seed": 8,
        "max_depth": 16,
    },
    "descartes_seed6": {
        "kind": "descartes", "model": gaussian_model(SUP_D64), "trials": 20, "seed": 6,
        "k_list": (1, 2), "max_depth": 60,
    },
    # 3 of 20 trees hit the depth guard: incomplete rows, flagged
    "descartes_incomplete_seed6": {
        "kind": "descartes", "model": gaussian_model(SUP_D64), "trials": 20, "seed": 6,
        "k_list": (1, 2, 3), "max_depth": 2,
    },
    "separation_seed7": {
        "kind": "separation", "model": gaussian_model(SUP_D33), "trials": 10, "seed": 7,
        "grid_eps": 1e-4,
    },
    "separation_uniform_seed3": {
        "kind": "separation",
        "model": models.RandomModel(n=1, support=((0,), (1,), (7,), (9,)), dist=UNIF),
        "trials": 10,
        "seed": 3,
        "grid_eps": 1e-4,
        "eps": 1e-2,
    },
}


@pytest.mark.parametrize(
    "golden", list(GOLDEN_CONFIGS), ids=lambda name: name.removeprefix("tail_seed")
)
def test_csv_bytes_match_golden(tmp_path, golden):
    rep = exps.run_experiment(exps.ExperimentConfig(**GOLDEN_CONFIGS[golden]))
    out = tmp_path / "report.csv"
    exps.emit_csv(rep, out)
    assert out.read_bytes() == open(os.path.join(GOLDEN, f"{golden}.csv"), "rb").read()
    # the flag is not in the CSV: only the two runs with too many excluded trials carry
    # it, and a flagged run does not pass even when its checks hold
    flagged = golden in ("pv_flagged_seed5", "descartes_incomplete_seed6")
    assert (rep.flagged, rep.passed) == (flagged, not flagged)


def test_csv_cells_keep_their_text(tmp_path):
    # floats, numpy's included, in shortest repr; integers, numpy's included, as digits
    rows = [
        (math.inf, -math.inf, math.nan, -0.0, 1e-05, 1e16),
        (-1, np.int64(3), "survival_t=10", np.float64(0.1), "", 1),
    ]
    out = tmp_path / "report.csv"
    exps.emit_csv(exps.ExperimentReport(kind="tail", rows=rows), out)
    assert out.read_bytes() == (
        b"trial,seed,stat_name,value,bound,pass\n"
        b"inf,-inf,nan,-0.0,1e-05,1e+16\n"
        b"-1,3,survival_t=10,0.1,,1\n"
    )


@pytest.mark.parametrize("golden", [name for name in GOLDEN_CONFIGS if name.startswith("tail")])
def test_tail_csv_bytes_match_golden_at_two_workers(tmp_path, golden):
    rep = exps.run_experiment(exps.ExperimentConfig(**GOLDEN_CONFIGS[golden], workers=2))
    out = tmp_path / "report.csv"
    exps.emit_csv(rep, out)
    assert out.read_bytes() == open(os.path.join(GOLDEN, f"{golden}.csv"), "rb").read()


MULTI_WORKER_CONFIGS = {
    "tail": {"kind": "tail", "model": gaussian_model(), "trials": 60, "seed": 9},
    # 61 trials split into chunks of 3 at two workers and of 2 at three, the last one short
    "tail_61": {
        "kind": "tail", "model": models.RandomModel(n=1, support=SUP_D5, dist=UNIF),
        "trials": 61, "seed": 4, "x0": (-0.7,),
    },
    "pv": GOLDEN_CONFIGS["pv_seed5"],
    "descartes": GOLDEN_CONFIGS["descartes_incomplete_seed6"],
    "separation": GOLDEN_CONFIGS["separation_seed7"],
}


def _same_reports(one, two):
    assert one.rows == two.rows
    assert one.summary == two.summary
    assert (one.violations, one.excluded, one.flagged, one.passed) == (
        two.violations, two.excluded, two.flagged, two.passed
    )


@pytest.mark.parametrize("kind", list(MULTI_WORKER_CONFIGS))
def test_multi_worker_runs_match_single_worker(kind):
    one, *more = (
        exps.run_experiment(exps.ExperimentConfig(**MULTI_WORKER_CONFIGS[kind], workers=workers))
        for workers in ((1, 2, 3) if kind == "tail_61" else (1, 2))
    )
    for other in more:
        _same_reports(one, other)


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records its process count and maps in this process."""

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize(
    "trials, workers, cpus, processes",
    [
        (3, 50, 64, 3),  # 3 chunks of one trial
        (61, 3, 64, 3),  # chunks of 2 trials
        (1000, 50, 4, 4),  # 500 chunks of 2 trials
        (61, 3, None, 1),  # an unknown core count counts as one
    ],
    ids=["chunks", "workers", "cores", "unknown-cores"],
)
def test_pool_has_no_more_processes_than_chunks_or_cores(monkeypatch, trials, workers, cpus,
                                                          processes):
    model = models.RandomModel(n=1, support=SUP_D5, dist=UNIF)
    cfg = exps.ExperimentConfig(kind="tail", model=model, trials=trials, seed=4, workers=workers)
    monkeypatch.setattr(exps, "ProcessPoolExecutor", type("Pool", (_SerialPool,), {"sizes": []}))
    monkeypatch.setattr(exps.os, "cpu_count", lambda: cpus)
    report = exps.run_experiment(cfg)
    assert exps.ProcessPoolExecutor.sizes == [processes]
    _same_reports(report, exps.run_experiment(dataclasses.replace(cfg, workers=1)))


@pytest.mark.parametrize("size", [1, 8, 60, 61, 62])
def test_tail_rows_do_not_depend_on_the_chunk_size(monkeypatch, size):
    cfg = exps.ExperimentConfig(**MULTI_WORKER_CONFIGS["tail_61"])
    whole = exps.run_experiment(cfg)
    monkeypatch.setattr(exps, "_CHUNK_TRIALS", size)
    _same_reports(whole, exps.run_experiment(cfg))


@pytest.mark.parametrize("golden", [name for name in GOLDEN_CONFIGS if name.startswith("pv")])
def test_pv_csv_bytes_match_golden_at_two_workers(tmp_path, golden):
    rep = exps.run_experiment(exps.ExperimentConfig(**GOLDEN_CONFIGS[golden], workers=2))
    out = tmp_path / "report.csv"
    exps.emit_csv(rep, out)
    assert out.read_bytes() == open(os.path.join(GOLDEN, f"{golden}.csv"), "rb").read()


@pytest.mark.parametrize("size", [3, 7, 11])
def test_pv_csv_bytes_do_not_depend_on_the_chunk_size(monkeypatch, tmp_path, size):
    # a chunk of several trials is one walk over the boxes of all of them
    monkeypatch.setattr(exps, "_CHUNK_TRIALS", size)
    for golden in (name for name in GOLDEN_CONFIGS if name.startswith("pv")):
        out = tmp_path / f"{golden}.csv"
        exps.emit_csv(exps.run_experiment(exps.ExperimentConfig(**GOLDEN_CONFIGS[golden])), out)
        assert out.read_bytes() == open(os.path.join(GOLDEN, f"{golden}.csv"), "rb").read()


WALK_MODELS = {
    "gauss_n1": models.RandomModel(n=1, support=((0,), (1,), (2,), (3,)), dist=GAUSS),
    "unif_n1": models.RandomModel(n=1, support=((0,), (1,), (4,)), dist=UNIF),
    "gauss_n2": models.RandomModel(
        n=2, support=((0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 3)), dist=GAUSS
    ),
    "unif_n2": models.RandomModel(n=2, support=((0, 0), (1, 0), (0, 1), (2, 1)), dist=UNIF),
    "gauss_n3": models.RandomModel(
        n=3, support=((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)), dist=GAUSS
    ),
    "unif_n3": models.RandomModel(
        n=3, support=((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)), dist=UNIF
    ),
}


def _walk_matches_row_by_row(model, seed, trials, max_depth):
    """Check the outcomes of one walk over a chunk against pv_subdivide on each row,
    and return the reports of pv_subdivide."""
    C = models.sample_batch(model, [(seed, i) for i in range(trials)])
    final_counts, terminated, processed = pv._subdivide_rows(model.support, C, max_depth)
    assert final_counts.shape == terminated.shape == (trials,)
    reports = []
    for t, row in enumerate(C):
        counts = [count for count in processed[:, t].tolist() if count]
        alone = pv_subdivide(new_sparse(model.n, zip(model.support, row)), max_depth)
        assert (final_counts[t], terminated[t], sum(counts), counts, len(counts) - 1) == (
            alone.final_count, alone.terminated, alone.processed_count, alone.per_depth_counts,
            alone.max_depth_reached,
        )
        reports.append(alone)
    return reports


@pytest.mark.parametrize("max_depth", [1, 2, 3, None], ids=["d1", "d2", "d3", "deep"])
@pytest.mark.parametrize("model", list(WALK_MODELS))
def test_pv_walk_matches_pv_subdivide_row_by_row(model, max_depth):
    model = WALK_MODELS[model]
    deep = max_depth is None
    max_depth = (12, 8, 5)[model.n - 1] if deep else max_depth
    reports = _walk_matches_row_by_row(model, 31 + model.n, 30, max_depth)
    stopped = [r for r in reports if not r.terminated]
    if deep:
        assert len(stopped) < len(reports)
    else:  # the shallow guard stops some trials
        assert stopped and all(r.max_depth_reached == max_depth for r in stopped)


@pytest.mark.parametrize("cap", [5, 40, 300, 1000, 4000])
def test_pv_walk_keeps_each_budget_and_splits_levels_under_the_cap(monkeypatch, cap):
    levels, shared = [], []  # the boxes of each kernel pass, and of each with several owners
    kernel = pv._kernel_sums

    def kernel_spy(terms, coefficients, ends, X, owner):
        levels.append(len(X))
        if isinstance(owner, np.ndarray):  # a lone owner's pass gets one owner number
            shared.append(len(X))
        return kernel(terms, coefficients, ends, X, owner)

    monkeypatch.setattr(pv, "MAX_BOXES", cap)
    monkeypatch.setattr(pv, "_kernel_sums", kernel_spy)
    model = WALK_MODELS["gauss_n2"]
    C = models.sample_batch(model, [(7, i) for i in range(40)])
    processed = pv._subdivide_rows(model.support, C, 10)[2]
    assert max(levels) <= cap
    # a level of several owners holds at most an eighth of one budget
    assert all(size <= cap >> 3 for size in shared) and bool(shared) == (cap >= 8)
    # more kernel passes than depths: some level was cut into batches
    assert len(levels) > np.count_nonzero(processed.any(axis=1))
    reports = _walk_matches_row_by_row(model, 7, 40, 10)
    budget_stops = [r for r in reports if not r.terminated and r.max_depth_reached < 10]
    assert budget_stops and all(r.processed_count <= cap for r in reports)


def test_pv_chunk_with_a_zero_row_raises_before_any_outcome(monkeypatch):
    C = np.array([[0.5, -1.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.25, -2.0]])
    with pytest.raises(ValueError, match="^cannot subdivide for the zero polynomial$"):
        pv_subdivide(new_sparse(1, zip(SUP_D2, C[1])), 10)
    with pytest.raises(ValueError, match="^cannot subdivide for the zero polynomial$"):
        pv._subdivide_rows(SUP_D2, C, 10)

    def no_summary(report, cfg, outcomes):
        raise AssertionError("outcomes were returned")

    monkeypatch.setattr(exps.models, "sample_batch", lambda model, seeds: C)
    monkeypatch.setattr(exps, "_pv_summary", no_summary)
    cfg = exps.ExperimentConfig(kind="pv", model=gaussian_model(SUP_D2), trials=3, seed=1)
    with pytest.raises(ValueError, match="^cannot subdivide for the zero polynomial$"):
        exps.run_experiment(cfg)


def test_separation_counts_failed_trial_checks(monkeypatch):
    # trial 0 fails its real-root check, trial 1 loses its oracle, trial 2 fails its eps check
    outcomes = [(5.0, 0.1, 0.5, 0.2, 0.1), None, (5.0, 0.6, 0.5, 0.05, 0.1)]
    stubbed = iter(outcomes)  # trials run in order, one outcome each
    monkeypatch.setattr(exps, "_separation_trial", lambda cfg, f: next(stubbed))
    cfg = exps.ExperimentConfig(kind="separation", model=gaussian_model(), trials=3, seed=1)
    rep = exps.run_separation_experiment(cfg)
    assert (rep.violations, rep.excluded, rep.flagged, rep.passed) == (2, 1, True, False)
    assert [(trial, name, ok) for trial, _, name, _, _, ok in rep.rows] == [
        (0, "kappa_upper", ""), (0, "delta", 0), (0, "delta_eps", 1),
        (1, "oracle_failed", ""),
        (2, "kappa_upper", ""), (2, "delta", 1), (2, "delta_eps", 0),
        (-1, "violations", 0),
    ]
    assert rep.summary["violations"] == {"value": 2, "excluded": 1, "bound": 0, "pass": False}


def test_mean_check_reads_no_values_as_inf_and_one_value_with_zero_stderr():
    cfg = exps.ExperimentConfig(kind="pv", model=gaussian_model(SUP_D2), trials=2, seed=4)
    report = exps.ExperimentReport(kind="pv")
    exps._mean_check(report, cfg, "none", [], 1e9)
    exps._mean_check(report, cfg, "one", [5], 5.0)
    exps._mean_check(report, cfg, "two", [1, 3], 4.0)  # 2 + 3 * 1 > 4
    assert report.summary["none"] == {"value": math.inf, "stderr": 0.0, "bound": 1e9, "pass": False}
    assert report.summary["one"] == {"value": 5.0, "stderr": 0.0, "bound": 5.0, "pass": True}
    assert report.summary["two"]["stderr"] == 1.0 and not report.summary["two"]["pass"]
    assert report.violations == 2
    assert [ok for *_, ok in report.rows] == [0, 1, 0]


def test_svg_bytes_match_golden(tmp_path):
    circle = new_sparse(2, [((2, 0), 1.0), ((0, 2), 1.0), ((0, 0), -0.25)])
    report = pv_subdivide(circle, 8)
    out = tmp_path / "boxes.svg"
    exps.emit_svg(report, out)
    golden = open(os.path.join(GOLDEN, "circle_pv.svg"), "rb").read()
    assert out.read_bytes() == golden
    with pytest.raises(ValueError):
        exps.emit_svg(pv_subdivide(new_sparse(1, [((1,), 1.0)]), 5), tmp_path / "bad.svg")
