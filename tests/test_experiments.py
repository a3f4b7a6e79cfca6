import math
import os

import pytest

from cubecond import experiments as exps
from cubecond import random as models
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
    ],
)
def test_config_loader_names_offending_field(fields, needle):
    with pytest.raises(ValueError, match=needle):
        exps.load_config({**TAIL_CONFIG, **fields})


def test_tail_experiment_passes_and_rejects_small_t():
    cfg = exps.ExperimentConfig(kind="tail", model=gaussian_model(), trials=400, seed=5)
    rep = exps.run_tail_experiment(cfg)
    assert rep.passed and rep.violations == 0
    bad = exps.ExperimentConfig(
        kind="tail", model=gaussian_model(), trials=10, seed=5, t_grid=(2.0, 10.0)
    )
    with pytest.raises(ValueError):
        exps.run_tail_experiment(bad)


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


def test_separation_experiment_no_violations():
    m = gaussian_model(support=((0,), (1,), (5,), (17,), (33,)))
    cfg = exps.ExperimentConfig(
        kind="separation", model=m, trials=40, seed=7, grid_eps=1e-4
    )
    rep = exps.run_separation_experiment(cfg)
    assert rep.passed and rep.violations == 0


def test_multi_worker_runs_match_single_worker():
    m = gaussian_model()
    rows1 = exps.run_tail_experiment(
        exps.ExperimentConfig(kind="tail", model=m, trials=60, seed=9, workers=1)
    ).rows
    rows2 = exps.run_tail_experiment(
        exps.ExperimentConfig(kind="tail", model=m, trials=60, seed=9, workers=2)
    ).rows
    assert rows1 == rows2


@pytest.mark.parametrize("seed", [11, 22, 33])
def test_csv_bytes_match_golden(tmp_path, seed):
    dist = UNIF if seed == 22 else GAUSS
    cfg = exps.ExperimentConfig(
        kind="tail",
        model=models.RandomModel(n=1, support=SUP_D5, dist=dist),
        trials=20,
        seed=seed,
        t_grid=(math.e, 10.0),
    )
    rep = exps.run_tail_experiment(cfg)
    out = tmp_path / "report.csv"
    exps.emit_csv(rep, out)
    golden = open(os.path.join(GOLDEN, f"tail_seed{seed}.csv"), "rb").read()
    assert out.read_bytes() == golden


def test_svg_bytes_match_golden(tmp_path):
    circle = new_sparse(2, [((2, 0), 1.0), ((0, 2), 1.0), ((0, 0), -0.25)])
    report = pv_subdivide(circle, 8)
    out = tmp_path / "boxes.svg"
    exps.emit_svg(report, out)
    golden = open(os.path.join(GOLDEN, "circle_pv.svg"), "rb").read()
    assert out.read_bytes() == golden
    with pytest.raises(ValueError):
        exps.emit_svg(pv_subdivide(new_sparse(1, [((1,), 1.0)]), 5), tmp_path / "bad.svg")
