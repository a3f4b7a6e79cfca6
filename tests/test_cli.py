import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from cubecond import cli
from cubecond import experiments as exps
from cubecond import random as models
from cubecond import univariate
from cubecond.cli import DEFAULT_SEED, _emit, main
from cubecond.poly import MAX_POWER_CHAIN, load_polynomial
from cubecond.pv import MAX_BOXES, pv_subdivide
from cubecond.univariate import OracleFailedError

QUAD = {"n": 1, "terms": [{"alpha": [0], "c": -1.0}, {"alpha": [2], "c": 2.0}]}
LINE2 = {"n": 2, "terms": [{"alpha": [1, 0], "c": 1.0}, {"alpha": [0, 1], "c": 1.0}]}
MODEL = {
    "n": 1,
    "support": [[0], [1], [5]],
    "dist": {"kind": "gaussian", "mean": 0.0, "sd": 1.0},
    "p": 2,
}


ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMO_POLYNOMIALS = [
    str(path) for path in sorted((ROOT / "demos" / "data").glob("*.json"))
    if "terms" in json.loads(path.read_text(encoding="utf-8"))
]


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    run.err = captured.err
    return code, (json.loads(captured.out) if captured.out.strip() else None)


def test_condition_point(tmp_path, capsys):
    code, out = run(capsys, ["condition", write(tmp_path, "q.json", QUAD), "--point", "0"])
    assert code == 0
    assert out["kappa"] == 3.0


def test_condition_global(tmp_path, capsys):
    code, out = run(
        capsys,
        ["condition", write(tmp_path, "q.json", QUAD), "--global", "--eps", "1e-4"],
    )
    assert code == 0
    expected = 3.0 / (math.sqrt(3.0) - 1.0)
    assert out["lower"] <= expected <= out["upper"]
    assert out["upper"] / out["lower"] <= 1.01


def test_condition_global_at_n4_uses_the_finest_fitting_eps(tmp_path, capsys):
    # 5 terms in n = 4 cost 20 terms a point: 29^4 points fit the 2^24 cap, 30^4 do not
    terms = [([0, 0, 0, 0], 0.3), ([1, 0, 0, 0], 1.0), ([0, 1, 1, 0], -0.5),
             ([0, 0, 0, 2], 0.75), ([0, 0, 1, 0], 0.25)]
    path = write(tmp_path, "n4.json", {"n": 4, "terms": [{"alpha": a, "c": c} for a, c in terms]})
    code, out = run(capsys, ["condition", path, "--global"])
    assert code == 0
    assert out["grid_eps"] == 1 / 28
    assert 1.0 <= out["lower"] <= out["upper"] < math.inf


def test_condition_refuses_eps_without_global(tmp_path, capsys):
    # --eps sets only the grid of --global; at a point it would be ignored
    code, out = run(
        capsys, ["condition", write(tmp_path, "q.json", QUAD), "--point", "0.5", "--eps", "0.1"]
    )
    assert code == 1 and out is None
    assert run.err.startswith("error: ") and "--global" in run.err
    assert len(run.err.splitlines()) == 1


def test_condition_wrong_point_dimension(tmp_path, capsys):
    code, _ = run(capsys, ["condition", write(tmp_path, "q.json", QUAD), "--point", "0", "0"])
    assert code == 1
    code, _ = run(capsys, ["condition", write(tmp_path, "q.json", QUAD), "--point", "nan"])
    assert code == 1 and "finite" in run.err


def test_pv_line2d(tmp_path, capsys):
    code, out = run(capsys, ["pv", write(tmp_path, "l.json", LINE2), "--max-depth", "10"])
    assert code == 0
    assert out["final_count"] == 16
    assert out["terminated"] is True


# (x^2 + y^2 - 1/2)^2: singular along a circle, so it mixes both clauses
DOUBLED_CIRCLE = {"n": 2, "terms": [
    {"alpha": a, "c": c} for a, c in
    [([4, 0], 1.0), ([2, 2], 2.0), ([0, 4], 1.0), ([2, 0], -1.0), ([0, 2], -1.0), ([0, 0], 0.25)]
]}


def test_pv_writes_the_report_arrays(tmp_path, capsys):
    code, out = run(capsys, ["pv", write(tmp_path, "d.json", DOUBLED_CIRCLE), "--max-depth", "8"])
    report = pv_subdivide(load_polynomial(DOUBLED_CIRCLE), 8)
    assert code == 0 and not out["terminated"]
    assert out["final_boxes"] == [
        {"m": m, "w": w}
        for m, w in zip(report.final_midpoints.tolist(), report.final_widths.tolist())
    ]
    names = {1: "value", 2: "gradient"}
    assert out["clauses"] == [names[code] for code in report.final_codes.tolist()]
    assert set(out["clauses"]) == {"value", "gradient"}


def test_pv_ends_flagged_within_the_box_budget_at_default_flags(tmp_path):
    # a child process writes the output, about 230 MB of JSON, to a file; only its
    # end is read back, the sorted keys from "final_count" on
    out = tmp_path / "out.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    ))
    argv = [sys.executable, "-m", "cubecond.cli", "pv", write(tmp_path, "d.json", DOUBLED_CIRCLE)]
    with open(out, "w") as fh:
        proc = subprocess.run(argv, stdout=fh, stderr=subprocess.PIPE, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    with open(out, "rb") as fh:
        fh.seek(-4096, os.SEEK_END)
        end = fh.read().decode()
    counters = json.loads("{" + end[end.index('"final_count"'):])
    assert counters["terminated"] is False
    assert counters["max_depth_reached"] < 30 and counters["processed"] <= MAX_BOXES


def test_no_subcommand_or_experiment_imports_scipy_and_the_gaussian_constants_keep_their_bits():
    # scipy.special is most of the import time and peak memory a process would pay, and
    # the Gaussian tail constant no longer needs it: every subcommand and experiment kind
    # runs on a Gaussian model without it, and K and rho keep the bits of scipy's log_ndtr
    code = textwrap.dedent("""\
        import contextlib, io, sys, tempfile
        import cubecond.cli as cli
        from cubecond import experiments as exps, random as models
        with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
            for argv in (['pv', 'demos/data/circle.json'],
                         ['sample', 'demos/data/gaussian_d5.json', '--seed', '1'],
                         ['experiment', 'demos/data/tail_experiment.json', '--out', out],
                         ['isolate', 'demos/data/quad.json', '--oracle'],
                         ['condition', 'demos/data/quad.json', '--global']):
                assert cli.main(argv) == 0, argv
        model = models.load_model('demos/data/gaussian_d5.json')
        for kind in ('tail', 'pv', 'descartes', 'separation'):
            exps.run_experiment(exps.ExperimentConfig(kind=kind, model=model, trials=3, seed=1))
        assert 'scipy' not in sys.modules, 'scipy was imported'
        c = models.model_constants(model)
        assert (repr(c.K), repr(c.rho)) == ('4.242640681844891', '0.3989422804014327'), c
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    ))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_emit_writes_non_finite_floats_in_dicts_as_strings(capsys):
    _emit({"a": math.inf, "b": {"c": -math.inf, "d": {"e": math.nan}}, "f": [1.5]}, False)
    assert capsys.readouterr().out == (
        '{"a": "inf", "b": {"c": "-inf", "d": {"e": "nan"}}, "f": [1.5]}\n'
    )


def test_emit_refuses_a_non_finite_float_in_a_list(capsys):
    with pytest.raises(ValueError):
        _emit({"x": [math.inf]}, False)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("name", ["circle", "line2d"])
def test_pv_stdout_matches_golden(capsys, name):
    assert main(["pv", str(ROOT / "demos" / "data" / f"{name}.json")]) == 0
    golden = ROOT / "tests" / "golden" / f"{name}_pv.json"
    assert capsys.readouterr().out.encode() == golden.read_bytes()


@pytest.mark.parametrize("path", DEMO_POLYNOMIALS, ids=lambda path: pathlib.Path(path).name)
def test_default_flags_on_demo_polynomials(capsys, path):
    n = load_polynomial(path).n
    commands = [["condition", path, "--global"], ["pv", path]]
    if n == 1:
        commands.append(["isolate", path])
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
        if argv[0] == "condition":
            # 1e-4 fits in n = 1; in n = 2 the grid is coarsened to fit the cap
            grid_eps = json.loads(capsys.readouterr().out)["grid_eps"]
            assert grid_eps == 1e-4 if n == 1 else 1e-4 < grid_eps < 1e-3


def test_pv_svg_written(tmp_path, capsys):
    svg = tmp_path / "out.svg"
    code, _ = run(
        capsys,
        ["pv", write(tmp_path, "l.json", LINE2), "--max-depth", "10", "--svg", str(svg)],
    )
    assert code == 0
    assert svg.read_text().startswith("<svg")


def test_isolate_with_oracle(tmp_path, capsys):
    code, out = run(
        capsys, ["isolate", write(tmp_path, "q.json", QUAD), "--oracle"]
    )
    assert code == 0
    assert len(out["intervals"]) == 2
    assert out["oracle"]["delta"] == pytest.approx(math.sqrt(2.0), rel=1e-9)
    assert out["bounds"]["separation_lower"] <= out["oracle"]["delta"]
    assert out["complete"] is True


def test_isolate_bounds_a_linear_input_above_zero(tmp_path, capsys):
    linear = {"n": 1, "terms": [{"alpha": [0], "c": 0.5}, {"alpha": [1], "c": 2.0}]}
    code, out = run(capsys, ["isolate", write(tmp_path, "l.json", linear)])
    assert code == 0
    assert out["bounds"]["js_condition"] >= 2.0 ** 12 * math.log2(2.5) ** 2


def test_isolate_refuses_a_degree_past_the_dense_cap(tmp_path, capsys):
    huge = {"n": 1, "terms": [{"alpha": [10 ** 12], "c": 1.0}, {"alpha": [0], "c": -0.5}]}
    code, out = run(capsys, ["isolate", write(tmp_path, "h.json", huge)])
    assert code == 1 and out is None
    assert run.err.splitlines() == ["error: degree 1000000000000 exceeds the dense cap 512"]


@pytest.mark.parametrize("command", [["condition", "--point", "0.5"], ["pv"]])
def test_kernel_commands_refuse_a_power_chain_past_the_cap(tmp_path, capsys, command):
    huge = {"n": 1, "terms": [{"alpha": [10 ** 12], "c": 1.0}, {"alpha": [0], "c": -0.5}]}
    code, out = run(capsys, command[:1] + [write(tmp_path, "h.json", huge)] + command[1:])
    assert code == 1 and out is None
    message = f"error: power chain of 1000000000000 exceeds the cap {MAX_POWER_CHAIN}"
    assert run.err.splitlines() == [message]


def test_isolate_prints_roots_on_bisection_points_exactly(tmp_path, capsys):
    # x^3 - x/4: the roots -1/2, 0 and 1/2 are all bisection points of [-1, 1]
    cubic = {"n": 1, "terms": [{"alpha": [3], "c": 1.0}, {"alpha": [1], "c": -0.25}]}
    code, out = run(capsys, ["isolate", write(tmp_path, "c.json", cubic)])
    assert code == 0
    assert out["exact_roots"] == [-0.5, 0.0, 0.5]
    assert out["intervals"] == [] and out["complete"] is True


@pytest.mark.parametrize(
    "eps, flags",
    [
        pytest.param("nan", ["--oracle"], id="nan"),
        pytest.param("inf", ["--oracle"], id="inf"),
        # the eps-separation bound rejects it too when the oracle is not run
        pytest.param("nan", [], id="nan-without-oracle"),
    ],
)
def test_isolate_oracle_rejects_non_finite_eps(tmp_path, capsys, eps, flags):
    code, out = run(capsys, ["isolate", write(tmp_path, "q.json", QUAD), "--eps", eps, *flags])
    assert code == 1 and out is None
    assert run.err.splitlines() == [f"error: eps must be positive and finite, got {eps}"]


def test_isolate_reports_no_eps_bound_past_its_hypothesis(capsys):
    # eps = 0.5 is past 1 / (e d kappa_upper), where the eps-separation bound is not proved
    code, out = run(capsys, ["isolate", str(ROOT / "demos" / "data" / "quad.json"), "--eps", "0.5"])
    assert code == 0 and run.err == ""
    assert out["bounds"]["eps_separation_lower"] is None
    assert out["bounds"]["separation_lower"] > 0.0


def test_isolate_oracle_failure_exit_code(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise OracleFailedError("oracle failed: root iteration did not converge")

    monkeypatch.setattr(univariate, "_aberth", fail)
    code, out = run(capsys, ["isolate", write(tmp_path, "q.json", QUAD), "--oracle"])
    assert code == 2
    assert out is None
    assert run.err.splitlines() == ["error: oracle failed: root iteration did not converge"]


def test_sample_deterministic_and_env_seed(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "m.json", MODEL)
    code, out1 = run(capsys, ["sample", path, "--seed", "42"])
    assert code == 0
    code, out2 = run(capsys, ["sample", path, "--seed", "42"])
    assert out1 == out2
    monkeypatch.setenv("CUBECOND_SEED", "42")
    code, out3 = run(capsys, ["sample", path])
    assert out3 == out1


@pytest.mark.parametrize(
    "seed, digest", [(0, "a3ba2b48e7df931e"), (7, "9f2020829a243b1a"), (2024, "999a9a2a1b7b1bc9")]
)
def test_sample_stdout_on_the_demo_model_keeps_its_bytes(capsys, seed, digest):
    # digests of the stdout of the per-draw sampler that sample_batch replaced
    model = str(ROOT / "demos" / "data" / "gaussian_d5.json")
    assert main(["sample", model, "--seed", str(seed)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16] == digest


def test_sample_refuses_a_non_integer_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("CUBECOND_SEED", "abc")
    code, out = run(capsys, ["sample", str(ROOT / "demos" / "data" / "gaussian_d5.json")])
    assert (code, out) == (1, None)
    assert run.err.splitlines() == ["error: CUBECOND_SEED must be an integer, got 'abc'"]


def test_sample_refuses_a_uniform_model_whose_range_overflows(tmp_path, capsys):
    # an infinite hi - lo is an input error, not numpy's OverflowError at the first draw
    wide = {**MODEL, "dist": {"kind": "uniform", "lo": -1e308, "hi": 1e308}}
    code, out = run(capsys, ["sample", write(tmp_path, "wide.json", wide), "--seed", "1"])
    assert (code, out) == (1, None)
    assert run.err.splitlines() == [
        "error: model file: uniform needs finite lo < hi and hi - lo, got lo=-1e+308, hi=1e+308"
    ]


def test_experiment_runs_and_writes_csv(tmp_path, capsys):
    cfg = {
        "experiment": "tail",
        "model": MODEL,
        "trials": 100,
        "seed": 11,
        "t_grid": [math.e, 10.0],
    }
    out_dir = tmp_path / "out"
    code, summary = run(
        capsys,
        ["experiment", write(tmp_path, "cfg.json", cfg), "--out", str(out_dir)],
    )
    assert code == 0
    assert summary["passed"] is True
    csv_path = out_dir / "tail.csv"
    assert csv_path.exists()
    header = csv_path.read_text().splitlines()[0]
    assert header == "trial,seed,stat_name,value,bound,pass"


@pytest.mark.parametrize(
    "config_seed, flag, env, expected",
    [
        (5, "7", "9", 7),  # --seed beats the config file and CUBECOND_SEED
        (5, None, "9", 5),  # the config file beats CUBECOND_SEED
        (None, None, "9", 9),  # CUBECOND_SEED beats the default
        (None, None, None, DEFAULT_SEED),
    ],
)
def test_experiment_seed_precedence(tmp_path, capsys, monkeypatch, config_seed, flag, env,
                                    expected):
    cfg = {"experiment": "tail", "model": MODEL, "trials": 4}
    if config_seed is not None:
        cfg["seed"] = config_seed
    if env is None:
        monkeypatch.delenv("CUBECOND_SEED", raising=False)
    else:
        monkeypatch.setenv("CUBECOND_SEED", env)
    argv = ["experiment", write(tmp_path, "cfg.json", cfg), "--out", str(tmp_path / "o")]
    code, _ = run(capsys, argv + (["--seed", flag] if flag else []))
    assert code == 0
    rows = (tmp_path / "o" / "tail.csv").read_text().splitlines()[1:]
    assert {row.split(",")[1] for row in rows} == {str(expected)}


@pytest.mark.parametrize("route", ["sample --seed", "experiment --seed", "CUBECOND_SEED"])
def test_negative_seed_is_one_error_line_naming_the_seed(tmp_path, capsys, monkeypatch, route):
    if route == "CUBECOND_SEED":
        monkeypatch.setenv("CUBECOND_SEED", "-1")
        argv = ["sample", write(tmp_path, "model.json", MODEL)]
    elif route == "sample --seed":
        argv = ["sample", write(tmp_path, "model.json", MODEL), "--seed", "-1"]
    else:
        cfg = {"experiment": "tail", "model": MODEL, "trials": 2}
        argv = ["experiment", write(tmp_path, "cfg.json", cfg), "--out", str(tmp_path / "o"),
                "--seed", "-3"]
    code, out = run(capsys, argv)
    assert code == 1 and out is None
    assert len(run.err.splitlines()) == 1
    assert run.err.startswith("error: seed must be a non-negative integer")


@pytest.mark.parametrize("route", ["config", "--seed", "CUBECOND_SEED"])
def test_experiment_negative_seed_fails_before_any_trial(tmp_path, capsys, monkeypatch, route):
    monkeypatch.setattr(models, "sample", lambda *args: pytest.fail("a trial started"))
    monkeypatch.setattr(models, "sample_batch", lambda *args: pytest.fail("a trial started"))
    monkeypatch.setenv("CUBECOND_SEED", "-1" if route == "CUBECOND_SEED" else "4")
    cfg = {"experiment": "tail", "model": MODEL, "trials": 2}
    if route == "config":
        cfg["seed"] = -1
    argv = ["experiment", write(tmp_path, "cfg.json", cfg), "--out", str(tmp_path / "o")]
    code, out = run(capsys, argv + (["--seed", "-1"] if route == "--seed" else []))
    assert code == 1 and out is None
    assert run.err.endswith("seed must be a non-negative integer, got -1\n")
    assert not (tmp_path / "o").exists()


def test_experiment_workers_flag_reaches_the_run(tmp_path, capsys, monkeypatch):
    seen = []
    real = exps.run_experiment
    monkeypatch.setattr(exps, "run_experiment", lambda cfg: seen.append(cfg.workers) or real(cfg))
    cfg = {"experiment": "tail", "model": MODEL, "trials": 8, "seed": 3, "workers": 1}
    path = write(tmp_path, "cfg.json", cfg)
    for workers in ("1", "2"):
        code, _ = run(capsys, ["experiment", path, "--out", str(tmp_path / workers),
                               "--workers", workers])
        assert code == 0
    assert seen == [1, 2]
    assert (tmp_path / "1" / "tail.csv").read_bytes() == (tmp_path / "2" / "tail.csv").read_bytes()
    code, _ = run(capsys, ["experiment", path, "--out", str(tmp_path / "0"), "--workers", "0"])
    assert code == 1 and "workers" in run.err and seen == [1, 2]


def test_experiment_flagged_exit_code(tmp_path, capsys):
    cfg = {
        "experiment": "pv",
        "model": {"n": 1, "support": [[0], [1], [2]], "dist": {"kind": "gaussian"}},
        "trials": 30,
        "seed": 11,
        "max_depth": 1,
    }
    code, summary = run(
        capsys,
        ["experiment", write(tmp_path, "cfg.json", cfg), "--out", str(tmp_path / "o")],
    )
    assert code == 2
    assert summary["flagged"] is True


def test_malformed_json_names_field(tmp_path, capsys):
    bad = {"n": 1, "terms": [{"alpha": [0, 1], "c": 1.0}]}
    code, _ = run(capsys, ["condition", write(tmp_path, "bad.json", bad), "--point", "0"])
    assert code == 1
    assert "alpha" in run.err


@pytest.mark.parametrize(
    "command, name, obj, field",
    [
        ("experiment", "cfg.json", {"experiment": "tail", "model": MODEL, "t_grid": [None]},
         "t_grid"),
        ("condition", "bad.json", {**QUAD, "n": True}, "'n'"),
        ("sample", "model.json", {**MODEL, "dist": {"kind": "gaussian", "sd": True}},
         "'dist.sd'"),
        ("sample", "model.json", {**MODEL, "dist": {"kind": "gaussian", "mean": "a"}},
         "'dist.mean'"),
        # a NaN coefficient passes no predicate, so pv would split every box to the depth cap
        ("pv", "nan.json", {**QUAD, "terms": [{"alpha": [0], "c": math.nan}]}, "'terms[0].c'"),
        ("isolate", "inf.json", {**QUAD, "terms": [{"alpha": [0], "c": math.inf}]},
         "'terms[0].c'"),
        # an exponent past int64 would overflow the exponent array
        ("pv", "huge.json", {**QUAD, "terms": [{"alpha": [10 ** 20], "c": 1.0}]},
         "terms[0].alpha"),
    ],
)
def test_malformed_field_type_is_one_error_line(tmp_path, capsys, command, name, obj, field):
    extra = {"experiment": ["--out", str(tmp_path / "o")], "condition": ["--point", "0"],
             "pv": ["--max-depth", "8"]}
    extra = extra.get(command, [])
    code, out = run(capsys, [command, write(tmp_path, name, obj)] + extra)
    assert code == 1 and out is None
    assert len(run.err.splitlines()) == 1
    assert run.err.startswith("error: ") and field in run.err


def test_global_condition_over_grid_cap_is_error(tmp_path, capsys):
    # 3 terms in n = 2: 1673^2 grid points x 3 x 2 is just over the 2^24 cap
    circle = {"n": 2, "terms": [{"alpha": [0, 0], "c": -0.5}, {"alpha": [2, 0], "c": 1.0},
                                {"alpha": [0, 2], "c": 1.0}]}
    path = write(tmp_path, "circle.json", circle)
    code, out = run(capsys, ["condition", path, "--global", "--eps", str(1 / 1671.5)])
    assert code == 1 and out is None
    assert "cap" in run.err and len(run.err.splitlines()) == 1


def test_main_builds_no_parser(tmp_path, capsys, monkeypatch):
    # the parser is built once, at import; each subcommand carries its handler
    built, init = [], cli._Parser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", spy)
    assert run(capsys, ["condition", write(tmp_path, "q.json", QUAD), "--point", "0"])[0] == 0
    assert run(capsys, ["sample", write(tmp_path, "m.json", MODEL), "--seed", "3"])[0] == 0
    assert built == []


def test_unknown_flag_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["condition", write(tmp_path, "q.json", QUAD), "--point", "0", "--bogus"])
    assert exc.value.code == 1


def test_missing_file_is_error(capsys):
    code, _ = run(capsys, ["condition", "/nonexistent/poly.json", "--point", "0"])
    assert code == 1
