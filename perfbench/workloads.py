"""The four benchmark workloads.

A workload hands out rounds.  Every round holds the same slots -- the same
kinds of input at the same sizes -- so round times are comparable and a run
can report medians over rounds.  Round ``r`` of seed ``s`` is a pure function
of ``(s, r)``: the slots are fixed base inputs whose coefficients are
perturbed by a relative 1% drawn from the stream ``(s, r)``, which also
supplies every sampling seed.  Different seeds therefore give different
polynomials with the same mix of work, which keeps the spread between seeds
small; fresh random draws per seed would need about ten times more inputs per
run to be as steady, because the box counts of random inputs are
heavy-tailed (coefficient of variation about 1.2 on the criterion-04 family).

A job's ``run`` makes only the library calls a user would make for that input
and is what the benchmark times.  Its ``check`` validates the output and
returns the deterministic part of it (box counts, ``per_depth_counts``, tree
sizes, CSV bytes) for the run's digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from cubecond import cli, condition, experiments, poly, pv, univariate
from cubecond import random as models

ROOT = Path(__file__).resolve().parent.parent
DEMO_DATA = ROOT / "demos" / "data"
PERTURBATION = 0.01


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple]  # output -> (ok, deterministic record)
    draw: bool = False  # one univariate suite draw


def _rng(seed: int, r: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, r, salt])


def _perturb(f, rng):
    coefficients = f.coefficients * (1.0 + PERTURBATION * rng.standard_normal(f.support_size))
    return poly.new_sparse(f.n, zip(f.exponents.tolist(), coefficients))


def _random_poly(rng, n, max_degree, m):
    """Random support containing 1, X_1..X_n plus gaussian coefficients.

    Same construction and stream use as the test suite's ``random_poly`` with
    ``include_simplex=True``, so seed 105 reproduces criterion 04's inputs.
    """
    m = min(m, math.comb(max_degree + n, n))
    support = [(0,) * n] + [tuple(int(j == i) for j in range(n)) for i in range(n)]
    seen = set(support)
    while len(support) < m:
        alpha = tuple(int(v) for v in rng.integers(0, max_degree + 1, n))
        if sum(alpha) <= max_degree and alpha not in seen:
            seen.add(alpha)
            support.append(alpha)
    coefficients = rng.normal(0.0, 1.0, len(support))
    return poly.new_sparse(n, list(zip(support, coefficients)))


def _sub_verify(f, max_depth, verify_seed):
    report = pv.pv_subdivide(f, max_depth)
    verified = None
    if report.terminated:
        verified = pv.verify_output_boxes(f, report, 128, seed=verify_seed)
    return report, verified


def _report_record(report):
    return [report.terminated, report.final_count, report.processed_count, report.per_depth_counts]


def _consistent(report, n) -> bool:
    """Worklist bookkeeping: every processed level past the root is a set of
    2^n-children, and the counters add up."""
    levels = report.per_depth_counts
    return (
        report.processed_count == sum(levels)
        and len(report.final_clauses) == report.final_count
        and all(count % 2 ** n == 0 for count in levels[1:])
    )


# ---------------------------------------------------------------------------
# verify_many
# ---------------------------------------------------------------------------


class VerifyMany:
    """Criterion-04 family: subdivide to termination, verify every final box."""

    name = "verify_many"
    tail_pct = 75

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        rng = np.random.default_rng(105)  # criterion 04's stream
        corpus = [_random_poly(rng, n, 3 + n, 5) for n in [1] * 50 + [2] * 50]
        self.base = corpus[:3] + corpus[50:55]
        self.known = [
            ("x", poly.new_sparse(1, [((1,), 1.0)]), 10, 2),
            ("x1+x2", poly.new_sparse(2, [((1, 0), 1.0), ((0, 1), 1.0)]), 10, 16),
            ("(x-1/2)^2", poly.new_sparse(1, [((0,), 0.25), ((1,), -1.0), ((2,), 1.0)]), 12, None),
        ]

    def round(self, r: int) -> list[Job]:
        rng = _rng(self.seed, r, 1)
        jobs = []
        for label, f, depth, expected in self.known:
            jobs.append(
                Job(label, partial(_sub_verify, f, depth, int(rng.integers(2**31))),
                    partial(self._check_known, expected))
            )
        for j, f in enumerate(self.base):
            g = _perturb(f, rng)
            jobs.append(
                Job(f"poly{j}", partial(_sub_verify, g, 10, int(rng.integers(2**31))),
                    partial(self._check, g.n))
            )
        return jobs

    @staticmethod
    def _check(n, out):
        report, verified = out
        return verified is not False and _consistent(report, n), _report_record(report) + [verified]

    @staticmethod
    def _check_known(expected, out):
        report, verified = out
        if expected is None:  # a double root must be flagged, never terminate
            ok = not report.terminated
        else:
            ok = report.terminated and report.final_count == expected and verified is True
        return ok, _report_record(report) + [verified]


# ---------------------------------------------------------------------------
# deep_levels
# ---------------------------------------------------------------------------


def _squared(n, terms):
    """Coefficients of (sum of terms)^2."""
    out = {}
    for a, c in terms:
        for b, d in terms:
            key = tuple(x + y for x, y in zip(a, b))
            out[key] = out.get(key, 0.0) + c * d
    return poly.new_sparse(n, list(out.items()))


def _sphere_terms(n, r2):
    return [(tuple(2 * int(j == i) for j in range(n)), 1.0) for i in range(n)] + [
        ((0,) * n, -r2)
    ]


AMORTIZATION_POINTS = 100_000


def _subdivide(f, max_depth):
    return pv.pv_subdivide(f, max_depth)


def _amortize(f, seed):
    return pv.amortization_bound(f, AMORTIZATION_POINTS, seed)


def _circle(f, seed):
    return pv.pv_subdivide(f, 30), pv.amortization_bound(f, AMORTIZATION_POINTS, seed)


def _amortization_check(out):
    report, estimate = out
    slack = 1.0 + 3.0 / math.sqrt(AMORTIZATION_POINTS)
    ok = report.terminated and report.final_count <= estimate * slack
    return ok, _report_record(report) + [repr(estimate)]


class DeepLevels:
    """Singular inputs subdivided to a depth guard: levels of 10^4..10^5 boxes."""

    name = "deep_levels"
    tail_pct = 75

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed

    def round(self, r: int) -> list[Job]:
        rng = _rng(self.seed, r, 2)
        radius2 = lambda: 0.5 * (1.0 + 2 * PERTURBATION * rng.uniform(-1.0, 1.0))  # noqa: E731
        circle2 = _squared(2, _sphere_terms(2, radius2()))
        circle2b = _squared(2, _sphere_terms(2, radius2()))
        sphere2 = _squared(3, _sphere_terms(3, radius2()))
        circle = poly.new_sparse(2, _sphere_terms(2, radius2()))
        root = 0.5 * (1.0 + PERTURBATION * rng.uniform(-1.0, 1.0))
        double_root = _squared(1, [((1,), 1.0), ((0,), -root)])
        seeds = [int(s) for s in rng.integers(2**31, size=3)]
        return [
            Job("doubled_circle_d9", partial(_subdivide, circle2, 9),
                partial(self._check_flagged, 2)),
            Job("doubled_circle_d8", partial(_subdivide, circle2b, 8),
                partial(self._check_flagged, 2)),
            Job("doubled_sphere_d5", partial(_subdivide, sphere2, 5),
                partial(self._check_flagged, 3)),
            Job("double_root_d30", partial(_subdivide, double_root, 30),
                partial(self._check_flagged, 1)),
            Job("amortization_doubled_circle", partial(_amortize, circle2, seeds[0]),
                self._check_estimate),
            Job("amortization_doubled_sphere", partial(_amortize, sphere2, seeds[1]),
                self._check_estimate),
            Job("circle_amortization", partial(_circle, circle, seeds[2]), _amortization_check),
        ]

    @staticmethod
    def _check_flagged(n, report):
        return not report.terminated and _consistent(report, n), _report_record(report)

    @staticmethod
    def _check_estimate(estimate):
        # a singular zero makes the Monte Carlo estimate large or infinite, never NaN
        return estimate > 0.0, repr(estimate)


# ---------------------------------------------------------------------------
# univariate_suite
# ---------------------------------------------------------------------------

SUITE_SUPPORT = ((0,), (1,), (5,), (13,), (27,), (41,), (54,), (64,))
SUITE_ROUND = 15  # odd, so the p50 and p90 positions fall mid-slot, not between two slots


def _suite_draw(f):
    """One draw of the criteria 06/07 fixture."""
    kappa_upper = condition.global_condition(f, 2e-5).upper
    if math.isfinite(kappa_upper):
        eps = min(1e-3, 0.5 / (math.e * f.degree * kappa_upper))
    else:
        eps = 1e-3
    oracle = univariate.separation_oracle(f, eps)
    isolation = univariate.descartes_isolate(f, max_depth=60)
    reals, _ = univariate.oracle_roots(f)
    return f, kappa_upper, eps, oracle, isolation, reals


def _check_suite_draw(out):
    f, kappa_upper, eps, oracle, iso, reals = out
    roots = np.sort(reals[np.abs(reals) <= 1.0])
    matched = iso.complete and iso.root_count == len(roots)
    for x in roots if matched else ():
        hits = sum(1 for lo, hi in iso.intervals if lo - 1e-9 <= x <= hi + 1e-9)
        hits += sum(1 for e in iso.exact_roots if abs(e - x) <= 1e-9)
        matched = matched and hits == 1
    separated = oracle.delta >= univariate.separation_lower_bound(f, kappa_upper)
    if math.isfinite(kappa_upper):
        separated = separated and (
            oracle.delta_eps >= univariate.eps_separation_lower_bound(f, kappa_upper, eps)
        )
    record = [iso.tree.nodes, iso.tree.per_depth, iso.root_count, repr(kappa_upper)]
    return matched and separated, record


class UnivariateSuite:
    """Sparse degree-64 draws through the 06/07 fixture pipeline."""

    name = "univariate_suite"
    tail_pct = 90

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        suite_models = [
            models.RandomModel(n=1, support=SUITE_SUPPORT, dist=dist)
            for dist in (models.Gaussian(), models.Uniform())
        ]
        for model in suite_models:
            models.model_constants(model)
        # the fixture's first draws, alternating between the two models
        self.base = [
            models.sample(suite_models[i % 2], (2024, i // 2)) for i in range(SUITE_ROUND)
        ]

    def round(self, r: int) -> list[Job]:
        rng = _rng(self.seed, r, 3)
        return [
            Job(f"draw{j}", partial(_suite_draw, _perturb(f, rng)), _check_suite_draw, draw=True)
            for j, f in enumerate(self.base)
        ]


# ---------------------------------------------------------------------------
# montecarlo
# ---------------------------------------------------------------------------


def _digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _experiment(cfg, csv_path):
    report = experiments.run_experiment(cfg)
    experiments.emit_csv(report, csv_path)
    return report, Path(csv_path).read_bytes()


def _check_experiment(out):
    report, csv = out
    ok = report.passed and not report.flagged
    return ok, [report.kind, report.violations, _digest_bytes(csv)]


def _dist1(f, x):
    return condition.dist1_to_sigma_x(f, x), condition.local_condition(f, x)


def _check_dist1(f, out):
    """norm1/dist <= kappa <= (1 + 2d) norm1/dist for supports holding 1, X_i."""
    dist, kappa = out
    if dist == 0.0:
        return math.isinf(kappa), [repr(dist)]
    ratio = poly.norm1(f) / dist
    ok = ratio <= kappa * (1 + 1e-9) and kappa <= (1 + 2 * f.degree) * ratio * (1 + 1e-9)
    return ok, [repr(dist), repr(kappa)]


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _check_cli_pv(expected, out):
    code, stdout = out
    if code != 0:
        return False, [code]
    result = json.loads(stdout)
    ok = result["terminated"] and result["final_count"] == len(result["final_boxes"])
    if expected is not None:
        ok = ok and result["final_count"] == expected
    return ok, [result["final_count"], result["per_depth_counts"], _digest_bytes(stdout.encode())]


def _check_cli_isolate(out):
    """2x^2 - 1 has the simple roots +-1/sqrt(2), one per interval."""
    code, stdout = out
    if code != 0:
        return False, [code]
    result = json.loads(stdout)
    roots = (-math.sqrt(0.5), math.sqrt(0.5))
    ok = result["complete"] and len(result["intervals"]) == 2 and not result["exact_roots"]
    ok = ok and all(lo <= x <= hi for (lo, hi), x in zip(result["intervals"], roots))
    return ok, [result["tree_stats"], _digest_bytes(stdout.encode())]


def _check_cli_experiment(csv_path, out):
    code, stdout = out
    if code != 0:
        return False, [code]
    return json.loads(stdout)["passed"], [_digest_bytes(Path(csv_path).read_bytes())]


def _check_cli_sample(out):
    code, stdout = out
    if code != 0:
        return False, [code]
    result = json.loads(stdout)
    return result["n"] == 1 and len(result["terms"]) == 3, [_digest_bytes(stdout.encode())]


class MonteCarlo:
    """Experiments harness at workers=1 and the CLI on demos/data, in-process."""

    name = "montecarlo"
    tail_pct = 75

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        self.tail_model = models.load_model(DEMO_DATA / "gaussian_d5.json")
        self.tail_model_uniform = models.RandomModel(
            n=1, support=self.tail_model.support, dist=models.Uniform()
        )
        self.pv_model = models.RandomModel(
            n=1, support=((0,), (1,), (2,), (3,)), dist=models.Gaussian()
        )
        for model in (self.tail_model, self.tail_model_uniform, self.pv_model):
            models.model_constants(model)

    def round(self, r: int) -> list[Job]:
        rng = _rng(self.seed, r, 4)
        seeds = [int(s) for s in rng.integers(2**31, size=5)]
        out = self.out_dir
        config = partial(experiments.ExperimentConfig, trials=200)
        tail = config(kind="tail", model=self.tail_model, seed=seeds[0])
        tail_uniform = config(kind="tail", model=self.tail_model_uniform, seed=seeds[1])
        box_count = config(kind="pv", model=self.pv_model, seed=seeds[2])
        jobs = [
            Job("tail_experiment", partial(_experiment, tail, out / "tail.csv"), _check_experiment),
            Job("tail_experiment_uniform", partial(_experiment, tail_uniform, out / "tail_u.csv"),
                _check_experiment),
            Job("pv_experiment", partial(_experiment, box_count, out / "pv.csv"),
                _check_experiment),
        ]
        for n, m in ((1, 6), (2, 8), (3, 10)):
            f = _random_poly(rng, n, 4, m)
            x = rng.uniform(-1.0, 1.0, n)
            jobs.append(Job(f"dist1_n{n}", partial(_dist1, f, x), partial(_check_dist1, f)))
        cli_out = out / "cli"
        jobs += [
            Job("cli_pv_circle", partial(_cli, ["pv", str(DEMO_DATA / "circle.json")]),
                partial(_check_cli_pv, None)),
            Job("cli_pv_line2d", partial(_cli, ["pv", str(DEMO_DATA / "line2d.json")]),
                partial(_check_cli_pv, 16)),
            Job("cli_isolate_oracle",
                partial(_cli, ["isolate", str(DEMO_DATA / "quad.json"), "--oracle"]),
                _check_cli_isolate),
            Job("cli_experiment",
                partial(_cli, ["experiment", str(DEMO_DATA / "tail_experiment.json"),
                               "--out", str(cli_out), "--seed", str(seeds[3])]),
                partial(_check_cli_experiment, cli_out / "tail.csv")),
            Job("cli_sample",
                partial(_cli, ["sample", str(DEMO_DATA / "gaussian_d5.json"),
                               "--seed", str(seeds[4])]),
                _check_cli_sample),
        ]
        return jobs


WORKLOADS = {
    "verify_many": VerifyMany,
    "deep_levels": DeepLevels,
    "univariate_suite": UnivariateSuite,
    "montecarlo": MonteCarlo,
}

