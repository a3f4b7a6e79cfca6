"""Acceptance gate.

Each criterion runs at its pinned sample sizes and tolerances and prints one
PASS/FAIL line; after a run of every criterion the summary table is also
written to acceptance_report.txt in the repository root.  The table holds
only results, so a run that reproduces them rewrites the file with the same
bytes; the wall times of the timed criteria go to stdout and into their
assertion messages.  Two checks are known to fail and are kept as stated
rather than weakened:

* criterion 02b: the distance sandwich with upper constant (1 + d) is
  violated by generic samples (the support-restricted minimum-distance
  perturbation can exceed (1 + d) * max(|f(x)|, norm1(grad)/d); the provable
  constant for supports containing the affine monomials is 1 + 2d, and the
  tighter one holds at x = 0).
* criterion 10b: for standard gaussian coefficients the smallest constant K
  with P(|x| > t) <= 2 exp(-t^2/K^2) for all t >= K is sqrt(2), so
  K * rho = |M| / sqrt(pi) ~ 0.564 |M|, which cannot satisfy the <= |M|/2
  example bound.
"""

import math
import os
import time

import numpy as np
import pytest

from cubecond import experiments as exps
from cubecond import random as models
from cubecond.condition import (
    dist1_to_sigma_x,
    gamma_bound,
    gamma_exact_univariate,
    global_condition,
    kappa_batch,
    local_condition,
)
from cubecond.interval import BoxN, interval_f, interval_grad_norm
from cubecond.poly import (
    evaluate,
    evaluate_batch,
    gradient,
    gradient_batch,
    new_sparse,
    norm1,
)
from cubecond.pv import amortization_bound, pv_subdivide, verify_output_boxes
from cubecond.univariate import (
    descartes_isolate,
    eps_separation_lower_bound,
    oracle_roots,
    separation_lower_bound,
    separation_oracle,
    tree_size_bound,
)
from helpers import random_poly

_LINES = []


def _record(tag, ok, detail="", seconds=None):
    """Add the criterion's line to the table and print it, with the wall time
    if one is given; return the printed text, an assertion message."""
    line = f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    _LINES.append(line)
    if seconds is not None:
        line += f"  ({seconds:.1f}s)"
    print("\n" + line)
    return line


@pytest.fixture(scope="module", autouse=True)
def _summary_writer():
    yield
    body = "\n".join(_LINES) + "\n"
    print("\n" + "=" * 72 + "\nACCEPTANCE SUMMARY\n" + "=" * 72 + "\n" + body)
    if len(_LINES) < sum(name.startswith("test_criterion_") for name in globals()):
        return  # a partial run leaves the table of the full gate as it is
    path = os.path.join(os.path.dirname(__file__), "..", "acceptance_report.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(body)


def _clamped_support_poly(rng, n, max_degree, m, **kw):
    available = math.comb(max_degree + n, n)
    return random_poly(rng, n, max_degree, min(m, available), **kw)


# --- criterion 1 ------------------------------------------------------------

def test_criterion_01_norm_lipschitz_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    rel = 1e-9
    triples = 0
    violations = 0
    for _ in range(2000):
        n = int(rng.integers(1, 4))
        max_degree = int(rng.integers(1, 17))
        m = int(rng.integers(2, 17))
        f = _clamped_support_poly(rng, n, max_degree, m)
        d, nf = f.degree, norm1(f)
        X = rng.uniform(-1, 1, (5, n))
        Y = rng.uniform(-1, 1, (5, n))
        Y[0] = np.clip(X[0] + rng.uniform(-1e-6, 1e-6, n), -1, 1)  # near pair
        fx, fy = evaluate_batch(f, X), evaluate_batch(f, Y)
        gx, gy = gradient_batch(f, X), gradient_batch(f, Y)
        gap = np.max(np.abs(X - Y), axis=1)
        triples += 5
        violations += int(np.sum(np.abs(fx) > nf * (1 + rel)))
        violations += int(np.sum(np.abs(fx - fy) > d * nf * gap * (1 + rel)))
        violations += int(
            np.sum(np.abs(gx - gy).sum(axis=1) > d * d * nf * gap * (1 + rel))
        )
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and triples >= 10000 and elapsed < 10.0
    message = _record(
        "01 norm/Lipschitz suite", ok, f"{triples} triples, {violations} violations", elapsed
    )
    assert ok, message


# --- criterion 2 ------------------------------------------------------------

def test_criterion_02a_condition_lipschitz_and_gamma():
    rng = np.random.default_rng(102)
    violations = 0
    samples = 0
    for _ in range(2500):
        n = int(rng.integers(1, 4))
        f = _clamped_support_poly(rng, n, int(rng.integers(1, 17)), int(rng.integers(2, 17)))
        d, nf = f.degree, norm1(f)
        pts = rng.uniform(-1, 1, (4, n))
        samples += 4
        kappas = kappa_batch(f, pts)
        violations += int(np.sum(kappas < 1.0 - 1e-12))
        # 1st Lipschitz: compare against a same-support perturbation
        g = new_sparse(n, [(a, c + 0.3 * rng.normal()) for a, c in f.terms()])
        delta_norm = float(np.abs(f.coefficients - g.coefficients).sum())
        for x in pts:
            lhs = abs(nf / local_condition(f, x) - norm1(g) / local_condition(g, x))
            if lhs > delta_norm * (1 + 1e-9):
                violations += 1
        # 2nd Lipschitz on four point pairs
        inv = 1.0 / kappas
        for i in range(4):
            j = (i + 1) % 4
            lhs = abs(inv[i] - inv[j])
            if lhs > d * float(np.max(np.abs(pts[i] - pts[j]))) * (1 + 1e-9):
                violations += 1
    # derivative estimate wherever its hypothesis holds (univariate draws)
    gamma_checked = 0
    for _ in range(3000):
        f = _clamped_support_poly(rng, 1, int(rng.integers(2, 17)), 6)
        x = rng.uniform(-1, 1, 1)
        if abs(evaluate(f, x)) < abs(gradient(f, x)[0]) / f.degree:
            gamma_checked += 1
            if gamma_exact_univariate(f, float(x[0])) > gamma_bound(f, x) * (1 + 1e-9):
                violations += 1
    ok = violations == 0 and samples >= 10000 and gamma_checked >= 500
    _record(
        "02a condition suite (kappa >= 1, both Lipschitz, gamma)",
        ok,
        f"{samples} samples, {gamma_checked} gamma checks, {violations} violations",
    )
    assert ok


def test_criterion_02b_condition_number_sandwich():
    rng = np.random.default_rng(103)
    checked = 0
    left_violations = 0
    right_violations = 0
    worst = 0.0
    while checked < 1000:
        n = int(rng.integers(1, 4))
        f = _clamped_support_poly(
            rng, n, int(rng.integers(2, 11)), 8, include_simplex=True
        )
        x = rng.uniform(-1, 1, n)
        dist = dist1_to_sigma_x(f, x)
        if dist == 0.0:
            continue
        checked += 1
        kappa = local_condition(f, x)
        ratio = norm1(f) / dist
        if ratio > kappa * (1 + 1e-9):
            left_violations += 1
        if kappa > (1 + f.degree) * ratio * (1 + 1e-9):
            right_violations += 1
            worst = max(worst, kappa / ((1 + f.degree) * ratio))
    ok = left_violations == 0 and right_violations == 0
    _record(
        "02b condition-number sandwich, upper constant (1+d)",
        ok,
        f"1000 samples, left {left_violations}, right {right_violations}, "
        f"worst overshoot x{worst:.3f}",
    )
    assert ok, (
        f"the (1+d) upper constant fails on {right_violations}/1000 support-"
        f"restricted samples (worst overshoot x{worst:.3f}); the minimum-norm "
        "singular perturbation on the support can exceed (1+d) * "
        "max(|f(x)|, norm1(grad)/d) away from x = 0, where only the constant "
        "1 + 2d is provable"
    )


# --- criterion 3 ------------------------------------------------------------

def test_criterion_03_interval_soundness():
    rng = np.random.default_rng(104)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        f = _clamped_support_poly(rng, n, int(rng.integers(1, 17)), int(rng.integers(2, 17)))
        width = 2.0 * 2.0 ** -int(rng.integers(1, 7))
        mid = tuple(rng.uniform(-1 + width / 2, 1 - width / 2, n))
        box = BoxN(midpoint=mid, width=width)
        pts = box.sample(rng, 1000)
        iv = interval_f(f, box)
        values = evaluate_batch(f, pts)
        slack = 1e-12 * (1 + norm1(f))
        violations += int(np.sum((values < iv.lo - slack) | (values > iv.hi + slack)))
        gv = interval_grad_norm(f, box)
        norms = np.abs(gradient_batch(f, pts)).sum(axis=1)
        violations += int(np.sum((norms < gv.lo - slack) | (norms > gv.hi + slack)))
    ok = violations == 0
    _record("03 interval soundness", ok, f"1000 boxes x 1000 samples, {violations} violations")
    assert ok


# --- criterion 4 ------------------------------------------------------------

def test_criterion_04_pv_regressions_and_soundness():
    t0 = time.perf_counter()
    rep_x = pv_subdivide(new_sparse(1, [((1,), 1.0)]), 10)
    ok_x = rep_x.terminated and rep_x.final_count == 2
    rep_line = pv_subdivide(new_sparse(2, [((1, 0), 1.0), ((0, 1), 1.0)]), 10)
    ok_line = rep_line.terminated and rep_line.final_count == 16
    rep_dbl = pv_subdivide(
        new_sparse(1, [((0,), 0.25), ((1,), -1.0), ((2,), 1.0)]), 12
    )
    ok_dbl = not rep_dbl.terminated

    rng = np.random.default_rng(105)
    terminated = 0
    sound = True
    for i in range(100):
        n = 1 if i < 50 else 2
        f = _clamped_support_poly(rng, n, 3 + n, 5, include_simplex=True)
        report = pv_subdivide(f, 10)
        if not report.terminated:
            continue
        terminated += 1
        if not verify_output_boxes(f, report, 128, seed=i):
            sound = False
    elapsed = time.perf_counter() - t0
    ok = ok_x and ok_line and ok_dbl and sound and terminated >= 80 and elapsed < 30.0
    message = _record(
        "04 subdivision regressions + output soundness",
        ok,
        f"X:{rep_x.final_count} X1+X2:{rep_line.final_count} "
        f"flagged:{not rep_dbl.terminated} verified:{terminated}/100",
        elapsed,
    )
    assert ok, message


# --- criterion 5 ------------------------------------------------------------

def test_criterion_05_amortization_inequality():
    rng = np.random.default_rng(106)
    n_samples = 50000
    slack = 1 + 3.0 / math.sqrt(n_samples)
    checked = 0
    violations = 0
    attempts = 0
    while checked < 100 and attempts < 400:
        attempts += 1
        n = int(rng.integers(1, 3))
        f = _clamped_support_poly(
            rng, n, int(rng.integers(2, 9 if n == 1 else 5)), 6, include_simplex=True
        )
        report = pv_subdivide(f, 12)
        if not report.terminated:
            continue
        checked += 1
        estimate = amortization_bound(f, n_samples, seed=checked)
        if report.final_count > estimate * slack:
            violations += 1
    ok = violations == 0 and checked == 100
    _record(
        "05 amortization inequality",
        ok,
        f"{checked} terminated draws, {violations} violations",
    )
    assert ok


# --- criteria 6 and 7 share one sampled univariate suite --------------------

SUITE_SUPPORT = ((0,), (1,), (5,), (13,), (27,), (41,), (54,), (64,))
SUITE_TRIALS = 1000


@pytest.fixture(scope="module")
def univariate_suite():
    suite = {}
    t0 = time.perf_counter()
    for name, dist in (("gaussian", models.Gaussian()), ("uniform", models.Uniform())):
        model = models.RandomModel(n=1, support=SUITE_SUPPORT, dist=dist)
        draws = []
        for i in range(SUITE_TRIALS):
            f = models.sample(model, (2024, i))
            enclosure = global_condition(f, 2e-5)
            kappa_upper = enclosure.upper
            if math.isfinite(kappa_upper):
                eps = min(1e-3, 0.5 / (math.e * f.degree * kappa_upper))
            else:
                eps = 1e-3
            oracle = separation_oracle(f, eps)
            isolation = descartes_isolate(f, max_depth=60)
            reals, _ = oracle_roots(f)
            draws.append(
                {
                    "f": f,
                    "kappa_upper": kappa_upper,
                    "eps": eps,
                    "oracle": oracle,
                    "isolation": isolation,
                    "real_roots": np.sort(reals[np.abs(reals) <= 1.0]),
                }
            )
        suite[name] = {"model": model, "draws": draws}
    suite["build_seconds"] = time.perf_counter() - t0
    return suite


def test_criterion_06_separation_suite(univariate_suite):
    t0 = time.perf_counter()
    violations = 0
    finite_upper = 0
    for name in ("gaussian", "uniform"):
        for draw in univariate_suite[name]["draws"]:
            f, ku, eps = draw["f"], draw["kappa_upper"], draw["eps"]
            oracle = draw["oracle"]
            if oracle.delta < separation_lower_bound(f, ku):
                violations += 1
            if math.isfinite(ku):
                finite_upper += 1
                if oracle.delta_eps < eps_separation_lower_bound(f, ku, eps):
                    violations += 1
    elapsed = univariate_suite["build_seconds"] + (time.perf_counter() - t0)
    ok = violations == 0 and elapsed < 300.0  # the time includes the shared suite
    message = _record(
        "06 separation bounds",
        ok,
        f"2x{SUITE_TRIALS} draws, {violations} violations, {finite_upper} finite enclosures",
        elapsed,
    )
    assert ok, message


def test_criterion_07_descartes_suite(univariate_suite):
    matching_failures = 0
    width_violations = 0
    size_violations = 0
    moment_ok = True
    for name in ("gaussian", "uniform"):
        model = univariate_suite[name]["model"]
        sizes = []
        for draw in univariate_suite[name]["draws"]:
            f, iso = draw["f"], draw["isolation"]
            assert iso.complete
            sizes.append(iso.tree.nodes)
            roots = draw["real_roots"]
            if iso.root_count != len(roots):
                matching_failures += 1
            else:
                for r in roots:
                    hits = sum(
                        1 for lo, hi in iso.intervals if lo - 1e-9 <= r <= hi + 1e-9
                    )
                    hits += sum(1 for e in iso.exact_roots if abs(e - r) <= 1e-9)
                    if hits != 1:
                        matching_failures += 1
                        break
            if max(iso.tree.per_depth) > 4 * f.support_size:
                width_violations += 1
            if iso.tree.nodes > tree_size_bound(f, draw["kappa_upper"]):
                size_violations += 1
        sizes = np.asarray(sizes, dtype=np.float64)
        for k in (1, 2):
            moments = sizes ** k
            mean = float(np.mean(moments))
            stderr = float(np.std(moments, ddof=1) / math.sqrt(len(moments)))
            bound = models.descartes_moment_bound(model, k)
            if mean + 3 * stderr > bound:
                moment_ok = False
    ok = (
        matching_failures == 0
        and width_violations == 0
        and size_violations == 0
        and moment_ok
    )
    _record(
        "07 isolation vs oracle + tree bounds",
        ok,
        f"2x{SUITE_TRIALS} draws, match fails {matching_failures}, "
        f"width viol. {width_violations}, size viol. {size_violations}, "
        f"moments ok {moment_ok}",
    )
    assert ok


# --- criterion 8 ------------------------------------------------------------

def test_criterion_08_tail_bound_experiment():
    t0 = time.perf_counter()
    support = ((0,), (1,), (5,))
    all_pass = True
    details = []
    for name, dist in (("gaussian", models.Gaussian()), ("uniform", models.Uniform())):
        cfg = exps.ExperimentConfig(
            kind="tail",
            model=models.RandomModel(n=1, support=support, dist=dist),
            trials=10000,
            seed=108,
            t_grid=(math.e, 10.0, 100.0),
        )
        report = exps.run_tail_experiment(cfg)
        all_pass = all_pass and report.passed
        survival_100 = report.summary["survival_t=100"]
        details.append(f"{name} P(k>=100)={survival_100['value']:.4f}<=b={survival_100['bound']:.3f}")
    elapsed = time.perf_counter() - t0
    ok = all_pass and elapsed < 60.0
    message = _record("08 local tail bounds", ok, "; ".join(details), elapsed)
    assert ok, message


# --- criterion 9 ------------------------------------------------------------

def test_criterion_09_expected_box_count_experiment():
    cfg = exps.ExperimentConfig(
        kind="pv",
        model=models.RandomModel(
            n=1, support=((0,), (1,), (2,)), dist=models.Gaussian()
        ),
        trials=1000,
        seed=109,
        max_depth=25,
    )
    report = exps.run_pv_experiment(cfg)
    summary = report.summary["mean_final_boxes"]
    ok = (
        report.passed
        and summary["bound"] == 86400.0
        and summary["value"] + 3 * summary["stderr"] <= 86400.0
    )
    _record(
        "09 expected box count",
        ok,
        f"mean {summary['value']:.2f} + 3se <= 86400, excluded {report.excluded}",
    )
    assert ok


# --- criterion 10 -----------------------------------------------------------

def _default_model_zoo():
    g, u = models.Gaussian(), models.Uniform()
    d5 = ((0,), (1,), (5,))
    zoo = [
        ("gaussian d5", models.RandomModel(n=1, support=d5, dist=g)),
        ("uniform d5", models.RandomModel(n=1, support=d5, dist=u)),
        ("gaussian d64", models.RandomModel(n=1, support=SUITE_SUPPORT, dist=g)),
        ("uniform d64", models.RandomModel(n=1, support=SUITE_SUPPORT, dist=u)),
        ("gaussian d2", models.RandomModel(n=1, support=((0,), (1,), (2,)), dist=g)),
        ("weibull p1", models.RandomModel(n=1, support=d5, dist=models.WeibullSymmetric(p=1.0), p=1.0)),
        ("gaussian n2", models.RandomModel(n=2, support=((0, 0), (1, 0), (0, 1), (2, 1)), dist=g)),
        (
            "smoothed",
            models.smoothed_model(
                new_sparse(1, [((0,), 1.0), ((1,), -2.0)]),
                1.0,
                models.RandomModel(n=1, support=d5, dist=g),
            ),
        ),
    ]
    return zoo


def test_criterion_10a_model_constant_floors():
    failures = []
    for name, model in _default_model_zoo():
        c = models.model_constants(model)
        if math.isfinite(c.K) and not c.K * c.rho > (model.n + 1) / 4.0:
            failures.append(f"{name}: K*rho floor")
        if not c.L * c.rho > 9.0 * (model.n + 1) / 50.0:
            failures.append(f"{name}: L*rho floor")
    u = models.model_constants(
        models.RandomModel(n=1, support=((0,), (1,), (5,)), dist=models.Uniform())
    )
    if not u.K * u.rho <= 3 / 2:
        failures.append("uniform example bound")
    ok = not failures
    _record(
        "10a model constant floors + uniform example",
        ok,
        "uniform K*rho = |M|/2 exactly" if ok else "; ".join(failures),
    )
    assert ok


def test_criterion_10b_gaussian_example_constant():
    model = models.RandomModel(
        n=1, support=((0,), (1,), (5,)), dist=models.Gaussian()
    )
    c = models.model_constants(model)
    product = c.K * c.rho
    cap = model.support_size / 2.0
    ok = product <= cap
    _record(
        "10b gaussian example constant K*rho <= |M|/2",
        ok,
        f"K*rho = {product:.4f} vs |M|/2 = {cap:.1f} (= |M|/sqrt(pi) ~ 0.5642|M|)",
    )
    assert ok, (
        f"K*rho = {product:.4f} > |M|/2 = {cap}: the smallest valid constant "
        "K for a standard normal tail P(|x| > t) <= 2 exp(-t^2/K^2), t >= K, "
        "is sqrt(2) (forced by the t -> inf asymptotics), and the density "
        "bound is 1/sqrt(2 pi), so K*rho = |M|/sqrt(pi) > |M|/2 for every "
        "valid choice of constants"
    )
