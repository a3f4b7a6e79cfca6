import itertools
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.polynomial import polynomial as npp

from cubecond import condition
from cubecond import random as models
from cubecond.condition import (
    GRID_WORK_CAP,
    EstimateInapplicableError,
    SupportTooSmallError,
    _kappa_rows,
    dist1_to_sigma_x,
    gamma_bound,
    gamma_exact_univariate,
    global_condition,
    kappa_batch,
    local_condition,
    local_size_bound,
)
from cubecond.interval import BoxN
from cubecond.poly import (
    MAX_POWER_CHAIN,
    _monomial_matrix,
    evaluate,
    gradient,
    new_sparse,
    norm1,
    to_dense,
    value_and_gradient_batch,
)
from helpers import (
    lin_comb,
    random_poly,
    reference_clause,
    reference_dist1,
    reference_global_condition,
)

X = new_sparse(1, [((1,), 1.0)])
QUAD = new_sparse(1, [((2,), 2.0), ((0,), -1.0)])
QUAD3 = new_sparse(1, [((0,), -1.0), ((1,), 0.0), ((2,), 2.0)])  # support {0,1,2}
DOUBLE_ROOT = new_sparse(1, [((0,), 0.25), ((1,), -1.0), ((2,), 1.0)])  # (X-1/2)^2
KAPPA_QUAD_STAR = 3.0 / (math.sqrt(3.0) - 1.0)  # equioscillation point of QUAD


def test_local_condition_examples():
    assert local_condition(X, [0.0]) == 1.0
    assert local_condition(QUAD, [0.0]) == 3.0
    xstar = (math.sqrt(3.0) - 1.0) / 2.0
    assert local_condition(QUAD, [xstar]) == pytest.approx(KAPPA_QUAD_STAR, rel=1e-12)


def test_local_condition_scan_oracle():
    # dense 1-d scan of kappa around the analytic maximiser
    xs = np.arange(0.0, 1.0, 1e-6).reshape(-1, 1)
    scan_max = float(np.max(kappa_batch(QUAD, xs)))
    assert scan_max == pytest.approx(KAPPA_QUAD_STAR, rel=1e-6)


def test_local_condition_rejects_zero_polynomial():
    with pytest.raises(ValueError):
        local_condition(new_sparse(1, []), [0.0])


def test_local_condition_singular_point_is_inf():
    assert math.isinf(local_condition(DOUBLE_ROOT, [0.5]))


SUP_D5 = ((0,), (1,), (5,))
CUBIC2 = tuple((i, j) for i in range(4) for j in range(4 - i))  # m = 10
SPARSE3 = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 1, 0), (0, 2, 2), (1, 1, 1),
           (3, 0, 0), (0, 0, 4), (1, 0, 2))  # m = 10
# model and x0 of each case; the supports with m >= 9 take numpy's pairwise sum in norm1
BATCHED_KAPPA_CASES = {
    "gaussian-n1-origin": (models.RandomModel(1, SUP_D5, models.Gaussian()), (0.0,)),
    "uniform-n1-interior": (models.RandomModel(1, SUP_D5, models.Uniform()), (-0.7,)),
    # no subgaussian K: the tail kind reads tail_bound_local_p
    "weibull-p1.5-corner": (
        models.RandomModel(1, SUP_D5, models.WeibullSymmetric(1.5), p=1.5), (1.0,)
    ),
    "smoothed-n2-interior": (
        models.smoothed_model(
            new_sparse(2, [((0, 0), -0.5), ((2, 1), 1.0)]), 0.2,
            models.RandomModel(2, CUBIC2, models.Gaussian()),
        ),
        (0.25, -0.5),
    ),
    "gaussian-n2-m10-corner": (models.RandomModel(2, CUBIC2, models.Gaussian()), (-1.0, 1.0)),
    "uniform-n3-m10-interior": (
        models.RandomModel(3, SPARSE3, models.Uniform()), (0.3, -0.6, 0.9)
    ),
    "gaussian-n3-m10-corner": (models.RandomModel(3, SPARSE3, models.Gaussian()), (1.0, -1.0, 1.0)),
}


@pytest.mark.parametrize("case", list(BATCHED_KAPPA_CASES))
def test_batched_kappa_has_the_bits_of_local_condition(case):
    model, x0 = BATCHED_KAPPA_CASES[case]
    assert math.isinf(models.model_constants(model).K) == case.startswith("weibull")
    seeds = [(31, i) for i in range(2000)]
    batch = _kappa_rows(model.support, models.sample_batch(model, seeds), x0)
    one = np.array([local_condition(models.sample(model, seed), x0) for seed in seeds])
    assert np.array_equal(batch.view(np.int64), one.view(np.int64))


def test_batched_kappa_on_rows_with_exact_zeros():
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(400, len(CUBIC2)))
    rows[rng.random(rows.shape) < 0.5] = 0.0
    rows[::7, :] *= rng.random((1, len(CUBIC2))) < 0.3  # mostly zero rows, some -0.0
    rows[:4] = 0.0
    rows[0, 0] = 2.0  # a constant: degree clamped to 1
    rows[1, 3] = 1.0  # y^3 alone, singular at the origin
    rows[2, [1, 4]] = [-1.0, 1.0]  # degree 1 although the support has degree 3
    rows[3, 9] = 0.5  # x^3
    rows = rows[np.abs(rows).sum(axis=1) > 0]
    degrees = [new_sparse(2, zip(CUBIC2, row)).degree for row in rows]
    assert {1, 2, 3} <= set(degrees)
    for x0 in ((0.0, 0.0), (0.5, -0.25), (1.0, -1.0), (-1.0, -1.0)):
        batch = _kappa_rows(CUBIC2, rows, x0)
        one = np.array([local_condition(new_sparse(2, zip(CUBIC2, row)), x0) for row in rows])
        assert np.array_equal(batch.view(np.int64), one.view(np.int64))
    assert math.isinf(_kappa_rows(CUBIC2, rows[1:2], (0.0, 0.0))[0])


def test_batched_kappa_refuses_a_zero_row_as_local_condition_does():
    rows = np.array([[1.0, 0.5, 0.25], [0.0, -0.0, 0.0]])
    with pytest.raises(ValueError) as expected:
        local_condition(new_sparse(1, zip(SUP_D5, rows[1])), (0.0,))
    with pytest.raises(ValueError, match=f"^{expected.value}$"):
        _kappa_rows(SUP_D5, rows, (0.0,))


def test_batched_kappa_refuses_a_row_whose_norm_overflows_as_local_condition_does():
    rows = np.array([[1.0, 0.5, 0.25], [1e308] * 3])
    with np.errstate(over="ignore"), pytest.raises(ValueError) as expected:
        local_condition(new_sparse(1, zip(SUP_D5, rows[1])), (0.9,))
    assert str(expected.value) == "norm1(f) = inf is not finite"
    with np.errstate(over="ignore"), pytest.raises(ValueError, match=r"^norm1\(f\) = inf is not finite \(row 1\)$"):
        _kappa_rows(SUP_D5, rows, (0.9,))


@pytest.mark.parametrize("n", [8, 9])
def test_kappa_batch_keeps_the_pairwise_sum_from_eight_variables(n):
    # numpy sums 8 and more entries pairwise, which a fold of the gradient columns misses
    rng = np.random.default_rng(n)
    exponents = rng.integers(0, 3, (40, n)) * (rng.random((40, n)) < 0.3)
    f = new_sparse(n, zip(exponents.tolist(), rng.normal(size=40)))
    X = rng.uniform(-1.0, 1.0, (4097, n))
    values, grads = value_and_gradient_batch(f, X)
    denom = np.maximum(np.abs(values), np.abs(grads).sum(axis=1) / f.degree)
    expected = np.divide(norm1(f), denom, out=np.full_like(denom, np.inf), where=denom > 0.0)
    assert np.array_equal(kappa_batch(f, X).view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("coord", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_local_condition_rejects_non_finite_points(coord):
    with pytest.raises(ValueError, match=re.escape(f"finite point, got [{coord}]")):
        local_condition(QUAD, [coord])


@pytest.mark.parametrize("coord", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "call",
    [
        lambda f, x: kappa_batch(f, [[x]]),
        lambda f, x: gamma_bound(f, [x]),
        lambda f, x: gamma_exact_univariate(f, x),
        lambda f, x: dist1_to_sigma_x(f, [x]),
    ],
    ids=["kappa_batch", "gamma_bound", "gamma_exact_univariate", "dist1_to_sigma_x"],
)
def test_point_functions_share_the_finite_point_rule(call, coord):
    with pytest.raises(ValueError, match=re.escape(f"kappa needs a finite point, got [{coord}]")):
        call(QUAD, coord)


def test_kappa_batch_names_the_first_non_finite_row():
    points = np.array([[0.0, 0.5], [0.25, 0.5], [0.5, math.inf], [math.nan, 0.0]])
    line2 = new_sparse(2, [((1, 0), 1.0), ((0, 1), 1.0)])
    with pytest.raises(ValueError, match=re.escape("got [0.5, inf]")):
        kappa_batch(line2, points)
    assert np.all(kappa_batch(line2, points[:2]) >= 1.0)


def test_kappa_at_least_one_on_cube():
    rng = np.random.default_rng(20)
    for _ in range(60):
        n = int(rng.integers(1, 4))
        f = random_poly(rng, n, 8, 8)
        points = rng.uniform(-1, 1, (100, n))
        assert np.all(kappa_batch(f, points) >= 1.0 - 1e-12)


def test_kappa_scale_invariance():
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(1, 3))
        f = random_poly(rng, n, 6, 6)
        x = rng.uniform(-1, 1, n)
        for c in (2.0, -0.125, 1e4):
            scaled = lin_comb(n, [(c, f)])
            assert local_condition(scaled, x) == pytest.approx(
                local_condition(f, x), rel=1e-12
            )


def test_first_lipschitz_property():
    # g -> norm1(g)/kappa(g, x) is 1-Lipschitz in the coefficient 1-norm
    rng = np.random.default_rng(22)
    for _ in range(40):
        n = int(rng.integers(1, 3))
        f = random_poly(rng, n, 6, 6)
        g = new_sparse(
            n,
            [(alpha, c + rng.normal() * 0.5) for alpha, c in f.terms()],
        )
        x = rng.uniform(-1, 1, n)
        lhs = abs(
            norm1(f) / local_condition(f, x) - norm1(g) / local_condition(g, x)
        )
        diff = lin_comb(n, [(1.0, f), (-1.0, g)])
        assert lhs <= norm1(diff) * (1 + 1e-9) + 1e-12


def test_second_lipschitz_property():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(1, 3))
        f = random_poly(rng, n, 6, 6)
        y0 = rng.uniform(-1, 1, n)
        y1 = rng.uniform(-1, 1, n)
        lhs = abs(1.0 / local_condition(f, y0) - 1.0 / local_condition(f, y1))
        assert lhs <= f.degree * float(np.max(np.abs(y0 - y1))) * (1 + 1e-9) + 1e-12


def test_global_condition_quad_encloses_analytic_value():
    enc = global_condition(QUAD, 1e-4)
    assert enc.lower <= KAPPA_QUAD_STAR <= enc.upper
    assert enc.upper / enc.lower <= 1.01


def test_global_condition_linear():
    # kappa(X, x) = 1 everywhere on the cube: dense scan and enclosure agree
    xs = np.linspace(-1, 1, 200001).reshape(-1, 1)
    assert float(np.max(kappa_batch(X, xs))) == 1.0
    enc = global_condition(X, 1e-3)
    assert enc.lower == 1.0
    assert 1.0 <= enc.upper <= 1.01


def test_global_condition_singular_flags_infinite_upper():
    # grid with spacing 0.02 contains the singular point 1/2
    enc = global_condition(DOUBLE_ROOT, 1e-2)
    assert math.isinf(enc.upper)


def test_global_condition_validates_input():
    with pytest.raises(ValueError):
        global_condition(QUAD, 0.0)
    # n = 4 has no limit of its own: 101^4 grid points x 8 terms exceed the work cap
    f4 = new_sparse(4, [((0, 0, 0, 0), 1.0), ((1, 0, 0, 0), 1.0)])
    points = 101 ** 4
    cap = f"needs {points} grid points; {points} x 8 terms .* exceeds the cap of {GRID_WORK_CAP}"
    with pytest.raises(ValueError, match=cap):
        global_condition(f4, 1e-2)


def test_global_condition_runs_at_n4():
    f = new_sparse(4, [((0, 0, 0, 0), 0.3), ((1, 0, 0, 0), 1.0), ((0, 1, 1, 0), -0.5),
                       ((0, 0, 0, 2), 0.75), ((0, 0, 1, 0), 0.25)])
    enclosure = global_condition(f, 1 / 8)
    grid = np.array(list(itertools.product(np.linspace(-1.0, 1.0, 9), repeat=4)))
    assert enclosure.points_evaluated == len(grid) == 9 ** 4
    assert enclosure.lower == float(np.max(kappa_batch(f, grid)))
    assert 1.0 <= enclosure.lower <= enclosure.upper
    # the finest grid under the cap, 29^4 points, certifies a finite upper end
    fine = global_condition(f, condition._finest_grid_eps(f))
    assert fine.points_evaluated == 29 ** 4
    assert 1.0 <= enclosure.lower <= fine.lower <= fine.upper < math.inf


@pytest.mark.parametrize("n", [4, 5])
def test_inverse_kappa_is_d_lipschitz_past_n3(n):
    # criterion 02a's second Lipschitz check, which it runs at n <= 3; the upper
    # end of global_condition rests on it, so no sampled kappa lies above that end
    rng = np.random.default_rng(400 + n)
    finite = 0
    for _ in range(8):
        f = random_poly(rng, n, 2, n + 3, include_simplex=True)
        X, Y = rng.uniform(-1.0, 1.0, (2, 250, n))
        kx, ky = kappa_batch(f, X), kappa_batch(f, Y)
        gap = np.max(np.abs(X - Y), axis=1)
        assert np.all(np.abs(1.0 / kx - 1.0 / ky) <= f.degree * gap * (1 + 1e-9))
        upper = global_condition(f, condition._finest_grid_eps(f)).upper
        assert np.all(np.concatenate([kx, ky]) <= upper)
        finite += math.isfinite(upper)
    assert finite >= 5


@pytest.mark.parametrize(
    "n, degree, eps", [(2, 7, 1 / 361.5), (1, 999, 1 / 16776.5)], ids=["n2", "n1"]
)
def test_global_condition_grid_cap(n, degree, eps):
    # just over the cap: 363^2 points x 64 terms x 2 and 16778 points x 1000
    # terms x 1, so a missing check would allocate a few hundred MB at most
    f = new_sparse(n, [(alpha, 1.0) for alpha in itertools.product(range(degree + 1), repeat=n)])
    points = (math.ceil(1.0 / eps) + 1) ** n
    assert GRID_WORK_CAP < points * f.support_size * n < 1.01 * GRID_WORK_CAP
    with pytest.raises(ValueError, match=f"needs {points} grid points") as exc:
        global_condition(f, eps)
    # the suggested grid_eps = 1/k fits under the cap
    k = int(re.search(r"grid_eps >= 1/(\d+) fits", str(exc.value)).group(1))
    assert (math.ceil(1.0 / (1.0 / k)) + 1) ** n * f.support_size * n <= GRID_WORK_CAP
    assert (k + 3) ** n * f.support_size * n > GRID_WORK_CAP  # and is not far off


def test_global_condition_charges_the_dense_length_at_n1():
    # two terms, but the n = 1 scan runs Horner over 10^8 + 1 dense coefficients
    f = new_sparse(1, [((10 ** 8,), 1.0), ((0,), -0.5)])
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="no grid_eps fits"):
            global_condition(f, 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_global_condition_charges_the_power_chain_at_n2():
    # three terms, but each point builds x^k for k up to 4 * 10^6: 9 points
    # x 4 * 10^6 + 1 chain steps exceed the cap before anything is evaluated
    f = new_sparse(2, [((4 * 10 ** 6, 0), 1.0), ((0, 1), 1.0), ((0, 0), -0.5)])
    with pytest.raises(ValueError, match=r"needs 9 grid points; 9 x 4000001 terms"):
        global_condition(f, 0.5)
    # a top exponent of 2 * 10^4 still fits: 121 points x 20001
    g = new_sparse(2, [((20000, 0), 1.0), ((0, 1), 1.0), ((0, 0), -0.5)])
    assert global_condition(g, 0.1).points_evaluated == 121


@pytest.mark.parametrize("degree", [MAX_POWER_CHAIN + 1, 10 ** 12])
def test_local_condition_refuses_a_power_chain_past_the_cap(degree):
    # the kernel keeps a byte per power up to x^degree, 10^12 bytes at the top
    # degree here: the cap reads the exponents before any of it is made
    f = new_sparse(1, [((degree,), 1.0), ((0,), -0.5)])
    message = f"^power chain of {degree} exceeds the cap {MAX_POWER_CHAIN}$"
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            local_condition(f, [0.5])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_global_condition_scan_inside_enclosure():
    rng = np.random.default_rng(24)
    for _ in range(10):
        f = random_poly(rng, 1, 12, 6)
        enc = global_condition(f, 1e-3)
        if math.isinf(enc.upper):
            continue
        xs = rng.uniform(-1, 1, (5000, 1))
        scan = float(np.max(kappa_batch(f, xs)))
        assert scan <= enc.upper * (1 + 1e-9)
        # the grid maximum is a genuine lower bound for the true maximum
        assert enc.lower <= enc.upper


@pytest.mark.parametrize("n, eps", [(2, 1 / 40), (3, 1 / 12)])
def test_global_condition_streamed_grid_matches_full_meshgrid(n, eps):
    # the grid is walked one slab at a time; the enclosure must equal the one
    # computed from kappa over every grid point at once, bit for bit
    rng = np.random.default_rng(25 + n)
    # 2 +- x_i has its largest kappa only on the grid face x_i = -+1
    faces = [
        new_sparse(n, [((0,) * n, 2.0), (tuple(int(j == i) for j in range(n)), sign)])
        for i in (0, n - 1) for sign in (1.0, -1.0)
    ]
    for f in faces + [random_poly(rng, n, 5, 7, include_simplex=True) for _ in range(5)]:
        enc = global_condition(f, eps)
        axes = np.linspace(-1.0, 1.0, math.ceil(1.0 / eps) + 1)
        mesh = np.meshgrid(*([axes] * n), indexing="ij")
        lower = float(np.max(kappa_batch(f, np.stack([m.ravel() for m in mesh], axis=1))))
        slack = 1.0 / lower - f.degree * eps
        assert enc.lower == lower
        assert enc.upper == (1.0 / slack if slack > 0.0 else math.inf)


def assert_matches_full_scan(f, eps):
    enc = global_condition(f, eps)
    lower, upper, grid_eps = reference_global_condition(f, eps)
    assert (repr(enc.lower), repr(enc.upper), enc.grid_eps) == (repr(lower), repr(upper), grid_eps)
    return enc


def test_global_condition_matches_full_scan_on_suite_draws():
    # the criteria 06/07 draws: the pruned n = 1 grid keeps the full scan's bits
    # while evaluating a small share of the grid
    support = ((0,), (1,), (5,), (13,), (27,), (41,), (54,), (64,))
    counts = []
    for dist in (models.Gaussian(), models.Uniform()):
        model = models.RandomModel(n=1, support=support, dist=dist)
        for i in range(300):
            counts.append(assert_matches_full_scan(models.sample(model, (2024, i)), 2e-5).points_evaluated)
    assert np.median(counts) <= 0.05 * 50001


def dense_gaussian(degree, seed, scale=1.0):
    coefficients = np.random.default_rng(seed).normal(size=degree + 1) * scale
    return new_sparse(1, [((k,), float(c)) for k, c in enumerate(coefficients)])


@pytest.mark.parametrize("degree", [1, 2, 3, 30, 200, 512])
def test_global_condition_matches_full_scan_dense(degree):
    assert_matches_full_scan(dense_gaussian(degree, 30 + degree), 1e-4)


@pytest.mark.parametrize("scale", [1e-150, 1e150])
def test_global_condition_matches_full_scan_extreme_scales(scale):
    enc = assert_matches_full_scan(dense_gaussian(30, 31, scale), 2e-5)
    assert enc.points_evaluated < 50001  # the allowances scale with the coefficients


def test_global_condition_matches_full_scan_on_a_narrow_well():
    # W = ((x - c)^2 - t^2)^2 + 1e-12 has a local maximum at c and its minima, the
    # grid maximum of kappa, at c -+ t inside the cell about c.  The factor
    # (x - c')^2 + t^4 puts a smaller centre denominator at c', so a bound at c
    # that left out its Taylor remainder would drop the cell of the maximum.
    # c runs through every position of a cell of up to 80 points.
    step = 2.0 ** -10
    t, c_ref = 8 * step, -1.0 + 1527 * step
    for j in range(960, 1040):
        c = -1.0 + j * step
        well = npp.polyadd(npp.polyfromroots([c - t, c - t, c + t, c + t]), [1e-12])
        coefficients = npp.polymul(well, npp.polyadd(npp.polyfromroots([c_ref, c_ref]), [t**4]))
        f = new_sparse(1, [((k,), float(v)) for k, v in enumerate(coefficients)])
        assert_matches_full_scan(f, 2.0 ** -11)


def test_global_condition_matches_full_scan_where_nothing_prunes():
    # kappa(X, x) = 1 on the whole cube: every grid point is evaluated
    assert assert_matches_full_scan(X, 2e-5).points_evaluated == 50001


def test_global_condition_double_root_on_a_grid_point():
    # spacing 2^-10, so 1/2 is a grid point and (X - 1/2)^2 and its derivative vanish there exactly
    enc = assert_matches_full_scan(DOUBLE_ROOT, 2.0 ** -11)
    assert enc.lower == math.inf


def test_global_condition_grid_smaller_than_one_cell():
    for f in (QUAD, DOUBLE_ROOT, dense_gaussian(30, 32)):
        assert assert_matches_full_scan(f, 0.3).points_evaluated <= 5


def test_global_condition_overflowing_derivative_keeps_every_cell():
    # 64 * 1e307 overflows in polyder, so a coefficient sum is not finite and the
    # whole grid is scanned
    f = new_sparse(1, [((64,), 1e307), ((1,), 1.0), ((0,), -0.5)])
    with np.errstate(over="ignore", invalid="ignore"):
        enc = assert_matches_full_scan(f, 2e-5)
    assert enc.points_evaluated == 50001


def test_global_condition_points_evaluated_on_slab_path():
    f = new_sparse(2, [((1, 0), 1.0), ((0, 2), 1.0)])
    assert global_condition(f, 1 / 40).points_evaluated == 41 ** 2


def test_gamma_bound_examples():
    assert gamma_bound(X, [0.0]) == 0.0
    x = 1.0 / math.sqrt(2.0)
    kappa = local_condition(QUAD, [x])
    assert kappa == pytest.approx(3.0 / math.sqrt(2.0), rel=1e-12)
    assert gamma_bound(QUAD, [x]) == pytest.approx(kappa / 2.0, rel=1e-12)
    with pytest.raises(EstimateInapplicableError):
        gamma_bound(QUAD, [0.0])  # value term dominates at 0


def test_gamma_exact_examples():
    assert gamma_exact_univariate(X, 0.7) == 0.0
    assert gamma_exact_univariate(new_sparse(1, [((2,), 1.0)]), 1.0) == 0.5
    # Taylor terms that vanish at x leave the maximum to the others
    assert gamma_exact_univariate(new_sparse(1, [((1,), 1.0), ((4,), 1.0)]), 0.0) == 1.0
    assert gamma_exact_univariate(new_sparse(1, [((1,), 1.0), ((3,), 2.0)]), 0.0) == 2.0 ** 0.5
    assert gamma_exact_univariate(new_sparse(1, [((1,), 1.0), ((2,), 0.0)]), 0.3) == 0.0
    with pytest.raises(ValueError):
        gamma_exact_univariate(new_sparse(1, [((2,), 1.0)]), 0.0)  # f'(0) = 0


def test_gamma_exact_is_scale_invariant_where_the_taylor_coefficients_overflow():
    # gamma is a ratio: the dense vector is scaled, and its Taylor shift never forms the
    # binomial multiples C(j, k) c_j, which overflow at 1e307 or at degree 1100
    f = new_sparse(1, [((1,), 1.0), ((5,), 1.0)])
    scaled = new_sparse(1, [((1,), 1e307), ((5,), 1e307)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gamma_exact_univariate(scaled, 0.3) == pytest.approx(
            gamma_exact_univariate(f, 0.3), rel=1e-15
        )
        tall = new_sparse(1, [((0,), 0.5), ((1,), 1.0), ((1000,), 1.0)])
        assert gamma_exact_univariate(tall, 0.3) == pytest.approx(1.4220, rel=1e-4)
        taller = new_sparse(1, [((0,), 0.5), ((1,), 1.0), ((1100,), 1.0)])
        assert gamma_exact_univariate(taller, 0.3) == pytest.approx(1.4225, rel=1e-4)
        # near |x| = 1 the shifted coefficient C(1100, k) 0.99^(1100 - k) itself overflows
        with pytest.raises(ValueError, match="overflows a float at order 401$"):
            gamma_exact_univariate(taller, 0.99)


def test_gamma_exact_matches_taylor_shift_oracle():
    rng = np.random.default_rng(25)
    for i in range(80):
        dense_degree = int(rng.integers(2, 17))
        exponents = list(range(dense_degree + 1))
        if i >= 40:  # a sparse support in shuffled order, with the top exponent in it
            size = int(rng.integers(1, dense_degree + 1))
            exponents = [*rng.choice(dense_degree, size, replace=False).tolist(), dense_degree]
            rng.shuffle(exponents)
        f = new_sparse(1, [((k,), float(rng.normal())) for k in exponents])
        x = float(rng.uniform(-1, 1))
        # coefficients of f(x + t) in t by composition: b_k = f^(k)(x) / k!
        x_plus_t = np.polynomial.Polynomial([x, 1.0])
        shifted = np.polynomial.Polynomial(to_dense(f))(x_plus_t).coef
        if abs(shifted[1]) < 1e-8:
            continue
        oracle = max(
            (abs(shifted[k]) / abs(shifted[1])) ** (1.0 / (k - 1))
            for k in range(2, len(shifted))
        )
        assert gamma_exact_univariate(f, x) == pytest.approx(oracle, rel=1e-9)


def test_gamma_exact_below_gamma_bound_near_roots():
    rng = np.random.default_rng(26)
    checked = 0
    while checked < 50:
        f = random_poly(rng, 1, 10, 6)
        x = float(rng.uniform(-1, 1))
        fx = abs(evaluate(f, x))
        gx = abs(gradient(f, x)[0])
        if not fx < gx / f.degree:
            continue
        checked += 1
        assert gamma_exact_univariate(f, x) <= gamma_bound(f, x) * (1 + 1e-9)


def test_dist1_examples():
    assert dist1_to_sigma_x(QUAD3, [0.0]) == pytest.approx(1.0, rel=1e-12)
    assert dist1_to_sigma_x(DOUBLE_ROOT, [0.5]) == 0.0


def test_dist1_solves_a_support_past_the_old_subset_cap(monkeypatch):
    # 40 terms at n = 3: 102090 column subsets of size <= 4, which the enumeration refused;
    # the linear program makes one least-squares solve
    support = [alpha for alpha in itertools.product(range(6), repeat=3) if sum(alpha) <= 5][:40]
    f = new_sparse(3, [(alpha, 1.0) for alpha in support])
    solves, lstsq = [], np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *args, **kw: solves.append(1) or lstsq(*args, **kw))
    assert 0.0 < dist1_to_sigma_x(f, [0.1, 0.2, 0.3]) <= norm1(f)
    assert solves == [1]


def test_dist1_matches_the_enumeration_on_a_30_term_support():
    rng = np.random.default_rng(31)
    f = random_poly(rng, 3, 6, 30, include_simplex=True)  # 31930 subsets for the oracle
    x = rng.uniform(-1.0, 1.0, 3)
    assert dist1_to_sigma_x(f, x) == reference_dist1(f, x)[0]


NO_VERTEX = "the 1-norm linear program gave no checked basic solution"


@pytest.mark.parametrize(
    "target, name, value",
    [
        (condition, "_l1_basis", lambda A, b, scale: np.arange(A.shape[1])),
        (np.linalg, "lstsq", lambda a, b, rcond: (np.full(a.shape[1], 2.0),)),
        (condition, "_PIVOTS_PER_COLUMN", 0),
    ],
    ids=["basis_past_n_plus_1", "inconsistent_solution", "pivot_cap"],
)
def test_dist1_refuses_rather_than_falls_back(monkeypatch, target, name, value):
    assert dist1_to_sigma_x(QUAD3, [0.3]) > 0.0
    monkeypatch.setattr(target, name, value)
    with pytest.raises(ValueError, match=NO_VERTEX):
        dist1_to_sigma_x(QUAD3, [0.3])


def test_dist1_phase_one_infeasible_is_support_too_small(monkeypatch):
    # b = (1, 0) is off the span of the one column (0.5, 1) of X at 0.5
    monkeypatch.setattr(
        condition, "value_and_gradient_batch", lambda f, x: (np.ones(1), np.zeros((1, 1)))
    )
    with pytest.raises(SupportTooSmallError, match="support too small: no perturbation"):
        dist1_to_sigma_x(X, [0.5])


HUGE = new_sparse(1, [((0,), 1e308), ((1,), 1e308), ((2,), 1e308)])  # norm1 overflows


@pytest.mark.parametrize(
    "call",
    [
        lambda: dist1_to_sigma_x(HUGE, [0.0]),
        lambda: dist1_to_sigma_x(HUGE, [0.9]),
        lambda: local_condition(HUGE, [0.9]),
        lambda: global_condition(HUGE, 0.1),
    ],
    ids=["dist1_at_0", "dist1_at_0.9", "local_condition", "global_condition"],
)
def test_an_overflowing_coefficient_norm_is_refused(call):
    with np.errstate(over="ignore"), pytest.raises(ValueError, match=r"norm1\(f\) = inf is not"):
        call()


def test_dist1_refuses_an_overflowing_derivative():
    # norm1 is finite, but 64 * 1e307 * 0.99^63 overflows in the derivative row of b
    f = new_sparse(1, [((64,), 1e307), ((1,), 1.0), ((0,), -0.5)])
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="dist1 needs a finite system"):
        dist1_to_sigma_x(f, [0.99])


def test_dist1_never_imports_scipy_optimize():
    # importing it costs about 24 MB of peak RSS, which rules out a HiGHS solve
    code = (
        "import sys, cubecond.cli\n"
        "from cubecond import condition, poly\n"
        "f = poly.new_sparse(2, [((0, 0), 1.0), ((1, 0), -2.0), ((1, 1), 0.5)])\n"
        "assert condition.dist1_to_sigma_x(f, [0.3, -0.4]) > 0.0\n"
        "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize was imported'\n"
    )
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def _dist1_draws(rng, count, point, include_simplex):
    for _ in range(count):
        n, m = int(rng.integers(1, 4)), int(rng.integers(2, 9))
        yield random_poly(rng, n, 7, m, include_simplex=include_simplex), point(rng, n)


def _backward_error(A, b, columns):
    """max over the rows of |A_S delta - b| / (|A_S| |delta| + |b|) for the least-squares
    delta on the columns S, 0 on a row that is zero throughout."""
    sub = A[:, list(columns)]
    delta = np.linalg.lstsq(sub, b, rcond=None)[0]
    scale = np.abs(sub) @ np.abs(delta) + np.abs(b)
    error = np.abs(sub @ delta - b)
    return float(np.divide(error, scale, out=np.zeros_like(error), where=scale > 0.0).max())


def _against_enumeration(f, x):
    """(lp, oracle), after checking what may set them apart.  The LP returns one of the
    enumeration's candidates, so it is never below the minimum.  Where it is above by more
    than rounding, the enumeration's winner is either no exact solution (it passes the loose
    check on rows far below the scale of the system) or the LP's own vertex plus zero
    columns, whose least-squares solve rounds differently."""
    lp = dist1_to_sigma_x(f, x)
    oracle, subset, _ = reference_dist1(f, x)
    assert lp >= oracle, (f.terms(), x)
    if lp - oracle > 1e-12 * oracle:
        point = condition._finite_points(f, x)
        A, b = _monomial_matrix(f, point), np.append(*value_and_gradient_batch(f, point))
        basis = condition._l1_basis(A, b, float(np.abs(A).max() + np.abs(b).sum()))
        vertex = [j for j in subset if A[:, j].any()]
        assert _backward_error(A, b, subset) > 1e-12 or vertex == basis.tolist(), (f.terms(), x)
    return lp, oracle


def _uniform_point(rng, n):
    return rng.uniform(-1.0, 1.0, n)


def test_dist1_has_the_enumeration_bits_at_generic_points():
    # with {1, X_i} in the support every draw keeps the enumeration's bits; without, a point
    # near a coordinate hyperplane can let a loosely checked subset win the enumeration
    rng = np.random.default_rng(32)
    apart = 0
    for simplex in (True, False):
        for f, x in _dist1_draws(rng, 300, _uniform_point, simplex):
            lp, oracle = _against_enumeration(f, x)
            assert lp == oracle or not simplex, (f.terms(), x)
            apart += lp != oracle
    assert apart <= 6


def _degenerate_point(rng, n):
    if rng.integers(2):
        return rng.choice([-1.0, 0.0, 0.5, 1.0], n)
    x = rng.uniform(-1.0, 1.0, n)
    x[rng.integers(n)] = 0.0
    return x


def test_dist1_is_never_below_the_enumeration_at_degenerate_points():
    rng = np.random.default_rng(33)
    apart = 0
    for simplex in (True, False):
        for f, x in _dist1_draws(rng, 500, _degenerate_point, simplex):
            lp, oracle = _against_enumeration(f, x)
            apart += lp - oracle > 1e-12 * oracle
    assert apart <= 10


def test_dist1_declared_change_at_a_degenerate_point():
    # the enumeration accepted subset (1, 4) with a residual of 8.0e-10 against its
    # tolerance of 1.7e-9; the exact vertex (1, 2, 4) is what the LP returns
    coeffs = "-0x1.62b77a778b6e0p+0 -0x1.4baa38db77abdp-1 0x1.d87abe223094bp-7 " \
        "0x1.17cf60e249207p+0 0x1.78ff907dce00ep-5 -0x1.1b7cb1d1b368cp+0 -0x1.a64ebc085492dp-1"
    support = [(4, 0), (1, 1), (3, 0), (0, 4), (1, 0), (2, 1), (2, 2)]
    f = new_sparse(2, list(zip(support, map(float.fromhex, coeffs.split()))))
    x = [float.fromhex("0x1.09a7c8ed6b200p-8"), 0.0]
    oracle, subset, residual = reference_dist1(f, x)
    assert subset == (1, 4) and residual == pytest.approx(8.0e-10, rel=0.01)
    assert oracle == pytest.approx(0.69829, rel=1e-5)
    assert dist1_to_sigma_x(f, x) == pytest.approx(0.70429, rel=1e-5)


def test_dist1_zeroing_the_polynomial_is_always_feasible():
    # delta = f satisfies the constraint system by construction, so the
    # distance never exceeds norm1(f); for f = X at x = 0 it is exactly that
    f = new_sparse(1, [((1,), 1.0)])
    assert dist1_to_sigma_x(f, [0.0]) == pytest.approx(1.0, rel=1e-12)
    rng = np.random.default_rng(29)
    for _ in range(30):
        n = int(rng.integers(1, 3))
        g = random_poly(rng, n, 5, 5)
        x = rng.uniform(-1, 1, n)
        assert dist1_to_sigma_x(g, x) <= norm1(g) * (1 + 1e-9)


def test_condition_number_sandwich():
    # left side: norm1/dist <= kappa always.  The right side holds with the
    # constant 1 + 2d for supports containing {1, X_1, ..., X_n}: the centred
    # interpolant f(x) + grad(x) . (X - x) is singular-at-x and its norm is
    # at most |f(x)| + 2 * norm1(grad).  The tighter constant 1 + d is valid
    # at x = 0 but fails for generic x (see the acceptance suite).
    rng = np.random.default_rng(27)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        f = random_poly(rng, n, 6, min(8, n + 4), include_simplex=True)
        x = rng.uniform(-1, 1, n)
        dist = dist1_to_sigma_x(f, x)
        if dist == 0.0:
            continue
        kappa = local_condition(f, x)
        ratio = norm1(f) / dist
        assert ratio <= kappa * (1 + 1e-9)
        assert kappa <= (1 + 2 * f.degree) * ratio * (1 + 1e-9)


def test_condition_number_sandwich_tight_constant_at_origin():
    rng = np.random.default_rng(30)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        f = random_poly(rng, n, 6, min(8, n + 4), include_simplex=True)
        x = np.zeros(n)
        dist = dist1_to_sigma_x(f, x)
        if dist == 0.0:
            continue
        kappa = local_condition(f, x)
        assert kappa <= (1 + f.degree) * norm1(f) / dist * (1 + 1e-9)


def test_local_size_bound_examples():
    assert local_size_bound(X, [0.0]) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
    assert local_size_bound(DOUBLE_ROOT, [0.5]) == 0.0
    for n in (2, 3):  # kappa = inf at a singular zero, so (d sqrt(2n) kappa)^-n = 0
        sphere = new_sparse(n, [(tuple(2 * (j == i) for j in range(n)), 1.0) for i in range(n)])
        assert local_size_bound(sphere, [0.0] * n) == 0.0


def _dyadic_boxes(n, max_depth):
    for depth in range(max_depth + 1):
        width = 2.0 * 2.0 ** -depth
        cells = [
            -1.0 + width / 2 + width * k for k in range(2 ** depth)
        ]
        for mid in itertools.product(cells, repeat=n):
            yield BoxN(midpoint=mid, width=width)


def test_local_size_bound_is_a_local_size_bound():
    # every dyadic box through x on which the predicate fails has volume
    # at least the bound at x
    rng = np.random.default_rng(28)
    polys = [QUAD, random_poly(rng, 2, 3, 5), random_poly(rng, 1, 5, 4)]
    for f in polys:
        for box in _dyadic_boxes(f.n, 6):
            if reference_clause(f, box) is not None:
                continue
            for x in box.sample(rng, 8):
                assert box.width ** f.n >= local_size_bound(f, x) * (1 - 1e-9)
