import gc
import itertools
import math
import random
import re
import weakref
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as npp

from cubecond import random as models
from cubecond import condition, univariate
from cubecond.condition import global_condition
from cubecond.poly import new_sparse, to_dense
from cubecond.univariate import (
    HypothesisViolatedError,
    OracleFailedError,
    descartes_isolate,
    eps_separation_lower_bound,
    js_condition_bound,
    oracle_roots,
    separation_lower_bound,
    separation_oracle,
    sign_variations,
    tree_size_bound,
)
from helpers import random_poly, reference_descartes

X = new_sparse(1, [((1,), 1.0)])
QUAD = new_sparse(1, [((2,), 2.0), ((0,), -1.0)])
SUITE_SUPPORT = ((0,), (1,), (5,), (13,), (27,), (41,), (54,), (64,))


def suite_draws(count):
    """The criteria 06/07 fixture's first draws, alternating the two models."""
    suite_models = [
        models.RandomModel(n=1, support=SUITE_SUPPORT, dist=dist)
        for dist in (models.Gaussian(), models.Uniform())
    ]
    return [models.sample(suite_models[i % 2], (2024, i // 2)) for i in range(count)]


def eight_term_draws(degree, count, seed):
    """Gaussian draws on supports {0, 1, five random interior exponents, degree}."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(count):
        inner = sorted(int(k) for k in rng.choice(np.arange(2, degree), 5, replace=False))
        support = [(0,), (1,)] + [(k,) for k in inner] + [(degree,)]
        draws.append(new_sparse(1, list(zip(support, rng.normal(size=8)))))
    return draws


def assert_residuals_meet_target(dense, roots, tol=1e-12):
    dense = np.asarray(dense, dtype=np.float64)
    degree = int(np.flatnonzero(dense)[-1])
    assert len(roots) == degree
    target = tol * np.abs(dense).sum() * np.maximum(1.0, np.abs(roots)) ** degree
    assert np.all(np.abs(npp.polyval(roots, dense)) <= target)


def nested_loop_shift(c):
    """Reference for p(x + 1): the synthetic additions as a double loop."""
    c = list(c)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += c[j + 1]
    return c


def polyval_horner(dense, x):
    """Reference for ``poly._horner``: numpy's polyval."""
    return npp.polyval(x, dense)


def test_sign_variations_examples():
    assert sign_variations([1, -3, 2]) == 2
    assert sign_variations([0, 0, 5]) == 0
    assert sign_variations([1, 0, -1, 1]) == 2


def test_isolate_linear():
    res = descartes_isolate(X)
    assert res.complete
    assert res.tree.depth <= 2
    assert res.root_count == 1
    if res.intervals:
        lo, hi = res.intervals[0]
        assert lo <= 0.0 <= hi
    else:
        assert res.exact_roots == [0.0]


def test_isolate_quadratic():
    res = descartes_isolate(QUAD)
    r = 1.0 / math.sqrt(2.0)
    assert res.complete and len(res.intervals) == 2 and not res.exact_roots
    (a1, b1), (a2, b2) = res.intervals
    assert a1 <= -r <= b1
    assert a2 <= r <= b2


def test_isolate_close_rational_roots():
    # (X - 1/4)(X - 1/3), separation 1/12
    f = new_sparse(1, [((2,), 1.0), ((1,), -7.0 / 12.0), ((0,), 1.0 / 12.0)])
    res = descartes_isolate(f)
    assert res.complete and len(res.intervals) == 2
    (a1, b1), (a2, b2) = res.intervals
    assert a1 <= 0.25 <= b1 and a2 <= 1.0 / 3.0 <= b2
    assert b1 <= a2
    assert res.tree.depth <= 8  # log2(12) ~ 3.6 plus two-circle slack


def test_isolate_exact_bisection_roots():
    # x^3 - x/4 has roots -1/2, 0, 1/2: the first bisection hits 0 exactly, and
    # the nodes [-1, 0] and [0, 1] have a zero end, so they split and hit -+1/2
    f = new_sparse(1, [((3,), 1.0), ((1,), -0.25)])
    res = descartes_isolate(f)
    assert res.complete
    assert res.exact_roots == [-0.5, 0.0, 0.5]
    assert res.intervals == []

    # (x - 1/4)(x - 1/2)(x - 3/4): the second-level bisection hits 1/2, and the
    # nodes next to it split until 1/4 and 3/4 are bisection points too
    g = new_sparse(
        1, [((3,), 1.0), ((2,), -1.5), ((1,), 0.6875), ((0,), -0.09375)]
    )
    res_g = descartes_isolate(g)
    assert res_g.complete
    assert res_g.exact_roots == [0.25, 0.5, 0.75]
    assert res_g.intervals == []


def test_isolate_endpoint_roots():
    f = new_sparse(1, [((2,), 1.0), ((0,), -1.0)])  # roots exactly -1 and 1
    res = descartes_isolate(f)
    assert res.exact_roots == [-1.0, 1.0]
    assert res.intervals == []


def test_isolate_interval_next_to_exact_root_keeps_sign_change():
    # roots 0 (exact bisection hit) and 0.3
    f = new_sparse(1, [((2,), 1.0), ((1,), -0.3)])
    res = descartes_isolate(f)
    assert 0.0 in res.exact_roots
    assert len(res.intervals) == 1
    lo, hi = res.intervals[0]
    assert lo > 0.0 and lo <= 0.3 <= hi
    dense = to_dense(f)
    assert npp.polyval(lo, dense) * npp.polyval(hi, dense) < 0.0


def test_isolate_validation():
    with pytest.raises(ValueError):
        descartes_isolate(new_sparse(2, [((0, 0), 1.0), ((1, 0), 1.0)]))
    with pytest.raises(ValueError):
        descartes_isolate(new_sparse(1, []))


@pytest.mark.parametrize("degree", [univariate.MAX_DENSE_DEGREE + 1, 10 ** 12])
@pytest.mark.parametrize("solve", [descartes_isolate, oracle_roots,
                                   lambda f: separation_oracle(f, 1e-3)],
                         ids=["descartes_isolate", "oracle_roots", "separation_oracle"])
def test_dense_cap_refuses_before_any_conversion(degree, solve):
    # 10^12 + 1 dense coefficients would take 8 TB: the cap reads the degree first
    f = new_sparse(1, [((degree,), 1.0), ((0,), -0.5)])
    message = f"^degree {degree} exceeds the dense cap {univariate.MAX_DENSE_DEGREE}$"
    with pytest.raises(ValueError, match=message):
        solve(f)


@pytest.mark.parametrize("max_depth", [2.5, 2.0, True, 0, 101])
def test_isolate_rejects_a_max_depth_that_is_not_an_integer_in_range(max_depth):
    # the guard stops a branch at depth == max_depth, which 2.5 never equals: on
    # (X - 1/3)^2 the tree would run to depth 29 and report complete=True
    f = new_sparse(1, [((0,), 1.0 / 9.0), ((1,), -2.0 / 3.0), ((2,), 1.0)])
    message = rf"max_depth must be an integer in \[1, 100\], got {re.escape(repr(max_depth))}$"
    with pytest.raises(ValueError, match=message):
        descartes_isolate(f, max_depth=max_depth)


def test_isolate_incomplete_for_double_root():
    # (X - 1/3)^2: the double root never sits on a dyadic bisection point,
    # so the variation count stays >= 2 until the depth guard fires
    f = new_sparse(1, [((0,), 1.0 / 9.0), ((1,), -2.0 / 3.0), ((2,), 1.0)])
    res = descartes_isolate(f, max_depth=12)
    assert not res.complete
    assert res.unresolved


def test_isolation_matches_roots_oracle():
    # companion-matrix roots (numpy) are an independent reference
    rng = np.random.default_rng(51)
    for _ in range(60):
        f = random_poly(rng, 1, 24, 6, include_simplex=True)
        res = descartes_isolate(f, max_depth=60)
        assert res.complete
        dense = to_dense(f)
        roots = np.roots(dense[::-1])
        real = roots[np.abs(roots.imag) <= 1e-9 * np.maximum(1.0, np.abs(roots))]
        inside = sorted(float(r.real) for r in real if abs(r.real) <= 1.0)
        assert res.root_count == len(inside)
        for r in inside:
            hits = sum(1 for lo, hi in res.intervals if lo - 1e-9 <= r <= hi + 1e-9)
            hits += sum(1 for e in res.exact_roots if abs(e - r) <= 1e-9)
            assert hits == 1
        # every interval traps a sign change
        for lo, hi in res.intervals:
            assert npp.polyval(lo, dense) * npp.polyval(hi, dense) < 0.0
        # intervals are pairwise disjoint (touching endpoints allowed)
        for (a1, b1), (a2, b2) in zip(res.intervals, res.intervals[1:]):
            assert b1 <= a2


def test_tree_size_bound_values():
    f3 = new_sparse(1, [((0,), 1.0), ((1,), 1.0), ((2,), 1.0)])
    expected = 8.0 * 3 * (math.log2(4.1) + math.log2(2) + 1.0)
    assert tree_size_bound(f3, 4.1) == pytest.approx(expected, rel=1e-12)
    f2 = new_sparse(1, [((0,), 1.0), ((1,), 1.0)])
    assert tree_size_bound(f2, 1.0) == 16.0
    assert math.isinf(tree_size_bound(f2, math.inf))
    assert tree_size_bound(f3, math.inf) == math.inf


def test_tree_size_bound_holds_on_random_draws():
    rng = np.random.default_rng(52)
    for _ in range(60):
        f = random_poly(rng, 1, 32, 5, include_simplex=True)
        res = descartes_isolate(f, max_depth=60)
        enc = global_condition(f, 1e-4)
        assert res.tree.nodes <= tree_size_bound(f, enc.upper)


def test_separation_lower_bound_values():
    assert separation_lower_bound(QUAD, 4.1) == pytest.approx(
        2.0 * math.sqrt(2.0) / (2.0 * math.sqrt(4.1)), rel=1e-12
    )
    assert separation_lower_bound(QUAD, math.inf) == 0.0
    assert separation_lower_bound(X, math.inf) == 0.0
    # the bound is indeed below the true separation sqrt(2)
    assert separation_lower_bound(QUAD, 4.1) < math.sqrt(2.0)


def test_eps_separation_bound_values():
    assert eps_separation_lower_bound(QUAD, 4.1, 1e-3) == pytest.approx(
        1.0 / (12.0 * 2.0 * 4.1), rel=1e-12
    )
    with pytest.raises(HypothesisViolatedError):
        eps_separation_lower_bound(QUAD, 4.1, 0.2)


@pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -1.0])
def test_eps_separation_bound_rejects_eps_outside_zero_to_inf(eps):
    # a malformed eps is an input error, not a hypothesis the bound leaves open
    with pytest.raises(ValueError, match=f"eps must be positive and finite, got {eps}") as info:
        eps_separation_lower_bound(QUAD, 4.1, eps)
    assert not isinstance(info.value, HypothesisViolatedError)


def test_separation_oracle_quadratic():
    est = separation_oracle(QUAD, 0.01)
    assert est.delta == pytest.approx(math.sqrt(2.0), rel=1e-9)
    assert est.delta_eps == pytest.approx(math.sqrt(2.0), rel=1e-9)


@pytest.mark.parametrize("eps", [0.0, -1e-3, math.nan, math.inf, -math.inf])
def test_separation_oracle_rejects_eps_outside_zero_to_inf(eps):
    with pytest.raises(ValueError, match=f"eps must be positive and finite, got {eps}"):
        separation_oracle(QUAD, eps)


def test_separation_oracle_single_root():
    est = separation_oracle(X, 0.01)
    assert math.isinf(est.delta) and math.isinf(est.delta_eps)
    assert univariate._min_pairwise([]) == univariate._min_pairwise([0.5]) == math.inf


@pytest.mark.parametrize("c", [3.0, -0.5, 1e-300, 5e-324, 1e300])
@pytest.mark.parametrize("zero_terms", [(), (((4,), 0.0),)], ids=["bare", "zero-padded"])
def test_constants_have_no_roots_and_one_node(c, zero_terms):
    f = new_sparse(1, [((0,), c), *zero_terms])
    reals, complexes = oracle_roots(f)
    assert reals.dtype == np.float64 and reals.shape == (0,) and not reals.flags.writeable
    assert complexes.dtype == np.complex128 and complexes.shape == (0,)
    for eps in (1e-3, 0.1, 2.0):
        assert separation_oracle(f, eps) == univariate.SeparationEstimate(
            math.inf, math.inf, eps, sweeps=0
        )
    res = descartes_isolate(f)
    assert (res.intervals, res.exact_roots, res.unresolved) == ([], [], [])
    assert res.complete and res.root_count == 0
    assert (res.tree.nodes, res.tree.depth, res.tree.per_depth) == (1, 0, [1])


def test_separation_oracle_complex_pair_outside_strip():
    # (X - 0.1)(X - 0.2)(X^2 + 1): real separation 0.1, the complex pair +-i
    # stays outside the 0.05-neighbourhood of the interval
    f = new_sparse(
        1,
        [((4,), 1.0), ((3,), -0.3), ((2,), 1.02), ((1,), -0.3), ((0,), 0.02)],
    )
    est = separation_oracle(f, 0.05)
    assert est.delta == pytest.approx(0.1, rel=1e-7)
    assert est.delta_eps == pytest.approx(0.1, rel=1e-7)


def test_separation_oracle_sees_close_complex_pair():
    # (X^2 + 1e-4): conjugate pair at +-0.01i enters the strip at eps = 0.02
    f = new_sparse(1, [((2,), 1.0), ((1,), 0.0), ((0,), 1e-4)])
    est = separation_oracle(f, 0.02)
    assert math.isinf(est.delta)
    assert est.delta_eps == pytest.approx(0.02, rel=1e-6)


def test_aberth_agrees_with_companion_roots():
    rng = np.random.default_rng(53)
    for _ in range(30):
        deg = int(rng.integers(2, 40))
        dense = rng.normal(0, 1, deg + 1)
        dense[-1] += math.copysign(0.2, dense[-1])  # keep the lead coefficient away from 0
        mine = univariate._aberth(dense)[0]
        ref = np.roots(dense[::-1])
        # order-robust symmetric matching: ties in sort order between
        # conjugates make elementwise comparison fragile
        scale = 1e-6 * (1 + np.max(np.abs(ref)))
        assert np.max(np.min(np.abs(mine[:, None] - ref[None, :]), axis=1)) <= scale
        assert np.max(np.min(np.abs(ref[:, None] - mine[None, :]), axis=1)) <= scale


def test_oracle_real_count_agrees_with_companion_on_suite_support():
    # sparse degree 64 spreads the root moduli, where the start points matter;
    # companion-matrix eigenvalues are an independent reference
    sweeps = []
    for f in suite_draws(100):
        sweeps.append(separation_oracle(f, 1e-3).sweeps)
        reals, _ = oracle_roots(f)
        mine = np.sort(reals[np.abs(reals) <= 1.0])
        roots = np.roots(to_dense(f)[::-1])
        real = roots[np.abs(roots.imag) <= 1e-8 * np.maximum(1.0, np.abs(roots))].real
        ref = np.sort(real[np.abs(real) <= 1.0])
        assert len(mine) == len(ref)
        assert np.max(np.abs(mine - ref), initial=0.0) <= 1e-6
    # one start circle of radius 1 + max|c_k|/|c_D| took a median of 42 sweeps
    assert np.median(sweeps) <= 15 and max(sweeps) <= 30


@pytest.mark.parametrize(
    "dense",
    [
        [-1.0, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0, 0.0, 2.0],  # interior zeros
        [0.0, 0.0, -1.0, 0.0, 1.0, 0.0, 0.0],  # double root at 0, zero leading terms
        [3.0, -2.0],  # degree 1
        [1.0, 0.0, 1.0],  # degree 2, roots +-i
        [-2.0, 0.0, 1.0],  # degree 2, roots +-sqrt(2)
    ],
)
def test_aberth_edge_cases_meet_residual_target(dense):
    roots = univariate._aberth(dense)[0]
    assert_residuals_meet_target(dense, roots)
    ref = np.roots(np.trim_zeros(np.asarray(dense[::-1]), "f"))
    assert np.max(np.min(np.abs(roots[:, None] - ref[None, :]), axis=1)) <= 1e-6


@pytest.mark.parametrize(
    "dense, moduli",
    [
        # roots near -1e-250 and -1e20: one start circle each
        ([1e-250, 1.0, 1e-20], [1e-250, 1e20]),
        # 10 roots on the unit circle, 54 of modulus 1e210^(1/54) ~ 7.7e3
        ([-1.0] + [0.0] * 9 + [1.0] + [0.0] * 53 + [1e-210],
         [1.0] * 10 + [10.0 ** (210 / 54)] * 54),
    ],
)
def test_aberth_coefficients_spanning_200_orders(dense, moduli):
    # np.roots is no reference here: the companion matrix holds 1e210-sized entries
    roots = univariate._aberth(dense)[0]
    assert_residuals_meet_target(dense, roots)
    assert np.sort(np.abs(roots)) == pytest.approx(moduli, rel=1e-9)


def test_aberth_origin_roots_are_exact():
    roots = univariate._aberth([0.0, 0.0, -1.0, 0.0, 1.0, 0.0, 0.0])[0]
    assert np.count_nonzero(roots == 0.0) == 2
    assert np.sort(roots[roots != 0.0].real) == pytest.approx([-1.0, 1.0], abs=1e-12)


def test_aberth_sweep_guard_still_raises(monkeypatch):
    dense = to_dense(suite_draws(1)[0])
    assert_residuals_meet_target(dense, univariate._aberth(dense)[0])
    monkeypatch.setattr(univariate, "_ABERTH_MAX_SWEEPS", 1)
    with pytest.raises(OracleFailedError):
        univariate._aberth(dense)


def test_horner_matches_polyval_on_aberth_iterates(monkeypatch):
    calls = []
    horner = univariate._horner

    def recorded(dense, x):
        calls.append((dense, np.copy(x)))
        return horner(dense, x)

    monkeypatch.setattr(univariate, "_horner", recorded)
    univariate._aberth(to_dense(suite_draws(1)[0]))
    assert len(calls) > 10
    for dense, x in calls:
        assert x.dtype == np.complex128
        assert np.abs(horner(dense, x)).tobytes() == np.abs(npp.polyval(x, dense)).tobytes()


def test_accumulate_shift_matches_nested_loop_reference():
    rng = random.Random(55)
    for size in range(1, 131):
        bits = rng.randrange(1, 400)
        c = [rng.getrandbits(bits) - (1 << (bits - 1)) for _ in range(size)]
        assert univariate._int_shift_by_one(c) == nested_loop_shift(c)
    assert univariate._int_shift_by_one([]) == []


def test_max_coefficient_bits_is_the_largest_node_coefficient(monkeypatch):
    assert descartes_isolate(X).max_coefficient_bits == 1  # root image 1 - x
    # a constant is one node whose image is its odd part: 3 has two bits
    assert descartes_isolate(new_sparse(1, [((0,), 3.0)])).max_coefficient_bits == 2
    nodes = []
    count = univariate.sign_variations

    def recorded(image):
        nodes.append(image)
        return count(image)

    monkeypatch.setattr(univariate, "sign_variations", recorded)
    for f in suite_draws(6):
        nodes.clear()
        res = descartes_isolate(f, max_depth=60)
        assert len(nodes) == res.tree.nodes
        assert res.max_coefficient_bits == max(abs(v).bit_length() for c in nodes for v in c)


def root_products():
    """Products of linear factors, dyadic (exact roots at bisection points and at
    +-1) and not, each also with its first factor doubled (depth guard)."""
    roots = (-1.0, -0.75, -0.5, 0.0, 0.125, 0.5, 1.0, 1.0 / 3.0, -0.6)
    products = []
    for k in range(1, 5):
        for combo in itertools.combinations(roots, k):
            for factors in (combo, combo + combo[:1]):
                dense = npp.polyfromroots(factors)
                products.append(new_sparse(1, [((j,), c) for j, c in enumerate(dense)]))
    return products


def test_image_trees_match_the_power_basis_reference():
    cases = [(f, 60) for f in suite_draws(80) + eight_term_draws(512, 3, 512)]
    cases += [(f, 8) for f in root_products()]
    trees = []
    for f, max_depth in cases:
        res = descartes_isolate(f, max_depth=max_depth)
        trees.append((res.intervals, res.exact_roots, res.tree.per_depth, res.complete,
                      res.unresolved))
        assert trees[-1] == reference_descartes(f, max_depth)
    assert {-1.0, 0.0, 0.125, 1.0} <= {r for tree in trees for r in tree[1]}
    assert any(not tree[3] for tree in trees)


def exact_value(f, x):
    """f(x) as a Fraction: float coefficients and points are dyadic rationals."""
    x = Fraction(x)
    return sum(Fraction(c) * x ** alpha[0] for alpha, c in f.terms())


def test_every_interval_has_a_strict_sign_change_in_exact_arithmetic():
    cases = [(f, 60) for f in suite_draws(200) + eight_term_draws(512, 8, 512)]
    cases += [(f, 8) for f in root_products()]
    intervals = 0
    for f, max_depth in cases:
        for lo, hi in descartes_isolate(f, max_depth=max_depth).intervals:
            assert exact_value(f, lo) * exact_value(f, hi) < 0
            intervals += 1
    assert intervals > 200


def test_a_split_costs_two_exact_shifts(monkeypatch):
    calls = []
    shift = univariate._int_shift_by_one

    def counted(c):
        calls.append(1)
        return shift(c)

    monkeypatch.setattr(univariate, "_int_shift_by_one", counted)
    internal_total = 0
    for f in suite_draws(40):
        calls.clear()
        internal = (descartes_isolate(f, max_depth=60).tree.nodes - 1) // 2
        internal_total += internal
        assert len(calls) == 2 + 2 * internal  # the root map and root image, two per split
    assert internal_total > 0


def fixture_records(draws):
    records = []
    for f in draws:
        enclosure = global_condition(f, 2e-5)
        reals, complexes = oracle_roots(f)
        sweeps = separation_oracle(f, 1e-3).sweeps
        iso = descartes_isolate(f, max_depth=60)
        records.append(repr((
            enclosure.lower, enclosure.upper, reals.tobytes(), complexes.tobytes(), sweeps,
            iso.intervals, iso.exact_roots, iso.tree.per_depth, iso.max_coefficient_bits,
        )))
    return records


def test_fixture_draws_match_polyval_and_nested_loop_reference(monkeypatch):
    # the first 40 draws of each fixture model; every number bit for bit
    fast = fixture_records(suite_draws(80))
    monkeypatch.setattr(univariate, "_horner", polyval_horner)
    monkeypatch.setattr(condition, "_horner", polyval_horner)
    monkeypatch.setattr(univariate, "_int_shift_by_one", nested_loop_shift)
    reference = fixture_records(suite_draws(80))
    assert fast == reference


def count_solves(monkeypatch):
    calls = []
    solve = univariate._aberth

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(univariate, "_aberth", counted)
    return calls


def test_root_cache_solves_once_per_polynomial(monkeypatch):
    calls = count_solves(monkeypatch)
    f = suite_draws(1)[0]
    est = separation_oracle(f, 1e-3)
    reals, complexes = oracle_roots(f)
    assert len(calls) == 1
    assert est.sweeps > 0
    assert reals.size + complexes.size == 64
    # an equal but distinct object is solved on its own, to the same sweep count
    assert separation_oracle(new_sparse(1, f.terms()), 1e-3).sweeps == est.sweeps
    assert len(calls) == 2


def test_root_cache_returns_read_only_arrays():
    f = suite_draws(1)[0]
    for values in oracle_roots(f):
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[:1] = 0.0


def test_root_cache_entry_dies_with_polynomial():
    f = new_sparse(1, [((3,), 1.0), ((1,), -0.25)])
    oracle_roots(f)
    ref = weakref.ref(f)
    assert f in univariate._ROOT_CACHE
    size = len(univariate._ROOT_CACHE)
    del f
    gc.collect()
    assert ref() is None
    assert len(univariate._ROOT_CACHE) == size - 1


def test_root_cache_skips_failed_solves(monkeypatch):
    f = new_sparse(1, [((3,), 1.0), ((1,), -0.25)])

    def fail(*args, **kwargs):
        raise OracleFailedError("oracle failed: root iteration did not converge")

    with monkeypatch.context() as patch:
        patch.setattr(univariate, "_aberth", fail)
        with pytest.raises(OracleFailedError):
            oracle_roots(f)
    assert f not in univariate._ROOT_CACHE
    calls = count_solves(monkeypatch)
    reals, _ = oracle_roots(f)
    assert len(calls) == 1
    assert np.sort(reals) == pytest.approx([-0.5, 0.0, 0.5], abs=1e-12)


def test_separation_oracle_sweeps_counter():
    assert separation_oracle(X, 0.01).sweeps == 0
    assert separation_oracle(QUAD, 0.01).sweeps > 0


def test_js_bounds_monotone():
    cond_base = js_condition_bound(3, 64, 4.0, 10.0)
    assert js_condition_bound(3, 64, 4.0, 20.0) >= cond_base
    assert js_condition_bound(3, 64, 4.0, 10.0) == pytest.approx(
        3.0 ** 12 * math.log2(64) ** 3 * max(2.0 ** 2, math.log2(10.0) ** 3),
        rel=1e-12,
    )
    assert js_condition_bound(3, 64, 4.0, math.inf) == math.inf
    # at d = 1 the degree factor reads 1, so an infinite kappa stays inf
    assert js_condition_bound(2, 1, 4.0, math.inf) == math.inf


def test_js_condition_bound_of_a_linear_input_is_positive():
    # each log factor reads as at least 1, so log2(d) = 0 at d = 1 no longer zeroes it
    assert js_condition_bound(1, 1, 1.0, 1.0) == 1.0  # f = x: norm1 = kappa = 1
    # 2x + 0.5: norm1 = 2.5 and kappa = 2.5 / 2, so the norm factor wins
    assert js_condition_bound(2, 1, 2.5, 1.25) == 2.0 ** 12 * math.log2(2.5) ** 2


def test_mignotte_style_stress_instance():
    # deterministic sidebar: x^16 - 2 (3x - 1)^2 has a pair of real roots
    # clustered near 1/3 at distance ~ 7e-5, which forces a deep tree
    f = new_sparse(1, [((16,), 1.0), ((2,), -18.0), ((1,), 12.0), ((0,), -2.0)])
    res = descartes_isolate(f, max_depth=40)
    assert res.complete
    dense = to_dense(f)
    roots = np.roots(dense[::-1])
    real = roots[np.abs(roots.imag) <= 1e-9 * np.maximum(1.0, np.abs(roots))]
    inside = sorted(float(r.real) for r in real if abs(r.real) <= 1.0)
    assert res.root_count == len(inside) == 2
    cluster = [r for r in inside if abs(r - 1.0 / 3.0) < 0.01]
    assert len(cluster) == 2  # the near-double pair is genuinely split
    assert res.tree.depth >= 12  # resolving the 7e-5 gap costs depth


def test_descartes_level_width_is_modest():
    rng = np.random.default_rng(54)
    for _ in range(40):
        f = random_poly(rng, 1, 40, 6, include_simplex=True)
        res = descartes_isolate(f, max_depth=60)
        assert max(res.tree.per_depth) <= 4 * f.support_size
