import io
import json
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial import polynomial as npp

from cubecond import poly
from cubecond.poly import (
    derivative_norm_bound,
    evaluate,
    evaluate_batch,
    gradient,
    gradient_batch,
    load_polynomial,
    new_sparse,
    norm1,
    partial_derivative,
    polynomial_to_dict,
    to_dense,
    value_and_gradient_batch,
)
from helpers import (
    directional_derivative,
    lin_comb,
    poly_to_dict,
    random_poly,
    reference_kernel,
    reference_monomial,
)


def test_new_sparse_basic():
    f = new_sparse(1, [((0,), 1.0), ((1,), 2.0)])
    assert f.degree == 1
    assert f.support_size == 2
    assert norm1(f) == 3.0


def test_new_sparse_merges_duplicates():
    f = new_sparse(2, [((0, 0), 1.0), ((0, 0), 2.0)])
    assert f.support_size == 1
    assert f.terms() == [((0, 0), 3.0)]


def test_new_sparse_keeps_first_occurrence_order_and_negative_zero():
    f = new_sparse(2, [((1, 0), 1.0), ((0, 0), -0.0), ((0, 1), -0.0), ((1, 0), 2.0),
                       ((0, 1), -0.0)])
    assert [alpha for alpha, _ in f.terms()] == [(1, 0), (0, 0), (0, 1)]
    # -0.0 alone and -0.0 + -0.0 keep their sign; a sum started at 0.0 would not
    assert [math.copysign(1.0, c) for c in f.coefficients] == [1.0, -1.0, -1.0]
    assert f.coefficients[0] == 3.0


def test_new_sparse_zero_polynomial_degree_clamp():
    f = new_sparse(1, [])
    assert f.degree == 1
    assert norm1(f) == 0.0
    assert evaluate(f, [0.3]) == 0.0
    for n in (1, 2, 3):
        empty = new_sparse(n, [])
        assert empty.exponents.shape == (0, n) and empty.exponents.dtype == np.int64
        assert empty.coefficients.shape == (0,) and empty.coefficients.dtype == np.float64
        assert (empty.support_size, empty.degree, empty.terms()) == (0, 1, [])
        assert evaluate(empty, [0.5] * n) == 0.0


def test_new_sparse_rejects_bad_exponents():
    with pytest.raises(ValueError):
        new_sparse(2, [((0,), 1.0)])
    with pytest.raises(ValueError):
        new_sparse(1, [((-1,), 1.0)])


@pytest.mark.parametrize(
    "alpha",
    [
        # each entry fits int64, but the degree would wrap around to a small number
        pytest.param((2 ** 62, 2 ** 62), id="degree-wraps"),
        # the entry itself overflows the int64 exponent array
        pytest.param((10 ** 20, 0), id="entry-overflows"),
    ],
)
def test_new_sparse_rejects_a_degree_past_int64(alpha):
    with pytest.raises(ValueError, match=re.escape(f"terms[0].alpha {alpha} has a degree above")):
        new_sparse(2, [(alpha, 1.0), ((0, 0), -0.5)])
    # the largest degree an int64 holds is still accepted
    assert new_sparse(2, [((2 ** 62, 2 ** 62 - 1), 1.0)]).degree == 2 ** 63 - 1


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
def test_new_sparse_rejects_non_finite_coefficients(c):
    with pytest.raises(ValueError, match=r"terms\[1\]\.c"):
        new_sparse(1, [((0,), 1.0), ((1,), c)])


def test_zero_coefficient_terms_are_kept():
    f = new_sparse(1, [((0,), -1.0), ((1,), 0.0), ((2,), 2.0)])
    assert f.support_size == 3
    assert f.degree == 2
    g = new_sparse(1, [((5,), 0.0), ((0,), 1.0)])
    assert g.degree == 1  # degree ignores zero-coefficient terms


def test_evaluate_examples():
    f = new_sparse(2, [((1, 1), 1.0)])
    assert evaluate(f, [1.0, -1.0]) == -1.0
    g = new_sparse(1, [((0,), 1.0), ((1,), 2.0), ((2,), -3.0)])
    assert evaluate(g, [0.0]) == 1.0


def test_evaluate_matches_fsum_oracle_and_norm_bound():
    rng = np.random.default_rng(1)
    for _ in range(50):
        f = random_poly(rng, 2, 9, 8)
        x = rng.uniform(-1, 1, 2)
        got = evaluate(f, x)
        oracle = math.fsum(c * x[0] ** a[0] * x[1] ** a[1] for a, c in f.terms())
        assert got == pytest.approx(oracle, abs=1e-12 * (1 + norm1(f)))
        assert abs(got) <= norm1(f) * (1 + 1e-12)


def test_evaluate_overflow_propagates():
    f = new_sparse(1, [((100,), 1e300)])
    assert math.isinf(evaluate(f, [10.0]))


def _chunk_points():
    """Points per chunk of the evaluation kernel."""
    return poly._CHUNK_POINTS


def test_batch_rows_match_one_row_calls_bit_for_bit():
    # a row's value and gradient may not depend on N, the chunk or the other rows
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        f = random_poly(rng, n, 8, 9)
        chunk = _chunk_points()
        for count in (1, 7, chunk - 1, chunk + 3):
            X = rng.uniform(-1, 1, (count, n))
            values, grads = evaluate_batch(f, X), gradient_batch(f, X)
            # a reversed batch puts every row in another chunk position
            assert np.array_equal(evaluate_batch(f, X[::-1]), values[::-1])
            assert np.array_equal(gradient_batch(f, X[::-1]), grads[::-1])
            fused = value_and_gradient_batch(f, X)
            assert np.array_equal(fused[0], values) and np.array_equal(fused[1], grads)
            # both sides of a chunk edge, the ends and a spread of rows in between
            rows = {0, count - 1, chunk - 1, chunk} | set(range(0, count, 97))
            for r in sorted(row for row in rows if row < count):
                assert evaluate_batch(f, X[r])[0] == values[r]
                assert np.array_equal(gradient_batch(f, X[r])[0], grads[r])


def _bits(values):
    return np.array(values, dtype=np.float64).tobytes()


def test_kernel_matches_plain_python_order_bit_for_bit():
    # the kernel's term walk against the documented power-table order, with
    # zero and unit coefficients, signed zeros, +-1 and overflow to +-inf
    rng = np.random.default_rng(16)
    chunk = _chunk_points()
    specials = [0.0, -0.0, 1.0, -1.0, 1e200, -1e200]
    found = []
    for n in (1, 2, 3, 4):
        # first a bare x_0 with coefficient 1.0, whose block sum may not run in
        # place on the points, then a term in every variable
        first, every = (1,) + (0,) * (n - 1), (2,) * n
        drawn = random_poly(rng, n, 5, min(7, math.comb(5 + n, n))).terms()
        terms = [(first, 1.0), (every, 0.7)] + [
            (alpha, 0.0 if r % 3 == 1 else 1.0 if r % 4 == 2 else c)
            for r, (alpha, c) in enumerate(drawn) if alpha not in (first, every)]
        f = new_sparse(n, terms)
        X = rng.uniform(-1.5, 1.5, (chunk + 1, n))
        special = rng.random((chunk + 1, n)) < 0.3
        X[special] = rng.choice(specials, special.sum())
        X[:len(specials)] = np.array(specials)[:, None]
        given = X.copy()
        expected = [reference_kernel(f, x) for x in X.tolist()]
        values = [value for value, _ in expected]
        grads = [grad for _, grad in expected]
        found += values + sum(grads, [])
        for count in (1, 2, chunk - 1, chunk, chunk + 1):
            points = X[:count]
            assert evaluate_batch(f, points).tobytes() == _bits(values[:count])
            assert gradient_batch(f, points).tobytes() == _bits(grads[:count])
            fused = value_and_gradient_batch(f, points)
            assert fused[0].tobytes() == _bits(values[:count])
            assert fused[1].tobytes() == _bits(grads[:count])
            assert X.tobytes() == given.tobytes()
        for x in X[:len(specials) + 4].tolist():
            rows = [[reference_monomial(alpha, x) for alpha, _ in f.terms()]]
            for i in range(n):
                rows.append([alpha[i] * reference_monomial(
                    [a - (j == i) for j, a in enumerate(alpha)], x) if alpha[i] else 0.0
                    for alpha, _ in f.terms()])
            assert poly._monomial_matrix(f, x).tobytes() == _bits(rows)
    assert np.isinf(found).any() and np.isnan(found).any()


def test_coefficient_rows_have_the_bits_of_one_polynomial_each():
    # one pass over a matrix of coefficient rows against a polynomial per row, with
    # zero, unit and signed-zero coefficients, points off the cube and overflow to +-inf
    rng = np.random.default_rng(22)
    found = []
    for n in (1, 2, 3):
        support = [alpha for alpha, _ in random_poly(rng, n, 5, min(9, math.comb(5 + n, n))).terms()]
        C = rng.normal(size=(200, len(support))) * 10.0 ** rng.integers(-3, 4, (200, len(support)))
        special = rng.random(C.shape)
        C[special < 0.2] = 0.0
        C[(special >= 0.2) & (special < 0.3)] = 1.0
        C[(special >= 0.3) & (special < 0.35)] = -0.0
        C[:2] = [[1e300], [-1e300]]
        terms, rows, nf, degrees = poly._batch(support, C)
        fs = [new_sparse(n, zip(support, row)) for row in C]
        for t, f in enumerate(fs):  # each column is the one-row batch of its polynomial
            one = f._batch
            assert one[0] == terms
            assert one[1].shape == (len(rows), 1)
            assert one[1].tobytes() == rows[:, t:t + 1].tobytes()
            assert one[2].tobytes() == nf[t:t + 1].tobytes() == np.array([norm1(f)]).tobytes()
            assert one[3].tobytes() == degrees[t:t + 1].tobytes()
            assert one[3].tobytes() == np.array([float(f.degree)]).tobytes()
        points = [[0.0] * n, [-0.0] * n, [1.0] * n, [-1.0] * n,
                  rng.uniform(-1, 1, n).tolist(), rng.uniform(-400, 400, n).tolist()]
        for x in points:  # x once per polynomial, each copy reading its own column
            X = np.broadcast_to(np.array(x), (len(C), n))
            out = poly._kernel_sums(terms, rows, terms.ends, X, np.arange(len(C)))
            found.append(out)
            for t, f in enumerate(fs):
                value, grad = value_and_gradient_batch(f, x)
                assert out[t].tobytes() == np.append(value, grad).tobytes()
    found = np.concatenate([out.ravel() for out in found])
    assert np.isinf(found).any() and np.isnan(found).any()


def _exact_terms(f, x, var=None):
    """(sum t, sum |t|) over the terms t of f, or of d f / d x_var, at x in exact rationals."""
    total, size = Fraction(0), Fraction(0)
    for alpha, c in f.terms():
        term = Fraction(c)
        if var is not None:
            if alpha[var] == 0:
                continue
            term *= alpha[var]
            alpha = tuple(a - (i == var) for i, a in enumerate(alpha))
        for xi, a in zip(x, alpha):
            term *= xi ** a
        total += term
        size += abs(term)
    return total, size


def test_kernel_matches_exact_rationals_within_error_bound():
    # each term takes at most d roundings and each sum m - 1, so the error of a
    # value or partial derivative is at most 2 (d + m) u sum |c_alpha x^alpha|
    u = 2.0 ** -53
    rng = np.random.default_rng(12)
    for _ in range(60):
        n = int(rng.integers(1, 4))
        degree = int(rng.integers(1, 13))
        f = random_poly(rng, n, degree, min(int(rng.integers(1, 10)), math.comb(degree + n, n)))
        d, m = int(f.exponents.sum(axis=1).max()), f.support_size
        X = rng.integers(-1024, 1025, (5, n)) / 1024.0  # dyadic, so exact as rationals
        values, grads = evaluate_batch(f, X), gradient_batch(f, X)
        for x, value, grad in zip(X, values, grads):
            x = [Fraction(xi) for xi in x]
            exact, size = _exact_terms(f, x)
            assert abs(Fraction(value) - exact) <= 2 * (d + m) * Fraction(u) * size
            for i in range(n):
                exact, size = _exact_terms(f, x, i)
                assert abs(Fraction(grad[i]) - exact) <= 2 * (d + m) * Fraction(u) * size


def test_kernel_edge_cases():
    # alpha_i = 0 at x_i = 0 contributes nothing to entry i: no 0 * x^-1
    f = new_sparse(2, [((0, 3), 1.0), ((2, 0), 1.0), ((0, 0), -1.0)])
    assert list(gradient(f, [0.0, 0.0])) == [0.0, 0.0]
    assert list(gradient(f, [0.0, 0.5])) == [0.0, 0.75]
    # overflow propagates as +-inf in values and gradients
    g = new_sparse(1, [((100,), -1e300)])
    assert evaluate(g, [10.0]) == -math.inf
    assert gradient(g, [-10.0])[0] == math.inf
    # a long power table: 10^5 multiplications stay within 10^5 rounding units
    x = 1.0 - 2.0 ** -20
    h = new_sparse(1, [((10 ** 5,), 1.0)])
    assert abs(evaluate(h, [x]) / math.pow(x, 10 ** 5) - 1.0) <= 10 ** 5 * 2.0 ** -53


def test_kernel_keeps_only_the_powers_its_terms_read():
    # the chain x^k = x^(k-1) * x runs up to 2^14, but a power no term reads is
    # dropped at once: all of them for 64 rows would take 2^14 x 64 x 8 B = 8 MB
    f = new_sparse(1, [((2 ** 14,), 1.0), ((1,), 1.0)])
    X = np.linspace(-1.0, 1.0, 64).reshape(-1, 1)
    f._batch  # built outside the measurement
    tracemalloc.start()
    try:
        value_and_gradient_batch(f, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 17


def test_kernel_refuses_a_power_chain_past_the_cap(monkeypatch):
    # the chain sums the top exponent of each variable, here 4 + 6 and then 5 + 6
    monkeypatch.setattr(poly, "MAX_POWER_CHAIN", 10)
    f = new_sparse(2, [((4, 1), 1.0), ((0, 6), 1.0)])
    assert evaluate(f, [0.5, 0.5]) == 0.5 ** 5 + 0.5 ** 6
    with pytest.raises(ValueError, match="^power chain of 11 exceeds the cap 10$"):
        evaluate(new_sparse(2, [((5, 1), 1.0), ((0, 6), 1.0)]), [0.5, 0.5])


def test_gradient_examples():
    f = new_sparse(1, [((2,), 2.0), ((0,), -1.0)])
    assert gradient(f, [1.0]) == pytest.approx([4.0])
    g = new_sparse(2, [((1, 0), 1.0), ((0, 1), 1.0)])
    assert gradient(g, [0.3, -0.7]) == pytest.approx([1.0, 1.0])


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    h = 1e-5
    for _ in range(30):
        n = int(rng.integers(1, 4))
        f = random_poly(rng, n, 6, 6)
        x = rng.uniform(-0.9, 0.9, n)
        g = gradient(f, x)
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            fd = (evaluate(f, x + e) - evaluate(f, x - e)) / (2 * h)
            scale = max(1.0, abs(g[i]))
            assert abs(fd - g[i]) <= 1e-6 * scale


def test_partial_derivative_examples():
    f = new_sparse(1, [((2,), 2.0), ((0,), -1.0)])
    assert poly_to_dict(partial_derivative(f, 0)) == {(1,): 4.0}
    g = new_sparse(2, [((1, 1), 1.0)])
    assert poly_to_dict(partial_derivative(g, 1)) == {(1, 0): 1.0}
    with pytest.raises(ValueError):
        partial_derivative(f, 1)


def test_gradient_agrees_with_partials():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        f = random_poly(rng, n, 8, 8)
        x = rng.uniform(-1, 1, n)
        g = gradient(f, x)
        for i in range(n):
            assert abs(g[i] - evaluate(partial_derivative(f, i), x)) <= 1e-12 * (
                1 + abs(g[i])
            )


def test_norm1_examples():
    f = new_sparse(2, [((0, 0), 1.0), ((1, 0), 2.0), ((0, 2), -3.0)])
    assert norm1(f) == 6.0
    assert norm1(new_sparse(1, [])) == 0.0


def test_norm1_is_a_norm():
    rng = np.random.default_rng(4)
    for _ in range(30):
        f = random_poly(rng, 2, 6, 6)
        g = random_poly(rng, 2, 6, 6)
        c = float(rng.normal())
        scaled = lin_comb(2, [(c, f)])
        assert norm1(scaled) == pytest.approx(abs(c) * norm1(f), rel=1e-12)
        total = lin_comb(2, [(1.0, f), (1.0, g)])
        assert norm1(total) <= norm1(f) + norm1(g) + 1e-12


def test_directional_derivative_norm_inequality():
    # norm1(df(v)) <= d * norm1(f) * max|v_i| as formal polynomials
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        f = random_poly(rng, n, 10, 8)
        v = rng.uniform(-2, 2, n)
        dv = directional_derivative(f, v)
        bound = f.degree * norm1(f) * float(np.max(np.abs(v)))
        assert norm1(dv) <= bound * (1 + 1e-12)


def test_derivative_norm_bound_examples():
    f = new_sparse(2, [((0, 0), 1.0), ((1, 0), 2.0), ((0, 2), -3.0)])  # norm 6, d 2
    assert derivative_norm_bound(f, 1) == 12.0
    assert derivative_norm_bound(f, 0) == norm1(f)
    with pytest.raises(ValueError):
        derivative_norm_bound(f, 3)


def test_second_derivative_dominated_by_bound():
    # |d^2 f(v, v)| / 2 at x, for unit-infinity v, stays below binom(d,2)*norm1
    rng = np.random.default_rng(6)
    for _ in range(200):
        n = int(rng.integers(1, 3))
        f = random_poly(rng, n, 8, 6)
        if f.degree < 2:
            continue
        x = rng.uniform(-1, 1, n)
        v = rng.uniform(-1, 1, n)
        v /= max(np.max(np.abs(v)), 1e-9)
        second = directional_derivative(directional_derivative(f, v), v)
        value = abs(evaluate(second, x)) / 2
        assert value <= derivative_norm_bound(f, 2) * (1 + 1e-9)


def test_value_lipschitz_sampled():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        f = random_poly(rng, n, 8, 8)
        lip_value = f.degree * norm1(f)  # the gradient 1-norm is at most d * norm1 on the cube
        X = rng.uniform(-1, 1, (50, n))
        Y = rng.uniform(-1, 1, (50, n))
        fx = evaluate_batch(f, X)
        fy = evaluate_batch(f, Y)
        gap = np.max(np.abs(X - Y), axis=1)
        assert np.all(np.abs(fx - fy) <= lip_value * gap * (1 + 1e-9) + 1e-12)


def test_gradient_norm_bound_on_cube():
    rng = np.random.default_rng(8)
    for _ in range(40):
        n = int(rng.integers(1, 4))
        f = random_poly(rng, n, 8, 8)
        X = rng.uniform(-1, 1, (50, n))
        norms = np.abs(gradient_batch(f, X)).sum(axis=1)
        assert np.all(norms <= f.degree * norm1(f) * (1 + 1e-9) + 1e-12)


def assert_same_abs_bits(mine, ref):
    mine, ref = np.abs(np.asarray(mine)), np.abs(np.asarray(ref))
    assert mine.dtype == ref.dtype and mine.shape == ref.shape
    assert mine.tobytes() == ref.tobytes()


SUM_ENTRIES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1060, 1.0, -3.5, 1e300, -1e300,
                        math.inf, -math.inf, math.nan, -math.nan])


@pytest.mark.parametrize("width", range(13))
def test_sum_last_has_the_bits_of_numpy_sum(width):
    # below 8 entries a left fold of columns onto +0, from 8 numpy's pairwise sum: a fold
    # from the right, a fold from the first column (a row of -0 would sum to -0) or a
    # fold at 8 entries and more fails here.  Which NaN a sum of NaNs of both signs
    # returns is left open by IEEE 754, and numpy's one-element loop picks another one
    # than its vector loop, so every NaN compares as one bit pattern
    def bits(x):
        return np.where(np.isnan(x), math.nan, x).view(np.int64)

    rng = np.random.default_rng(width)
    with np.errstate(all="ignore"):
        for count in (0, 1, 2, 7, 4097):
            for shape in ((count, width), (count, 3, width)):
                wide = rng.standard_normal(shape) * 2.0 ** rng.integers(-60, 60, shape)
                special = rng.choice(SUM_ENTRIES, shape)
                strided = np.concatenate([special, wide], axis=-1)[..., 1:width + 1]
                for A in (wide, special, strided):
                    assert np.array_equal(bits(poly._sum_last(A)), bits(A.sum(axis=-1)))


def test_horner_matches_polyval_bit_for_bit():
    rng = np.random.default_rng(61)
    special = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -0.75, 1e300, np.inf, -np.inf, np.nan])
    for trial in range(300):
        dense = rng.normal(size=int(rng.integers(1, 70))) * 10.0 ** rng.integers(-8, 8)
        if trial % 2:  # sparse: mostly zero coefficients, some of them -0.0
            dense[rng.random(dense.size) < 0.8] = 0.0
            dense[rng.random(dense.size) < 0.2] *= -0.0
        special_complex = special.astype(np.complex128)
        special_complex.imag = special[::-1]
        points = [
            rng.uniform(-1.5, 1.5, 40),
            rng.normal(size=30) + 1j * rng.normal(size=30),
            special,
            special_complex,
        ]
        scalars = [0.0, -0.0, 1.0, -1.0, 0, 1, -1, float(rng.uniform(-1, 1)),
                   np.float64(rng.uniform(-1, 1)), complex(*rng.normal(size=2)),
                   np.complex128(complex(*rng.normal(size=2)))]
        with np.errstate(all="ignore"):
            for x in points + scalars:
                assert_same_abs_bits(poly._horner(dense, x), npp.polyval(x, dense))


def test_horner_leaves_points_alone_and_returns_plain_scalars():
    dense = np.array([1.0, 0.0, -2.0, 0.0, 3.0])
    x = np.linspace(-1.0, 1.0, 7)
    before = x.copy()
    assert_same_abs_bits(poly._horner(dense, x), npp.polyval(x, dense))
    assert np.array_equal(x, before)  # the input points are not overwritten
    assert type(poly._horner(dense, np.float64(0.5))) is float
    assert type(poly._horner(dense, 0.5j)) is complex
    assert poly._horner([2.5], x).tolist() == [2.5] * 7


def test_to_dense():
    f = new_sparse(1, [((0,), -1.0), ((2,), 2.0), ((5,), 0.0)])
    assert list(to_dense(f)) == [-1.0, 0.0, 2.0]
    assert list(to_dense(new_sparse(1, []))) == [0.0]
    with pytest.raises(ValueError):
        to_dense(new_sparse(2, [((0, 0), 1.0)]))


def test_json_round_trip(tmp_path):
    f = new_sparse(2, [((0, 0), 1.0), ((2, 1), -0.5)])
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(polynomial_to_dict(f)))
    g = load_polynomial(str(path))
    assert poly_to_dict(g) == poly_to_dict(f)


@pytest.mark.parametrize(
    "payload, needle",
    [
        ({"terms": []}, "'n'"),
        ({"n": 2}, "'terms'"),
        ({"n": 2, "terms": [{"alpha": [0], "c": 1.0}]}, "alpha"),
        ({"n": 1, "terms": [{"alpha": [-1], "c": 1.0}]}, "alpha"),
        ({"n": 1, "terms": [{"alpha": [0], "c": "x"}]}, ".c"),
        # JSON true/false are not integers or numbers
        ({"n": True, "terms": []}, "'n'"),
        ({"n": 1, "terms": [{"alpha": [True], "c": 1.0}]}, "alpha"),
        ({"n": 1, "terms": [{"alpha": [0], "c": False}]}, ".c"),
        # open() would take an integer as a file descriptor; 0 reads stdin
        (0, "polynomial file"),
        ({"n": 1, "terms": [{"alpha": [1], "c": 1.0}], "extra": 1}, "unknown field 'extra'"),
        ({"n": 1, "terms": [{"alpha": [1], "c": 1.0, "typo": 3}]},
         "terms[0]: unknown field 'typo'"),
    ],
)
def test_loader_names_offending_field(payload, needle):
    with pytest.raises(ValueError, match=needle.replace("[", r"\[").replace("]", r"\]")):
        load_polynomial(payload)


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
def test_loader_rejects_non_finite_coefficients(c):
    payload = {"n": 1, "terms": [{"alpha": [0], "c": 1.0}, {"alpha": [1], "c": c}]}
    # json writes and reads NaN, Infinity and -Infinity literals
    with pytest.raises(ValueError, match=r"'terms\[1\]\.c'"):
        load_polynomial(io.StringIO(json.dumps(payload)))
