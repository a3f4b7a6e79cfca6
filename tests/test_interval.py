import functools
import itertools
import math
import operator

import numpy as np
import pytest

from cubecond.interval import (
    BoxN,
    Interval,
    _clause_codes,
    _exclusion_radii,
    interval_f,
    interval_grad_norm,
    sample_boxes,
    split_boxes,
)
from cubecond.poly import (
    evaluate_batch,
    gradient_batch,
    new_sparse,
    norm1,
    value_and_gradient_batch,
)
from helpers import lin_comb, random_poly, reference_clause

X = new_sparse(1, [((1,), 1.0)])
QUAD = new_sparse(1, [((2,), 2.0), ((0,), -1.0)])
LINE2 = new_sparse(2, [((1, 0), 1.0), ((0, 1), 1.0)])
CUBE1 = BoxN((0.0,), 2.0)
CUBE2 = BoxN((0.0, 0.0), 2.0)


def random_box(rng, n):
    width = 2.0 * 2.0 ** -int(rng.integers(1, 6))
    mid = rng.uniform(-1 + width / 2, 1 - width / 2, n)
    return BoxN(midpoint=tuple(mid), width=width)


@pytest.mark.parametrize("width", [0.0, -1.0, math.nan, math.inf])
def test_box_width_must_be_positive_and_finite(width):
    with pytest.raises(ValueError, match=f"box width must be positive and finite, got {width}$"):
        BoxN((0.0,), width)


def test_interval_must_not_be_empty():
    with pytest.raises(ValueError, match=r"empty interval \[1.0, 0.0\]$"):
        Interval(1.0, 0.0)


def test_interval_f_examples():
    iv = interval_f(X, CUBE1)
    assert (iv.lo, iv.hi) == (-1.0, 1.0)
    iv2 = interval_f(QUAD, BoxN((0.0,), 1.0))
    assert (iv2.lo, iv2.hi) == (-4.0, 2.0)


def test_interval_f_soundness_sampled():
    rng = np.random.default_rng(10)
    for _ in range(100):
        n = int(rng.integers(1, 3))
        f = random_poly(rng, n, 8, 8)
        box = random_box(rng, n)
        iv = interval_f(f, box)
        values = evaluate_batch(f, box.sample(rng, 100))
        slack = 1e-9 * (1 + iv.hi - iv.lo)
        assert np.all(values >= iv.lo - slack) and np.all(values <= iv.hi + slack)


def test_interval_grad_norm_examples():
    iv = interval_grad_norm(X, CUBE1)
    assert iv.lo == 0.0
    assert iv.hi == pytest.approx(1.0 + math.sqrt(2.0))
    iv2 = interval_grad_norm(LINE2, CUBE2)
    assert (iv2.lo, iv2.hi) == (0.0, 6.0)


def test_interval_grad_norm_soundness_sampled():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 3))
        f = random_poly(rng, n, 8, 8)
        box = random_box(rng, n)
        iv = interval_grad_norm(f, box)
        norms = np.abs(gradient_batch(f, box.sample(rng, 100))).sum(axis=1)
        slack = 1e-9 * (1 + iv.hi)
        assert np.all(norms >= iv.lo - slack) and np.all(norms <= iv.hi + slack)


def test_child_interval_radius_halves_exactly():
    # the construction radius d * norm1(f) * w/2 halves exactly because widths
    # are scaled by powers of two; measuring it via hi - lo would re-mix the
    # center rounding, so compare at formula level
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = int(rng.integers(1, 3))
        f = random_poly(rng, n, 6, 6)
        box = random_box(rng, n)
        parent_radius = f.degree * norm1(f) * box.width / 2
        child_width = box.width / 2
        assert f.degree * norm1(f) * child_width / 2 == parent_radius / 2


CODES = {None: 0, "value": 1, "gradient": 2}


def kernel_sums(f, midpoints):
    """f and its partial derivatives at each midpoint, shape (N, n + 1)."""
    return np.column_stack(value_and_gradient_batch(f, np.array(midpoints)))


def codes_of(f, boxes):
    """The clause codes of BoxN objects, each with its own width: the comparison
    ``_clause_codes`` of the walk on their kernel sums and ``_exclusion_radii``."""
    widths = np.array([b.width for b in boxes])
    radii = _exclusion_radii(f.degree, norm1(f), f.n, widths / 2)
    return _clause_codes(kernel_sums(f, [b.midpoint for b in boxes]), *radii)


def test_predicate_codes_are_an_integer_array():
    codes = codes_of(X, [CUBE1, BoxN((-0.75,), 0.5), BoxN((0.0,), 0.5)])
    assert isinstance(codes, np.ndarray) and codes.dtype.kind == "i"
    assert codes.tolist() == [0, 1, 2]
    # one pair of radii shared by every box
    radii = _exclusion_radii(X.degree, norm1(X), X.n, 0.5 / 2)
    assert _clause_codes(kernel_sums(X, [[-0.75], [0.0]]), *radii).tolist() == [1, 2]


def test_predicate_examples():
    # each inequality is strict, so a box on a radius does not pass that clause
    for f, box, code in [
        (LINE2, CUBE2, 0),
        (LINE2, BoxN((0.5, 0.5), 0.5), 1),
        (X, BoxN((0.75,), 0.5), 1),  # |0.75| > 0.25
        # value tie |0.5| == 1 * 1 * 0.5; the gradient 1 > sqrt(2) * 0.5 passes
        (X, BoxN((0.5,), 1.0), 2),
        # gradient tie 2 == sqrt(4) * 1 * 2 * 0.5, value 0 fails
        (LINE2, BoxN((0.5, -0.5), 1.0), 0),
        # both tie: |f(m)| == 1 == d * norm1 * w/2 and 2 == 2
        (LINE2, BoxN((0.5, 0.5), 1.0), 0),
        (LINE2, BoxN((0.25, -0.25), 0.5), 2),
    ]:
        assert codes_of(f, [box]).tolist() == [code]
        assert CODES[reference_clause(f, box)] == code


def test_predicate_codes_match_enclosures():
    rng = np.random.default_rng(16)
    seen = set()
    for _ in range(100):
        n = int(rng.integers(1, 4))
        f = random_poly(rng, n, 3, 4)  # low degree, so some boxes pass by the gradient
        boxes = [random_box(rng, n) for _ in range(10)]
        codes = codes_of(f, boxes).tolist()
        assert codes == [CODES[reference_clause(f, box)] for box in boxes]
        seen.update(codes)
    assert seen == {0, 1, 2}


def test_predicate_codes_match_enclosures_at_n8_on_a_gradient_tie():
    # at n = 8 numpy sums one row pairwise; the walk and the enclosure both fold.  Each
    # box is centred at a zero of f and its gradient radius is the smaller of the two
    # sums, so the clause passes by one sum and fails by the other
    n, rng, ties = 8, np.random.default_rng(18), 0
    support = [tuple(int(k == i) for k in range(n)) for i in range(-1, n)] + [
        tuple(2 * (k == i) + (k == (i + 1) % n) for k in range(n)) for i in range(n)]
    for _ in range(100):
        c, m = rng.standard_normal(len(support)), rng.uniform(-0.5, 0.5, n)
        c[0] -= evaluate_batch(new_sparse(n, zip(support, c)), m)[0]  # f(m) about 0
        f = new_sparse(n, zip(support, c))
        grads = np.abs(gradient_batch(f, m)[0]).tolist()
        fold = functools.reduce(operator.add, grads, 0.0)
        sums = sorted({float(np.sum(grads)), fold})
        scale = math.sqrt(2 * n) * f.degree ** 2 * norm1(f)
        half = sums[0] / scale
        half = next((h for h in (half, np.nextafter(half, 0.0), np.nextafter(half, 1.0))
                     if _exclusion_radii(f.degree, norm1(f), n, h)[1] == sums[0]), None)
        if len(sums) < 2 or half is None:
            continue
        box = BoxN(tuple(m), 2 * half)
        ties += 1
        code = 2 if fold > sums[0] else 0  # the gradient clause by the fold
        codes = codes_of(f, [box, box])  # two rows: a column-major sum folds them
        assert codes.tolist() == [code, code] and CODES[reference_clause(f, box)] == code
    assert ties >= 10


def test_predicate_implies_exclusion_semantics():
    # predicate true => sampled values share a sign, or sampled gradients
    # pairwise point the same way
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 60:
        n = int(rng.integers(1, 3))
        f = random_poly(rng, n, 6, 6)
        box = random_box(rng, n)
        if codes_of(f, [box])[0] == 0:
            continue
        checked += 1
        points = box.sample(rng, 100)
        values = evaluate_batch(f, points)
        if np.all(values > 0) or np.all(values < 0):
            continue
        grads = gradient_batch(f, points)
        assert np.min(grads @ grads.T) > 0.0


def test_predicate_scale_invariance():
    rng = np.random.default_rng(14)
    for _ in range(50):
        n = int(rng.integers(1, 3))
        f = random_poly(rng, n, 6, 6)
        boxes = [random_box(rng, n)]
        for c in (3.7, -0.002, -41.0):
            scaled = lin_comb(n, [(c, f)])
            assert codes_of(scaled, boxes).tolist() == codes_of(f, boxes).tolist()


def test_split_boxes_1d():
    children = split_boxes(np.zeros((1, 1)), 2.0)
    assert children.tolist() == [[-0.5], [0.5]]


def test_split_boxes_2d_order():
    children = split_boxes(np.array([[0.0, 0.0], [0.5, 0.5]]), 1.0)
    # each box's children in turn; -1 before +1, first coordinate most significant
    assert children.tolist() == [
        [-0.25, -0.25],
        [-0.25, 0.25],
        [0.25, -0.25],
        [0.25, 0.25],
        [0.25, 0.25],
        [0.25, 0.75],
        [0.75, 0.25],
        [0.75, 0.75],
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_split_boxes_has_the_bits_of_the_broadcast_formula(n):
    rng = np.random.default_rng(n)
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
    widths = [math.ldexp(2.0, -depth) for depth in range(52)] + [0.3, 1.0 / 3.0, 5e-324]
    for width in widths:
        for midpoints in (rng.uniform(-1.0, 1.0, (37, n)), rng.normal(size=(5, n)) * 1e-300,
                          np.zeros((0, n))):
            expected = (midpoints[:, None, :] + signs * (width / 4)).reshape(-1, n)
            children = split_boxes(midpoints, width)
            assert np.array_equal(children.view(np.int64), expected.view(np.int64))


def test_children_volumes_partition_exactly():
    parent = np.array([[0.25, -0.125]])
    children, width = split_boxes(parent, 0.25), 0.25 / 2
    assert len(children) * width ** 2 == 0.25 ** 2
    # the children tile the parent: their corners are the parent's corners and centre
    corners = {(x + sx * width / 2, y + sy * width / 2)
               for x, y in children.tolist() for sx in (-1, 1) for sy in (-1, 1)}
    assert corners == {(0.25 + a * 0.125, -0.125 + b * 0.125)
                       for a in (-1, 0, 1) for b in (-1, 0, 1)}


def test_widths_stay_exact_dyadic_to_depth_50():
    midpoints, width = np.zeros((1, 1)), 2.0
    for depth in range(1, 51):
        children, width = split_boxes(midpoints, width), width / 2
        midpoints = children[:1]
        assert width == 2.0 * 2.0 ** -depth
        assert midpoints[0, 0] == -1.0 + width / 2


def test_sample_boxes_matches_consecutive_box_draws():
    rng = np.random.default_rng(15)
    # tiny widths on a zero midpoint keep every product bit: 2^-49, the smallest
    # normal double, and an odd subnormal width, whose halving rounds
    tiny = [BoxN((0.0,) * 3, w) for w in (2.0 ** -49, 2.0 ** -1022, 3 * 2.0 ** -1074)]
    for n in (1, 2, 3):
        boxes = [random_box(rng, n) for _ in range(7)]
        boxes[1:4] = [BoxN(b.midpoint[:n], b.width) for b in tiny]
        seed = int(rng.integers(2**31))
        batch = sample_boxes(np.array([b.midpoint for b in boxes]),
                             np.array([b.width for b in boxes]),
                             np.random.default_rng(seed), 33)
        one_rng = np.random.default_rng(seed)
        per_box = np.stack([b.sample(one_rng, 33) for b in boxes])
        assert batch.shape == (7, 33, n)
        assert batch.tobytes() == per_box.tobytes()
        # the formula BoxN.sample used on its own before the batch kernel
        one_rng = np.random.default_rng(seed)
        formula = np.stack([np.asarray(b.midpoint) + (b.width / 2)
                            * one_rng.uniform(-1.0, 1.0, size=(33, n)) for b in boxes])
        assert batch.tobytes() == formula.tobytes()
