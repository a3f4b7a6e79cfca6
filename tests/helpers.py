"""Shared test helpers: random sparse polynomials, formal coefficient math, the
evaluation kernel's order in plain Python, the exclusion clause of a box read
from the public enclosures, the per-box verifier, the full-grid scan of the
n = 1 condition enclosure, the column-subset enumeration of dist1_to_sigma_x and
the power-basis Descartes loop."""

import itertools
import math
from collections import deque

import numpy as np

from cubecond import univariate
from cubecond.condition import SupportTooSmallError, _finite_points
from cubecond.interval import interval_f, interval_grad_norm
from cubecond.poly import (
    SparsePolynomial,
    _horner,
    _monomial_matrix,
    evaluate_batch,
    gradient_batch,
    new_sparse,
    norm1,
    to_dense,
    value_and_gradient_batch,
)
from cubecond.pv import _VERIFY_CHUNK_POINTS


def random_support(rng, n, max_degree, m, include_simplex=False):
    """m distinct exponent vectors with |alpha|_1 <= max_degree."""
    seen = set()
    out = []
    if include_simplex:
        for alpha in [(0,) * n] + [
            tuple(1 if j == i else 0 for j in range(n)) for i in range(n)
        ]:
            seen.add(alpha)
            out.append(alpha)
    attempts = 0
    while len(out) < m:
        attempts += 1
        if attempts > 10000:
            raise RuntimeError("support sampling did not fill up; lower m")
        alpha = tuple(int(v) for v in rng.integers(0, max_degree + 1, n))
        if sum(alpha) <= max_degree and alpha not in seen:
            seen.add(alpha)
            out.append(alpha)
    return out


def random_poly(rng, n, max_degree, m, include_simplex=False, coeff_scale=1.0):
    support = random_support(rng, n, max_degree, m, include_simplex)
    coeffs = rng.normal(0.0, 1.0, len(support)) * coeff_scale
    return new_sparse(n, list(zip(support, coeffs)))


def poly_to_dict(f: SparsePolynomial):
    return {alpha: c for alpha, c in f.terms()}


def poly_from_dict(n, coeffs):
    return new_sparse(n, list(coeffs.items()))


def lin_comb(n, pairs):
    """Formal linear combination sum(scale * poly) as a new polynomial."""
    acc = {}
    for scale, f in pairs:
        for alpha, c in f.terms():
            acc[alpha] = acc.get(alpha, 0.0) + scale * c
    return poly_from_dict(n, acc)


def directional_derivative(f: SparsePolynomial, v):
    """Formal polynomial d f(v) = sum_i v_i * df/dX_i."""
    from cubecond.poly import partial_derivative

    return lin_comb(f.n, [(float(v[i]), partial_derivative(f, i)) for i in range(f.n)])


def reference_monomial(alpha, x):
    """x^alpha at the point x in plain Python floats, in the order of a power
    table: x_i^k = x_i^(k-1) * x_i from x_i^0 = 1.0, and the product of every
    x_i^alpha_i, unit factors included, from 1.0 in variable order."""
    product = 1.0
    for xi, k in zip(x, alpha):
        power = 1.0
        for _ in range(k):
            power = power * xi
        product = product * power
    return product


def reference_kernel(f, x):
    """(value, gradient) of f at the point x in plain Python floats, in the order
    the evaluation kernel documents: each term is its monomial times its
    coefficient, the derivative term of alpha with alpha_i > 0 is
    x^(alpha - e_i) times alpha_i * c, and a block sums its terms in support
    order from the first; an empty block is 0.0."""

    def block(terms):
        total = 0.0
        for r, (alpha, c) in enumerate(terms):
            term = reference_monomial(alpha, x) * c
            total = total + term if r else term
        return total

    def lowered(alpha, i):
        return tuple(a - (j == i) for j, a in enumerate(alpha))

    terms = f.terms()
    grad = [block([(lowered(alpha, i), c * alpha[i]) for alpha, c in terms if alpha[i] > 0])
            for i in range(f.n)]
    return block(terms), grad


def reference_verify(f, report, samples_per_box, seed):
    """The chunked output verifier in box-major arrays: each chunk of boxes draws
    its (boxes, samples, n) points as m + (w/2) u and evaluate_batch evaluates
    them.  The points of the boxes whose values change sign collect in a list;
    whenever it holds a chunk's worth of boxes, and after the last chunk, one
    gradient_batch call takes them all and each box gets the Gram check."""
    rng = np.random.default_rng(seed)
    chunk = max(1, _VERIFY_CHUNK_POINTS // samples_per_box)
    mixed = []
    for start in range(0, report.final_count, chunk):
        boxes = slice(start, start + chunk)
        midpoints, widths = report.final_midpoints[boxes], report.final_widths[boxes]
        u = rng.uniform(-1.0, 1.0, size=(len(widths), samples_per_box, f.n))
        points = midpoints[:, None, :] + (widths / 2)[:, None, None] * u
        values = evaluate_batch(f, points.reshape(-1, f.n)).reshape(points.shape[:2])
        one_sign = np.all(values > 0.0, axis=1) | np.all(values < 0.0, axis=1)
        mixed.extend(points[~one_sign])
        if mixed and (len(mixed) >= chunk or start + chunk >= report.final_count):
            points = np.array(mixed)
            grads = gradient_batch(f, points.reshape(-1, f.n)).reshape(points.shape)
            for box_grads in grads:
                if not np.min(box_grads @ box_grads.T) > 0.0:
                    return False
            mixed = []
    return True


def reference_clause(f, box):
    """The exclusion clause the box passes, read off the public enclosures
    rather than the comparison of the walk: "value" when the range enclosure of f
    excludes 0 strictly, "gradient" when the gradient-norm enclosure has a
    positive lower end, None otherwise."""
    values = interval_f(f, box)
    if values.lo > 0.0 or values.hi < 0.0:
        return "value"
    if interval_grad_norm(f, box).lo > 0.0:
        return "gradient"
    return None


def reference_global_condition(f, grid_eps):
    """(lower, upper, grid_eps) of the n = 1 enclosure from kappa at every grid point:
    the full scan, evaluated with the same dense Horner calls as the library."""
    axes = np.linspace(-1.0, 1.0, math.ceil(1.0 / grid_eps) + 1)
    dense = to_dense(f)
    values = _horner(dense, axes)
    deriv = _horner(np.polynomial.polynomial.polyder(dense), axes)
    denom = np.maximum(np.abs(values), np.abs(deriv) / f.degree)
    with np.errstate(divide="ignore"):
        kappas = np.where(denom > 0.0, norm1(f) / denom, np.inf)
    lower = float(np.max(kappas))
    if math.isinf(lower):
        return math.inf, math.inf, grid_eps
    slack = 1.0 / lower - f.degree * grid_eps
    return lower, (1.0 / slack if slack > 0.0 else math.inf), grid_eps


def reference_dist1(f, x):
    """(dist, subset, residual): dist1_to_sigma_x by enumeration.  The minimum of the
    linear program is attained at a basic solution on at most n + 1 support columns,
    so every column subset of that size is solved by least squares; a subset is kept
    when its residual passes the consistency check, and the smallest 1-norm wins.
    subset and residual are the winner's, None and 0.0 when dist is 0."""
    x = _finite_points(f, x)
    A, b = _monomial_matrix(f, x), np.append(*value_and_gradient_batch(f, x))
    b_norm = float(np.abs(b).sum())
    if b_norm == 0.0:
        return 0.0, None, 0.0
    scale = float(np.abs(A).max()) + b_norm
    best = (math.inf, None, 0.0)
    for size in range(1, min(f.n + 1, f.support_size) + 1):
        for subset in itertools.combinations(range(f.support_size), size):
            sub = A[:, subset]
            delta = np.linalg.lstsq(sub, b, rcond=None)[0]
            residual = float(np.abs(sub @ delta - b).max())
            if residual > 1e-9 * scale * (1.0 + float(np.abs(delta).max())):
                continue
            dist = float(np.abs(delta).sum())
            if dist < best[0]:
                best = (dist, subset, residual)
    if math.isinf(best[0]):
        raise SupportTooSmallError(
            "support too small: no perturbation on the support is singular at x"
        )
    return best


def reference_descartes(f, max_depth):
    """(intervals, exact_roots, per_depth, complete, unresolved) of the Descartes
    tree with power-basis nodes: each node holds the integer coefficients of f
    on [lo, hi] mapped to [0, 1], each visit counts the variations of a fresh
    Moebius image, the left child scales the argument by 1/2 and the right
    child shifts the left one by one."""
    dense = to_dense(f)
    if len(dense) == 1:
        return [], [], [1], True, []
    shift = univariate._int_shift_by_one
    mirror, strip = univariate._int_mirror, univariate._int_strip_content
    shifted = mirror(shift(mirror(univariate._dyadic_ints(dense))))
    root = strip([v << k for k, v in enumerate(shifted)])
    exact = [x for x, value in ((-1.0, root[0]), (1.0, sum(root))) if value == 0]
    intervals, unresolved, per_depth, complete = [], [], [], True
    queue = deque([(root, -1.0, 1.0, 0)])
    while queue:
        coeffs, lo, hi, depth = queue.popleft()
        per_depth.extend([0] * (depth + 1 - len(per_depth)))
        per_depth[depth] += 1
        v = univariate.sign_variations(shift(coeffs[::-1]))
        if v == 0:
            continue
        if v == 1 and coeffs[0] and sum(coeffs):  # f(lo) and f(hi) both nonzero
            intervals.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        if depth == max_depth or mid == lo or mid == hi:
            complete = False
            unresolved.append((lo, hi))
            continue
        left = strip([c << (len(coeffs) - 1 - k) for k, c in enumerate(coeffs)])
        right = strip(shift(left))
        if right[0] == 0:
            exact.append(mid)
        queue.append((left, lo, mid, depth + 1))
        queue.append((right, mid, hi, depth + 1))
    return sorted(intervals), sorted(exact), per_depth, complete, unresolved
