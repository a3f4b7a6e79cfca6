"""Shared test helpers: random sparse polynomials, formal coefficient math and
the exclusion clause of a box read from the public enclosures."""

from cubecond.interval import interval_f, interval_grad_norm
from cubecond.poly import SparsePolynomial, new_sparse


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


def reference_clause(f, box):
    """The exclusion clause the box passes, read off the public enclosures
    rather than the batch predicate: "value" when the range enclosure of f
    excludes 0 strictly, "gradient" when the gradient-norm enclosure has a
    positive lower end, None otherwise."""
    values = interval_f(f, box)
    if values.lo > 0.0 or values.hi < 0.0:
        return "value"
    if interval_grad_norm(f, box).lo > 0.0:
        return "gradient"
    return None
