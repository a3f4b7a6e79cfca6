"""Sparse multivariate polynomials and their coefficient 1-norm bounds.

A polynomial f = sum_alpha c_alpha X^alpha is stored by its support (a list
of exponent vectors alpha in N^n, pairwise distinct) and the matching real
coefficients.  Terms with coefficient exactly 0 are kept: the support is part
of the data and may strictly contain the set of nonzero terms.

All evaluation-side bounds in this module are relative to the coefficient
1-norm ``norm1(f) = sum |c_alpha|`` and hold on the unit cube [-1, 1]^n.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SparsePolynomial",
    "new_sparse",
    "norm1",
    "evaluate",
    "evaluate_batch",
    "gradient",
    "gradient_batch",
    "partial_derivative",
    "derivative_norm_bound",
    "lipschitz_constants",
    "to_dense",
    "load_polynomial",
    "polynomial_to_dict",
    "save_polynomial",
]


@dataclass(frozen=True, eq=False)
class SparsePolynomial:
    """Immutable sparse polynomial in ``n`` variables.

    Attributes
    ----------
    n : number of variables
    exponents : int64 array of shape (m, n); pairwise distinct rows
    coefficients : float64 array of shape (m,)
    degree : max |alpha|_1 over terms with nonzero coefficient, clamped to >= 1
        (constants and the zero polynomial get degree 1 so that the 1/degree
        normalisations used elsewhere stay defined)
    """

    n: int
    exponents: np.ndarray
    coefficients: np.ndarray
    degree: int

    def __post_init__(self):
        self.exponents.setflags(write=False)
        self.coefficients.setflags(write=False)

    @property
    def support_size(self) -> int:
        return self.coefficients.shape[0]

    def terms(self):
        """Return the support as a list of (exponent tuple, coefficient)."""
        return [
            (tuple(int(a) for a in alpha), float(c))
            for alpha, c in zip(self.exponents, self.coefficients)
        ]

    def __repr__(self):
        return (
            f"SparsePolynomial(n={self.n}, terms={self.support_size}, "
            f"degree={self.degree})"
        )


def _degree_of(exponents, coefficients) -> int:
    nz = coefficients != 0.0
    if not nz.any():
        return 1
    return max(1, int(exponents[nz].sum(axis=1).max()))


def new_sparse(n, terms) -> SparsePolynomial:
    """Build a canonical polynomial from (exponent vector, coefficient) pairs.

    Duplicate exponent vectors are merged by summing their coefficients.
    Exponents must be nonnegative integers of length ``n``.  An empty term
    list gives the zero polynomial.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    merged: dict[tuple, float] = {}
    order: list[tuple] = []
    for alpha, c in terms:
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != n:
            raise ValueError(f"exponent {alpha} has length {len(alpha)}, expected n={n}")
        if any(a < 0 for a in alpha):
            raise ValueError(f"exponent {alpha} has a negative entry")
        if alpha in merged:
            merged[alpha] += float(c)
        else:
            merged[alpha] = float(c)
            order.append(alpha)
    if order:
        exponents = np.array(order, dtype=np.int64).reshape(len(order), n)
        coefficients = np.array([merged[a] for a in order], dtype=np.float64)
    else:
        exponents = np.zeros((0, n), dtype=np.int64)
        coefficients = np.zeros(0, dtype=np.float64)
    return SparsePolynomial(n, exponents, coefficients, _degree_of(exponents, coefficients))


def norm1(f: SparsePolynomial) -> float:
    """Coefficient 1-norm: sum of absolute values over the support."""
    return float(np.abs(f.coefficients).sum())


def _as_points(f: SparsePolynomial, points) -> np.ndarray:
    """``points`` as a float array of shape (N, n); a single point becomes one row."""
    X = np.asarray(points, dtype=np.float64)
    if X.ndim < 2:
        X = X.reshape(1, -1)
    if X.shape[1] != f.n:
        raise ValueError(f"points have dimension {X.shape[1]}, expected {f.n}")
    return X


def evaluate_batch(f: SparsePolynomial, points) -> np.ndarray:
    """Evaluate f at each row of ``points`` (shape (N, n)); returns shape (N,).

    Overflow propagates as +-inf rather than raising.
    """
    X = _as_points(f, points)
    if f.support_size == 0:
        return np.zeros(X.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        monomials = np.prod(X[:, None, :] ** f.exponents[None, :, :], axis=2)
        return monomials @ f.coefficients


def evaluate(f: SparsePolynomial, x) -> float:
    """Evaluate f at a single point of R^n."""
    return float(evaluate_batch(f, x)[0])


def gradient_batch(f: SparsePolynomial, points) -> np.ndarray:
    """Row-wise gradient covectors; returns shape (N, n).

    The term alpha contributes alpha_i * c * x^(alpha - e_i) to entry i and
    nothing when alpha_i = 0 (no 0 * x^-1 artefacts at x_i = 0).
    """
    X = _as_points(f, points)
    out = np.zeros((X.shape[0], f.n))
    if f.support_size == 0:
        return out
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(f.n):
            mask = f.exponents[:, i] > 0
            if not mask.any():
                continue
            expo = f.exponents[mask].copy()
            coef = f.coefficients[mask] * expo[:, i]
            expo[:, i] -= 1
            out[:, i] = np.prod(X[:, None, :] ** expo[None, :, :], axis=2) @ coef
    return out


def gradient(f: SparsePolynomial, x) -> np.ndarray:
    """Gradient covector (d_x f) at a single point, as a shape-(n,) array."""
    return gradient_batch(f, x)[0]


def partial_derivative(f: SparsePolynomial, var: int) -> SparsePolynomial:
    """Formal partial derivative with respect to variable index ``var`` (0-based)."""
    if not 0 <= var < f.n:
        raise ValueError(f"variable index {var} out of range for n={f.n}")
    terms = []
    for alpha, c in zip(f.exponents, f.coefficients):
        if alpha[var] == 0:
            continue
        beta = alpha.copy()
        beta[var] -= 1
        terms.append((tuple(int(b) for b in beta), float(c) * int(alpha[var])))
    return new_sparse(f.n, terms)


def derivative_norm_bound(f: SparsePolynomial, k: int) -> float:
    """Upper bound binom(d, k) * norm1(f) on the normalised k-th derivative.

    For unit-infinity-norm directions v_1..v_k and any z in the closed unit
    polydisk, |d_z^k f(v_1,...,v_k)| / k! is at most this value.
    """
    if not 0 <= k <= f.degree:
        raise ValueError(f"order k={k} outside [0, degree={f.degree}]")
    return math.comb(f.degree, k) * norm1(f)


def lipschitz_constants(f: SparsePolynomial) -> tuple[float, float]:
    """Lipschitz constants (d * norm1, d^2 * norm1) on the unit cube.

    The first bounds the variation of x -> |f(x)|, the second of
    x -> norm1 of the gradient covector, both w.r.t. the infinity norm.
    """
    nf = norm1(f)
    return (f.degree * nf, f.degree ** 2 * nf)


def to_dense(f: SparsePolynomial) -> np.ndarray:
    """Ascending dense coefficient vector of a univariate polynomial.

    The result has length (actual degree + 1); the zero polynomial maps to
    the single coefficient [0.0].
    """
    if f.n != 1:
        raise ValueError("dense conversion requires a univariate polynomial")
    nz = f.coefficients != 0.0
    if not nz.any():
        return np.zeros(1)
    deg = int(f.exponents[nz, 0].max())
    dense = np.zeros(deg + 1)
    for alpha, c in zip(f.exponents[:, 0], f.coefficients):
        if c != 0.0:
            dense[int(alpha)] += c
    return dense


# ---------------------------------------------------------------------------
# JSON file format: {"n": 2, "terms": [{"alpha": [0, 0], "c": 1.0}, ...]}
# ---------------------------------------------------------------------------

def _read_json_object(source, what: str) -> dict:
    """The JSON object in a file path, file object or parsed dict; ``what`` prefixes errors."""
    if isinstance(source, dict):
        return source
    if isinstance(source, int):  # open() would read it as a file descriptor
        raise ValueError(f"{what}: expected an object or a path, got {source!r}")
    if hasattr(source, "read"):
        obj = json.load(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"{what}: top-level value must be an object")
    return obj


def _is_int(value) -> bool:
    # JSON true/false load as bool, a subclass of int; they are not integers here
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def load_polynomial(source) -> SparsePolynomial:
    """Read a polynomial from a JSON file path, file object or parsed dict."""
    obj = _read_json_object(source, "polynomial file")
    if "n" not in obj:
        raise ValueError("polynomial file: missing field 'n'")
    n = obj["n"]
    if not _is_int(n) or n < 1:
        raise ValueError(f"polynomial file: field 'n' must be a positive integer, got {n!r}")
    if "terms" not in obj:
        raise ValueError("polynomial file: missing field 'terms'")
    if not isinstance(obj["terms"], list):
        raise ValueError("polynomial file: field 'terms' must be a list")
    terms = []
    for idx, t in enumerate(obj["terms"]):
        where = f"terms[{idx}]"
        if not isinstance(t, dict) or "alpha" not in t or "c" not in t:
            raise ValueError(f"polynomial file: {where} must be an object with 'alpha' and 'c'")
        alpha = t["alpha"]
        if not isinstance(alpha, list) or len(alpha) != n:
            raise ValueError(f"polynomial file: {where}.alpha must be a list of length n={n}")
        if any(not _is_int(a) or a < 0 for a in alpha):
            raise ValueError(f"polynomial file: {where}.alpha entries must be nonnegative integers")
        try:
            # float() would take JSON true/false, which are not numbers here
            c = float(None if isinstance(t["c"], bool) else t["c"])
        except (TypeError, ValueError):
            raise ValueError(f"polynomial file: {where}.c must be a number") from None
        terms.append((tuple(alpha), c))
    return new_sparse(n, terms)


def polynomial_to_dict(f: SparsePolynomial) -> dict:
    return {
        "n": f.n,
        "terms": [{"alpha": list(alpha), "c": c} for alpha, c in f.terms()],
    }


def save_polynomial(f: SparsePolynomial, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(polynomial_to_dict(f), fh, indent=2, sort_keys=True)
        fh.write("\n")
