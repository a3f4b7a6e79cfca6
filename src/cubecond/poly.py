"""Sparse multivariate polynomials and their coefficient 1-norm bounds.

A polynomial f = sum_alpha c_alpha X^alpha is stored by its support (a list
of exponent vectors alpha in N^n, pairwise distinct) and the matching real
coefficients.  Terms with coefficient exactly 0 are kept: the support is part
of the data and may strictly contain the set of nonzero terms.

All evaluation-side bounds in this module are relative to the coefficient
1-norm ``norm1(f) = sum |c_alpha|`` and hold on the unit cube [-1, 1]^n.
"""

from __future__ import annotations

import functools
import json
import math
import reprlib
from dataclasses import MISSING, dataclass
from itertools import accumulate, compress, count, repeat
from operator import add, iadd, imul, itemgetter, mul
from typing import NamedTuple

import numpy as np

__all__ = [
    "SparsePolynomial",
    "new_sparse",
    "norm1",
    "evaluate",
    "evaluate_batch",
    "gradient",
    "gradient_batch",
    "value_and_gradient_batch",
    "partial_derivative",
    "derivative_norm_bound",
    "to_dense",
    "load_polynomial",
    "polynomial_to_dict",
]

# Cap on the power chain of a support, the sum over the variables of the top
# exponent, which one kernel point multiplies out: no more than a whole grid
# enclosure's GRID_WORK_CAP.
MAX_POWER_CHAIN = 2 ** 24


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

    @functools.cached_property
    def _batch(self) -> tuple:
        """``_batch`` of f alone: its kernel rows' coefficients are an (R, 1) array."""
        return _batch(self.exponents, self.coefficients[None])

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


class _KernelTerms(NamedTuple):
    """The terms of f (block 0) and of each d f / d x_i (block 1 + i), in support order.

    Row r is c[columns[r]] * multipliers[r] times the product of x_i^k over the
    pairs (i, k) of factors[r], which are in variable order and have k >= 1; all
    but c depends on the support only.  Block b spans rows ends[b] to ends[b + 1].
    Block 1 + i has a row alpha_i * c * x^(alpha - e_i) for each support term with
    alpha_i > 0, so no 0 * x^-1 term.  reads[i][k - 1] is 1 when some row reads
    x_i^k, up to the largest such k; the sum of those largest k, the power chain,
    is at most MAX_POWER_CHAIN.
    """

    factors: tuple
    ends: tuple
    reads: tuple
    columns: tuple
    multipliers: tuple


def _build_kernel_terms(exponents: np.ndarray) -> _KernelTerms:
    # plain Python: polynomials are often built, evaluated once and dropped
    n, exponents = exponents.shape[1], exponents.tolist()
    reads = [set(column) for column in zip(*exponents)]
    chain = sum(map(max, reads))  # before the masks, which take a byte per power
    if chain > MAX_POWER_CHAIN:
        raise ValueError(f"power chain of {chain} exceeds the cap {MAX_POWER_CHAIN}")
    base = [tuple(filter(itemgetter(1), enumerate(alpha))) for alpha in exponents]
    factors, columns, multipliers = list(base), list(range(len(base))), [1] * len(base)
    ends = [0, len(base)]
    for i in range(n):
        for col, (row, alpha) in enumerate(zip(base, exponents)):
            k = alpha[i]
            if k > 0:  # row with x_i^k replaced by x_i^(k-1)
                at = row.index((i, k))
                factors.append(row[:at] + ((i, k - 1),) * (k > 1) + row[at + 1:])
                columns.append(col)
                multipliers.append(k)
        ends.append(len(factors))
    for read in reads:  # the rows read x_i^a and x_i^(a - 1) for each exponent a > 0
        read.update([a - 1 for a in read])
    return _KernelTerms(
        factors=tuple(factors),
        ends=tuple(ends),
        reads=tuple(bytes(map(read.__contains__, range(1, max(read) + 1))) for read in reads),
        columns=tuple(columns),
        multipliers=tuple(multipliers),
    )


def _degrees(exponents: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Each coefficient row's degree: the largest |alpha|_1 of its nonzero terms, at least 1."""
    return np.maximum(np.where(C != 0.0, exponents.sum(axis=1), 0).max(axis=-1, initial=0), 1)


def _batch(support, C: np.ndarray) -> tuple:
    """The kernel's view of T polynomials on ``support``, whose coefficients are the
    rows of C (T, m): the support's kernel terms, the (R, T) coefficients
    c[column] * multiplier of the kernel rows, one column per polynomial, and each
    polynomial's norm1 and degree as (T,) float arrays."""
    exponents = np.array(support, dtype=np.int64)
    terms = _build_kernel_terms(exponents)
    rows = C.T[list(terms.columns)] * np.array(terms.multipliers)[:, None]
    nf = np.abs(C).sum(axis=1)  # per row, the bits of norm1
    return terms, rows, nf, _degrees(exponents, C).astype(float)


def new_sparse(n, terms) -> SparsePolynomial:
    """Build a canonical polynomial from (exponent vector, coefficient) pairs.

    Duplicate exponent vectors are merged by summing their coefficients.
    Exponents must be nonnegative integers of length ``n`` whose sum fits an
    int64, and coefficients finite.  An empty term list gives the zero polynomial.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    merged: dict[tuple, float] = {}  # in first-occurrence order
    for idx, (alpha, c) in enumerate(terms):
        alpha, c = tuple(int(a) for a in alpha), float(c)
        if len(alpha) != n:
            raise ValueError(f"terms[{idx}].alpha {alpha} has length {len(alpha)}, expected n={n}")
        if any(a < 0 for a in alpha):
            raise ValueError(f"terms[{idx}].alpha {alpha} has a negative entry")
        if sum(alpha) > 2 ** 63 - 1:
            raise ValueError(f"terms[{idx}].alpha {alpha} has a degree above 2^63 - 1")
        if not math.isfinite(c):
            raise ValueError(f"terms[{idx}].c must be finite, got {c}")
        if alpha in merged:
            merged[alpha] += c
        else:
            merged[alpha] = c
    exponents = np.array(list(merged), dtype=np.int64).reshape(len(merged), n)
    coefficients = np.array(list(merged.values()), dtype=np.float64)
    return SparsePolynomial(n, exponents, coefficients, int(_degrees(exponents, coefficients)))


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


# points per pass of the kernel, which bounds its memory.  Each pass has a fixed cost of
# tens of microseconds, which larger passes pay less often; at 2 ** 13 its float64
# temporaries are 64 KB, under glibc's default 128 KB mmap threshold.  Larger passes
# fault more pages in, and 2 ** 15 runs twice as slow (BENCH_39.json)
_CHUNK_POINTS = 2 ** 13


def _block_sums(terms: _KernelTerms, coefficients, ends, columns) -> list:
    """The sums of the term blocks bounded by ``ends`` at the point whose coordinates
    are ``columns``; the rows from ends[0] on take their coefficients from the
    iterable ``coefficients`` in turn.  The batch axes are: (N,) coordinate arrays
    with float coefficients, for N points of one polynomial; or (N,) coordinate
    arrays with (N,) coefficient arrays, for N points each of its own polynomial
    on the support.  The rest are floats.

    The powers x_i^k = x_i^(k-1) * x_i are built up to the last one that
    reads[i] marks, and only the marked ones are kept.  A term multiplies its
    factors in variable order, then its coefficient, and a block sums its terms
    in support order; an empty block is 0.0.  This is the order of a power
    table, in which x_i^0 = 1.0 is a factor of every term and 1.0 a factor of
    every coefficient, minus those exact multiplications by 1.0; the order
    fixes the a-priori error bound (Higham 2002, ch. 3).
    """
    powers = [dict(compress(zip(count(1), accumulate(repeat(x, len(read)), mul)), read))
              for x, read in zip(columns, terms.reads)]
    sums, coefficients = [], iter(coefficients)
    for begin, end in zip(ends, ends[1:]):
        total = 0.0
        # zip asks the range first, so it takes no coefficient past the block
        for r, c in zip(range(begin, end), coefficients):
            # in place only on what this call made: a product of two or more
            # factors, and a sum of two or more terms
            factors, term = terms.factors[r], 1.0
            for n, (i, k) in enumerate(factors):
                term = powers[i][k] if n == 0 else (mul if n == 1 else imul)(term, powers[i][k])
            if not (isinstance(c, float) and c == 1.0):
                term = (mul if len(factors) < 2 else imul)(term, c)
            total = term if r == begin else (add if r == begin + 1 else iadd)(total, term)
        sums.append(total)
    return sums


def _kernel(f: SparsePolynomial, points, first: int, last: int) -> np.ndarray:
    """Sums of the term blocks ``first`` to ``last - 1`` of f's kernel terms at each
    row of ``points``, shape (N, last - first)."""
    terms, rows = f._batch[:2]
    ends = terms.ends[first:last + 1]
    return _kernel_sums(terms, rows[ends[0]:], ends, _as_points(f, points), 0)


def _kernel_sums(terms: _KernelTerms, coefficients, ends, X: np.ndarray, owner) -> np.ndarray:
    """Sums of the term blocks bounded by ``ends`` at each row of X (N, n), shape
    (N, len(ends) - 1); the kernel rows from ends[0] on take their coefficients
    from the rows of ``coefficients`` (R, T), one column per polynomial.  Point j
    reads column ``owner[j]`` of an (N,) array ``owner``, or column j when ``owner``
    is None; an integer ``owner`` names the column of every point, whose entries
    are then taken as floats.

    The sums are column-major, each block one contiguous column, as ``_fold_last``
    reads them.  A point's result is the same bits whatever N, the chunk or the
    other points are; a one-point call with an integer ``owner`` runs on Python
    floats.
    """
    per_point = owner is None or isinstance(owner, np.ndarray)
    if not per_point:  # one column for every point
        coefficients = coefficients[:, owner].tolist()
        if len(X) == 1:
            return np.array([_block_sums(terms, coefficients, ends, X[0].tolist())])
    out = np.empty((len(ends) - 1, len(X)))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(X), _CHUNK_POINTS):
            chunk = slice(lo, lo + _CHUNK_POINTS)
            rows = coefficients
            if owner is None:  # point j reads column j: the chunk's columns, as they are
                rows = coefficients[:, chunk]
            elif per_point:  # a gathered row is made as the walk reads it, which bounds the memory
                rows = map(np.take, coefficients, repeat(owner[chunk]))
            for j, total in enumerate(_block_sums(terms, rows, ends, X[chunk].T)):
                out[j, chunk] = total
    return out.T


def _fold_last(A: np.ndarray) -> np.ndarray:
    """The sums over the last axis of a float64 array, each a left fold onto +0 whatever
    the shape, layout or width of A: the one order in which kappa, the exclusion clause,
    its gradient enclosure and the gradient cone sum the coordinates.  It adds whole slices A[..., j], which
    are contiguous columns of the kernel sums."""
    out = np.zeros(A.shape[:-1])
    for j in range(A.shape[-1]):
        out += A[..., j]
    return out


def _monomial_matrix(f: SparsePolynomial, x) -> np.ndarray:
    """The monomials x^alpha (row 0) and their partial derivatives d/dx_i (row 1 + i)
    at one point x, one column per support term; shape (n + 1, m)."""
    terms = f._batch[0]
    each_row = range(len(terms.factors) + 1)  # one block per kernel row
    multipliers = np.array(terms.multipliers, dtype=np.float64)[:, None]
    rows = _kernel_sums(terms, multipliers, each_row, _as_points(f, x), 0)[0]
    out = np.zeros((f.n + 1, f.support_size))
    out[np.repeat(np.arange(f.n + 1), np.diff(terms.ends)), list(terms.columns)] = rows
    return out


def evaluate_batch(f: SparsePolynomial, points) -> np.ndarray:
    """Evaluate f at each row of ``points`` (shape (N, n)); returns shape (N,).

    Overflow propagates as +-inf rather than raising.
    """
    return _kernel(f, points, 0, 1)[:, 0]


def evaluate(f: SparsePolynomial, x) -> float:
    """Evaluate f at a single point of R^n."""
    return float(evaluate_batch(f, x)[0])


def gradient_batch(f: SparsePolynomial, points) -> np.ndarray:
    """Row-wise gradient covectors; returns shape (N, n), column-major.

    The term alpha contributes alpha_i * c * x^(alpha - e_i) to entry i and
    nothing when alpha_i = 0 (no 0 * x^-1 artefacts at x_i = 0).
    """
    return _kernel(f, points, 1, f.n + 1)


def value_and_gradient_batch(f: SparsePolynomial, points) -> tuple[np.ndarray, np.ndarray]:
    """``evaluate_batch`` and ``gradient_batch`` at the same points from one kernel walk;
    the gradients are column-major, as ``gradient_batch``'s."""
    out = _kernel(f, points, 0, f.n + 1)
    return out[:, 0], out[:, 1:]


def gradient(f: SparsePolynomial, x) -> np.ndarray:
    """Gradient covector (d_x f) at a single point, as a shape-(n,) array."""
    return gradient_batch(f, x)[0]


def partial_derivative(f: SparsePolynomial, var: int) -> SparsePolynomial:
    """Formal partial derivative with respect to variable index ``var`` (0-based)."""
    if not 0 <= var < f.n:
        raise ValueError(f"variable index {var} out of range for n={f.n}")
    unit = np.eye(f.n, dtype=np.int64)[var]
    return new_sparse(f.n, [(alpha - unit, float(c) * int(alpha[var]))
                            for alpha, c in zip(f.exponents, f.coefficients) if alpha[var]])


def derivative_norm_bound(f: SparsePolynomial, k: int) -> float:
    """Upper bound binom(d, k) * norm1(f) on the normalised k-th derivative.

    For unit-infinity-norm directions v_1..v_k and any z in the closed unit
    polydisk, |d_z^k f(v_1,...,v_k)| / k! is at most this value.
    """
    if not 0 <= k <= f.degree:
        raise ValueError(f"order k={k} outside [0, degree={f.degree}]")
    return math.comb(f.degree, k) * norm1(f)


def to_dense(f: SparsePolynomial) -> np.ndarray:
    """Ascending dense coefficient vector of a univariate polynomial.

    The result has length (actual degree + 1); the zero polynomial maps to
    the single coefficient [0.0].
    """
    if f.n != 1:
        raise ValueError("dense conversion requires a univariate polynomial")
    nz = f.coefficients != 0.0  # the exponents are distinct, so each lands on its own entry
    dense = np.zeros(int(f.exponents[nz, 0].max(initial=0)) + 1)
    dense[f.exponents[nz, 0]] = f.coefficients[nz]
    return dense


def _derivative(dense: np.ndarray) -> np.ndarray:
    """The derivative's ascending coefficients: the products k * c_k of numpy's
    ``polyder``, and c_0 * 0.0 for a constant."""
    return dense[1:] * np.arange(1, dense.size) if dense.size > 1 else dense[:1] * 0.0


def _horner(dense, x):
    """Horner's rule for the ascending coefficients ``dense`` at x (an array or a scalar).

    The steps of ``numpy.polynomial.polynomial.polyval``: start from
    c[-1] + x*0, then once per degree multiply by x and add the next
    coefficient.  An exact zero coefficient is not added; adding a zero is an
    identity in IEEE arithmetic apart from the sign of a zero result, so abs()
    of the result has polyval's bits.  An array x is multiplied in place; a
    scalar x runs on plain Python numbers.
    """
    coefficients = np.asarray(dense, dtype=np.float64).tolist()
    if isinstance(x, np.generic):  # a numpy scalar becomes a Python number
        x = x.item()
    value = coefficients[-1] + x * 0
    for c in reversed(coefficients[:-1]):
        value *= x
        if c:
            value += c
    return value


# ---------------------------------------------------------------------------
# JSON files.  Each loader reads every field through ``_field``, which checks
# its JSON type only; the value rules live in the constructor the loader calls.
#   polynomial file: {"n": 2, "terms": [{"alpha": [0, 0], "c": 1.0}, ...]}
# ---------------------------------------------------------------------------

def _read_json_object(source, what: str, known) -> dict:
    """The JSON object in a file path, file object or dict, with no field outside ``known``."""
    if isinstance(source, dict):
        obj = source
    elif isinstance(source, int):  # open() would read it as a file descriptor
        raise ValueError(f"{what}: expected an object or a path, got {source!r}")
    elif hasattr(source, "read"):
        obj = json.load(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"{what}: top-level value must be an object")
    extras = set(obj) - set(known)
    if extras:
        raise ValueError(f"{what}: unknown field '{sorted(extras)[0]}'")
    return obj


def _field(obj: dict, name: str, what: str, check, expected: str, default=MISSING):
    """The field ``name`` of ``obj``, which must pass ``check``; ``what`` prefixes errors.

    A dotted or indexed name such as 'dist.sd' or 'terms[0].c' reads the part
    after the last dot, and errors name it in full.  An absent field takes
    ``default``; with none (``MISSING``, as for a dataclass field without a
    default) it is an error.
    """
    key = name.rsplit(".", 1)[-1]
    if key not in obj:
        if default is MISSING:
            raise ValueError(f"{what}: missing field '{name}'")
        return default
    value = obj[key]
    if not check(value):
        got = reprlib.repr(value)  # a long list is cut short
        raise ValueError(f"{what}: field '{name}' must be {expected}, got {got}")
    return value


def _build(what: str, constructor, *args, **kwargs):
    """``constructor(*args, **kwargs)``, with ``what`` prefixed to the ValueError of a value rule."""
    try:
        return constructor(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None


def _is_int(value) -> bool:
    # JSON true/false load as bool, a subclass of int; they are not integers here
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    # JSON NaN, Infinity and -Infinity load as floats, and an integer past the
    # float range overflows; none of them is a number here
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def _is_object(value) -> bool:
    return isinstance(value, dict)


def _list_of(check):
    """A check that passes a list whose entries all pass ``check``."""
    return lambda value: isinstance(value, list) and all(map(check, value))


def load_polynomial(source) -> SparsePolynomial:
    """Read a polynomial from a JSON file path, file object or parsed dict."""
    what = "polynomial file"
    obj = _read_json_object(source, what, ("n", "terms"))
    n = _field(obj, "n", what, _is_int, "an integer")
    terms = _field(obj, "terms", what, _list_of(_is_object), "a list of objects")
    pairs = []
    for idx, term in enumerate(terms):
        where = f"terms[{idx}]"
        _read_json_object(term, f"{what}: {where}", ("alpha", "c"))
        alpha = _field(term, f"{where}.alpha", what, _list_of(_is_int), "a list of integers")
        pairs.append((alpha, _field(term, f"{where}.c", what, _is_number, "a finite number")))
    return _build(what, new_sparse, n, pairs)


def polynomial_to_dict(f: SparsePolynomial) -> dict:
    return {
        "n": f.n,
        "terms": [{"alpha": list(alpha), "c": c} for alpha, c in f.terms()],
    }
