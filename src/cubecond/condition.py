"""The 1-norm local condition number on the cube and derived quantities.

For a nonzero polynomial f and a point x of [-1, 1]^n,

    kappa(f, x) = norm1(f) / max(|f(x)|, norm1(d_x f) / d),

with d the (clamped) degree.  kappa is scale invariant, at least 1 on the
cube, and infinite exactly at singular zeros of f.  The global condition
number is the maximum of kappa over the cube; here it is enclosed by
evaluating on a finite grid and padding with the Lipschitz constant of
x -> 1/kappa(f, x).  For n = 1 the grid scan skips, with a certificate, the
cells that cannot hold the grid maximum (Taylor bounds at cell centres
widened by Horner's a-priori error, in the manner of Piyavskii's Lipschitz
pruning), so it returns the full scan's bits from a fraction of the points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .poly import (
    SparsePolynomial,
    _as_points,
    _batch,
    _derivative,
    _horner,
    _kernel,
    _kernel_sums,
    _monomial_matrix,
    _sum_last,
    norm1,
    to_dense,
    value_and_gradient_batch,
)

__all__ = [
    "GlobalConditionEnclosure",
    "EstimateInapplicableError",
    "SupportTooSmallError",
    "local_condition",
    "kappa_batch",
    "global_condition",
    "gamma_bound",
    "gamma_exact_univariate",
    "dist1_to_sigma_x",
    "local_size_bound",
]

# Cap on grid points x _grid_terms(f) for global_condition.  It bounds the
# work of one enclosure, not its memory: the grid is evaluated one slab at a time.
GRID_WORK_CAP = 2 ** 24
# dist1_to_sigma_x's simplex counts values up to _LP_TOL of a system scaled to 1 as zero.
# Bland's rule does not cycle, so its pivot cap bounds only a rounding failure.
_LP_TOL, _PIVOTS_PER_COLUMN = 1e-12, 4


class EstimateInapplicableError(ValueError):
    """The hypothesis of the derivative estimate does not hold at this point."""


class SupportTooSmallError(ValueError):
    """The support cannot realise a singularity at the requested point."""


@dataclass(frozen=True)
class GlobalConditionEnclosure:
    """Certified two-sided enclosure of the global condition number.

    ``lower`` is the maximum of kappa over the evaluation grid, ``upper`` the
    Lipschitz-padded certificate (math.inf when the padding swallows the
    whole range), ``grid_eps`` the covering radius of the grid used and
    ``points_evaluated`` the number of grid points at which f was evaluated.
    """

    lower: float
    upper: float
    grid_eps: float
    points_evaluated: int


_ZERO_POLYNOMIAL = "condition number of the zero polynomial is undefined"
_TOO_SMALL = "support too small: no perturbation on the support is singular at x"
_NO_VERTEX = "the 1-norm linear program gave no checked basic solution"


def _check_nonzero(nf: float, row: str = "") -> float:
    """``nf``, a norm1(f), when it is positive and finite; ``row`` names f in the refusal."""
    if not 0.0 < nf < math.inf:
        raise ValueError(_ZERO_POLYNOMIAL if nf == 0.0 else f"norm1(f) = {nf} is not finite{row}")
    return nf


def local_condition(f: SparsePolynomial, x) -> float:
    """kappa(f, x); math.inf iff x is a singular zero of f."""
    return float(kappa_batch(f, x)[0])


def _finite_points(f: SparsePolynomial, points) -> np.ndarray:
    """``points`` as rows of shape (N, n), each of which must be finite."""
    X = _as_points(f, points)
    if not np.isfinite(X).all():  # flat check first: a per-row one is slow for small n
        bad = X[~np.isfinite(X).all(axis=1)]
        raise ValueError(f"kappa needs a finite point, got {bad[0].tolist()}")
    return X


def kappa_batch(f: SparsePolynomial, points) -> np.ndarray:
    """Vectorised kappa(f, x) over rows of ``points``, which must be finite."""
    nf = _check_nonzero(norm1(f))
    return _kappa_sums(nf, _kernel(f, _finite_points(f, points), 0, f.n + 1), f.degree)


def _kappa_rows(support, C: np.ndarray, x) -> np.ndarray:
    """kappa(f_t, x) at one finite point x for each row of C, the coefficients of a
    polynomial f_t on ``support``, with the bits of ``local_condition(f_t, x)``."""
    terms, rows, nf, degrees = _batch(support, C)
    row = int(np.argmin((nf > 0.0) & (nf < math.inf)))  # the first refused row, if any
    _check_nonzero(float(nf[row]), f" (row {row})")
    x, T = np.asarray(x, dtype=np.float64), len(C)
    # x once per polynomial, each copy reading its own column of the rows
    sums = _kernel_sums(terms, rows, terms.ends, np.broadcast_to(x, (T, x.size)), np.arange(T))
    return _kappa_sums(nf, sums, degrees)


def _kappa_sums(nf, sums: np.ndarray, degrees) -> np.ndarray:
    """kappa from the kernel sums (N, n + 1) of f and its partials, given norm1 and degree;
    ``sums`` is overwritten with its magnitudes."""
    magnitudes = np.abs(sums, out=sums)
    return _kappas(nf, np.maximum(magnitudes[:, 0], _sum_last(magnitudes[:, 1:]) / degrees))


def _kappas(nf, denom: np.ndarray) -> np.ndarray:
    """kappa = nf / denom per denominator (nf one norm or one per row), inf where denom <= 0."""
    return np.divide(nf, denom, out=np.full_like(denom, np.inf), where=denom > 0.0)


def _grid_terms(f: SparsePolynomial) -> int:
    """The terms one grid point costs: at n = 1 the scan runs Horner over the
    degree + 1 dense coefficients; at n >= 2 the kernel's work is counted as
    the larger of support size x n and its power chain, the sum over the
    variables of the top exponent."""
    if f.n == 1:
        return f.degree + 1
    return max(f.support_size * f.n, int(f.exponents.max(axis=0, initial=0).sum()))


def _finest_grid_eps(f: SparsePolynomial):
    """The smallest grid_eps of the form 1/k whose grid fits under GRID_WORK_CAP, or None."""
    # grids under the cap have at most `most` points per axis; eps = 1/(most - 2)
    # gives at most that many, with one to spare for the rounding of 1/eps
    most = math.floor((GRID_WORK_CAP / _grid_terms(f)) ** (1.0 / f.n))
    return 1.0 / (most - 2) if most > 3 else None


def _grid_axes(f: SparsePolynomial, grid_eps: float) -> np.ndarray:
    # ceil(1/eps)+1 evenly spaced points give covering radius <= eps on [-1, 1]
    points_per_axis = math.ceil(1.0 / grid_eps) + 1
    points = points_per_axis ** f.n
    if points * _grid_terms(f) > GRID_WORK_CAP:
        finest = _finest_grid_eps(f)
        raise ValueError(
            f"grid_eps={grid_eps} needs {points} grid points; {points} x {_grid_terms(f)} "
            f"terms per point exceeds the cap of {GRID_WORK_CAP}, "
            + (f"grid_eps >= 1/{round(1 / finest)} fits" if finest else "no grid_eps fits")
        )
    return np.linspace(-1.0, 1.0, points_per_axis)


def _univariate_grid_max(f: SparsePolynomial, axes: np.ndarray) -> tuple[float, int]:
    """The maximum of kappa over the n = 1 grid and the number of points evaluated.

    The grid is cut into cells of consecutive points, each with a grid point as
    centre, and f and f' are evaluated at the centres first.  On a cell of
    radius r about c, Taylor's theorem bounds the denominator of kappa at every
    point of the cell from below by the larger of

        |f(c)| - |f'(c)| r - S2(f) r^2    and    (|f'(c)| - S1(f') r) / d,

    with S1(g) = sum k |g_k| >= max |g'| and S2(g) = sum binom(k, 2) |g_k|
    >= max |g''| / 2 on [-1, 1].  Each computed value is widened by Horner's
    a-priori error on [-1, 1], gamma_2d times the coefficient 1-norm (Higham
    2002, section 5.1), once at the centre and once at the point.  A cell
    whose bound is at least the smallest denominator among the centres holds
    no point of larger computed kappa and is dropped.  The other points go
    through the same _horner calls as the centres, which act pointwise, so the
    maximum has the bits of the full scan.  When a coefficient sum is not
    finite, or the r-terms alone exceed the 1-norms so that no bound can be
    positive, the centres are not evaluated first and every cell stays live.
    """
    d = f.degree
    dense = to_dense(f)
    deriv = _derivative(dense)
    # cells of radius about 1/(16 d), as the Taylor terms scale with d r, and of
    # at least 65 points, so that the two passes over the centres stay cheap
    half = max(32, (axes.size - 1) // (32 * d))
    starts = np.arange(0, axes.size, 2 * half + 1)
    ends = np.minimum(starts + 2 * half, axes.size - 1)
    centres = (starts + ends) // 2
    x = axes[centres]
    # the largest distance from a centre to a point of its cell, rounded up
    r = np.maximum(x - axes[starts], axes[ends] - x) * (1.0 + 2.0 ** -51)
    with np.errstate(all="ignore"):  # an overflow here only keeps every cell live
        norm_f, norm_d = float(np.abs(dense).sum()), float(np.abs(deriv).sum())
        # Higham's gamma_k = k u / (1 - k u) at k = 4d + 16 units of roundoff: Horner's
        # 2d, the rounding of the derivative's coefficients, of the sums here and of the
        # bound itself; the last term is Horner's underflow
        units = 4 * d + 16
        gamma = units * 2.0 ** -53 / (1.0 - units * 2.0 ** -53)
        err_f, err_d = (gamma * norm + units * math.ulp(0.0) for norm in (norm_f, norm_d))
        k = np.arange(dense.size)
        s2_f = float(k * (k - 1) / 2 @ np.abs(dense))
        s1_d = float(k[: deriv.size] @ np.abs(deriv))
        # twice each 1-norm finite keeps every Horner intermediate, at most
        # (1 + gamma) times a 1-norm, below the overflow threshold
        finite = np.isfinite([2.0 * norm_f, 2.0 * norm_d, s2_f, s1_d]).all()
        reach = float(r.max())
        hopeful = s2_f * reach * reach < norm_f or s1_d * reach < norm_d
        live = np.ones(centres.size, dtype=bool)
        checked, checked_denom = centres[:0], np.zeros(0)
        if finite and hopeful:
            value, slope = np.abs(_horner(dense, x)), np.abs(_horner(deriv, x))
            checked, checked_denom = centres, np.maximum(value, slope / d)
            bound = np.maximum(
                value - 2.0 * err_f - (slope + err_d) * r - s2_f * r * r,
                (slope - 2.0 * err_d - s1_d * r) / d,
            )
            live = ~(bound >= checked_denom.min())
    points = np.repeat(live, ends - starts + 1)
    points[checked] = False
    rest = axes[points]
    values = _horner(dense, rest)
    slopes = _horner(deriv, rest)
    np.abs(slopes, out=slopes)
    slopes /= d
    rest_denom = np.maximum(np.abs(values, out=values), slopes, out=values)
    lower = np.max(_kappas(norm1(f), np.concatenate([checked_denom, rest_denom])))
    return float(lower), checked.size + rest.size


def global_condition(f: SparsePolynomial, grid_eps: float) -> GlobalConditionEnclosure:
    """Enclose max kappa(f, x) over the cube using a grid of covering radius grid_eps.

    The lower end is the grid maximum.  Since x -> 1/kappa(f, x) is
    d-Lipschitz for the infinity norm, 1/kappa(f) >= 1/lower - d*grid_eps;
    when that is positive its reciprocal is a certified upper bound,
    otherwise the upper end is reported as math.inf.  For n = 1 the grid
    maximum skips the cells that provably cannot hold it (see
    ``_univariate_grid_max``) and has the bits of the full scan.
    """
    _check_nonzero(norm1(f))
    if not 0.0 < grid_eps < 1.0:
        raise ValueError(f"grid_eps must lie in (0, 1), got {grid_eps}")
    axes = _grid_axes(f, grid_eps)
    if f.n == 1:
        lower, points_evaluated = _univariate_grid_max(f, axes)
    else:
        # one slab of the grid per value of the first coordinate, with a running maximum
        mesh = np.meshgrid(*([axes] * (f.n - 1)), indexing="ij")
        slab = np.stack([np.zeros(mesh[0].size)] + [m.ravel() for m in mesh], axis=1)
        lower = 0.0
        for x0 in axes:
            slab[:, 0] = x0
            lower = max(lower, float(np.max(kappa_batch(f, slab))))
        points_evaluated = axes.size ** f.n
    slack = 1.0 / lower - f.degree * grid_eps
    upper = 1.0 / slack if slack > 0.0 else math.inf
    return GlobalConditionEnclosure(lower, upper, grid_eps, points_evaluated)


def gamma_bound(f: SparsePolynomial, x) -> float:
    """Condition-based bound sqrt(n) * (d - 1) * kappa(f, x) / 2 on Smale's gamma.

    Valid when kappa(f, x) * |f(x)| / norm1(f) < 1, i.e. when the gradient
    term realises the denominator of kappa; otherwise raises
    EstimateInapplicableError.
    """
    nf = _check_nonzero(norm1(f))
    value, grad = value_and_gradient_batch(f, _finite_points(f, x))
    fx = abs(float(value[0]))
    gx = float(np.abs(grad[0]).sum())
    if not fx < gx / f.degree:
        raise EstimateInapplicableError(
            "derivative estimate needs kappa(f,x) * |f(x)| / norm1(f) < 1"
        )
    kappa = nf / (gx / f.degree)
    return math.sqrt(f.n) * (f.degree - 1) * kappa / 2


def gamma_exact_univariate(f: SparsePolynomial, x: float) -> float:
    """Smale's gamma for univariate f at x with f'(x) != 0.

    gamma = max over k >= 2 of (|f^(k)(x)| / (k! |f'(x)|))^(1/(k-1)).  The normalised
    derivatives f^(k)(x) / k! are the coefficients of f(x + t) in t, from a Taylor shift of
    the dense coefficients scaled by a power of two into [-1, 1] (gamma is a ratio): repeated
    synthetic division, which never forms a binomial multiple C(j, k) c_j.  A shifted
    coefficient that still overflows a float is refused with its order."""
    if f.n != 1:
        raise ValueError("exact gamma is implemented for univariate polynomials only")
    _check_nonzero(norm1(f))
    x = _finite_points(f, x)[0, 0]
    dense = to_dense(f)
    taylor = np.ldexp(dense, -math.frexp(np.abs(dense).max())[1])
    d = taylor.size - 1
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite order is refused below
        for i in range(d):  # pass i of the shift: one synthetic-division step on each of its slots
            taylor[d - 1 - i:d] += x * taylor[d - i:]
        bad = np.flatnonzero(~np.isfinite(taylor[1:]))
        if bad.size:
            raise ValueError(f"exact gamma overflows a float at order {bad[0] + 1}")
        if d < 1 or taylor[1] == 0.0:
            raise ValueError("gamma requires f'(x) != 0")
        roots = (np.abs(taylor[2:]) / abs(taylor[1])) ** (1.0 / np.arange(1, d))
    return float(roots.max(initial=0.0))


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    T -= np.outer(T[:, col] - (np.arange(len(T)) == row), T[row])
    basis[row] = col


def _bland(T: np.ndarray, basis: np.ndarray, cost: np.ndarray, structural: int) -> None:
    """Pivot the tableau T (right-hand side last) to a minimum of cost @ u by Bland's rule,
    entering structural columns only; refused past _PIVOTS_PER_COLUMN x its width pivots."""
    for _ in range(_PIVOTS_PER_COLUMN * T.shape[1]):
        entering = np.flatnonzero(cost[:structural] - cost[basis] @ T[:, :structural] < -_LP_TOL)
        if entering.size == 0:
            return
        col = entering[0]
        rows = np.flatnonzero(T[:, col] > _LP_TOL)
        if rows.size == 0:
            break
        ratios = np.maximum(T[rows, -1], 0.0) / T[rows, col]
        _pivot(T, basis, rows[np.lexsort((basis[rows], ratios))[0]], col)  # ties: lowest basic
    raise ValueError(_NO_VERTEX)


def _l1_basis(A: np.ndarray, b: np.ndarray, scale: float) -> np.ndarray:
    """The sorted columns of A in an optimal basis of min norm1(u) s.t. A u = b: a two-phase
    simplex over [A, -A] / scale, rows signed so that b >= 0, one artificial per row.
    Artificials left basic after phase I pivot out, or their row is redundant and dropped."""
    r, m = A.shape
    signed = np.where(b[:, None] < 0.0, -A, A) / scale
    T = np.hstack([signed, -signed, np.eye(r), np.abs(b)[:, None] / scale])
    basis, artificial = np.arange(2 * m, 2 * m + r), np.r_[np.zeros(2 * m), np.ones(r)]
    _bland(T, basis, artificial, 2 * m)
    if artificial[basis] @ T[:, -1] > _LP_TOL:
        raise SupportTooSmallError(_TOO_SMALL)
    for row in np.flatnonzero(basis >= 2 * m):
        entries = np.flatnonzero(np.abs(T[row, : 2 * m]) > _LP_TOL)
        if entries.size:
            _pivot(T, basis, row, entries[0])
    T, basis = T[basis < 2 * m], basis[basis < 2 * m]
    _bland(T, basis, 1.0 - artificial, 2 * m)
    return np.unique(basis % m)


def dist1_to_sigma_x(f: SparsePolynomial, x) -> float:
    """1-norm distance from f to the polynomials (on the same support) singular at x.

    Minimises norm1(delta) subject to (f - delta)(x) = 0 and grad (f - delta)(x) = 0, with
    delta on the support of f, by a simplex and one least-squares solve on the support columns
    of its optimal basis.  A ValueError refuses, with no fallback, a basis of more than n + 1
    columns, a solution failing the consistency check and a simplex past its pivot cap.
    """
    _check_nonzero(norm1(f))
    x = _finite_points(f, x)
    # rows: evaluation and the n partial derivatives, one column per support exponent
    A, b = _monomial_matrix(f, x), np.append(*value_and_gradient_batch(f, x))
    if not b.any():
        return 0.0
    scale = float(np.abs(A).max()) + float(np.abs(b).sum())
    if not math.isfinite(scale):  # before the tableau, which no inf or nan may reach
        raise ValueError(f"dist1 needs a finite system at x, got b = {b.tolist()}, scale {scale}")
    sub = A[:, _l1_basis(A, b, scale)]
    delta = np.linalg.lstsq(sub, b, rcond=None)[0]
    residual = float(np.abs(sub @ delta - b).max())
    if sub.shape[1] > f.n + 1 or residual > 1e-9 * scale * (1.0 + float(np.abs(delta).max())):
        raise ValueError(_NO_VERTEX)
    return float(np.abs(delta).sum())


def local_size_bound(f: SparsePolynomial, x) -> float:
    """Volume threshold (d * sqrt(2n) * kappa(f, x))^(-n); 0 at singular points.

    Any box through x small enough to beat this volume already satisfies the
    exclusion predicate, which is what drives the subdivision complexity
    accounting.
    """
    kappa = local_condition(f, x)
    return (f.degree * math.sqrt(2 * f.n) * kappa) ** (-f.n)
