"""Univariate real root isolation on [-1, 1] and separation machinery.

The isolator is a bisection solver driven by coefficient sign variations.
A tree node [a, b] is its Moebius image V(x) = (1 + x)^D g(1 / (1 + x)) with
g(t) = f(a + (b - a) t), which is the scaled Bernstein coefficients of f on
[a, b] in reverse order; its sign variation count v bounds the number of
roots in the open interval.  The ends of V are f(b) (constant term) and
f(a) (leading term), each times a power of two.  v = 0 discards the
interval; v = 1 with both ends nonzero certifies exactly one simple root and
a strict sign change f(a) f(b) < 0; any other node is bisected: the left
child is V(1 + 2x), and reversing V mirrors the node, so the right child is
the reversed left child of the reversed V.  A zero end is a root on a
bisection point (or on -1 or 1), reported exactly.  Every decision reads
the exact integer coefficients; the isolator evaluates nothing in floats.
The root oracle finds all complex roots by simultaneous Aberth-Ehrlich
iteration on the dense coefficient vector, started on the circles of the
coefficients' Newton polygon; converged roots are frozen, and
the result is cached per polynomial object.
"""

from __future__ import annotations

import math
import weakref
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .poly import SparsePolynomial, _derivative, _horner, _is_int, norm1, to_dense

__all__ = [
    "TreeStats",
    "IsolationResult",
    "SeparationEstimate",
    "HypothesisViolatedError",
    "OracleFailedError",
    "sign_variations",
    "descartes_isolate",
    "separation_oracle",
    "oracle_roots",
    "tree_size_bound",
    "separation_lower_bound",
    "eps_separation_lower_bound",
    "js_condition_bound",
]

MAX_DENSE_DEGREE = 512
_ABERTH_TOL = 1e-12  # relative residual target of _aberth
_ABERTH_MAX_SWEEPS = 1000  # correction sweeps of _aberth before it gives up


class HypothesisViolatedError(ValueError):
    """A bound was requested outside the regime where it is proved."""


class OracleFailedError(RuntimeError):
    """The simultaneous root iteration did not converge."""


@dataclass
class TreeStats:
    nodes: int = 0
    depth: int = 0
    per_depth: list = field(default_factory=list)

    def count(self, depth: int) -> None:
        self.nodes += 1
        self.depth = max(self.depth, depth)
        while len(self.per_depth) <= depth:
            self.per_depth.append(0)
        self.per_depth[depth] += 1


@dataclass
class IsolationResult:
    """Isolating intervals, exact bisection-point roots and tree statistics.

    Every reported (lo, hi) is a tree node: it carries exactly one simple root
    in its interior, and f(lo) * f(hi) < 0 holds exactly for the dyadic
    coefficients and endpoints.  Roots hit exactly by a bisection point (or
    by an endpoint of [-1, 1]) are listed in ``exact_roots`` instead.  ``complete``
    is False when the depth guard left some interval unresolved; those
    intervals are listed in ``unresolved``.  ``max_coefficient_bits`` is the
    largest bit length of an integer coefficient of a node's Moebius image V
    (the node's reversed scaled Bernstein coefficients), which sizes the
    exact arithmetic of a split into V(1 + 2x) and its mirror.
    """

    intervals: list
    exact_roots: list
    tree: TreeStats
    complete: bool = True
    unresolved: list = field(default_factory=list)
    max_coefficient_bits: int = 0

    @property
    def root_count(self) -> int:
        return len(self.intervals) + len(self.exact_roots)


@dataclass(frozen=True)
class SeparationEstimate:
    """Pairwise root distances: delta over real roots in [-1, 1], delta_eps
    over all complex roots within distance eps of the interval.  ``sweeps``
    counts the Aberth sweeps of the root solve behind them."""

    delta: float
    delta_eps: float
    eps: float
    sweeps: int = 0


def sign_variations(coeffs) -> int:
    """Number of sign changes in a coefficient sequence, zeros deleted."""
    count = 0
    previous = 0
    for c in coeffs:
        if c == 0:
            continue
        sign = 1 if c > 0 else -1
        if previous != 0 and sign != previous:
            count += 1
        previous = sign
    return count


# ---------------------------------------------------------------------------
# dense coefficient transforms (ascending order throughout)
# ---------------------------------------------------------------------------

# The bisection solver transforms coefficients in exact integer arithmetic.
# Binary floating-point coefficients are dyadic rationals, so a common
# power-of-two scaling turns them into integers; all node operations below
# (scalings by powers of two and shifts by one) stay integral.  Variation
# counts are then exact for the represented polynomial -- in doubles, the
# coefficients of the restriction of a degree-64 polynomial to a wide
# interval span more orders of magnitude than the mantissa holds, and
# rounded signs routinely corrupt the count.

def _dyadic_ints(dense) -> list[int]:
    """Scale float coefficients by a common power of two into exact integers."""
    parts = [float(c).as_integer_ratio() for c in dense]
    shift = max(den.bit_length() - 1 for _, den in parts)
    return [num << (shift - (den.bit_length() - 1)) for num, den in parts]


def _int_shift_by_one(c: list[int]) -> list[int]:
    """Coefficients of p(x + 1), integer synthetic additions.

    Synthetic division by x - 1 runs over the descending coefficients as one
    running sum; its last entry is the next coefficient of p(x + 1), and the
    rest are the quotient, which the next pass divides again.
    """
    descending, shifted = c[::-1], []
    for _ in range(len(c) - 1):
        *descending, last = accumulate(descending)
        shifted.append(last)
    return shifted + descending


def _int_mirror(c: list[int]) -> list[int]:
    """Coefficients of p(-x)."""
    return [-v if k & 1 else v for k, v in enumerate(c)]


def _int_strip_content(c: list[int]) -> list[int]:
    """Divide out the largest common power of two (keeps sizes bounded)."""
    twos = min(
        ((v & -v).bit_length() - 1 for v in c if v != 0),
        default=0,
    )
    if twos <= 0:
        return c
    return [v >> twos for v in c]


def _int_left_image(image: list[int]) -> list[int]:
    """V(1 + 2x), content stripped: the image of the left half of a node."""
    return _int_strip_content([v << k for k, v in enumerate(_int_shift_by_one(image))])


def _dense_univariate(f: SparsePolynomial) -> np.ndarray:
    """Dense coefficients of a nonzero univariate f of degree <= MAX_DENSE_DEGREE."""
    if f.n != 1:
        raise ValueError("the root solvers require a univariate polynomial")
    if norm1(f) == 0.0:
        raise ValueError("the zero polynomial has no root set")
    if f.degree > MAX_DENSE_DEGREE:  # before to_dense allocates degree + 1 floats
        raise ValueError(f"degree {f.degree} exceeds the dense cap {MAX_DENSE_DEGREE}")
    return to_dense(f)


def descartes_isolate(f: SparsePolynomial, max_depth: int = 40) -> IsolationResult:
    """Isolate the real roots of a univariate polynomial in [-1, 1].

    Parameters
    ----------
    f : univariate SparsePolynomial, not identically zero, degree <= 512,
        square-free on [-1, 1] (otherwise the depth guard fires and the
        result is flagged incomplete)
    max_depth : bisection depth guard, an int with 1 <= max_depth <= 100

    The traversal is breadth-first with left children first, so tree
    statistics and output order are deterministic.
    """
    dense = _dense_univariate(f)
    if not (_is_int(max_depth) and 1 <= max_depth <= 100):
        raise ValueError(f"max_depth must be an integer in [1, 100], got {max_depth!r}")

    result = IsolationResult(intervals=[], exact_roots=[], tree=TreeStats())
    # f in exact integers, then f(-1 + 2t): the left image of f(-x), mirrored
    # back; the root node is its image
    root = _int_mirror(_int_left_image(_int_mirror(_dyadic_ints(dense))))
    root_image = _int_shift_by_one(root[::-1])
    if root_image[-1] == 0:  # the ends of an image read f(lo) and f(hi)
        result.exact_roots.append(-1.0)
    if root_image[0] == 0:
        result.exact_roots.append(1.0)

    queue = deque([(root_image, -1.0, 1.0, 0)])
    while queue:
        image, lo, hi, depth = queue.popleft()
        result.tree.count(depth)
        bits = max(max(image), -min(image)).bit_length()
        result.max_coefficient_bits = max(result.max_coefficient_bits, bits)
        v = sign_variations(image)
        if v == 0:
            continue
        if v == 1 and image[0] and image[-1]:
            # one variation between nonzero ends: f(hi) and f(lo) differ in sign
            result.intervals.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        if depth == max_depth or mid == lo or mid == hi:
            result.complete = False
            result.unresolved.append((lo, hi))
            continue
        left = _int_left_image(image)
        if left[0] == 0:
            # the left child's constant term is (a power of two times) f(mid)
            result.exact_roots.append(mid)
        queue.append((left, lo, mid, depth + 1))
        queue.append((_int_left_image(image[::-1])[::-1], mid, hi, depth + 1))
    result.intervals.sort()
    result.exact_roots.sort()
    return result


# ---------------------------------------------------------------------------
# all-roots oracle (Aberth-Ehrlich simultaneous iteration)
# ---------------------------------------------------------------------------

def _newton_polygon_starts(c, rng) -> tuple[np.ndarray, np.ndarray]:
    """Starting points on the circles of the Newton polygon (Bini 1996).

    The upper convex hull of the points (k, log|c_k|), zero coefficients
    skipped, has an edge from k_a to k_b for each group of k_b - k_a root
    moduli; the group starts on the circle of radius
    (|c_{k_a}| / |c_{k_b}|)^(1 / (k_b - k_a)) with fixed-seed angular jitter,
    each circle turned by 2 pi k_a / D.  Returns the points and their radii.
    """
    degree = len(c) - 1
    ks = np.flatnonzero(c)
    logs = np.log(np.abs(c[ks]))
    hull = [0]
    for i in range(1, len(ks)):
        # pop the last vertex while it lies on or below the chord to point i
        while len(hull) >= 2 and (
            (logs[hull[-1]] - logs[hull[-2]]) * (ks[i] - ks[hull[-2]])
            <= (logs[i] - logs[hull[-2]]) * (ks[hull[-1]] - ks[hull[-2]])
        ):
            hull.pop()
        hull.append(i)
    jitter = rng.uniform(0.25, 0.75, degree)
    radii = np.empty(degree)
    angles = np.empty(degree)
    for a, b in zip(hull, hull[1:]):
        lo, hi = ks[a], ks[b]
        radii[lo:hi] = math.exp((logs[a] - logs[b]) / (hi - lo))
        angles[lo:hi] = 2.0 * np.pi * (
            (np.arange(hi - lo) + jitter[lo:hi]) / (hi - lo) + lo / degree
        )
    return radii * np.exp(1j * angles), radii


def _aberth(dense) -> tuple[np.ndarray, int]:
    """All complex roots of an ascending dense coefficient vector, and the
    number of correction sweeps they took (0 when no iteration was needed).

    Roots at the origin (zero low-order coefficients) are split off exactly.
    The rest start on the circles of the Newton polygon of the coefficients
    (Bini 1996, as in MPSolve), with deterministic angular jitter (fixed
    seed), and the Aberth-Ehrlich correction runs until every residual
    satisfies |p(z)| <= _ABERTH_TOL * sum|c| * max(1, |z|)^D; the max(1, |z|)^D
    factor keeps the target achievable in double precision for roots outside
    the unit disk.  A root that meets its target is frozen: later sweeps correct only
    the others, which are still repelled by every root.  Raises
    OracleFailedError after ``_ABERTH_MAX_SWEEPS`` sweeps without convergence.
    """
    c = np.asarray(dense, dtype=np.float64)
    scale_norm = float(np.abs(c).sum())
    while len(c) > 1 and c[-1] == 0.0:
        c = c[:-1]
    zeros_at_origin = 0
    while len(c) > 1 and c[0] == 0.0:
        c = c[1:]
        zeros_at_origin += 1
    degree = len(c) - 1
    origin = np.zeros(zeros_at_origin, dtype=np.complex128)
    if degree == 1:
        return np.concatenate([origin, np.array([-c[0] / c[1]], dtype=np.complex128)]), 0

    rng = np.random.default_rng(123456789)
    z, radii = _newton_polygon_starts(c, rng)
    deriv = _derivative(c)
    active = np.arange(degree)
    for sweep in range(_ABERTH_MAX_SWEEPS):
        # a root whose residual meets the target is frozen; it still repels
        za = z[active]
        pz = _horner(c, za)
        target = _ABERTH_TOL * scale_norm * np.maximum(1.0, np.abs(za)) ** degree
        moving = ~(np.abs(pz) <= target)
        if not moving.any():
            return np.concatenate([origin, z]), sweep
        active, za, pz = active[moving], za[moving], pz[moving]
        pdz = _horner(deriv, za)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = pz / pdz
            diff = za[:, None] - z[None, :]
            diff[np.arange(len(active)), active] = np.inf
            repulsion = (1.0 / diff).sum(axis=1)
            w = newton / (1.0 - newton * repulsion)
        bad = ~np.isfinite(w)
        if bad.any():
            kick = 0.01 * radii[active] * np.exp(1j * rng.uniform(0, 2 * np.pi, len(active)))
            w = np.where(bad, kick, w)
        oversize = np.abs(w) > 1.0 + np.abs(za)
        if oversize.any():
            w = np.where(oversize, w * (1.0 + np.abs(za)) / np.abs(w), w)
        z[active] = za - w
    raise OracleFailedError("oracle failed: root iteration did not converge")


def _classify_real(dense, roots):
    """Split the oracle output into polished real roots and complex roots."""
    deriv = _derivative(dense)
    reals = []
    complexes = []
    for z in roots:
        if abs(z.imag) <= 1e-8 * max(1.0, abs(z)):
            x = z.real
            for _ in range(5):  # Newton polish; harmless for simple roots
                px = _horner(dense, x)
                dpx = _horner(deriv, x)
                if dpx == 0.0 or not math.isfinite(px):
                    break
                step = px / dpx
                if abs(step) > 0.1 * (1.0 + abs(x)):
                    break
                x = x - step
            if abs(_horner(dense, x)) <= abs(_horner(dense, z.real)):
                reals.append(x)
            else:
                reals.append(z.real)
        else:
            complexes.append(z)
    return np.array(reals), np.array(complexes, dtype=np.complex128)


def _min_pairwise(values) -> float:
    best = math.inf
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            best = min(best, abs(values[i] - values[j]))
    return best


def _distance_to_interval(z: complex) -> float:
    return math.hypot(max(0.0, abs(z.real) - 1.0), z.imag)


class _OracleRoots(NamedTuple):
    reals: np.ndarray
    complexes: np.ndarray
    sweeps: int


# SparsePolynomial is frozen with read-only arrays, so an entry never goes
# stale; it lives as long as its polynomial object.
_ROOT_CACHE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _oracle_entry(f: SparsePolynomial) -> _OracleRoots:
    """The cached roots and sweep count of f, solving on a cache miss."""
    cached = _ROOT_CACHE.get(f)
    if cached is None:
        dense = _dense_univariate(f)
        roots, sweeps = _aberth(dense)
        reals, complexes = _classify_real(dense, roots)
        reals.setflags(write=False)
        complexes.setflags(write=False)
        cached = _ROOT_CACHE[f] = _OracleRoots(reals, complexes, sweeps)
    return cached


def oracle_roots(f: SparsePolynomial) -> tuple[np.ndarray, np.ndarray]:
    """All roots of f as (real roots, strictly complex roots).

    Real roots are identified by a relative imaginary-part threshold and
    polished by a few Newton steps.  The result is computed once per
    polynomial object and cached while the object lives, so both arrays are
    read-only; a failed solve is not cached.
    """
    return _oracle_entry(f)[:2]  # (reals, complexes)


def _check_eps(eps: float) -> None:
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")


def separation_oracle(f: SparsePolynomial, eps: float) -> SeparationEstimate:
    """Numerically computed separations of the roots of f near [-1, 1].

    ``delta`` is the minimum distance between real roots inside [-1, 1];
    ``delta_eps`` the minimum distance between any two complex roots within
    distance ``eps`` of the interval.  Either is math.inf when fewer than two
    qualifying roots exist.
    """
    _check_eps(eps)
    reals, complexes, sweeps = _oracle_entry(f)
    reals_in_cube = reals[np.abs(reals) <= 1.0]
    delta = _min_pairwise(list(reals_in_cube))
    near = [complex(r, 0.0) for r in reals if _distance_to_interval(complex(r, 0.0)) <= eps]
    near.extend(z for z in complexes if _distance_to_interval(z) <= eps)
    delta_eps = _min_pairwise(near)
    return SeparationEstimate(delta=delta, delta_eps=delta_eps, eps=eps, sweeps=sweeps)


# ---------------------------------------------------------------------------
# evaluable complexity / separation bound formulas
# ---------------------------------------------------------------------------

TREE_SIZE_CONSTANT = 8.0  # validated empirically, not proven


def tree_size_bound(f: SparsePolynomial, kappa_upper: float) -> float:
    """Bound C * |M| * (log2(kappa_upper) + log2(d) + 1) on the tree size.

    ``kappa_upper`` must dominate the global condition number of f; an
    infinite value yields an infinite (vacuous) bound.
    """
    if kappa_upper < 1.0:
        raise ValueError("kappa_upper must be >= 1")
    return TREE_SIZE_CONSTANT * f.support_size * (
        math.log2(kappa_upper) + math.log2(f.degree) + 1.0
    )


def separation_lower_bound(f: SparsePolynomial, kappa_upper: float) -> float:
    """Lower bound 2*sqrt(2) / (d * sqrt(kappa_upper)) on the real separation."""
    if kappa_upper < 1.0:
        raise ValueError("kappa_upper must be >= 1")
    return 2.0 * math.sqrt(2.0) / (f.degree * math.sqrt(kappa_upper))


def eps_separation_lower_bound(f: SparsePolynomial, kappa_upper: float, eps: float) -> float:
    """Lower bound 1 / (12 * d * kappa_upper) on the eps-neighbourhood separation.

    Requires 0 < eps < 1 / (e * d * kappa_upper): an eps not positive and finite is
    a ValueError; past the limit the bound is not established (HypothesisViolatedError).
    """
    if kappa_upper < 1.0:
        raise ValueError("kappa_upper must be >= 1")
    _check_eps(eps)
    limit = 1.0 / (math.e * f.degree * kappa_upper)
    if not eps < limit:
        raise HypothesisViolatedError(
            f"hypothesis violated: eps must lie in (0, {limit:.3e}), got {eps:.3e}"
        )
    return 1.0 / (12.0 * f.degree * kappa_upper)


def js_condition_bound(M_size: int, d: int, norm1_f: float, kappa: float) -> float:
    """Condition-based variant |M|^12 * log2(d)^3 * max(log2(norm1)^2, log2(kappa)^3),
    with each log factor read as at least 1, so a linear input gets a bound above 0."""
    if M_size <= 0 or d <= 0 or norm1_f <= 0:
        raise ValueError("all arguments must be positive")
    if kappa < 1.0:
        raise ValueError("kappa must be >= 1")
    return (
        float(M_size) ** 12
        * max(1.0, math.log2(d)) ** 3
        * max(1.0, math.log2(norm1_f) ** 2, math.log2(kappa) ** 3)
    )
