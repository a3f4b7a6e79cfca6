"""Axis-aligned boxes and the two center-Lipschitz interval approximations.

A box is stored as (midpoint, width) with the same width in every coordinate,
so B = m + (w/2) * [-1, 1]^n.  Subdividing the unit cube only ever halves
widths and shifts midpoints by powers of two, so box data stays exactly
representable in binary floating point down to depth ~50.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .poly import (
    SparsePolynomial,
    evaluate,
    evaluate_batch,
    gradient,
    gradient_batch,
    norm1,
)

__all__ = [
    "Interval",
    "BoxN",
    "unit_box",
    "interval_f",
    "interval_grad_norm",
    "predicate_clause",
    "predicate_Cf_box",
    "standard_subdivision",
]


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class BoxN:
    """Cube-shaped box: midpoint (tuple of floats) and a single width."""

    midpoint: tuple
    width: float

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError(f"box width must be positive, got {self.width}")

    @property
    def n(self) -> int:
        return len(self.midpoint)

    @property
    def volume(self) -> float:
        return self.width ** self.n

    def sample(self, rng, count: int) -> np.ndarray:
        """Uniform sample of ``count`` points inside the box, shape (count, n)."""
        m = np.asarray(self.midpoint)
        return m + (self.width / 2) * rng.uniform(-1.0, 1.0, size=(count, self.n))


def unit_box(n: int) -> BoxN:
    """The cube [-1, 1]^n as a box (midpoint 0, width 2)."""
    return BoxN(midpoint=(0.0,) * n, width=2.0)


def _exclusion_radii(f: SparsePolynomial, half_w):
    """Lipschitz radii d*norm1(f)*w/2 of f and sqrt(2n)*d^2*norm1(f)*w/2 of
    the gradient 1-norm over boxes of half-width ``half_w`` (float or array)."""
    nf = norm1(f)
    return f.degree * nf * half_w, math.sqrt(2 * f.n) * f.degree ** 2 * nf * half_w


def interval_f(f: SparsePolynomial, box: BoxN) -> Interval:
    """Range enclosure f(m) + d*norm1(f)*(w/2)*[-1, 1] for f on the box."""
    center = evaluate(f, box.midpoint)
    radius = _exclusion_radii(f, box.width / 2)[0]
    return Interval(center - radius, center + radius)


def interval_grad_norm(f: SparsePolynomial, box: BoxN) -> Interval:
    """Enclosure of the gradient-covector 1-norm over the box, clamped at 0.

    Center is the 1-norm of the gradient at the midpoint; the radius is
    sqrt(2n) * d^2 * norm1(f) * w/2.  The lower end is clamped at 0 since a
    norm is nonnegative.
    """
    center = float(np.abs(gradient(f, box.midpoint)).sum())
    radius = _exclusion_radii(f, box.width / 2)[1]
    return Interval(max(0.0, center - radius), center + radius)


def predicate_clause(f: SparsePolynomial, box: BoxN):
    """Which clause of the effective exclusion test the box passes, if any.

    Returns "value" when |f(m)| > d*norm1(f)*w/2 (f cannot vanish on the
    box), "gradient" when norm1(d_m f) > sqrt(2n)*d^2*norm1(f)*w/2 (the
    gradient field cannot turn on the box), and None when neither strict
    inequality holds.
    """
    return predicate_clause_batch(f, [box])[0]


def predicate_Cf_box(f: SparsePolynomial, box: BoxN) -> bool:
    """Effective box-exclusion predicate (strict inequalities; ties subdivide)."""
    return predicate_clause(f, box) is not None


def predicate_clause_batch(f: SparsePolynomial, boxes) -> list:
    """predicate_clause over a list of boxes with one vectorised evaluation."""
    mids = np.array([b.midpoint for b in boxes])
    value_radii, grad_radii = _exclusion_radii(f, np.array([b.width for b in boxes]) / 2)
    values_pass = np.abs(evaluate_batch(f, mids)) > value_radii
    grads_pass = np.abs(gradient_batch(f, mids)).sum(axis=1) > grad_radii
    out = []
    for v_ok, g_ok in zip(values_pass, grads_pass):
        out.append("value" if v_ok else ("gradient" if g_ok else None))
    return out


def standard_subdivision(box: BoxN) -> list[BoxN]:
    """Split a box into its 2^n half-width children, in lexicographic order.

    Children midpoints are m +- w/4 per coordinate; offsets are enumerated
    with -1 before +1, first coordinate most significant.
    """
    quarter = box.width / 4
    half = box.width / 2
    children = []
    for signs in itertools.product((-1.0, 1.0), repeat=box.n):
        midpoint = tuple(m + s * quarter for m, s in zip(box.midpoint, signs))
        children.append(BoxN(midpoint=midpoint, width=half))
    return children
