"""Axis-aligned boxes and the two center-Lipschitz interval approximations.

A box is stored as (midpoint, width) with the same width in every coordinate,
so B = m + (w/2) * [-1, 1]^n.  The subdivision core works on arrays: a set of
boxes is one (N, n) midpoint array plus their widths, and ``BoxN`` is the
one-box view of the public API.  Subdividing the unit cube only ever halves
widths and shifts midpoints by powers of two, so box data stays exactly
representable in binary floating point down to depth ~50.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .poly import SparsePolynomial, _fold_last, evaluate, gradient, norm1

__all__ = [
    "Interval",
    "BoxN",
    "sample_boxes",
    "interval_f",
    "interval_grad_norm",
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
        if not 0.0 < self.width < math.inf:
            raise ValueError(f"box width must be positive and finite, got {self.width}")

    def sample(self, rng, count: int) -> np.ndarray:
        """Uniform sample of ``count`` points inside the box, shape (count, n)."""
        return sample_boxes(np.array([self.midpoint]), np.array([self.width]), rng, count)[0]


def sample_boxes(midpoints: np.ndarray, widths: np.ndarray, rng, count: int,
                 out: np.ndarray | None = None) -> np.ndarray:
    """``count`` uniform points m + (w/2) u in each box, shape (N, count, n), from one
    draw that consumes ``rng`` exactly as N consecutive draws of ``count`` points each.
    The result views memory that holds each coordinate of all points contiguously.

    ``out``, when given, is a float array of shape (2, k) with k >= N count n: its
    first row takes the draws and its second the result, which then views it."""
    N, n = midpoints.shape
    size = N * count * n
    draws, coordinates = np.empty((2, size)) if out is None else out[:, :size]
    v = rng.random(out=draws.reshape(N, count, n))
    coordinates = np.subtract(np.moveaxis(v, 2, 0), 0.5, out=coordinates.reshape(n, N, count))
    # uniform(-1, 1) draws u = -1 + 2v from the same stream.  Doubling is exact, so
    # (w/2) u equals (2 (w/2)) (v - 1/2), which is w (v - 1/2) unless halving w
    # rounds (an odd subnormal width)
    coordinates *= (widths / 2 * 2)[:, None]
    coordinates += midpoints.T[:, :, None]
    return coordinates.transpose(1, 2, 0)


def _exclusion_radii(degree, nf, n: int, half_w):
    """Lipschitz radii d*nf*w/2 of f and sqrt(2n)*d^2*nf*w/2 of the gradient 1-norm
    over boxes of half-width ``half_w``, for f of degree d and norm1 nf in n
    variables; the degree, norm and half-width are numbers or arrays."""
    return degree * nf * half_w, math.sqrt(2 * n) * degree ** 2 * nf * half_w


def interval_f(f: SparsePolynomial, box: BoxN) -> Interval:
    """Range enclosure f(m) + d*norm1(f)*(w/2)*[-1, 1] for f on the box."""
    center = evaluate(f, box.midpoint)
    radius = _exclusion_radii(f.degree, norm1(f), f.n, box.width / 2)[0]
    return Interval(center - radius, center + radius)


def interval_grad_norm(f: SparsePolynomial, box: BoxN) -> Interval:
    """Enclosure of the gradient-covector 1-norm over the box, clamped at 0.

    Center is the 1-norm of the gradient at the midpoint; the radius is
    sqrt(2n) * d^2 * norm1(f) * w/2.  The lower end is clamped at 0 since a
    norm is nonnegative.
    """
    center = float(_fold_last(np.abs(gradient(f, box.midpoint))))  # the walk's sum
    radius = _exclusion_radii(f.degree, norm1(f), f.n, box.width / 2)[1]
    return Interval(max(0.0, center - radius), center + radius)


def _clause_codes(sums: np.ndarray, value_radii, grad_radii) -> np.ndarray:
    """The exclusion clause of each box, one code per row of the kernel sums
    (N, n + 1) of f and its partial derivatives at the box midpoints, given
    ``_exclusion_radii`` of each box (or of all): 1 ("value") when |f(m)| exceeds the
    value radius, 2 ("gradient") when norm1(d_m f) exceeds the gradient radius, 0 when
    neither strict inequality holds; ``sums`` is overwritten with its magnitudes.  This
    is the one place the exclusion comparison is made."""
    magnitudes = np.abs(sums, out=sums)
    grads_pass = _fold_last(magnitudes[:, 1:]) > grad_radii
    return np.where(magnitudes[:, 0] > value_radii, 1, 2 * grads_pass)


def split_boxes(midpoints: np.ndarray, width: float) -> np.ndarray:
    """The midpoints of the 2^n half-width children of boxes of one width.

    Children midpoints are m +- w/4 per coordinate; each box's children are
    consecutive, with -1 before +1 and the first coordinate most significant.
    """
    N, n = midpoints.shape
    children = midpoints.repeat(2 ** n, axis=0).reshape(N, n * 2 ** n)
    children += (_signs(n) * (width / 4)).ravel()  # a row holds one box's 2^n children
    return children.reshape(-1, n)


@functools.lru_cache(maxsize=None)
def _signs(n: int) -> np.ndarray:
    """The 2^n sign vectors in {-1, 1}^n, in the order of ``split_boxes``."""
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
    signs.setflags(write=False)
    return signs
