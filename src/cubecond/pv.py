"""Breadth-first box subdivision of the unit cube with the exclusion predicate.

The worklist starts from [-1, 1]^n; a box passing the predicate moves to the
output, otherwise its 2^n children are enqueued.  The worklist is FIFO and
children are enqueued in lexicographic coordinate order, so reports are
bit-for-bit reproducible.  It is held one depth at a time, as an (N, n)
midpoint array and the width all those boxes share.  Singular inputs never
terminate, which the depth guard and box budget turn into a flagged report.
One walk subdivides for many polynomials on one support at once, each box
tagged with the polynomial that owns it; ``pv_subdivide`` is its one-row call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .condition import kappa_batch
from .interval import _clause_codes, _exclusion_radii, sample_boxes, split_boxes
from .poly import (
    _CHUNK_POINTS,
    SparsePolynomial,
    _batch,
    _fold_last,
    _is_int,
    _kernel_sums,
    evaluate_batch,
    gradient_batch,
)

__all__ = [
    "SubdivisionReport",
    "pv_subdivide",
    "verify_output_boxes",
    "amortization_bound",
]

MAX_BOXES = 2 ** 20  # processed boxes per subdivision; bounds its time and memory
_VERIFY_CHUNK_POINTS = 2 ** 14  # sample points per kernel call in verify_output_boxes
_GRAM_BLOCK_ENTRIES = 2 ** 16  # Gram matrix entries per block of the verifier's gradient check
_CLAUSE_NAMES = (None, "value", "gradient")  # indexed by clause codes


@dataclass
class SubdivisionReport:
    """Final subdivision plus worklist statistics.

    Final box i has midpoint ``final_midpoints[i]``, width ``final_widths[i]``
    and clause code ``final_codes[i]``: 1 when the value clause accepted it,
    2 for the gradient clause.  ``per_depth_counts[k]`` counts the boxes
    processed at depth k.  ``terminated`` is False when the max-depth guard
    or the box budget fired; the report then holds the partial state, and
    ``max_depth_reached`` below the max depth tells a budget stop.
    """

    final_midpoints: np.ndarray
    final_widths: np.ndarray
    final_codes: np.ndarray
    processed_count: int
    max_depth_reached: int
    per_depth_counts: list
    terminated: bool

    @property
    def final_count(self) -> int:
        return len(self.final_widths)

    @property
    def final_clauses(self) -> list:
        """The clause names ("value" or "gradient") of the final boxes, in report order."""
        return [_CLAUSE_NAMES[code] for code in self.final_codes.tolist()]


def pv_subdivide(f: SparsePolynomial, max_depth: int = 30) -> SubdivisionReport:
    """Subdivide the unit cube until every box passes the exclusion predicate.

    Stops early with ``terminated=False`` as soon as a failing box at depth
    ``max_depth`` would have to be split further, or the next split would take
    the processed count past ``MAX_BOXES``.  This is the one-row call of
    ``_walk``, on ``f._batch``.
    """
    levels = []
    processed, failing = _walk(f._batch, max_depth, levels)
    counts = processed[:len(levels), 0].tolist()
    midpoints, codes, depths = zip(*levels)
    widths = [np.full(len(c), math.ldexp(2.0, -depth)) for c, depth in zip(codes, depths)]
    return SubdivisionReport(
        np.concatenate(midpoints), np.concatenate(widths), np.concatenate(codes),
        processed_count=sum(counts), max_depth_reached=len(counts) - 1,
        per_depth_counts=counts, terminated=bool(failing[len(counts) - 1, 0] == 0),
    )


def _subdivide_rows(support, C: np.ndarray, max_depth: int) -> tuple:
    """``pv_subdivide(f_t, max_depth)`` for each row of C, the coefficients of a
    polynomial f_t on ``support``, as one walk over the boxes of all of them.

    Returns the final box count and the ``terminated`` flag of each row, as (T,)
    arrays, and its boxes processed per depth, column t of a (max_depth + 1, T)
    array; the final boxes themselves are not kept.
    """
    processed, failing = _walk(_batch(support, C), max_depth)
    last = np.count_nonzero(processed, axis=0) - 1  # the depth of each row's last level
    final_counts = processed.sum(axis=0) - failing.sum(axis=0)
    return final_counts, failing[last, np.arange(len(C))] == 0, processed


def _walk(batch: tuple, max_depth: int, levels: list | None = None) -> tuple:
    """The boxes processed and the boxes failing the predicate, per depth (row) and
    polynomial (column), of the subdivisions of T polynomials on one support.
    ``batch`` is their ``poly._batch`` (terms, rows, nf, degrees): the kernel rows
    take the columns of ``rows`` (R, T), and the polynomials' norm1 and degree are
    ``nf`` and ``degrees`` (T,).  ``levels``, when given, collects the (midpoints,
    codes, depth) of the boxes each level accepts; for one polynomial the levels
    come in depth order.

    A batch holds the boxes of some polynomials, their owners, at one depth,
    grouped by ascending owner: ``owners`` lists them and ``counts`` their boxes.
    Each owner's boxes keep the order of its own FIFO worklist, so a level is one
    kernel pass and each polynomial gets the bits and the stop it gets alone; it
    leaves the walk when it has no failing box, at the depth guard, or when the
    children of its failing boxes would not fit in what its ``MAX_BOXES`` budget has
    left.  A level of several owners holds at most ``MAX_BOXES >> 3`` boxes: a batch
    whose level would hold more splits by owner into halves, run one after the other.
    """
    terms, coefficients, nf, degrees = batch
    if not nf.all():
        raise ValueError("cannot subdivide for the zero polynomial")
    if not (_is_int(max_depth) and 1 <= max_depth <= 50):
        raise ValueError(f"max_depth must be an integer in [1, 50], got {max_depth!r}")
    T, n = len(nf), len(terms.ends) - 2
    processed_at, failing_at = np.zeros((2, max_depth + 1, T), dtype=np.int64)
    room = np.full(T, MAX_BOXES, dtype=np.int64)  # the boxes each polynomial may still process
    # the radii at half-width 1: times a level's half-width, they are the products of
    # _exclusion_radii in its order, as a product with 1.0 is exact
    unit_radii = _exclusion_radii(degrees, nf, n, 1.0)
    # the batches to process, last in first out, as (boxes, owners, counts, depth): the
    # boxes are the roots at depth 0 and else the parents to split
    todo = [(np.zeros((T, n)), np.arange(T), np.ones(T, dtype=np.int64), 0)]
    while todo:
        boxes, owners, counts, depth = todo.pop()
        shift = n if depth else 0  # log2 of the level's boxes per box of the batch
        # a level of several owners holds at most an eighth of a budget, so that a chunk
        # peaks near its heaviest trial run alone
        if len(boxes) << shift > MAX_BOXES >> 3 and len(owners) > 1:
            half = len(owners) // 2
            cut = int(counts[:half].sum()) >> shift
            todo += [(boxes[cut:], owners[half:], counts[half:], depth),
                     (boxes[:cut], owners[:half], counts[:half], depth)]
            continue
        midpoints = split_boxes(boxes, math.ldexp(4.0, -depth)) if depth else boxes
        sums = _kernel_sums(terms, coefficients, terms.ends, midpoints, _spread(owners, counts))
        half_w = math.ldexp(1.0, -depth)
        radii = (_spread(radius.take(owners), counts) * half_w for radius in unit_radii)
        codes = _clause_codes(sums, *radii)
        passed = codes > 0
        if levels is not None:
            levels.append((midpoints.compress(passed, axis=0), codes.compress(passed), depth))
        failing_boxes = ~passed
        failing = _count(failing_boxes, counts)
        processed_at[depth][owners] = counts
        failing_at[depth][owners] = failing
        room[owners] = left = room[owners] - counts
        # an owner splits its failing boxes while its next level fits in its room
        stay = (failing > 0) & (failing <= left >> n)
        if depth < max_depth and np.count_nonzero(stay):
            parents = midpoints.compress(failing_boxes & _spread(stay, counts), axis=0)
            todo.append((parents, owners[stay], failing[stay] << n, depth + 1))
    return processed_at, failing_at


def _spread(values: np.ndarray, counts: np.ndarray):
    """Per-owner ``values`` repeated over the boxes of each owner, ``counts`` of
    them; a lone owner's value is one number for all its boxes."""
    return values[0] if len(counts) == 1 else values.repeat(counts)


def _count(mask: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The set entries of the box ``mask`` per owner, whose boxes number ``counts``."""
    if len(counts) == 1:
        return np.array([np.count_nonzero(mask)])
    return np.add.reduceat(mask, counts.cumsum() - counts, dtype=np.int64)


def verify_output_boxes(
    f: SparsePolynomial,
    report: SubdivisionReport,
    samples_per_box: int = 64,
    seed: int = 0,
) -> bool:
    """Sampling check of the semantic exclusion condition on every final box.

    A box verifies when the sampled values of f all share one strict sign, or
    when every pair of sampled gradient covectors has positive dot product.
    Returns the conjunction over boxes; a False return on a terminated report
    is a soundness violation.  One sample per box would verify vacuously, so
    ``samples_per_box`` must be at least 2.
    """
    if not (_is_int(samples_per_box) and samples_per_box >= 2):
        raise ValueError(f"samples_per_box must be an integer >= 2, got {samples_per_box!r}")
    rng = np.random.default_rng(seed)
    chunk = max(1, _VERIFY_CHUNK_POINTS // samples_per_box)
    # the draws and sample points of every chunk; the kernel calls only read the points,
    # and the boxes kept for the gradient check are copied out by the boolean index
    buffer = np.empty((2, min(chunk, report.final_count) * samples_per_box * f.n))
    # the sample points of sign-changing boxes wait here until they fill a chunk
    mixed, mixed_boxes = [], 0
    for start in range(0, report.final_count, chunk):
        boxes = slice(start, start + chunk)
        points = sample_boxes(report.final_midpoints[boxes], report.final_widths[boxes], rng,
                              samples_per_box, out=buffer)
        values = evaluate_batch(f, points.reshape(-1, f.n)).reshape(points.shape[:2])
        one_sign = (values.min(axis=1) > 0.0) | (values.max(axis=1) < 0.0)
        mixed.append(points[~one_sign])
        mixed_boxes += len(mixed[-1])
        if mixed_boxes >= chunk or start + chunk >= report.final_count:
            if mixed_boxes:
                buffered = np.concatenate(mixed)
                grads = gradient_batch(f, buffered.reshape(-1, f.n)).reshape(buffered.shape)
                if not _gradients_agree(grads):
                    return False
            mixed, mixed_boxes = [], 0
    return True


def _gradient_cone(grads: np.ndarray) -> np.ndarray:
    """Which boxes of sampled gradients ``grads`` (M, s, n) the cone certificate
    proves to pass the Gram check, as an (M,) bool array.

    A box is certified when every computed g_i . g_0 > 0 with (g_i . g_0)^2 >=
    (3/4)^2 |g_i|^2 |g_0|^2, and every computed |g_i|^2 lies in [2^-500, 2^500].
    Each g_i then lies within acos(3/4) = 41.4 degrees of g_0, up to rounding, so
    every pair is within 82.9 degrees and has g_i . g_j >= (2 (3/4)^2 - 1)
    |g_i||g_j| = |g_i||g_j| / 8.  Any floating-point dot product of length n
    errs by at most gamma_n |g_i||g_j| + n 2^-1074 (Higham 2002, ch. 3); the norm
    range bounds the underflow term by n 2^-574 |g_i||g_j| and keeps every
    product finite, so BLAS computes each g_i . g_j positive.  NaN, infinite,
    zero, tiny and huge gradients fail a comparison and go to the Gram check.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        dots = _fold_last(grads * grads[:, :1])
        squares = _fold_last(grads * grads)
        inside = (dots > 0.0) & (dots * dots >= 0.5625 * squares * squares[:, :1])
    in_range = (squares >= 2.0 ** -500) & (squares <= 2.0 ** 500)
    return (inside & in_range).all(axis=1)


def _gradients_agree(grads: np.ndarray) -> bool:
    """Whether every pair of sampled gradients in each box of ``grads`` (M, s, n)
    has a positive dot product: the cone certificate decides the easy boxes and
    the Gram matrix the others, a block of its rows at a time, on C-ordered copies."""
    uncertified = grads.compress(~_gradient_cone(grads), axis=0)
    rows = max(1, _GRAM_BLOCK_ENTRIES // grads.shape[1])
    return all(
        np.min(box_grads[lo:lo + rows] @ box_grads.T) > 0.0
        for box_grads in uncertified
        for lo in range(0, len(box_grads), rows)
    )


def amortization_bound(f: SparsePolynomial, n_samples: int, seed: int = 0) -> float:
    """Monte Carlo estimate of 4^n * E[(d * sqrt(2n) * kappa(f, x))^n].

    The expectation is over x uniform on the cube; the quantity bounds the
    number of final boxes of ``pv_subdivide`` whenever it terminates.  The
    estimate diverges with n_samples when f has a singular zero in the cube.
    """
    if not (_is_int(n_samples) and n_samples >= 1):
        raise ValueError(f"n_samples must be an integer >= 1, got {n_samples!r}")
    rng = np.random.default_rng(seed)
    scale = f.degree * math.sqrt(2 * f.n)
    integrand = np.empty(n_samples)
    # in blocks, which draw the stream in order and give each point the bits of one draw
    # of all n_samples points, while only one block of points and kernel sums is held
    for lo in range(0, n_samples, _CHUNK_POINTS):
        block = integrand[lo:lo + _CHUNK_POINTS]
        kappas = kappa_batch(f, rng.uniform(-1.0, 1.0, size=(len(block), f.n)))
        with np.errstate(over="ignore"):
            block[:] = (scale * kappas) ** f.n
    return float(4 ** f.n * np.mean(integrand))
