"""Breadth-first box subdivision of the unit cube with the exclusion predicate.

The worklist starts from [-1, 1]^n; a box passing the predicate moves to the
output, otherwise its 2^n children are enqueued.  The worklist is FIFO and
children are enqueued in lexicographic coordinate order, so reports are
bit-for-bit reproducible.  It is held one depth at a time, as an (N, n)
midpoint array and the width all those boxes share.  Singular inputs never
terminate, which the max-depth guard converts into a flagged partial report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .condition import kappa_batch
from .interval import predicate_clause_batch, sample_boxes, split_boxes
from .poly import SparsePolynomial, _is_int, evaluate_batch, gradient_batch, norm1

__all__ = [
    "SubdivisionReport",
    "pv_subdivide",
    "verify_output_boxes",
    "amortization_bound",
]

_VERIFY_CHUNK_POINTS = 2 ** 13  # sample points per evaluation in verify_output_boxes
_CLAUSE_NAMES = (None, "value", "gradient")  # indexed by predicate_clause_batch codes


@dataclass
class SubdivisionReport:
    """Final subdivision plus worklist statistics.

    Final box i has midpoint ``final_midpoints[i]``, width ``final_widths[i]``
    and clause code ``final_codes[i]``: 1 when the value clause accepted it,
    2 for the gradient clause.  ``per_depth_counts[k]`` counts the boxes
    processed at depth k.  ``terminated`` is False when the max-depth guard
    fired; the report then holds the partial state.
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
    ``max_depth`` would have to be split further.
    """
    if norm1(f) == 0.0:
        raise ValueError("cannot subdivide for the zero polynomial")
    if not (_is_int(max_depth) and 1 <= max_depth <= 50):
        raise ValueError(f"max_depth must be an integer in [1, 50], got {max_depth!r}")
    # each level's predicate evaluations run as a single vectorised batch
    midpoints, width = np.zeros((1, f.n)), 2.0
    final_midpoints, final_widths, final_codes, counts = [], [], [], []
    while True:
        counts.append(len(midpoints))
        codes = predicate_clause_batch(f, midpoints, width)
        passed = codes > 0
        final_codes.append(codes[passed])
        final_midpoints.append(midpoints[passed])
        final_widths.append(np.full(np.count_nonzero(passed), width))
        if passed.all() or len(counts) > max_depth:
            break
        midpoints, width = split_boxes(midpoints[~passed], width)
    return SubdivisionReport(
        np.concatenate(final_midpoints), np.concatenate(final_widths),
        np.concatenate(final_codes), processed_count=sum(counts),
        max_depth_reached=len(counts) - 1, per_depth_counts=counts,
        terminated=bool(passed.all()),
    )


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
    for start in range(0, report.final_count, chunk):
        boxes = slice(start, start + chunk)
        points = sample_boxes(
            report.final_midpoints[boxes], report.final_widths[boxes], rng, samples_per_box
        )
        values = evaluate_batch(f, points.reshape(-1, f.n)).reshape(points.shape[:2])
        one_sign = np.all(values > 0.0, axis=1) | np.all(values < 0.0, axis=1)
        mixed = points[~one_sign]
        grads = gradient_batch(f, mixed.reshape(-1, f.n)).reshape(mixed.shape)
        for box_grads in grads:
            if not np.min(box_grads @ box_grads.T) > 0.0:
                return False
    return True


def amortization_bound(f: SparsePolynomial, n_samples: int, seed: int = 0) -> float:
    """Monte Carlo estimate of 4^n * E[(d * sqrt(2n) * kappa(f, x))^n].

    The expectation is over x uniform on the cube; the quantity bounds the
    number of final boxes of ``pv_subdivide`` whenever it terminates.  The
    estimate diverges with n_samples when f has a singular zero in the cube.
    """
    if norm1(f) == 0.0:
        raise ValueError("bound undefined for the zero polynomial")
    if not (_is_int(n_samples) and n_samples >= 1):
        raise ValueError(f"n_samples must be an integer >= 1, got {n_samples!r}")
    rng = np.random.default_rng(seed)
    points = rng.uniform(-1.0, 1.0, size=(n_samples, f.n))
    kappas = kappa_batch(f, points)
    scale = f.degree * math.sqrt(2 * f.n)
    with np.errstate(over="ignore"):
        integrand = (scale * kappas) ** f.n
    return float(4 ** f.n * np.mean(integrand))
