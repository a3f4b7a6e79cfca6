import dataclasses
import hashlib
import itertools
import math
import re
import tracemalloc
from collections import deque

import numpy as np
import pytest

import helpers
from cubecond import poly, pv
from cubecond.condition import kappa_batch
from cubecond.interval import BoxN
from cubecond.poly import new_sparse
from cubecond.pv import (
    _VERIFY_CHUNK_POINTS,
    SubdivisionReport,
    amortization_bound,
    pv_subdivide,
    verify_output_boxes,
)
from helpers import random_poly, reference_clause, reference_verify

X = new_sparse(1, [((1,), 1.0)])
LINE2 = new_sparse(2, [((1, 0), 1.0), ((0, 1), 1.0)])
DOUBLE_ROOT = new_sparse(1, [((0,), 0.25), ((1,), -1.0), ((2,), 1.0)])
CIRCLE = new_sparse(2, [((2, 0), 1.0), ((0, 2), 1.0), ((0, 0), -0.25)])
# CIRCLE squared: singular along the whole circle
SPHERE = new_sparse(3, [((2, 0, 0), 1.0), ((0, 2, 0), 1.0), ((0, 0, 2), 1.0), ((0, 0, 0), -0.5)])
DOUBLED_CIRCLE = new_sparse(2, [((4, 0), 1.0), ((2, 2), 2.0), ((0, 4), 1.0),
                                ((2, 0), -0.5), ((0, 2), -0.5), ((0, 0), 0.0625)])


def reference_subdivide(f, max_depth):
    """The per-box FIFO worklist of BoxN objects that pv_subdivide batches by
    level, with each box's clause read off the public enclosures.  Once a depth's
    last box is processed, it stops when splitting that depth's failing boxes
    would take the processed count past ``pv.MAX_BOXES``."""
    queue = deque([(BoxN((0.0,) * f.n, 2.0), 0)])
    final, clauses, counts, terminated = [], [], [0] * (max_depth + 1), True
    failing = 0  # the failing boxes of the current depth that are to be split
    while queue:
        box, depth = queue.popleft()
        counts[depth] += 1
        clause = reference_clause(f, box)
        if clause is not None:
            final.append(box)
            clauses.append(clause)
        elif depth == max_depth:
            terminated = False
        else:
            failing += 1
            for signs in itertools.product((-1.0, 1.0), repeat=f.n):
                mid = tuple(m + s * (box.width / 4) for m, s in zip(box.midpoint, signs))
                queue.append((BoxN(mid, box.width / 2), depth + 1))
        if not queue or queue[0][1] > depth:  # the depth's last box
            if sum(counts) + failing * 2 ** f.n > pv.MAX_BOXES:
                terminated = False
                break
            failing = 0
    return final, clauses, [c for c in counts if c], terminated


def test_pv_linear_univariate():
    report = pv_subdivide(X, 10)
    assert report.terminated
    assert report.final_count == 2
    assert sorted(report.final_midpoints[:, 0].tolist()) == [-0.5, 0.5]
    assert report.final_widths.tolist() == [1.0, 1.0]
    assert report.per_depth_counts == [1, 2]
    assert report.processed_count == 3


def test_pv_linear_bivariate():
    report = pv_subdivide(LINE2, 10)
    assert report.terminated
    assert report.final_count == 16
    assert report.final_widths.tolist() == [0.5] * 16
    assert report.max_depth_reached == 2
    assert report.per_depth_counts == [1, 4, 16]


@pytest.mark.parametrize("max_depth", [2.5, 2.0, True, 0, 51])
def test_pv_rejects_a_max_depth_that_is_not_an_integer_in_range(max_depth):
    # the level count is compared with max_depth as a number, so 2.5 would act as 2
    message = rf"max_depth must be an integer in \[1, 50\], got {re.escape(repr(max_depth))}$"
    with pytest.raises(ValueError, match=message):
        pv_subdivide(DOUBLE_ROOT, max_depth)


def test_pv_singular_input_flagged():
    report = pv_subdivide(DOUBLE_ROOT, 12)
    assert not report.terminated


def test_pv_budget_stops_a_runaway_subdivision():
    # (x^2 + y^2 - 1/2)^2 doubles its level count at each depth, far past 2^20 by depth 30
    f = new_sparse(2, [((4, 0), 1.0), ((2, 2), 2.0), ((0, 4), 1.0),
                       ((2, 0), -1.0), ((0, 2), -1.0), ((0, 0), 0.25)])
    report = pv_subdivide(f, 30)
    assert not report.terminated and report.max_depth_reached < 30
    assert report.processed_count == sum(report.per_depth_counts) <= pv.MAX_BOXES
    assert all(count % 4 == 0 for count in report.per_depth_counts[1:])
    assert len(report.per_depth_counts) == report.max_depth_reached + 1


def test_pv_input_validation():
    with pytest.raises(ValueError):
        pv_subdivide(new_sparse(1, []), 10)
    with pytest.raises(ValueError):
        pv_subdivide(X, 0)
    with pytest.raises(ValueError):
        pv_subdivide(X, 51)


def test_pv_partition_of_unity_volume():
    for f in (X, LINE2, CIRCLE):
        report = pv_subdivide(f, 20)
        assert report.terminated
        assert np.sum(report.final_widths ** f.n) == pytest.approx(2.0 ** f.n, rel=1e-9)


def test_pv_determinism():
    a = pv_subdivide(CIRCLE, 20)
    b = pv_subdivide(CIRCLE, 20)
    assert a.final_midpoints.tobytes() == b.final_midpoints.tobytes()
    assert a.final_codes.tobytes() == b.final_codes.tobytes()
    assert a.per_depth_counts == b.per_depth_counts


def test_verify_output_boxes_accepts_sound_reports():
    for f in (X, LINE2, CIRCLE):
        report = pv_subdivide(f, 20)
        assert verify_output_boxes(f, report, 64) is True


def test_pv_matches_per_box_reference():
    rng = np.random.default_rng(42)
    cases = [(DOUBLE_ROOT, 12), (DOUBLED_CIRCLE, 5)]
    for _ in range(15):
        n = int(rng.integers(1, 4))
        f = random_poly(rng, n, 4 if n < 3 else 2, 3 + n, include_simplex=True)
        cases.append((f, (10, 6, 3)[n - 1]))
    flagged = 0
    for f, max_depth in cases:
        report = pv_subdivide(f, max_depth)
        boxes, clauses, counts, terminated = reference_subdivide(f, max_depth)
        assert report.final_midpoints.tobytes() == np.array(
            [b.midpoint for b in boxes]).reshape(-1, f.n).tobytes()
        assert report.final_widths.tolist() == [b.width for b in boxes]
        assert report.final_clauses == clauses
        assert report.per_depth_counts == counts
        assert report.processed_count == sum(counts)
        assert report.max_depth_reached == len(counts) - 1
        assert report.terminated == terminated
        flagged += not terminated
    assert flagged >= 2


@pytest.mark.parametrize("budget", [5, 40, 300])
def test_pv_budget_matches_the_level_wise_reference(monkeypatch, budget):
    monkeypatch.setattr(pv, "MAX_BOXES", budget)
    rng = np.random.default_rng(budget)
    budget_stops = 0
    for n in (1, 2, 3):
        for _ in range(20):
            f = random_poly(rng, n, 4 if n < 3 else 2, 3 + n, include_simplex=True)
            max_depth = (14, 8, 5)[n - 1]
            report = pv_subdivide(f, max_depth)
            boxes, clauses, counts, terminated = reference_subdivide(f, max_depth)
            assert report.final_midpoints.tobytes() == np.array(
                [b.midpoint for b in boxes]).reshape(-1, f.n).tobytes()
            assert report.final_clauses == clauses
            assert report.per_depth_counts == counts
            assert report.terminated == terminated
            assert report.processed_count <= budget
            budget_stops += not terminated and report.max_depth_reached < max_depth
    assert budget_stops >= 2


def test_verify_output_boxes_rejects_corrupted_report():
    # the whole cube spans the circle's sign change and has opposing gradients
    corrupted = SubdivisionReport(
        final_midpoints=np.zeros((1, 2)),
        final_widths=np.array([2.0]),
        final_codes=np.array([1]),
        processed_count=1,
        max_depth_reached=0,
        per_depth_counts=[1],
        terminated=True,
    )
    assert verify_output_boxes(CIRCLE, corrupted, 128) is False


def test_verify_gives_zero_values_no_strict_sign():
    # a zero-width box at a double root: every sample reads 0.0 (or -0.0), so the
    # box goes to the gradient check, whose zero gradients fail it
    report = SubdivisionReport(np.zeros((1, 1)), np.array([0.0]), np.array([1]), 1, 0, [1], True)
    for sign in (1.0, -1.0):
        square = new_sparse(1, [((2,), sign)])
        assert verify_output_boxes(square, report, 8) is False
        assert reference_verify(square, report, 8, 0) is False


def _record_kernel_calls(monkeypatch, module) -> list:
    """Wrap the evaluate_batch and gradient_batch that ``module`` calls so that each
    call appends its name, the shape and a digest of the bytes of its points."""
    calls = []
    for name in ("evaluate_batch", "gradient_batch"):
        def record(f, points, kernel=getattr(module, name), name=name):
            points = np.ascontiguousarray(points)
            calls.append((name, points.shape, hashlib.sha256(points.tobytes()).hexdigest()))
            return kernel(f, points)
        monkeypatch.setattr(module, name, record)
    return calls


def _check_against_reference(f, report, samples, seed, library, reference):
    """verify_output_boxes and the per-box reference give the same verdict from
    the same kernel calls on the same sample points."""
    library.clear()
    reference.clear()
    verdict = verify_output_boxes(f, report, samples, seed)
    assert verdict is reference_verify(f, report, samples, seed)
    assert library == reference and library
    return verdict


def test_verifier_matches_per_box_reference(monkeypatch):
    library = _record_kernel_calls(monkeypatch, pv)
    reference = _record_kernel_calls(monkeypatch, helpers)
    rng = np.random.default_rng(42)
    draws = [random_poly(rng, n, 4, 5, include_simplex=True) for n in (1, 1, 2, 2, 3, 3)]
    for f in [X, CIRCLE, LINE2, SPHERE] + draws:
        report = pv_subdivide(f, 6 + 4 * (f.n < 3))
        assert report.terminated
        for samples in (2, 3, 128):
            assert _check_against_reference(f, report, samples, 7, library, reference) is True


def test_verify_rejects_a_corrupted_box_at_chunk_edges(monkeypatch):
    # every chunk edge, each checked against the per-box reference
    library = _record_kernel_calls(monkeypatch, pv)
    reference = _record_kernel_calls(monkeypatch, helpers)
    samples = 128
    chunk = _VERIFY_CHUNK_POINTS // samples
    report = pv_subdivide(CIRCLE, 20)
    count = report.final_count
    assert count > 2 * chunk and count % chunk != 0
    assert verify_output_boxes(CIRCLE, report, samples, seed=3) is True
    edges = {0, count - 1} | {k * chunk + d for k in range(1, count // chunk + 1) for d in (-1, 0)}
    for index in sorted(edges):
        midpoints = report.final_midpoints.copy()
        widths = report.final_widths.copy()
        midpoints[index], widths[index] = 0.0, 2.0
        corrupted = dataclasses.replace(report, final_midpoints=midpoints, final_widths=widths)
        verdict = _check_against_reference(CIRCLE, corrupted, samples, 3, library, reference)
        assert verdict is False, index


def test_verify_flushes_buffered_mixed_boxes(monkeypatch):
    # small boxes on the circle change sign and pass the cone certificate; every
    # third box lies off it, so the buffer of sign-changing boxes fills across chunks
    library = _record_kernel_calls(monkeypatch, pv)
    reference = _record_kernel_calls(monkeypatch, helpers)
    cones = []
    monkeypatch.setattr(pv, "_gradient_cone",
                        lambda grads, cone=pv._gradient_cone: cones.append(cone(grads)) or cones[-1])
    samples = 128
    chunk = _VERIFY_CHUNK_POINTS // samples
    count = 5 * chunk + chunk // 2
    angles = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
    radii = np.where(np.arange(count) % 3 == 2, 0.8, 0.5)
    report = SubdivisionReport(
        final_midpoints=radii[:, None] * np.column_stack([np.cos(angles), np.sin(angles)]),
        final_widths=np.full(count, 2.0 ** -12),
        final_codes=np.full(count, 2),
        processed_count=count,
        max_depth_reached=12,
        per_depth_counts=[count],
        terminated=True,
    )
    assert _check_against_reference(CIRCLE, report, samples, 5, library, reference) is True
    flushes = [shape[0] for name, shape, _ in library if name == "gradient_batch"]
    mixed = np.count_nonzero(radii == 0.5)
    assert sum(flushes) == mixed * samples and mixed > 3 * chunk
    assert len(flushes) > 2 and min(flushes[:-1]) >= chunk * samples
    assert all(cone.all() for cone in cones)
    edges = {0, count - 1} | {k * chunk + d for k in range(1, count // chunk + 1) for d in (-1, 0)}
    for index in sorted(edges):
        midpoints = report.final_midpoints.copy()
        widths = report.final_widths.copy()
        midpoints[index], widths[index] = 0.0, 2.0
        corrupted = dataclasses.replace(report, final_midpoints=midpoints, final_widths=widths)
        verdict = _check_against_reference(CIRCLE, corrupted, samples, 5, library, reference)
        assert verdict is False, index


def test_verify_with_more_samples_than_a_chunk_holds(monkeypatch):
    # a chunk then holds one box; every box draws into the one buffer of the call.  A
    # small chunk keeps the Gram matrices of the uncertified boxes small
    for module in (pv, helpers):
        monkeypatch.setattr(module, "_VERIFY_CHUNK_POINTS", 64)
    library = _record_kernel_calls(monkeypatch, pv)
    reference = _record_kernel_calls(monkeypatch, helpers)
    samples = 65
    for f in (X, LINE2):
        report = pv_subdivide(f, 10)
        assert _check_against_reference(f, report, samples, 11, library, reference) is True
    # three boxes on the circle, each in turn widened to the whole cube
    report = pv_subdivide(CIRCLE, 20)
    for index in range(3):
        midpoints, widths = report.final_midpoints[:3].copy(), report.final_widths[:3].copy()
        midpoints[index], widths[index] = 0.0, 2.0
        corrupted = dataclasses.replace(report, final_midpoints=midpoints, final_widths=widths,
                                        final_codes=report.final_codes[:3])
        verdict = _check_against_reference(CIRCLE, corrupted, samples, 11, library, reference)
        assert verdict is False, index


def _fan(rng, n, angles, radii):
    """Gradients at the given angles from a random unit vector a, in the plane of a
    and a random unit vector b orthogonal to it (b = 0 at n = 1), shape (s, n)."""
    a, b = np.linalg.qr(rng.standard_normal((n, 2)))[0].T if n > 1 else (np.ones(1), np.zeros(1))
    angles = np.asarray(angles)[:, None]
    return np.asarray(radii)[:, None] * (np.cos(angles) * a + np.sin(angles) * b)


def _gradient_cases(rng, n, s):
    """(gradients (s, n), whether the cone certificate decides them) of boxes at
    the edges of the certificate."""

    def fan(edge, radii=None):
        angles = [0.0, edge, -edge] + list(rng.uniform(-edge, edge, s))
        return _fan(rng, n, angles[:s], rng.uniform(0.5, 2.0, s) if radii is None else radii)

    cases = [(fan(0.0), True)]
    if n > 1:
        # just inside and just outside 41.4 degrees from g_0: pairs span 82.8 degrees
        cases.append((fan(math.acos(0.75 + 1e-9)), True))
        cases.append((fan(math.acos(0.75 - 1e-9)), False))
        # pairs just below and just above 90 degrees apart
        for edge in (math.pi / 4 - 1e-7, math.pi / 4 + 1e-7):
            cases.append((fan(edge) if s > 2 else _fan(rng, n, [0.0, 2 * edge], [1.0, 1.0]), False))
    # a gradient that points the other way, a zero gradient, a NaN or infinite entry
    for value in (-1.0, 0.0, math.nan, math.inf, -math.inf):
        broken = fan(0.0)
        if math.isfinite(value):
            broken[-1] *= value
        else:
            broken[-1, -1] = value
        cases.append((broken, False))
    # |g|^2 at and beyond 2^-500 and 2^500, then far into underflow and overflow
    for exponent in (-250, 250, -251, 251, -530, -600, 400, 520):
        axis = np.zeros((s, n))
        axis[:, 0] = 2.0 ** exponent
        cases.append((axis, abs(exponent) == 250))
        if abs(exponent) > 250:
            cases.append((fan(0.0, rng.uniform(1.0, 2.0, s)) * 2.0 ** exponent, False))
    return cases


def _gram_check(grads):
    with np.errstate(all="ignore"):
        return bool(np.min(grads @ grads.T) > 0.0)


@pytest.mark.parametrize("s", [2, 128, 1000])  # 1000 samples take 16 Gram blocks
@pytest.mark.parametrize("n", [1, 2, 3])
def test_gradient_cone_agrees_with_the_gram_check(n, s):
    cases = _gradient_cases(np.random.default_rng(10 * n + s), n, s)
    if n > 1:  # the pairs just below and just above 90 degrees
        assert [_gram_check(grads) for grads, _ in cases[3:5]] == [True, False]
    with np.errstate(all="ignore"):
        for k, (grads, certified) in enumerate(cases):
            assert bool(pv._gradient_cone(grads[None])[0]) is certified, k
            assert pv._gradients_agree(grads[None]) is _gram_check(grads), k
            assert _gram_check(grads) or not certified, k
        stacked = np.stack([grads for grads, _ in cases])
        assert pv._gradient_cone(stacked).tolist() == [certified for _, certified in cases]
        assert pv._gradients_agree(stacked) is False
        easy = stacked[[certified for _, certified in cases]]
        assert pv._gradients_agree(easy) is True


def test_gram_check_memory_does_not_grow_with_the_square_of_the_samples():
    # one uncertified box of 2^14 + 1 gradients: its full Gram matrix would take 2.1 GB
    s = 2 ** 14 + 1
    rng = np.random.default_rng(23)
    wide = _fan(rng, 2, np.linspace(-0.7, 0.7, s), rng.uniform(1.0, 2.0, s))
    reversed_last = wide.copy()
    reversed_last[-1] *= -1.0
    for grads, agree in ((wide, True), (reversed_last, False)):
        assert not pv._gradient_cone(grads[None])[0]
        tracemalloc.start()
        try:
            assert pv._gradients_agree(grads[None]) is agree
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * s * s // 1000, peak


def test_gradient_cone_certifies_only_what_the_gram_check_passes():
    # random fans from tight to wide, at scales across the whole exponent range
    rng = np.random.default_rng(19)
    certified = 0
    with np.errstate(all="ignore"):
        for n in (1, 2, 3):
            for _ in range(400):
                s = int(rng.integers(2, 20))
                edge = rng.uniform(0.0, 1.6)
                angles = (rng.uniform(-edge, edge, s) if n > 1
                          else rng.choice([0.0, np.pi], s, p=[0.95, 0.05]))
                grads = _fan(rng, n, angles, 2.0 ** rng.uniform(-260, 260, s))
                cone = bool(pv._gradient_cone(grads[None])[0])
                assert _gram_check(grads) or not cone
                assert pv._gradients_agree(grads[None]) is _gram_check(grads)
                certified += cone
    assert 100 < certified < 1100


@pytest.mark.parametrize("samples", [1, 0, -3, 64.0, True, "64"])
def test_verify_output_boxes_needs_two_samples_per_box(samples):
    report = pv_subdivide(CIRCLE, 20)
    message = re.escape(f"samples_per_box must be an integer >= 2, got {samples!r}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        verify_output_boxes(CIRCLE, report, samples)


@pytest.mark.parametrize("count", [0, -1, 100.0, True, "100"])
def test_amortization_bound_needs_an_integer_sample_count(count):
    message = re.escape(f"n_samples must be an integer >= 1, got {count!r}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        amortization_bound(CIRCLE, count)


def test_amortization_bound_refuses_the_zero_polynomial():
    with pytest.raises(ValueError, match="^condition number of the zero polynomial is undefined$"):
        amortization_bound(new_sparse(2, []), 10)


def test_verify_on_random_well_conditioned_draws():
    rng = np.random.default_rng(40)
    terminated = 0
    for _ in range(30):
        n = int(rng.integers(1, 3))
        f = random_poly(rng, n, 3 + n, 5, include_simplex=True)
        report = pv_subdivide(f, 10)
        if not report.terminated:
            continue
        terminated += 1
        assert verify_output_boxes(f, report, 48)
    assert terminated >= 20


def test_amortization_linear_value():
    # kappa(X, .) = 1 on the cube, so the estimate is exactly 4 * sqrt(2)
    estimate = amortization_bound(X, 100000, 1)
    assert 5.6 <= estimate <= 12.0
    assert estimate == pytest.approx(4.0 * math.sqrt(2.0), rel=1e-12)


def test_amortization_matches_kappa_moment_form():
    # 4^n E[(d sqrt(2n) kappa)^n] equals 2^(5n/2) n^(n/2) d^n E[kappa^n]
    rng = np.random.default_rng(41)
    for _ in range(10):
        n = int(rng.integers(1, 3))
        f = random_poly(rng, n, 4, 5, include_simplex=True)
        seed = int(rng.integers(0, 2**31))
        est = amortization_bound(f, 20000, seed)
        pts = np.random.default_rng(seed).uniform(-1, 1, (20000, n))
        moment = float(np.mean(kappa_batch(f, pts) ** n))
        closed = 2.0 ** (2.5 * n) * n ** (n / 2.0) * f.degree ** n * moment
        assert est == pytest.approx(closed, rel=1e-9)


@pytest.mark.parametrize("f", [DOUBLE_ROOT, CIRCLE, SPHERE], ids=["n1", "n2", "n3"])
def test_amortization_streams_the_bits_of_one_draw(f):
    # the estimate runs block by block; it keeps the bits of one draw of all the points
    block = poly._CHUNK_POINTS
    scale = f.degree * math.sqrt(2 * f.n)
    for n_samples in (1, block - 1, block, block + 1, 10 ** 5):
        points = np.random.default_rng(n_samples).uniform(-1.0, 1.0, size=(n_samples, f.n))
        with np.errstate(over="ignore"):
            one_shot = float(4 ** f.n * np.mean((scale * kappa_batch(f, points)) ** f.n))
        assert repr(amortization_bound(f, n_samples, n_samples)) == repr(one_shot), n_samples


def test_block_size_changes_neither_the_walk_nor_the_estimate(monkeypatch):
    # a point's kernel sums and the order of the draws do not depend on the block; pv binds
    # the block size at import, so both names are patched
    def run():
        report = pv_subdivide(DOUBLED_CIRCLE, 7)
        return report, repr(amortization_bound(DOUBLED_CIRCLE, 10 ** 4, 5))

    default, estimate = run()
    assert max(default.per_depth_counts) > poly._CHUNK_POINTS  # a level spans two blocks or more
    for module in (poly, pv):
        monkeypatch.setattr(module, "_CHUNK_POINTS", 64)
    blocked, blocked_estimate = run()
    for field in ("final_midpoints", "final_widths", "final_codes"):
        assert getattr(blocked, field).tobytes() == getattr(default, field).tobytes(), field
    assert blocked.per_depth_counts == default.per_depth_counts
    assert blocked_estimate == estimate


def test_amortization_diverges_for_singular_input():
    # the integrand is non-integrable at the singular zero; the seeded
    # estimate is far above any well-conditioned value at this sample size
    assert amortization_bound(DOUBLE_ROOT, 100000, 2) > 100.0


def test_box_count_below_amortization_estimate():
    n_samples = 40000
    estimate = amortization_bound(LINE2, n_samples, 3)
    report = pv_subdivide(LINE2, 20)
    assert report.final_count <= estimate * (1 + 3.0 / math.sqrt(n_samples))
