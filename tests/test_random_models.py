import hashlib
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cubecond import random as models
from cubecond.poly import new_sparse, norm1

SUP_D5 = ((0,), (1,), (5,))
GAUSS = models.Gaussian(0.0, 1.0)
UNIF = models.Uniform(-1.0, 1.0)


def gaussian_model(support=SUP_D5, p=2.0):
    return models.RandomModel(n=1, support=support, dist=GAUSS, p=p)


def uniform_model(support=SUP_D5, p=2.0):
    return models.RandomModel(n=1, support=support, dist=UNIF, p=p)


def test_model_requires_simplex_support():
    with pytest.raises(ValueError):
        models.RandomModel(n=1, support=((1,), (5,)), dist=GAUSS)
    with pytest.raises(ValueError):
        models.RandomModel(n=2, support=((0, 0), (1, 0), (2, 2)), dist=GAUSS)
    with pytest.raises(ValueError):
        models.RandomModel(n=1, support=((0,), (0,), (1,)), dist=GAUSS)


def test_sampling_is_deterministic_and_keeps_support():
    m = gaussian_model()
    a = models.sample(m, (123, 0))
    b = models.sample(m, (123, 0))
    c = models.sample(m, (123, 1))
    assert np.array_equal(a.coefficients, b.coefficients)
    assert not np.array_equal(a.coefficients, c.coefficients)
    assert a.terms()[0][0] == (0,) and a.support_size == 3


def _reference_draw(model, seed):
    """The coefficients of one draw from numpy's own calls on the seed's stream: the
    reference of sample."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    dist, m = model.dist, model.support_size
    if isinstance(dist, models.Gaussian):
        coeffs = rng.normal(dist.mean, dist.sd, m)
    elif isinstance(dist, models.Uniform):
        coeffs = rng.uniform(dist.lo, dist.hi, m)
    else:  # the inverse CDF of the Weibull magnitudes, then a random sign each
        magnitude = dist.scale * (-np.log1p(-rng.random(m))) ** (1.0 / dist.p)
        coeffs = (rng.integers(0, 2, m) * 2 - 1) * magnitude
    coeffs = coeffs * model.scale
    return coeffs + np.asarray(model.offsets) if model.offsets is not None else coeffs


def _bytes_of(rows):
    return b"".join(np.asarray(r, dtype=np.float64).tobytes() for r in rows)


def _digest(rows):
    return hashlib.sha256(_bytes_of(rows)).hexdigest()[:16]


SUITE_SUPPORT = ((0,), (1,), (5,), (13,), (27,), (41,), (54,), (64,))
SMOOTHED = models.smoothed_model(
    new_sparse(2, [((0, 0), 0.5), ((2, 1), -1.25)]),
    0.1,
    models.RandomModel(n=2, support=((0, 0), (1, 0), (0, 1), (2, 1)), dist=GAUSS),
)
WEIBULL = models.RandomModel(
    n=1, support=SUP_D5, dist=models.WeibullSymmetric(1.5, 2.0), p=1.5
)  # two draws from each stream: the magnitudes, then the signs
SHIFTED_LAWS = [
    models.RandomModel(n=1, support=SUP_D5, dist=models.Gaussian(0.3, 2.5)),
    models.RandomModel(n=1, support=SUP_D5, dist=models.Uniform(-0.5, 3.0)),
    SMOOTHED,
]


@pytest.mark.parametrize(
    "models_of, seeds, digest",
    [
        # the criteria 06/07 fixture draws, alternating a Gaussian and a uniform model
        ([models.RandomModel(n=1, support=SUITE_SUPPORT, dist=dist) for dist in (GAUSS, UNIF)],
         [(2024, i // 2) for i in range(200)], "033e760b43a4151f"),
        ([SMOOTHED], [(3, i) for i in range(50)], "db7a5422fe11d240"),
        ([WEIBULL], [(8, i) for i in range(50)], "1122de50c0c80ca8"),
    ],
    ids=["suite", "smoothed", "weibull"],
)
def test_sample_is_the_one_row_call_of_sample_batch(models_of, seeds, digest):
    # the digests were taken from the per-draw sampler that sample_batch replaced
    per_draw = [
        models.sample(models_of[t % len(models_of)], seed).coefficients
        for t, seed in enumerate(seeds)
    ]
    assert _digest(per_draw) == digest
    for k, model in enumerate(models_of):
        own = seeds[k::len(models_of)]
        batch = models.sample_batch(model, own)
        assert batch.shape == (len(own), model.support_size)
        assert batch.tobytes() == _bytes_of(per_draw[k::len(models_of)])
        assert batch.tobytes() == _bytes_of(_reference_draw(model, seed) for seed in own)


class _NoDraw:
    def standard_normal(self, out):
        pytest.fail("a draw started")


def test_sample_batch_checks_every_seed_before_the_first_draw(monkeypatch):
    # each row's generator is replaced by one whose per-row draw fails: a seed checked only
    # after the first row is drawn would reach it
    streams = models._streams
    monkeypatch.setattr(models, "_streams", lambda seeds: (_NoDraw() for _ in streams(seeds)))
    with pytest.raises(ValueError, match=r"seed must be a non-negative integer, got \(1, -2\)$"):
        models.sample_batch(gaussian_model(), [(1, 0), (1, 1), (1, -2)])
    with pytest.raises(ValueError, match="got -1$"):
        models.sample(gaussian_model(), -1)


@pytest.mark.parametrize(
    "seed", [1.5, True, (1, True), (), (1, 2.0), np.float64(3.0), np.bool_(True), "7", None,
             [1, 2], ((1, 2), 0)], ids=repr,
)
def test_seed_rule_refuses_all_but_non_negative_integers(seed):
    # an int or a non-empty tuple of ints, a bool not counting as one
    message = re.escape(f"seed must be a non-negative integer, got {seed!r}") + "$"
    with pytest.raises(ValueError, match=message):
        models.sample(gaussian_model(), seed)
    with pytest.raises(ValueError, match=message):
        models.trial_rng(seed)


def test_seed_rule_takes_numpy_integers():
    m = gaussian_model()
    draws = models.sample_batch(m, [np.int64(3), (np.uint32(3), np.int8(4)), 3, (3, 4)])
    assert draws[0].tobytes() == draws[2].tobytes() and draws[1].tobytes() == draws[3].tobytes()


# ints of one to five 32-bit words, zeros included, alone or as tuples longer than the 4-word pool
SEED_INTS = st.integers(0, 2 ** 32 - 1) | st.integers(0, 2 ** 130 - 1)
SEEDS = SEED_INTS | st.lists(SEED_INTS, min_size=1, max_size=7).map(tuple)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(SEEDS)
def test_trial_rng_is_the_stream_of_numpy_seed_sequence(seed):
    state = np.random.default_rng(np.random.SeedSequence(seed)).bit_generator.state
    assert models.trial_rng(seed).bit_generator.state == state


def test_streams_of_one_chunk_are_distinct_generators():
    # one generator per row: after the whole chunk is read, each still holds its own state
    seeds = [(7, i) for i in range(5)] + [0, 2 ** 130 + 1, (1, 2, 3, 4, 5)]
    rngs = list(models._streams(seeds))
    assert len({id(rng) for rng in rngs}) == len(seeds)
    for seed, rng in zip(seeds, rngs):
        reference = np.random.default_rng(np.random.SeedSequence(seed))
        assert rng.bit_generator.state == reference.bit_generator.state
        assert rng.random(3).tobytes() == reference.random(3).tobytes()


def test_trial_rng_refuses_to_spawn():
    # a stream keeps PCG64's four hashed words, not a SeedSequence that could spawn children,
    # so spawning raises numpy's TypeError instead of handing out the children of one seed
    with pytest.raises(TypeError, match="spawning"):
        models.trial_rng((1, 2)).spawn(1)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(SEEDS, min_size=1, max_size=12))
def test_sample_batch_rows_are_the_reference_draws(seeds):
    # seeds of several word counts hash in one matrix; a Weibull row leaves a
    # buffered 32-bit half in the generator, which the next row must not read
    # off the standard laws, standard draws and one affine map per chunk must round as
    # numpy's loc + scale * z and low + (high - low) * u do
    for model in (gaussian_model(), uniform_model(), WEIBULL, *SHIFTED_LAWS):
        batch = models.sample_batch(model, seeds)
        assert batch.tobytes() == _bytes_of(_reference_draw(model, seed) for seed in seeds)


def test_uniform_draws_are_bounded():
    m = uniform_model()
    for i in range(50):
        f = models.sample(m, (5, i))
        assert np.all(np.abs(f.coefficients) <= 1.0)


def test_gaussian_empirical_variance():
    m = gaussian_model()
    draws = models.sample_batch(m, [(777, i) for i in range(100000)])  # the rows of sample
    variance = float(np.var(draws))
    n_samples = draws.size
    three_sigma = 3.0 * math.sqrt(2.0 / (n_samples - 1))
    assert abs(variance - 1.0) <= three_sigma


def test_gaussian_tail_constant_is_sqrt2():
    # the smallest K with P(|x| > t) <= 2 exp(-t^2/K^2) for all t >= K is
    # sqrt(2) for a standard normal: the constraint at t -> inf forces
    # K^2 >= 2, and K = sqrt(2) satisfies the two-sided Chernoff bound
    assert GAUSS.tail_constant(2.0) == pytest.approx(math.sqrt(2.0), rel=1e-6)
    assert math.isinf(GAUSS.tail_constant(3.0))


def _scipy_log_survival(t):
    # scipy is a test dependency only, the oracle of the package's own log-survival
    from scipy.special import log_ndtr

    return -log_ndtr(-t)


def _within_two_ulps(ours, reference):
    """Whether ours is within 2 ulps of reference, an ulp taken as 2^-52 |reference|."""
    return np.all(np.abs(ours - reference) <= 2.0 ** -51 * np.abs(reference))


def test_normal_log_survival_has_the_bits_of_scipys_log_ndtr():
    # on the grid of the tail constant: scipy's bits wherever t / sqrt(2) > 50, where both
    # run Faddeeva's closed continued fraction, and at most 2 ulps from them elsewhere
    t = np.geomspace(1e-4, 1e5, 4096)
    ours = np.array([models._normal_log_survival(x) for x in t.tolist()])
    reference = _scipy_log_survival(t)
    far = t * 0.7071067811865476 > 50.0
    assert np.count_nonzero(far) == 1434
    assert np.array_equal(ours[far], reference[far])
    assert _within_two_ulps(ours, reference)
    assert np.all(np.diff(ours) >= 0.0)
    # and off the grid, past u = 50 to t = 1e12, across the edge at u = 5e7
    t = np.geomspace(50.0 / 0.7071067811865476, 1e12, 20011)[1:]
    ours = np.array([models._normal_log_survival(x) for x in t.tolist()])
    assert np.array_equal(ours, _scipy_log_survival(t))


@pytest.mark.parametrize("edge", [1.0, 26.0 / 0.7071067811865476, 50.0 / 0.7071067811865476,
                                  5e7 / 0.7071067811865476])
def test_normal_log_survival_is_nondecreasing_across_the_branch_edges(edge):
    # the edges u = t / sqrt(2) = 26, 50 and 5e7, and scipy's edge at t = 1, which the log
    # of erfc(u) below u = 26 does not have: 400 consecutive floats and a wider sweep
    below, above = [edge], [edge]
    for _ in range(200):
        below.append(math.nextafter(below[-1], 0.0))
        above.append(math.nextafter(above[-1], math.inf))
    ts = below[::-1] + above[1:] + np.geomspace(edge / 2, edge * 2, 1001).tolist()
    for sweep in (ts[:401], ts[401:]):
        values = [models._normal_log_survival(x) for x in sweep]
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_gaussian_tail_constant_is_the_scipy_computed_sup():
    # bit-equal at p = 2, whose sup is attained at the grid's last point t = 1e5; for p < 2
    # the sup lies at t of about 1 to 3, where math.erfc may differ from scipy's by an ulp
    def sup(p):
        return models._tail_constant_numeric(_scipy_log_survival, p, t_max=1e5)

    assert models._gaussian_tail_constant(2.0) == sup(2.0)
    ps = np.linspace(1.0, 2.0, 201).tolist()
    ours = np.array([models._gaussian_tail_constant.__wrapped__(p) for p in ps])
    assert _within_two_ulps(ours, np.array([sup(p) for p in ps]))


def test_uniform_model_constants_match_example():
    c = models.model_constants(uniform_model())
    assert c.K == 3.0
    assert c.rho == 0.5
    assert c.K * c.rho == 1.5  # equals |M|/2 exactly
    assert c.K * c.rho <= len(SUP_D5) / 2


def test_gaussian_model_constants():
    c = models.model_constants(gaussian_model())
    assert c.K == pytest.approx(3.0 * math.sqrt(2.0), rel=1e-6)
    assert c.rho == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-12)
    # the product is |M|/sqrt(pi) ~ 0.5642 |M|, above the universal floor
    assert c.K * c.rho == pytest.approx(3.0 / math.sqrt(math.pi), rel=1e-6)
    assert c.K * c.rho > (1 + 1) / 4


def test_constant_floors_hold_for_the_model_zoo():
    zoo = [
        gaussian_model(),
        uniform_model(),
        gaussian_model(p=1.0),
        uniform_model(p=64.0),
        models.RandomModel(
            n=1, support=SUP_D5, dist=models.WeibullSymmetric(p=1.0), p=1.0
        ),
        models.RandomModel(
            n=2,
            support=((0, 0), (1, 0), (0, 1), (2, 1)),
            dist=GAUSS,
            p=2.0,
        ),
    ]
    for m in zoo:
        c = models.model_constants(m)
        if math.isfinite(c.K):
            assert c.K * c.rho > (m.n + 1) / 4.0
        assert c.L * c.rho > 9.0 * (m.n + 1) / 50.0


def test_weibull_constants_and_sampling():
    w = models.WeibullSymmetric(p=1.0, scale=2.0)
    assert w.tail_constant(1.0) == 2.0
    assert w.density_bound() == 0.25
    for scale in (1.0, 3.0, 0.1):  # at p = 1 the density bound is 1 / (2 scale)
        assert models.WeibullSymmetric(p=1.0, scale=scale).density_bound() == 1.0 / (2.0 * scale)
    draws = np.empty((1, 200000))
    w.fill(draws, [np.random.default_rng(0)])
    # survival of |x| at t: exp(-t/2)
    assert np.mean(np.abs(draws) > 2.0) == pytest.approx(math.exp(-1.0), abs=5e-3)
    assert abs(np.mean(np.sign(draws))) < 5e-3
    with pytest.raises(ValueError):
        models.WeibullSymmetric(p=0.5)


@pytest.mark.parametrize("shape, p", [(1.2, 1.1), (1.5, 1.0), (2.0, 1.0), (3.0, 2.5), (10.0, 1.0)])
def test_weibull_tail_constant_is_the_sup_below_the_shape(shape, p):
    # t / (ln 2 + t^shape)^(1/p) peaks at t*^shape = p ln 2 / (shape - p); a dense search
    # around t* finds the sup to within a few ulps, and the 4096-point log grid of the
    # numeric constant falls short of it
    peak = (p * math.log(2.0) / (shape - p)) ** (1.0 / shape)
    t = peak * (1.0 + np.linspace(-1e-3, 1e-3, 200001))
    dense = float(np.max(t / (math.log(2.0) + t ** shape) ** (1.0 / p)))
    constant = models.WeibullSymmetric(shape).tail_constant(p)
    assert abs(constant - dense) <= 4 * math.ulp(dense)
    grid = models._tail_constant_numeric(lambda t: math.log(2.0) + t ** shape, p, t_max=1e6)
    assert constant >= grid


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "dist, field",
    [
        (models.Gaussian, "mean"),
        (models.Gaussian, "sd"),
        (models.Uniform, "lo"),
        (models.Uniform, "hi"),
        (models.WeibullSymmetric, "p"),
        (models.WeibullSymmetric, "scale"),
    ],
)
def test_distributions_reject_non_finite_parameters(dist, field, value):
    params = {"p": 1.0} if dist is models.WeibullSymmetric else {}
    with pytest.raises(ValueError, match=field):
        dist(**{**params, field: value})


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: models.RandomModel(n=1, support=SUP_D5, dist=GAUSS, scale=math.inf),
         "scale must be positive and finite, got inf"),
        (lambda: models.RandomModel(n=1, support=SUP_D5, dist=GAUSS, scale=math.nan),
         "scale must be positive and finite, got nan"),
        (lambda: models.RandomModel(n=1, support=SUP_D5, dist=GAUSS, offsets=(math.nan, 0.0, 0.0)),
         r"offsets must be finite, got \(nan, 0.0, 0.0\)"),
        (lambda: models.RandomModel(n=1, support=SUP_D5, dist=GAUSS, p=math.inf),
         "tail exponent p must be finite and >= 1, got inf"),
        (lambda: models.RandomModel(n=1, support=((0,), (1,), (2.5,)), dist=GAUSS),
         r"support exponent \(2.5,\) must have 1 nonnegative integer entries"),
        (lambda: models.Uniform(-1e308, 1e308),
         r"uniform needs finite lo < hi and hi - lo, got lo=-1e\+308, hi=1e\+308"),
        (lambda: models.smoothed_model(new_sparse(1, [((0,), 1.0)]), math.nan, gaussian_model()),
         "sigma must be positive and finite, got nan"),
        (lambda: models.RandomModel(n=0, support=((),), dist=GAUSS), "n must be >= 1, got 0"),
        (lambda: models.RandomModel(n=1, support=SUP_D5, dist=GAUSS, offsets=(0.0, 0.0)),
         "offsets must align with the support"),
        (lambda: models.smoothed_model(
            new_sparse(1, [((0,), 1.0)]), 1.0,
            models.RandomModel(n=1, support=SUP_D5, dist=GAUSS, scale=2.0)),
         "base model must be unshifted and unscaled"),
        (lambda: models.smoothed_model(new_sparse(2, [((0, 0), 1.0)]), 1.0, gaussian_model()),
         "dimension mismatch between f0 and the base model"),
        (lambda: models.smoothed_model(new_sparse(1, [((0,), 0.0)]), 1.0, gaussian_model()),
         "f0 must be nonzero"),
    ],
    ids=["scale-inf", "scale-nan", "offsets-nan", "p-inf", "support-2.5", "uniform-wide",
         "sigma-nan", "n-0", "offsets-short", "smoothed-scaled-base", "smoothed-dimension",
         "smoothed-zero-f0"],
)
def test_models_refuse_non_finite_or_non_integer_fields(build, message):
    # such a model's constants read inf or nan, its degree is not an integer, or its
    # draws overflow (numpy itself refuses an infinite hi - lo)
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


# a finite law whose sd or scale overflows K or L, or leaves rho below the normal floats
OVERFLOWING_MODELS = {
    "K-sd": (models.RandomModel(n=1, support=SUP_D5, dist=models.Gaussian(0.0, 1e308)), "K"),
    "K-scale": (models.RandomModel(n=1, support=SUP_D5, dist=models.Gaussian(0.0, 1e10),
                                   scale=1e300), "K"),
    "L-weibull": (models.RandomModel(n=1, support=SUP_D5, p=1.0,
                                     dist=models.WeibullSymmetric(p=1.0, scale=1e308)), "L"),
    "rho-subnormal": (models.RandomModel(n=1, support=SUP_D5, dist=UNIF, scale=3e307), "rho"),
}


@pytest.mark.parametrize("model, field", OVERFLOWING_MODELS.values(), ids=OVERFLOWING_MODELS)
def test_model_constants_refuse_overflow_and_underflow(model, field):
    with pytest.raises(ValueError, match=f"^model constant {field} = "):
        models.model_constants(model)


def test_smoothed_model_constants_and_draws():
    base = gaussian_model()
    f0 = new_sparse(1, [((0,), 1.0), ((1,), -2.0)])
    cb = models.model_constants(base)
    for sigma in (0.5, 1.0, 2.0):
        sm = models.smoothed_model(f0, sigma, base)
        cs = models.model_constants(sm)
        assert cs.K == pytest.approx(norm1(f0) * (1 + sigma * cb.K), rel=1e-12)
        assert cs.rho == pytest.approx(cb.rho / (sigma * norm1(f0)), rel=1e-12)
        assert cs.K * cs.rho == pytest.approx((cb.K + 1.0 / sigma) * cb.rho, rel=1e-12)
    # large-sigma limit recovers the base product
    huge = models.model_constants(models.smoothed_model(f0, 1e9, base))
    assert huge.K * huge.rho == pytest.approx(cb.K * cb.rho, rel=1e-8)
    # draws decompose as offset + scale * base draw
    sm = models.smoothed_model(f0, 1.0, base)
    ds = models.sample(sm, (3, 14))
    db = models.sample(base, (3, 14))
    assert np.allclose(
        ds.coefficients, np.array([1.0, -2.0, 0.0]) + 3.0 * db.coefficients
    )
    with pytest.raises(ValueError):
        models.smoothed_model(f0, 0.0, base)
    with pytest.raises(ValueError):
        models.smoothed_model(new_sparse(1, [((7,), 1.0)]), 1.0, base)


def test_tail_bound_local_value_and_clamp():
    m = uniform_model()
    raw = models._tail_bound_local(m, math.e, 2.0)
    assert raw == pytest.approx(15.0 * 72.0 / math.e ** 2, rel=1e-12)
    assert models.tail_bound_local(m, math.e) == 1.0
    with pytest.raises(ValueError):
        models.tail_bound_local(m, 2.0)


def test_public_tail_bounds_never_exceed_one():
    heavy = models.RandomModel(n=1, support=SUP_D5, dist=models.WeibullSymmetric(1.0), p=1.0)
    for m in (uniform_model(), gaussian_model(), uniform_model(p=1.0), heavy):
        for t in (math.e, 10.0, 100.0, 1e6):
            raw, raw_p = models._tail_bound_local(m, t, 2.0), models._tail_bound_local(m, t, m.p)
            assert models.tail_bound_local(m, t) == min(1.0, raw) <= 1.0
            assert models.tail_bound_local_p(m, t) == min(1.0, raw_p) <= 1.0
    # the raw value passes 1 at t = e (the K of the heavy model is infinite) and
    # falls below it at t = 1e6, so both sides of the cut are read
    assert models._tail_bound_local(heavy, 1e6, 2.0) == math.inf
    assert models._tail_bound_local(uniform_model(), 1e6, 2.0) < 1.0


def test_tail_bound_local_monotone_decreasing():
    m = uniform_model()
    grid = np.linspace(math.e, 500.0, 200)
    values = [models._tail_bound_local(m, float(t), 2.0) for t in grid]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_tail_bound_p_variants():
    mg = gaussian_model()
    # at p = 2 with L = K the p-form coincides with the subgaussian form, bit for bit
    for t in (math.e, 10.0, 100.0):
        assert models._tail_bound_local(mg, t, mg.p) == models._tail_bound_local(mg, t, 2.0)
    m1 = uniform_model(p=1.0)
    m2 = uniform_model(p=2.0)
    m64 = uniform_model(p=64.0)
    for t in (math.e, 10.0, 1000.0):
        v1 = models._tail_bound_local(m1, t, m1.p)
        v2 = models._tail_bound_local(m2, t, m2.p)
        v64 = models._tail_bound_local(m64, t, m64.p)
        assert v1 >= v2 >= v64  # heavier declared tails give weaker bounds


def test_tail_bound_global():
    m = uniform_model()
    sharp, simplified = models.tail_bound_global(m, 100.0)
    assert sharp == pytest.approx(150.0 * (24.0 / math.sqrt(2.0)) ** 2 * math.log(100.0) / 100.0, rel=1e-12)
    assert simplified == pytest.approx(150.0 * 15.0 ** 2 / 10.0, rel=1e-12)
    assert sharp <= simplified
    for t in np.linspace(2 * math.e + 1e-6, 1e4, 100):
        s, q = models.tail_bound_global(m, float(t))
        assert s <= q
    with pytest.raises(ValueError):
        models.tail_bound_global(m, 2 * math.e)


def test_expected_boxes_bounds():
    sup = ((0,), (1,), (2,))
    bg = models.expected_boxes_bound(models.RandomModel(n=1, support=sup, dist=GAUSS))
    bu = models.expected_boxes_bound(models.RandomModel(n=1, support=sup, dist=UNIF))
    assert bg.specialized == 86400.0
    assert bu.specialized == 221184.0
    assert bg.general > 0 and bu.general > 0
    # for uniform models K*rho = |M|/2, and the general constant then
    # dominates the gaussian specialisation
    for m_size in range(3, 9):
        support = tuple((k,) for k in range(m_size - 1)) + ((12,),)
        mu = models.RandomModel(n=1, support=support, dist=UNIF)
        general = models.expected_boxes_bound(mu).general
        mg = models.RandomModel(n=1, support=support, dist=GAUSS)
        assert general >= models.expected_boxes_bound(mg).specialized * (1 - 1e-12)


def test_moment_bound_values():
    m = uniform_model()
    expected = 2.0 * 1 * 5 * 3 * (7.0 * math.sqrt(2.0) * 1.5) ** 2
    assert models.moment_bound_kappa_n(m) == pytest.approx(expected, rel=1e-12)
    bigger = uniform_model(support=((0,), (1,), (5,), (7,)))
    assert models.moment_bound_kappa_n(bigger) > models.moment_bound_kappa_n(m)
    # p-variant at p = 2 stays within a factor two of the subgaussian form
    mg = gaussian_model()
    ratio = models.moment_bound_kappa_n_p(mg) / models.moment_bound_kappa_n(mg)
    assert 1.0 <= ratio <= 2.0


def test_descartes_moment_bound_values():
    m = gaussian_model()
    c = models.model_constants(m)
    base = 16.0 * 1 * 3 * (math.log2(5) + abs(math.log2(c.L * c.rho)) + 1.0)
    assert models.descartes_moment_bound(m, 1) == pytest.approx(base, rel=1e-12)
    assert models.descartes_moment_bound(m, 2) == pytest.approx(
        (2 * base) ** 2, rel=1e-12
    )
    with pytest.raises(ValueError):
        models.descartes_moment_bound(m, 0)


def test_model_json_round_trip():
    m = models.load_model(
        {
            "n": 1,
            "support": [[0], [1], [5]],
            "dist": {"kind": "gaussian", "mean": 0.0, "sd": 1.0},
            "p": 2,
        }
    )
    assert m.support == SUP_D5 and m.dist == GAUSS and m.p == 2.0


@pytest.mark.parametrize(
    "payload, needle",
    [
        ({"support": [[0]], "dist": {"kind": "gaussian"}}, "'n'"),
        ({"n": 1, "dist": {"kind": "gaussian"}}, "'support'"),
        ({"n": 1, "support": [[0], [1]]}, "'dist'"),
        ({"n": 1, "support": [[0], [1]], "dist": {"kind": "cauchy"}}, "kind"),
        ({"n": 1, "support": [[0], [1]], "dist": {"kind": "gaussian"}, "extra": 1}, "extra"),
        ({"n": 1, "support": [[0], [-1]], "dist": {"kind": "gaussian"}}, "support"),
        ({"n": True, "support": [[0], [1]], "dist": {"kind": "gaussian"}}, "'n'"),
        ({"n": 1, "support": [[0], [True]], "dist": {"kind": "gaussian"}}, "support"),
        ({"n": 1, "support": [[0], [1]], "dist": {"kind": "gaussian"}, "p": True}, "'p'"),
        ({"n": 1, "support": [[0], [1]], "dist": {"kind": "gaussian", "sd": True}}, "'dist.sd'"),
        ({"n": 1, "support": [[0], [1]], "dist": {"kind": "gaussian", "mean": "a"}},
         "'dist.mean'"),
    ],
)
def test_model_loader_names_offending_field(payload, needle):
    with pytest.raises(ValueError, match=needle):
        models.load_model(payload)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "dist, field",
    [
        ({"kind": "gaussian"}, "dist.mean"),
        ({"kind": "gaussian"}, "dist.sd"),
        ({"kind": "uniform"}, "dist.lo"),
        ({"kind": "uniform"}, "dist.hi"),
        ({"kind": "weibull_symmetric"}, "dist.p"),
        ({"kind": "weibull_symmetric", "p": 1}, "dist.scale"),
        ({"kind": "gaussian"}, "p"),
    ],
)
def test_model_loader_rejects_non_finite_numbers(dist, field, value):
    payload = {"n": 1, "support": [[0], [1]], "dist": dict(dist)}
    (payload["dist"] if "." in field else payload)[field.split(".")[-1]] = value
    # json writes and reads NaN, Infinity and -Infinity literals
    with pytest.raises(ValueError, match=f"'{field}'"):
        models.load_model(io.StringIO(json.dumps(payload)))
