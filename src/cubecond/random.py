"""Random sparse polynomial models and their closed-form probabilistic bounds.

A model fixes a support M in N^n that contains 0 and every unit vector e_i,
an i.i.d. coefficient distribution and a tail exponent p.  Three constants
drive all bounds:

    K : sum over M of per-coefficient subgaussian constants
        (smallest K_a with P(|x| > t) <= 2 exp(-t^2 / K_a^2) for all t >= K_a)
    L : same with exp(-t^p / L_a^p), the p-tail constant
    rho : geometric mean of the anti-concentration constants (density bounds)
        of the coefficients at 0, e_1, ..., e_n

Subgaussian/tail constants with no convenient closed form are computed
numerically as sup_t t / ln(2 / P(|x| > t))^(1/p) over a wide log grid of t
(the definition is algorithmic) and cached per distribution.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .poly import SparsePolynomial, new_sparse, norm1
from .poly import _build, _field, _is_int, _is_number, _is_object, _list_of, _read_json_object

__all__ = [
    "Gaussian",
    "Uniform",
    "WeibullSymmetric",
    "RandomModel",
    "ModelConstants",
    "BoxCountBound",
    "sample",
    "sample_batch",
    "trial_rng",
    "model_constants",
    "smoothed_model",
    "tail_bound_local",
    "tail_bound_local_p",
    "tail_bound_global",
    "expected_boxes_bound",
    "moment_bound_kappa_n",
    "moment_bound_kappa_n_p",
    "descartes_moment_bound",
    "load_model",
]


# ---------------------------------------------------------------------------
# coefficient distributions
# ---------------------------------------------------------------------------

# the integer types of a seed value or a support exponent; a bool is refused apart
_INTEGERS = (int, np.integer)


def _tail_constant_numeric(log2_over_survival, p: float, t_max: float) -> float:
    """sup over t of t / ln(2 / P(|x| > t))^(1/p) on a dense log grid."""
    t = np.geomspace(1e-4, t_max, 4096)
    denom = log2_over_survival(t)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = t / denom ** (1.0 / p)
    g = g[np.isfinite(g)]
    return float(np.max(g))


_ISPI = 0.56418958354775628694807945156  # 1 / sqrt(pi)


def _normal_log_survival(t: float) -> float:
    """-log P(X > t) for a standard normal X, by the steps of scipy's log_ndtr(-t).

    With u = t / sqrt(2), P(X > t) = erfc(u) / 2 = erfcx(u) exp(-u^2) / 2.  Below
    u = 26, erfc(u) is a normal float and its log is used directly.  Above,
    erfcx(u) is the continued fraction of Abramowitz & Stegun 7.1.14, evaluated
    backward to 40 terms up to u = 50 and past it in the five-term closed form of
    Johnson's Faddeeva package, operation for operation, which is scipy's erfcx
    there; so from u = 50 on the result has scipy's bits, and elsewhere it is
    within 2 ulps of them.
    """
    u = t * 0.7071067811865476
    if u < 26.0:
        return -math.log(math.erfc(u) / 2)
    if u <= 50.0:
        fraction = u
        for k in range(40, 0, -1):
            fraction = u + 0.5 * k / fraction
        erfcx = _ISPI / fraction
    elif u > 5e7:
        erfcx = _ISPI / u
    else:
        erfcx = _ISPI * ((u * u) * (u * u + 4.5) + 2) / (u * ((u * u) * (u * u + 5) + 3.75))
    return -(math.log(erfcx / 2) - u * u)


@functools.lru_cache(maxsize=None)
def _gaussian_tail_constant(p: float) -> float:
    """Tail constant of the standard normal for exponent p (infinite for p > 2)."""
    if p > 2.0:
        return math.inf
    # ln(2 / P(|x| > t)) = -log P(X > t) for the standard normal
    return _tail_constant_numeric(
        lambda t: np.array([_normal_log_survival(x) for x in t.tolist()]), p, t_max=1e5
    )


@functools.lru_cache(maxsize=None)
def _weibull_tail_constant(shape: float, p: float) -> float:
    """Tail constant of a unit-scale symmetric Weibull(shape) for exponent p."""
    if p > shape:
        return math.inf
    if p == shape:
        return 1.0
    # the sup of t / (ln 2 + t^shape)^(1/p) is where p (ln 2 + t^shape) = shape t^shape
    peak = p * math.log(2.0) / (shape - p)  # t^shape there
    return peak ** (1.0 / shape) / (shape * math.log(2.0) / (shape - p)) ** (1.0 / p)


@dataclass(frozen=True)
class Gaussian:
    mean: float = 0.0
    sd: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ValueError(f"gaussian mean must be finite, got {self.mean}")
        if not 0 < self.sd < math.inf:
            raise ValueError(f"gaussian sd must be positive and finite, got {self.sd}")

    def fill(self, draws, streams):
        """Row t from stream t with its normal(mean, sd) bits: numpy's mean + sd * z per chunk."""
        for row, rng in zip(draws, streams):
            rng.standard_normal(out=row)
        draws *= self.sd
        draws += self.mean

    def density_bound(self) -> float:
        return 1.0 / (math.sqrt(2.0 * math.pi) * self.sd)

    def tail_constant(self, p: float) -> float:
        base = self.sd * _gaussian_tail_constant(p)
        # a shift adds at most |mean| to any valid tail constant
        return abs(self.mean) + base


@dataclass(frozen=True)
class Uniform:
    lo: float = -1.0
    hi: float = 1.0

    def __post_init__(self):
        if not (-math.inf < self.lo < self.hi < math.inf and self.hi - self.lo < math.inf):
            raise ValueError(
                f"uniform needs finite lo < hi and hi - lo, got lo={self.lo}, hi={self.hi}"
            )

    def fill(self, draws, streams):
        """Row t from stream t with its uniform(lo, hi) bits: numpy's lo + (hi - lo) * u."""
        for row, rng in zip(draws, streams):
            rng.random(out=row)
        draws *= self.hi - self.lo
        draws += self.lo

    def density_bound(self) -> float:
        return 1.0 / (self.hi - self.lo)

    def tail_constant(self, p: float) -> float:
        # bounded support: the magnitude bound is a valid constant for every p
        return max(abs(self.lo), abs(self.hi))


@dataclass(frozen=True)
class WeibullSymmetric:
    """Symmetric variable with survival P(|x| > t) = exp(-(t/scale)^p)."""

    p: float
    scale: float = 1.0

    def __post_init__(self):
        if not 1.0 <= self.p < math.inf:
            # a shape below 1 has an unbounded density at 0
            raise ValueError(f"weibull shape p must be finite and >= 1, got {self.p}")
        if not 0 < self.scale < math.inf:
            raise ValueError(f"weibull scale must be positive and finite, got {self.scale}")

    def fill(self, draws, streams):
        """Row t from stream t: the inverse CDF of the magnitudes, then a random sign each."""
        for row, rng in zip(draws, streams):
            magnitude = self.scale * (-np.log1p(-rng.random(row.size))) ** (1.0 / self.p)
            row[:] = (rng.integers(0, 2, row.size) * 2 - 1) * magnitude

    def density_bound(self) -> float:
        q = (self.p - 1.0) / self.p
        return (self.p / (2.0 * self.scale)) * q ** q * math.exp(-q)

    def tail_constant(self, p: float) -> float:
        return self.scale * _weibull_tail_constant(self.p, p)


# the "dist.kind" name of each coefficient law in a model file
_DIST_KINDS = {"gaussian": Gaussian, "uniform": Uniform, "weibull_symmetric": WeibullSymmetric}


# ---------------------------------------------------------------------------
# random models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RandomModel:
    """Coefficient model on a fixed support; optionally shifted and rescaled.

    A plain model draws i.i.d. coefficients from ``dist``.  A smoothed model
    (built by ``smoothed_model``) draws offset_a + scale * dist per
    coefficient.  The support must contain the zero exponent and all unit
    exponents, which guarantees the constraint rows used in the tail
    arguments stay nondegenerate.
    """

    n: int
    support: tuple
    dist: object
    p: float = 2.0
    offsets: tuple | None = None
    scale: float = 1.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        seen = set()
        for alpha in self.support:
            if len(alpha) != self.n or not all(
                isinstance(a, _INTEGERS) and type(a) is not bool and a >= 0 for a in alpha
            ):
                raise ValueError(
                    f"support exponent {alpha} must have {self.n} nonnegative integer entries"
                )
            if alpha in seen:
                raise ValueError(f"duplicate support exponent {alpha}")
            seen.add(alpha)
        required = [(0,) * self.n] + [
            tuple(1 if j == i else 0 for j in range(self.n)) for i in range(self.n)
        ]
        for alpha in required:
            if alpha not in seen:
                raise ValueError(f"support must contain {alpha}")
        if not 1.0 <= self.p < math.inf:
            raise ValueError(f"tail exponent p must be finite and >= 1, got {self.p}")
        if not 0.0 < self.scale < math.inf:
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        if self.offsets is not None and len(self.offsets) != len(self.support):
            raise ValueError("offsets must align with the support")
        if self.offsets is not None and not all(map(math.isfinite, self.offsets)):
            raise ValueError(f"offsets must be finite, got {self.offsets}")

    @property
    def support_size(self) -> int:
        return len(self.support)

    @property
    def degree(self) -> int:
        return max(1, max(sum(alpha) for alpha in self.support))

    def is_plain(self) -> bool:
        return self.offsets is None and self.scale == 1.0


@dataclass(frozen=True)
class ModelConstants:
    K: float
    rho: float
    L: float


def _check_seed(seed) -> tuple:
    """The seed rule: an int (not a bool), or a non-empty tuple of them such as
    (base_seed, trial_index), none negative.  Returns the seed's values."""
    values = seed if isinstance(seed, tuple) and seed else (seed,)
    for v in values:
        if not (isinstance(v, _INTEGERS) and type(v) is not bool and v >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return values


# numpy's SeedSequence hash (a 4-word pool), over a chunk of seeds
_MASK32 = 2 ** 32 - 1
# the hash step of cross-mix (s, d) is 4 + 3s + (d if d < s else d - 1); (s, s) is unused
_CROSS = np.array([[4 + 3 * s + d - (d > s) if d != s else 0 for d in range(4)] for s in range(4)])


@functools.lru_cache(maxsize=None)
def _hash_constants(init: int, mult: int, steps: int) -> tuple:
    """The xor and multiplier words of hash steps k < steps: init * mult^k, init * mult^(k+1)."""
    c = np.array([init * pow(mult, k, 2 ** 32) & _MASK32 for k in range(steps + 1)], np.uint32)
    return c[:-1], c[1:]


def _hashmix(values, xor, mult):
    return (h := (values ^ xor) * mult) ^ (h >> 16)


def _mix(x, y):
    return (r := 0xCA01F9DD * x - 0x4973F715 * y) ^ (r >> 16)


class _HashedWords(np.random.bit_generator.ISeedSequence):
    """The four 64-bit words of ``SeedSequence(seed).generate_state(4, np.uint64)``, which
    PCG64 reads once to seed itself; unlike SeedSequence it cannot spawn children."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _streams(seeds):
    """Yield, seed by seed, a fresh Generator on the stream of default_rng(SeedSequence(seed)).
    Before the first yield one pass checks every seed and reads its ints as 32-bit words, low
    first; the hash then runs over one (T, L) matrix, each row zero-filled up to the pool's 4
    words (they hash as missing words do), and a word past the pool mixes only into its rows."""
    words, counts = [], []
    for seed in seeds:
        start = len(words)
        for v in _check_seed(seed):
            v = int(v)
            while v > _MASK32:
                words.append(v & _MASK32)
                v >>= 32
            words.append(v)
        counts.append(len(words) - start)
    counts = np.array(counts, dtype=np.intp)
    L = int(counts.max(initial=4))
    E = np.zeros((counts.size, L), dtype=np.uint32)
    E[np.arange(L) < counts[:, None]] = words
    xor, mult = _hash_constants(0x43B0D7E5, 0x931E8875, 4 * L)
    pool = _hashmix(E[:, :4], xor[:4], mult[:4])
    cross_xor, cross_mult = xor[_CROSS], mult[_CROSS]
    for s in range(4):  # the 12 cross-mixes: word s into the three others at once
        mixed = _mix(pool, _hashmix(pool[:, s, None], cross_xor[s], cross_mult[s]))
        np.copyto(pool, mixed, where=_CROSS[s] > 0)
    for i in range(4, L):  # each entropy word past the pool, into every pool word of its rows
        mixed = _mix(pool, _hashmix(E[:, i, None], xor[4 * i:4 * i + 4], mult[4 * i:4 * i + 4]))
        np.copyto(pool, mixed, where=counts[:, None] > i)
    xor, mult = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
    hashed = _hashmix(pool[:, None], xor.reshape(2, 4), mult.reshape(2, 4)).reshape(-1, 8)
    for row in hashed.astype("<u4").view("<u8"):
        yield np.random.Generator(np.random.PCG64(_HashedWords(row)))


def trial_rng(seed) -> np.random.Generator:
    """Counter-based stream: trial i of base seed s is the stream of seed (s, i).

    Streams for distinct trials are independent and order-free, so parallel
    experiment workers reproduce the single-worker draws exactly.
    """
    return next(_streams([seed]))


def sample_batch(model: RandomModel, seeds) -> np.ndarray:
    """One draw per seed, as the rows of a (T, m) coefficient array; row t comes from
    the stream ``trial_rng(seeds[t])`` alone.  Every seed is checked before the first draw."""
    seeds = list(seeds)
    draws = np.empty((len(seeds), model.support_size))
    model.dist.fill(draws, _streams(seeds))
    draws *= model.scale
    if model.offsets is not None:
        draws += model.offsets
    return draws


def sample(model: RandomModel, seed) -> SparsePolynomial:
    """One draw from the model; deterministic in ``seed``.

    ``seed`` may be an int or a tuple such as (base_seed, trial_index).  The
    returned polynomial keeps the full support, including any coefficients
    that happen to be zero.
    """
    return new_sparse(model.n, zip(model.support, sample_batch(model, [seed])[0]))


def model_constants(model: RandomModel) -> ModelConstants:
    """Aggregate (K, rho, L) for the model, checking the universal lower bounds.

    Per coefficient: K_a = |offset_a| + scale * K(dist) and likewise for L_a;
    rho_a = density_bound(dist) / scale (shifts do not change density
    bounds).  K aggregates by summation, rho by the geometric mean over the
    coefficients of 1, X_1, ..., X_n.
    """
    k_dist = model.dist.tail_constant(2.0)
    l_dist = model.dist.tail_constant(model.p)
    offsets = model.offsets if model.offsets is not None else (0.0,) * model.support_size
    abs_offsets = [abs(o) for o in offsets]
    K = sum(abs_offsets) + model.support_size * model.scale * k_dist
    L = sum(abs_offsets) + model.support_size * model.scale * l_dist
    rho = model.dist.density_bound() / model.scale
    # a law with a finite constant gives a finite K or L, and every law a rho in the
    # normal floats, unless the model's sd or scale over- or underflows them
    if math.isfinite(k_dist) and not math.isfinite(K):
        raise ValueError(f"model constant K = {K} overflows")
    if math.isfinite(l_dist) and not math.isfinite(L):
        raise ValueError(f"model constant L = {L} overflows")
    if not sys.float_info.min <= rho < math.inf:
        raise ValueError(f"model constant rho = {rho!r} is not a positive normal float")

    floor_k = (model.n + 1) / 4.0
    if math.isfinite(K) and not K * rho > floor_k:
        raise ValueError(
            f"inconsistent constants: K*rho = {K * rho:.6g} <= {floor_k:.6g}"
        )
    floor_l = 9.0 * (model.n + 1) / 50.0
    if math.isfinite(L) and not L * rho > floor_l:
        raise ValueError(
            f"inconsistent constants: L*rho = {L * rho:.6g} <= {floor_l:.6g}"
        )
    return ModelConstants(K=K, rho=rho, L=L)


def smoothed_model(f0: SparsePolynomial, sigma: float, base: RandomModel) -> RandomModel:
    """Model drawing f0 + sigma * norm1(f0) * (base draw).

    The constants transform exactly: K -> norm1(f0) * (1 + sigma * K_base)
    and rho -> rho_base / (sigma * norm1(f0)), so K*rho = (K_base + 1/sigma)
    * rho_base, which recovers the plain model as sigma -> inf.
    """
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    if not base.is_plain():
        raise ValueError("base model must be unshifted and unscaled")
    if f0.n != base.n:
        raise ValueError("dimension mismatch between f0 and the base model")
    scale = sigma * norm1(f0)
    if scale == 0.0:
        raise ValueError("f0 must be nonzero")
    coeff_by_alpha = {alpha: c for alpha, c in f0.terms()}
    for alpha in coeff_by_alpha:
        if alpha not in set(base.support):
            raise ValueError(f"f0 exponent {alpha} outside the base support")
    offsets = tuple(coeff_by_alpha.get(alpha, 0.0) for alpha in base.support)
    return RandomModel(
        n=base.n,
        support=base.support,
        dist=base.dist,
        p=base.p,
        offsets=offsets,
        scale=scale,
    )


# ---------------------------------------------------------------------------
# closed-form bound formulas
# ---------------------------------------------------------------------------

def _tail_bound_local(model: RandomModel, t: float, p: float) -> float:
    """The local tail bound of tail_bound_local_p, uncut, with the subgaussian K as L at p = 2."""
    if not math.e <= t < math.inf:
        raise ValueError(f"the local tail bound requires a finite t >= e, got {t}")
    c = model_constants(model)
    n, d, m = model.n, model.degree, model.support_size
    tail = c.K if p == 2.0 else c.L
    return (
        math.sqrt(n)
        * d ** n
        * m
        * (8.0 * tail * c.rho / (n + 1) ** (1.0 - 1.0 / p)) ** (n + 1)
        * math.log(t) ** ((n + 1) / p)
        / t ** (n + 1)
    )


def tail_bound_local(model: RandomModel, t: float) -> float:
    """Survival bound for the local condition number at a fixed cube point.

    For t >= e,
        P(kappa >= t) <= sqrt(n) d^n |M| (8 K rho / sqrt(n+1))^(n+1)
                          * ln(t)^((n+1)/2) / t^(n+1),
    cut at 1, as a probability bound.
    """
    return min(1.0, _tail_bound_local(model, t, 2.0))


def tail_bound_local_p(model: RandomModel, t: float) -> float:
    """p-tail variant, cut at 1: (8 L rho / (n+1)^(1-1/p))^(n+1) * ln(t)^((n+1)/p) / t^(n+1)."""
    return min(1.0, _tail_bound_local(model, t, model.p))


def tail_bound_global(model: RandomModel, t: float) -> tuple[float, float]:
    """Survival bounds for the global condition number, for t > 2e.

    Returns (sharp, simplified):
        sharp      = 2 sqrt(n) d^(2n) |M| (16 K rho / sqrt(n+1))^(n+1)
                     * ln(t)^((n+1)/2) / t
        simplified = 2 sqrt(n) d^(2n) |M| (10 K rho)^(n+1) / sqrt(t)
    The sharp form never exceeds the simplified one on the valid range.
    """
    if not t > 2.0 * math.e:
        raise ValueError(f"the global tail bound requires t > 2e, got {t}")
    c = model_constants(model)
    n, d, m = model.n, model.degree, model.support_size
    common = 2.0 * math.sqrt(n) * d ** (2 * n) * m
    sharp = (
        common
        * (16.0 * c.K * c.rho / math.sqrt(n + 1)) ** (n + 1)
        * math.log(t) ** ((n + 1) / 2)
        / t
    )
    simplified = common * (10.0 * c.K * c.rho) ** (n + 1) / math.sqrt(t)
    if sharp > simplified * (1 + 1e-12):
        raise AssertionError("sharp global bound exceeded the simplified form")
    return sharp, simplified


@dataclass(frozen=True)
class BoxCountBound:
    """General bound plus the sharper constant available for the two named models."""

    general: float
    specialized: float | None = None

    @property
    def value(self) -> float:
        return self.general if self.specialized is None else self.specialized


def expected_boxes_bound(model: RandomModel) -> BoxCountBound:
    """Bound on the expected number of final subdivision boxes.

    General form: 2 n^(3/2) d^(2n) |M| (20 (n+1) K rho)^(n+1).  Models that
    are exactly standard gaussian or uniform on [-1, 1] also get their
    specialised constants:
        gaussian: 2 n^(3/2) (10 (n+1))^(n+1) d^(2n) |M|^(n+2)
        uniform:  2 n 32^(n+1) d^(2n) |M|^(n+2)
    """
    c = model_constants(model)
    n, d, m = model.n, model.degree, model.support_size
    general = (
        2.0 * n ** 1.5 * d ** (2 * n) * m * (20.0 * (n + 1) * c.K * c.rho) ** (n + 1)
    )
    specialized = None
    if model.is_plain() and model.dist == Gaussian(0.0, 1.0):
        specialized = 2.0 * n ** 1.5 * (10.0 * (n + 1)) ** (n + 1) * d ** (2 * n) * m ** (n + 2)
    elif model.is_plain() and model.dist == Uniform(-1.0, 1.0):
        specialized = 2.0 * n * 32.0 ** (n + 1) * d ** (2 * n) * m ** (n + 2)
    return BoxCountBound(general=general, specialized=specialized)


def moment_bound_kappa_n(model: RandomModel) -> float:
    """Bound 2 n^2 d^n |M| (7 sqrt(n+1) K rho)^(n+1) on E[kappa(f, x)^n]."""
    c = model_constants(model)
    n, d, m = model.n, model.degree, model.support_size
    return 2.0 * n ** 2 * d ** n * m * (7.0 * math.sqrt(n + 1) * c.K * c.rho) ** (n + 1)


def moment_bound_kappa_n_p(model: RandomModel) -> float:
    """p-tail variant of the n-th moment bound."""
    c = model_constants(model)
    n, d, m, p = model.n, model.degree, model.support_size, model.p
    factor = (
        8.0
        * math.e ** (1.0 - 1.0 / p)
        / p ** (1.0 / p)
        * n ** (1.0 / p - 0.5)
        * (n + 1) ** (1.0 / p)
        * c.L
        * c.rho
    )
    return 2.0 * n ** 2 * (n + 1) ** (1.0 / p - 0.5) * d ** n * m * factor ** (n + 1)


def descartes_moment_bound(model: RandomModel, k: int) -> float:
    """Bound (C k |M| (log2 d + |log2(L rho)| + 1))^k on the k-th tree-size moment.

    C = 16 is an artifact constant validated by experiment, not proven.
    """
    if k < 1:
        raise ValueError("moment order k must be >= 1")
    c = model_constants(model)
    m, d = model.support_size, model.degree
    base = 16.0 * k * m * (math.log2(d) + abs(math.log2(c.L * c.rho)) + 1.0)
    return base ** k


# ---------------------------------------------------------------------------
# JSON model files:
#   {"n": 1, "support": [[0], [1], [5]], "dist": {"kind": "gaussian",
#    "mean": 0.0, "sd": 1.0}, "p": 2}
# ---------------------------------------------------------------------------

def load_model(source) -> RandomModel:
    """Read a model from a JSON file path, file object or parsed dict."""
    what = "model file"
    obj = _read_json_object(source, what, ("n", "support", "dist", "p"))
    n = _field(obj, "n", what, _is_int, "an integer")
    support = _field(obj, "support", what, _list_of(_list_of(_is_int)), "a list of integer lists")
    dist_obj = _field(obj, "dist", what, _is_object, "an object")
    kind = _field(dist_obj, "dist.kind", what, lambda v: isinstance(v, str) and v in _DIST_KINDS,
                  f"one of {sorted(_DIST_KINDS)}")
    law = _DIST_KINDS[kind]
    _read_json_object(dist_obj, f"{what}: dist", ["kind"] + [f.name for f in fields(law)])
    dist = _build(what, law, **{
        f.name: _field(dist_obj, f"dist.{f.name}", what, _is_number, "a finite number", f.default)
        for f in fields(law)
    })
    p = _field(obj, "p", what, _is_number, "a finite number", 2)
    return _build(what, RandomModel, n=n, support=tuple(map(tuple, support)), dist=dist, p=float(p))
