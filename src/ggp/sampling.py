"""Reproducible random generation for all experiments.

Streams are addressed by (seed, stream_id): the PCG64 generator seeded by
numpy's SeedSequence([seed, stream_id]) gives statistically independent
generators for distinct ids and bit-identical output for repeated ids, which
is what makes replications safe to run in parallel and merge
deterministically. The replication engine computes those seed words for all
of a run's ids in one vectorized pass (stream_states), which reproduces
SeedSequence's hash bit for bit; every other stream builds its SeedSequence
when asked for its generator.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .params import ModelParams, gumbel_centering

__all__ = [
    "RngStream",
    "stream_states",
    "ScaledWindow",
    "sample_radius",
    "sample_direction",
    "radial_tail",
    "radial_tail_inverse",
    "sample_polytope_input",
    "sample_standardized_max",
]


@dataclass(frozen=True)
class RngStream:
    """Addressable random stream; stream_id is typically the replication index.

    Its generator is PCG64 seeded by SeedSequence([seed, stream_id]). state,
    which only the replication engine fills, holds the four uint64 seed words
    that stream_states computed for (seed, stream_id), so the generator is
    built from them without hashing again; the streams are the same.
    """

    seed: int
    stream_id: int = 0
    state: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.seed < 0 or self.stream_id < 0:
            raise ValidationError("seed", "seed and stream_id must be non-negative")

    def generator(self) -> np.random.Generator:
        if self.state is None:
            return np.random.default_rng(np.random.SeedSequence([self.seed, self.stream_id]))
        return np.random.Generator(np.random.PCG64(_state_seed_class()(self.state)))


# numpy's SeedSequence hash on uint32 words (numpy/random/bit_generator.pyx):
# a pool of 4 words, filled and mixed with the INIT_A/MULT_A hash, read out
# with the INIT_B/MULT_B hash
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hash_constants(init, mult):
    """(xor, multiplier) of each successive hash step: every step multiplies
    the running constant by mult, and no step depends on the data."""
    c = init
    while True:
        nxt = c * mult & _MASK32
        yield c, nxt
        c = nxt


def _hash(value, constants):
    xor, mult = next(constants)
    value = (value ^ xor) * mult
    return value ^ (value >> 16)


def _mix(x, y):
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> 16)


def _uint32_words(n: int) -> list:
    """numpy's coercion of a non-negative int to uint32 words, low word first."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def stream_states(seed: int, stream_ids) -> list:
    """For each id, the 4 words SeedSequence([seed, id]).generate_state(4,
    np.uint64) gives, as a tuple of Python ints, hashed for all ids at once.

    The entropy is seed's uint32 words followed by the id's one word, so ids
    must lie in [0, 2**32). Words are uint32 arrays over the ids, so each
    product and difference wraps modulo 2**32 as in numpy's hash.
    """
    seed, ids = int(seed), [int(i) for i in stream_ids]
    if seed < 0:
        raise ValidationError("seed", "must be non-negative")
    if not all(0 <= i <= _MASK32 for i in ids):
        raise ValidationError("stream_id", "need 0 <= stream_id < 2**32")
    id_words = np.array(ids, dtype=np.uint32)
    entropy = [np.full(len(ids), w, dtype=np.uint32) for w in _uint32_words(seed)] + [id_words]
    a = _hash_constants(_INIT_A, _MULT_A)
    zeros = np.zeros(len(ids), dtype=np.uint32)
    pool = [_hash(entropy[i] if i < len(entropy) else zeros, a) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], a))
    for word in entropy[_POOL_SIZE:]:  # entropy past the pool mixes into every pool word
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hash(word, a))
    b = _hash_constants(_INIT_B, _MULT_B)
    out = [_hash(pool[i % _POOL_SIZE], b).astype(np.uint64) for i in range(2 * _POOL_SIZE)]
    # uint32 pairs read as little-endian uint64 words
    words = np.stack([lo | (hi << np.uint64(32)) for lo, hi in zip(out[::2], out[1::2])], axis=1)
    return list(map(tuple, words.tolist()))


@functools.cache
def _state_seed_class():
    """The seed sequence class that hands PCG64 precomputed words; numpy.random
    loads here, at the first generator, not when the package is imported."""
    from numpy.random.bit_generator import ISeedSequence

    class StateSeed(ISeedSequence):
        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 asks for 4 uint64 words; anything else means numpy changed
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"precomputed stream state holds 4 uint64 words, "
                                 f"asked for {n_words} of {np.dtype(dtype)}")
            return np.array(self.state, dtype=np.uint64)

    return StateSeed


def _gen(rng) -> np.random.Generator:
    """Accept an RngStream or a ready Generator."""
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RngStream or numpy Generator, got {type(rng)!r}")


@dataclass(frozen=True)
class ScaledWindow:
    """Spatial ball of radius L times height interval (h_min, h_max] of the
    rescaled space; h_min may be -inf."""

    spatial_radius: float
    h_min: float
    h_max: float

    def __post_init__(self):
        if not self.spatial_radius > 0:
            raise ValidationError("window.spatial_radius", "must be > 0")
        if not self.h_min < self.h_max:
            raise ValidationError("window.h_min", "must be < h_max")


def sample_radius(rng, d: int, alpha: float, beta: float, size=None):
    """Draw radii with density proportional to r^(d-1+alpha) exp(-r^beta/beta).

    Substituting t = r^beta/beta turns the law into Gamma((d+alpha)/beta),
    so r = (beta * G)^(1/beta) is exact.
    """
    g = _gen(rng)
    shape = (d + alpha) / beta
    t = g.gamma(shape, size=size)
    return (beta * t) ** (1.0 / beta)


def sample_direction(rng, d: int, size: int):
    """size uniform directions on S^{d-1}, shape (size, d), via normalized
    Gaussian vectors."""
    g = _gen(rng)
    u = g.standard_normal((size, d))
    n = np.linalg.norm(u, axis=1, keepdims=True)
    bad = n[:, 0] == 0.0
    while np.any(bad):  # probability-zero guard
        u[bad] = g.standard_normal((int(bad.sum()), d))
        n = np.linalg.norm(u, axis=1, keepdims=True)
        bad = n[:, 0] == 0.0
    return u / n


def radial_tail(params: ModelParams, r: float) -> float:
    """P(||X|| > r) for one point: the regularized upper incomplete gamma
    Q((d+alpha)/beta, r^beta/beta)."""
    from scipy.special import gammaincc

    shape = (params.d + params.alpha) / params.beta
    return float(gammaincc(shape, r**params.beta / params.beta))


def radial_tail_inverse(params: ModelParams, q):
    """Radius r with P(||X|| > r) = q, elementwise for q in (0, 1]."""
    from scipy.special import gammainccinv

    shape = (params.d + params.alpha) / params.beta
    return (params.beta * gammainccinv(shape, q)) ** (1.0 / params.beta)


def sample_polytope_input(rng, params: ModelParams, r_min: float = 0.0,
                          r_max: float = math.inf) -> np.ndarray:
    """Poisson(lambda) many isotropic points with the generalized gamma radial law,
    restricted to the annulus r_min < ||x|| <= r_max, as an (n, d) array.

    By Poisson restriction the points in the annulus form a Poisson process
    of mean lambda (Q(t_min) - Q(t_max)), independent of those outside it
    (Q as in radial_tail). The unrestricted defaults draw exactly what they
    always drew; a restricted call draws its radii by inverting Q at
    Q(t_min) - U (Q(t_min) - Q(t_max)), U uniform on [0, 1), which never
    reaches Q(t_max) = 0 (an infinite radius).
    """
    if not 0.0 <= r_min < r_max:
        raise ValidationError("r_min", f"need 0 <= r_min < r_max, got ({r_min}, {r_max})")
    g = _gen(rng)
    if r_min > 0.0 or r_max < math.inf:
        q_lo, q_hi = radial_tail(params, r_max), radial_tail(params, r_min)
        n = int(g.poisson(params.lam * (q_hi - q_lo)))
        r = radial_tail_inverse(params, q_hi - g.random(n) * (q_hi - q_lo))
    else:
        n = int(g.poisson(params.lam))
        r = sample_radius(g, params.d, params.alpha, params.beta, size=n)
    # size-0 draws leave the generator untouched, so an empty cloud needs no branch
    u = sample_direction(g, params.d, size=n)
    return u * r[:, None]


def sample_standardized_max(rng, n: int, alpha: float, beta: float, size=None):
    """Standardized maxima of n iid draws from the 1-d generalized gamma density.

    The sign of each draw is symmetric, so a maximum is the largest of the
    k ~ Binomial(n, 1/2) positive-side radii, or minus the smallest of all n
    radii in the all-negative corner k = 0. Each is drawn exactly from one
    uniform u by inverting its order-statistic law in t = r^beta / beta,
    t ~ Gamma((1+alpha)/beta) with upper tail Q (Devroye 1986, ch. V):
    the maximum of k has CDF (1 - Q(t))^k, so Q(t) = 1 - u^(1/k); the minimum
    of n has P(min > t) = Q(t)^n, so Q(t) = (1 - u)^(1/n). u = 0 maps to
    Q(t) = 1, t = 0, in both branches, so every value is finite. The size
    maxima take size binomials, then size uniforms, from the generator.
    Returns (beta log n)^((beta-1)/beta) * (M_n - a_n) as an array of size
    values, or as a float when size is None. gumbel_centering judges n,
    alpha and beta before any draw.
    """
    from scipy.special import gammainccinv

    a_n, scale = gumbel_centering(n, alpha, beta)
    g = _gen(rng)
    # size None is the one-element block: the same array arithmetic, since a
    # scalar ** (pow) and an array ** (SIMD pow) differ in the last bit
    count = 1 if size is None else size
    k, u = g.binomial(n, 0.5, size=count), g.random(count)
    negative = k == 0
    with np.errstate(divide="ignore"):  # log(0) = -inf gives Q = 1 exactly
        q = np.where(negative, np.exp(np.log1p(-u) / n), -np.expm1(np.log(u) / np.maximum(k, 1)))
    r = (beta * gammainccinv((1.0 + alpha) / beta, q)) ** (1.0 / beta)
    x = scale * (np.where(negative, -r, r) - a_n)
    return float(x[0]) if size is None else x
