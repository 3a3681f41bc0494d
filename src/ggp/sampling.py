"""Reproducible random generation for all experiments.

Streams are addressed by (seed, stream_id): the PCG64 generator seeded by
numpy's SeedSequence([seed, stream_id]) gives statistically independent
generators for distinct ids and bit-identical output for repeated ids, which
is what makes replications safe to run in parallel and merge
deterministically. Every sampler takes a numpy Generator; a task turns its
RngStream into one with RngStream.generator(), once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .params import ModelParams, gumbel_centering

__all__ = [
    "RngStream",
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

    Its generator is PCG64 seeded by SeedSequence([seed, stream_id]).
    """

    seed: int
    stream_id: int

    def __post_init__(self):
        for field in ("seed", "stream_id"):
            if getattr(self, field) < 0:
                raise ValidationError(field, "must be non-negative")

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence([self.seed, self.stream_id]))


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


def sample_radius(g: np.random.Generator, d: int, alpha: float, beta: float, size: int):
    """Draw radii with density proportional to r^(d-1+alpha) exp(-r^beta/beta).

    Substituting t = r^beta/beta turns the law into Gamma((d+alpha)/beta),
    so r = (beta * G)^(1/beta) is exact.
    """
    shape = (d + alpha) / beta
    t = g.gamma(shape, size=size)
    return (beta * t) ** (1.0 / beta)


def sample_direction(g: np.random.Generator, d: int, size: int):
    """size uniform directions on S^{d-1}, shape (size, d), via normalized
    Gaussian vectors."""
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


def sample_polytope_input(g: np.random.Generator, params: ModelParams, r_min: float = 0.0,
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


def sample_standardized_max(g: np.random.Generator, n: int, alpha: float, beta: float,
                            size: int):
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
    values. gumbel_centering judges n, alpha and beta before any draw.
    """
    from scipy.special import gammainccinv

    a_n, scale = gumbel_centering(n, alpha, beta)
    k, u = g.binomial(n, 0.5, size=size), g.random(size)
    negative = k == 0
    with np.errstate(divide="ignore"):  # log(0) = -inf gives Q = 1 exactly
        q = np.where(negative, np.exp(np.log1p(-u) / n), -np.expm1(np.log(u) / np.maximum(k, 1)))
    r = (beta * gammainccinv((1.0 + alpha) / beta, q)) ** (1.0 / beta)
    return scale * (np.where(negative, -r, r) - a_n)
