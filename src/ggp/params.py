"""Model parameters, normalization constants and the critical radius.

The point density is proportional to ||x||^alpha * exp(-||x||^beta / beta)
on R^d. Two normalizing constants are tracked side by side: ``c_star``,
the constant that actually integrates the density to one, and ``c_paper``,
the closed-form constant

    c = beta^((beta - alpha - 1)/beta) / (2 * Gamma((alpha + 1)/beta)),

which normalizes the one-dimensional marginal but not, in general, the
d-dimensional density. All samplers and the rescaled intensity use
``c_star``; ``c_paper`` is the one-dimensional normalizer that
``gumbel_centering`` uses.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

from .errors import IntensityTooSmall, ParameterOverflow, ValidationError

__all__ = [
    "ModelParams",
    "NormalizationConstants",
    "validate_params",
    "check_integer",
    "check_number",
    "check_exponents",
    "normalization",
    "critical_radius",
    "critical_exponent",
    "unit_ball_volume",
    "sphere_surface_area",
    "gumbel_centering",
]


@dataclass(frozen=True)
class ModelParams:
    """One ensemble: dimension d >= 2, alpha > -1, beta >= 1, intensity lam > 0."""

    d: int
    alpha: float
    beta: float
    lam: float


def validate_params(d, alpha, beta, lam) -> ModelParams:
    """Validate the raw tuple (d, alpha, beta, lambda) and freeze it.

    Raises ValidationError naming the first field out of range: "d" not an
    integer or below 2, "alpha" or "beta" as check_exponents judges them,
    "lambda" not a number above 0.
    """
    check_integer("d", d)
    if d < 2:
        raise ValidationError("d", f"d = {d} < 2")
    check_exponents(alpha, beta)
    check_number("lambda", lam)
    if not lam > 0:
        raise ValidationError("lambda", f"lambda = {float(lam)} <= 0")
    return ModelParams(d=int(d), alpha=float(alpha), beta=float(beta), lam=float(lam))


def check_integer(field, value):
    """Refuse, naming field, a value that is not an integer; bools are
    refused, though Python counts them as ints."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(field, f"must be an integer, got {value!r}")


def check_number(field, value):
    """Refuse, naming field, a value that is not a real number; bools are
    refused, though Python counts them as numbers."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(field, f"must be a number, got {value!r}")


def check_exponents(alpha, beta):
    """Refuse a non-number or alpha <= -1, then a non-number or beta < 1,
    with ValidationError naming the field.

    Boundaries are rejected exactly as stated: alpha = -1 is invalid, beta = 1
    is valid.
    """
    check_number("alpha", alpha)
    if not alpha > -1:
        raise ValidationError("alpha", f"alpha = {float(alpha)} <= -1")
    check_number("beta", beta)
    if not beta >= 1:
        raise ValidationError("beta", f"beta = {float(beta)} < 1")


def unit_ball_volume(j: int) -> float:
    """Volume kappa_j of the unit ball in R^j; kappa_0 = 1."""
    if j < 0:
        raise ValueError(f"j = {j} < 0")
    from scipy.special import gammaln

    return math.pi ** (j / 2.0) / math.exp(gammaln(j / 2.0 + 1.0))


def sphere_surface_area(d: int) -> float:
    """Surface measure of the unit sphere S^{d-1} in R^d."""
    if d < 1:
        raise ValueError(f"d = {d} < 1")
    from scipy.special import gammaln

    return 2.0 * math.pi ** (d / 2.0) / math.exp(gammaln(d / 2.0))


@dataclass(frozen=True)
class NormalizationConstants:
    """Normalization data for one (d, alpha, beta) triple.

    z_total is the full-space integral of ||x||^alpha exp(-||x||^beta/beta);
    c_star = z_total^(-1/d) makes the density a probability density.
    """

    z_total: float
    c_star: float
    c_paper: float


def normalization(d: int, alpha: float, beta: float) -> NormalizationConstants:
    """Compute normalization constants for dimension d >= 1.

    The radial integral int_0^inf r^(d-1+alpha) exp(-r^beta/beta) dr equals
    beta^((d+alpha)/beta - 1) * Gamma((d+alpha)/beta); z_total multiplies it
    by the sphere surface area.
    """
    if d < 1:
        raise ValidationError("d", f"d = {d} < 1")
    check_exponents(alpha, beta)
    from scipy.special import gammaln

    s = (d + alpha) / beta
    try:
        radial = beta ** (s - 1.0) * math.exp(gammaln(s))
        z_total = sphere_surface_area(d) * radial
        c_star = z_total ** (-1.0 / d)
        c_paper = beta ** ((beta - alpha - 1.0) / beta) / (
            2.0 * math.exp(gammaln((alpha + 1.0) / beta))
        )
    except (OverflowError, ZeroDivisionError) as exc:
        raise ParameterOverflow(f"d = {d}, alpha = {alpha}, beta = {beta}") from exc
    if not 0.0 < c_star < math.inf:
        raise ParameterOverflow(f"d = {d}, alpha = {alpha}, beta = {beta}")
    return NormalizationConstants(z_total=z_total, c_star=c_star, c_paper=c_paper)


def critical_exponent(d: int, alpha: float, beta: float) -> float:
    """Exponent (beta(d+1) - 2d - 2alpha)/2 controlling the radius correction."""
    return (beta * (d + 1) - 2 * d - 2 * alpha) / 2.0


def critical_radius(params: ModelParams) -> float:
    """Radius R of the ball the polytope boundary tracks at intensity lam.

    R^beta = beta log(lam) + d beta log(c) - E log(beta log(lam)), with
    E the critical exponent and c = c_star. This expanded form stays finite
    when E = 0. Raises IntensityTooSmall when the bracket is non-positive or
    the resulting radius dips below 1.
    """
    c = normalization(params.d, params.alpha, params.beta).c_star
    beta, d = params.beta, params.d
    bl = beta * math.log(params.lam)
    if bl <= 0:
        raise IntensityTooSmall(f"beta*log(lambda) = {bl:.4g} <= 0")
    e = critical_exponent(d, params.alpha, beta)
    r_beta = bl + d * beta * math.log(c) - e * math.log(bl)
    if r_beta <= 0:
        raise IntensityTooSmall(f"R^beta = {r_beta:.4g} <= 0 at lambda = {params.lam:.4g}")
    r = r_beta ** (1.0 / beta)
    if r < 1.0:
        raise IntensityTooSmall(f"R = {r:.4g} < 1 at lambda = {params.lam:.4g}")
    return r


@lru_cache(maxsize=64, typed=True)
def gumbel_centering(n: int, alpha: float, beta: float) -> tuple[float, float]:
    """Centering a_n and scaling (beta log n)^((beta-1)/beta) for 1-d maxima.

    a_n = (beta log n)^(1/beta)
          - [(beta-alpha-1) log(beta log n) - beta log c] / (beta (beta log n)^((beta-1)/beta)),

    written in expanded form so the alpha = beta - 1 case stays finite.
    Uses the one-dimensional normalizer, which is exact in 1-d. Cached, since
    every Gumbel block asks for the same (n, alpha, beta). Raises
    ValidationError naming n below 2, or alpha or beta as check_exponents
    judges them.
    """
    if n < 2:
        raise ValidationError("n", f"n = {n} < 2")
    c = normalization(1, alpha, beta).c_paper
    bl = beta * math.log(n)
    scale = bl ** ((beta - 1.0) / beta)
    a_n = bl ** (1.0 / beta) - ((beta - alpha - 1.0) * math.log(bl) - beta * math.log(c)) / (
        beta * scale
    )
    return a_n, scale
