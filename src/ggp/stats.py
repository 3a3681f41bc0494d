"""Estimators and goodness-of-fit statistics for the experiment harness."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput
from .sampling import _gen

__all__ = [
    "ks_statistic",
    "SummaryStats",
    "summary_stats",
    "bootstrap_median_ci",
    "fit_line",
    "gumbel_cdf",
]

# The median bootstrap's resample count and confidence level.
BOOTSTRAP_RESAMPLES = 2000
BOOTSTRAP_LEVEL = 0.95


def gumbel_cdf(x):
    return np.exp(-np.exp(-np.asarray(x, dtype=float)))


def ks_statistic(sample, cdf) -> float:
    """Kolmogorov-Smirnov distance sup_x |F_n(x) - F(x)| against a cdf callable."""
    x = np.sort(np.asarray(sample, dtype=float))
    n = len(x)
    if n == 0:
        raise EmptyInput("empty sample")
    f = np.asarray(cdf(x), dtype=float)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))


@dataclass(frozen=True)
class SummaryStats:
    """Moment summary of one metric sample."""

    n: int
    mean: float
    variance: float  # unbiased; nan for n < 2
    skewness: float
    excess_kurtosis: float
    ks_normal: float  # KS distance of the standardized sample to N(0,1)


def summary_stats(sample) -> SummaryStats:
    from scipy.special import ndtr  # the standard normal cdf

    x = np.asarray(sample, dtype=float)
    n = len(x)
    if n == 0:
        raise EmptyInput("empty sample")
    mean = float(x.mean())
    if n < 2:
        return SummaryStats(n, mean, math.nan, math.nan, math.nan, math.nan)
    var = float(x.var(ddof=1))
    sd = math.sqrt(var)
    if sd == 0.0:
        return SummaryStats(n, mean, var, 0.0, 0.0, 1.0)
    z = (x - mean) / sd
    skew = float(np.mean(z**3))
    kurt = float(np.mean(z**4) - 3.0)
    ks = ks_statistic(z, ndtr)
    return SummaryStats(n, mean, var, skew, kurt, ks)


def bootstrap_median_ci(sample, rng):
    """Percentile bootstrap confidence interval for the median, at
    BOOTSTRAP_LEVEL from BOOTSTRAP_RESAMPLES resamples."""
    x = np.asarray(sample, dtype=float)
    if len(x) == 0:
        raise EmptyInput("empty sample")
    g = _gen(rng)
    idx = g.integers(0, len(x), size=(BOOTSTRAP_RESAMPLES, len(x)))
    meds = np.median(x[idx], axis=1)
    lo = float(np.quantile(meds, (1 - BOOTSTRAP_LEVEL) / 2))
    hi = float(np.quantile(meds, 1 - (1 - BOOTSTRAP_LEVEL) / 2))
    return float(np.median(x)), lo, hi


def fit_line(x, y):
    """Least-squares line fit; returns (slope, intercept, r_squared)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2
