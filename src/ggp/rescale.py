"""The scaling transformation, its inverse and window, and the exact
rescaled intensity, all on arrays of points.

A point x != o maps to (v, h) with v = R^(beta/2) * exp^{-1}(x/||x||) in the
tangent plane at the north pole and h = R^beta (1 - ||x||/R); the origin maps
to (o, R^beta). The rescaled intensity is computed exactly by change of
variables (density times Jacobian), never through its Taylor expansion.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import OutsideWindow
from .hull import _finite
from .params import ModelParams, normalization

__all__ = [
    "antipode_sentinel",
    "exp_map",
    "exp_inverse",
    "transform_batch",
    "inverse_transform",
    "rescaled_intensity",
]


def antipode_sentinel(d: int) -> np.ndarray:
    """Fixed preimage assigned to -u0: the tangent vector (pi, 0, ..., 0)."""
    v = np.zeros(d - 1)
    v[0] = math.pi
    return v


def exp_map(v: np.ndarray) -> np.ndarray:
    """Exponential map at the north pole: tangent vectors (n, d-1) -> sphere (n, d)."""
    v = np.asarray(v, dtype=float)
    t = np.linalg.norm(v, axis=1)
    d = v.shape[1] + 1
    out = np.empty((len(v), d))
    safe = np.where(t > 0, t, 1.0)
    out[:, :-1] = v * (np.sin(t) / safe)[:, None]
    out[:, -1] = np.cos(t)
    return out


def exp_inverse(u: np.ndarray) -> np.ndarray:
    """Inverse exponential map at the north pole, sphere (n, d) -> tangent
    vectors (n, d-1); the antipode gets the sentinel.

    Uses atan2 of (tangential norm, height) so the geodesic length is stable
    near both poles.
    """
    u = np.asarray(u, dtype=float)
    d = u.shape[1]
    s = np.linalg.norm(u[:, :-1], axis=1)
    t = np.arctan2(s, u[:, -1])
    out = np.zeros((len(u), d - 1))
    pos = s > 0
    out[pos] = u[pos, :-1] * (t[pos] / s[pos])[:, None]
    antip = (~pos) & (u[:, -1] < 0)
    if np.any(antip):
        out[antip] = antipode_sentinel(d)
    return out


def transform_batch(x: np.ndarray, beta: float, r_lambda: float) -> np.ndarray:
    """Scaling map for an (n, d) array of finite points; returns (n, d) rows
    (v_1..v_{d-1}, h)."""
    if r_lambda < 1:
        raise ValueError("r_lambda must be >= 1")
    x = _finite(np.asarray(x, dtype=float))
    n, d = x.shape
    out = np.empty((n, d))
    r = np.linalg.norm(x, axis=1)
    at_origin = r == 0.0
    safe_r = np.where(at_origin, 1.0, r)
    u = x / safe_r[:, None]
    out[:, :-1] = r_lambda ** (beta / 2.0) * exp_inverse(u)
    out[:, -1] = r_lambda ** (beta - 1.0) * (r_lambda - r)
    if np.any(at_origin):
        out[at_origin, :-1] = 0.0
        out[at_origin, -1] = r_lambda**beta
    return out


def _check_window(arr: np.ndarray, beta: float, r_lambda: float):
    """Raise OutsideWindow unless every row (v.., h) of arr lies in the
    window R^(beta/2) B(o, pi) x (-inf, R^beta], up to a 1e-9 tolerance."""
    vmax = math.pi * r_lambda ** (beta / 2.0)
    vnorm = np.linalg.norm(arr[:, :-1], axis=1)
    inside = (vnorm <= vmax * (1 + 1e-9)) & (arr[:, -1] <= r_lambda**beta * (1 + 1e-9) + 1e-9)
    if not np.all(inside):
        k = int(np.argmin(inside))
        raise OutsideWindow(f"(||v||={vnorm[k]:.4g}, h={arr[k, -1]:.4g}) outside the window")


def inverse_transform(w, params: ModelParams, r_lambda: float) -> np.ndarray:
    """Unique preimages of an (n, d) array of scaled points (v.., h);
    raises OutsideWindow if any row leaves the window."""
    arr = np.asarray(w, dtype=float)
    beta = params.beta
    _check_window(arr, beta, r_lambda)
    r = np.maximum(r_lambda - arr[:, -1] / r_lambda ** (beta - 1.0), 0.0)
    return r[:, None] * exp_map(arr[:, :-1] / r_lambda ** (beta / 2.0))


def rescaled_intensity(w, params: ModelParams, r_lambda: float):
    """Exact intensity density of the rescaled process at (v, h).

    nu(v, h) = lam * phi(r) * r^(d-1) * |dr/dh| * (sin(theta)/theta)^(d-2)
               * R^(-beta(d-1)/2),

    with r the preimage radius, theta = R^(-beta/2) ||v||, and phi the
    normalized density (using c_star, which it computes from params), at
    each row of an (n, d) array; integrates to lam over the window.
    """
    d, alpha, beta = params.d, params.alpha, params.beta
    c_star = normalization(d, alpha, beta).c_star
    arr = np.asarray(w, dtype=float)
    _check_window(arr, beta, r_lambda)
    v, h = arr[:, :-1], arr[:, -1]
    vnorm = np.linalg.norm(v, axis=1)
    r = r_lambda - h / r_lambda ** (beta - 1.0)
    r = np.maximum(r, 0.0)
    theta = vnorm / r_lambda ** (beta / 2.0)
    sinc = np.sinc(theta / np.pi) ** (d - 2)  # sin(theta)/theta, equal to 1 at 0
    log_phi = d * math.log(c_star) - r**beta / beta
    # combined radial power d-1+alpha is > 0 for every valid (d, alpha),
    # so the density vanishes at r = 0 (the image of the origin)
    log_r_part = np.where(r > 0, (d - 1 + alpha) * np.log(np.where(r > 0, r, 1.0)), -np.inf)
    log_jac = -(beta - 1.0) * math.log(r_lambda) - (beta * (d - 1) / 2.0) * math.log(r_lambda)
    return params.lam * np.exp(log_phi + log_r_part + log_jac) * sinc
