"""Limiting germ-grain objects: extreme points, the festoon boundary, the
upward paraboloid envelope, and their finite-intensity analogues.

The workhorse is the parabolic lifting (v, h) -> (v, s) with s = h + ||v||^2/2.
It sends the translated downward paraboloid with apex (v0, h0) to the affine
lower half-space {s <= s0 + <v0, v - v0>}, so a point admits an empty
downward paraboloid through it exactly when its lift is a vertex of the
lower convex hull of the lifted point set. The festoon boundary at v is the
lower hull height minus ||v||^2/2, a piecewise parabolic function.

One geometry path serves every spatial dimension m >= 1: the lower hull
is read off Qhull's merged facets of the lifted points (the grouping that
hull.convex_hull uses too), and affinely degenerate lifts fall back to the
exact convex-combination LP of hull.is_convex_combination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, OutsideSupport
from .hull import (Polytope, _dedup, _finite, facet_groups, is_convex_combination,
                   radial_function_batch)
from .params import ModelParams
from .rescale import exp_map

__all__ = [
    "Festoon",
    "lift",
    "extreme_points",
    "phi_boundary_batch",
    "psi_envelope",
    "psi_lambda_envelope",
    "rescaled_hull_boundary",
    "stable_height",
    "windowed_festoon",
    "ball_grid",
]


def _as_scaled_array(points) -> np.ndarray:
    """Normalize (n, m+1) rows (v_1..v_m, h) of finite coordinates to a float array."""
    arr = np.asarray(points, dtype=float)
    if arr.size == 0:
        raise EmptyInput("no scaled points")
    if arr.ndim != 2 or arr.shape[1] < 2:
        raise ValueError("expected rows (v_1..v_m, h) with m >= 1")
    return _finite(arr)


def _as_grid(grid, m: int) -> np.ndarray:
    """Spatial locations as a (k, m) float array; ValueError for any other shape."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 2 or grid.shape[1] != m:
        raise ValueError(f"expected a grid of shape (k, {m}), got {grid.shape}")
    return grid


def lift(w):
    """Parabolic lifting s = h + ||v||^2 / 2.

    Maps an (n, m+1) array of rows (v.., h) to the rows (v.., s).
    """
    arr = np.asarray(w, dtype=float)
    out = arr.copy()
    out[:, -1] = arr[:, -1] + 0.5 * np.sum(arr[:, :-1] ** 2, axis=1)
    return out


@dataclass(frozen=True)
class Festoon:
    """Extreme points of a scaled point set plus the lifted lower-hull data.

    `points` are the input rows (v.., h); `extreme_indices` index into them.
    `lifted_lower_hull` stores what boundary evaluation needs, in every
    spatial dimension: "planes", the affine pieces (gradients, intercepts)
    of the lower facets, None when the lift is affinely degenerate;
    "cells", the incidence pairs (piece, point index) of those facets, None
    with the planes; and "spatial_hull", the inequalities of the extreme
    points' spatial hull, None when that hull is degenerate.
    """

    points: np.ndarray
    extreme_indices: np.ndarray
    spatial_dim: int
    lifted_lower_hull: dict

    @property
    def extreme_points(self) -> np.ndarray:
        return self.points[self.extreme_indices]


def extreme_points(points, assume_unique=False) -> Festoon:
    """Extreme points via the parabolic lifting.

    The extreme set is the vertex set of the lower convex hull of the lifted
    points (the hull extended upward in the lift direction), for every
    spatial dimension m >= 1. Rows with the same lift are removed first:
    exact duplicates, and rows at one v whose heights differ by less than
    the rounding of h + ||v||^2/2, which the lower hull cannot tell apart;
    ties keep the first occurrence. assume_unique skips that row sort, as
    in hull.convex_hull, for points drawn from a continuous law.
    """
    arr = _as_scaled_array(points)
    lifted = lift(arr)
    if not assume_unique:
        lifted, first = _dedup(lifted)
        arr = arr[first]
    ext_idx, planes, cells = _lower_hull(lifted)
    hull_data = {"planes": planes, "cells": cells,
                 "spatial_hull": _spatial_hull(arr[ext_idx, :-1])}
    return Festoon(points=arr, extreme_indices=ext_idx, spatial_dim=arr.shape[1] - 1,
                   lifted_lower_hull=hull_data)


def _lower_hull(lifted: np.ndarray):
    """Lower-hull vertices (sorted indices into `lifted`), the affine
    pieces (gradients, intercepts) of the lower facets, and their incidence
    pairs (piece, index into `lifted`).

    The lower facets are the Qhull facets whose outward normal points down
    in s; Qhull's facet merging keeps points inside a lower facet (collinear
    or coplanar lifts) out of the vertex set. When the lifted set is
    affinely degenerate, each point gets the exact LP test instead and no
    affine pieces are available (planes and cells are None): a point is not
    a vertex iff it is a convex combination of the others plus a push
    straight up.
    """
    from scipy.spatial import ConvexHull, QhullError

    n, mp1 = lifted.shape
    try:
        qh = ConvexHull(lifted) if n > mp1 else None
    except QhullError:
        qh = None
    if qh is None:
        up = np.zeros(mp1)
        up[-1] = 1.0
        ext = [i for i in range(n)
               if not is_convex_combination(np.delete(lifted, i, axis=0), lifted[i], ray=up)]
        return np.array(ext, dtype=int), None, None
    eqs, groups, members = facet_groups(qh)
    lower = eqs[:, -2] < -1e-12  # outward normal points downward in s
    normals, offsets = eqs[lower, :-1], eqs[lower, -1]
    # n_v . v + n_s s + off = 0  ->  s = -(off + n_v . v)/n_s
    planes = (-normals[:, :-1] / normals[:, -1:], -offsets / normals[:, -1])
    on_lower = lower[groups]
    cells = ((np.cumsum(lower) - 1)[groups[on_lower]], members[on_lower])
    return np.unique(cells[1]), planes, cells


def _spatial_hull(spatial: np.ndarray):
    """Unit-normal inequalities <a, v> + b <= 0 describing the hull of the
    extreme spatial coordinates: in spatial dimension 1 the interval
    between the extreme v's, -v + lo <= 0 and v - hi <= 0; None when the
    hull is degenerate (membership is then checked by LP)."""
    m = spatial.shape[1]
    if m == 1:
        return np.array([[-1.0, spatial.min()], [1.0, -spatial.max()]])
    if len(spatial) <= m:
        return None
    from scipy.spatial import ConvexHull, QhullError

    try:
        qh = ConvexHull(spatial)
    except QhullError:
        return None
    return qh.equations


def phi_boundary_batch(f: Festoon, grid: np.ndarray) -> np.ndarray:
    """Festoon boundary over a (k, m) batch of spatial locations.

    Equals the lifted lower-hull height minus ||v||^2/2; raises
    OutsideSupport if any location leaves the spatial hull of the extreme
    points (there the boundary is unbounded), and ValueError unless grid
    has shape (k, m).
    """
    grid = _as_grid(grid, f.spatial_dim)
    spatial = f.extreme_points[:, :-1]
    tol = 1e-9 * max(1.0, float(np.max(np.abs(spatial))))
    eqs = f.lifted_lower_hull["spatial_hull"]
    if eqs is not None:
        outside = np.any(grid @ eqs[:, :-1].T + eqs[None, :, -1] > tol, axis=1)
    else:  # degenerate spatial support: membership via convex-combination LP
        outside = [not is_convex_combination(spatial, v) for v in grid]
    if np.any(outside):
        raise OutsideSupport("grid leaves the extreme points' spatial hull")
    if f.spatial_dim == 1:  # interpolating the extreme lifts
        lifted = lift(f.extreme_points)
        order = np.argsort(lifted[:, 0])
        x = grid[:, 0]
        return np.interp(x, lifted[order, 0], lifted[order, 1]) - 0.5 * x * x
    planes = f.lifted_lower_hull["planes"]
    if planes is None or len(planes[0]) == 0:
        # degenerate lower hull: all extreme lifts lie on one affine piece
        lifted = lift(f.extreme_points)
        ones = np.ones(len(lifted))
        g = np.linalg.lstsq(np.column_stack([lifted[:, :-1], ones]), lifted[:, -1], rcond=None)[0]
        s = np.column_stack([grid, np.ones(len(grid))]) @ g
    else:
        grads, icpts = planes
        s = np.max(grid @ grads.T + icpts[None, :], axis=1)
    return s - 0.5 * np.sum(grid**2, axis=1)


def stable_height(f: Festoon, L: float) -> float:
    """Height at and above which inserted points leave the festoon over
    B(o, L) unchanged: its boundary there and its extreme points there.

    A lower piece s = <g, v> + c is the downward paraboloid
    h = c + <g, v> - ||v||^2/2 with apex height H = c + ||g||^2/2, so a
    point at height >= H lifts on or above the piece's plane, which then
    still supports the lower hull wherever it is active. Returns max H over
    the pieces whose cells may meet B(o, L): those whose vertices' bounding
    box meets the ball, a superset. Returns inf when the ball leaves the
    extreme points' spatial hull (an inserted point could widen it there)
    or the lower hull is degenerate.
    """
    planes, cells = f.lifted_lower_hull["planes"], f.lifted_lower_hull["cells"]
    if planes is None or len(planes[0]) == 0:
        return np.inf
    # unit outward normals: the ball lies inside iff every offset <= -L
    eqs = f.lifted_lower_hull["spatial_hull"]
    if eqs is None or not np.all(eqs[:, -1] <= -L):
        return np.inf
    grads, icpts = planes
    piece, vertex = cells
    corners = f.points[vertex, :-1]
    lo = np.full(grads.shape, np.inf)
    hi = np.full(grads.shape, -np.inf)
    np.minimum.at(lo, piece, corners)
    np.maximum.at(hi, piece, corners)
    near = np.linalg.norm(np.clip(0.0, lo, hi), axis=1) <= L  # box point nearest o
    if not near.any():
        return np.inf
    return float(np.max(icpts[near] + 0.5 * np.sum(grads[near] ** 2, axis=1)))


def psi_envelope(points, grid: np.ndarray) -> np.ndarray:
    """Lower envelope of upward unit paraboloids h0 + ||v - v0||^2/2 planted
    at the points (v0.., h0), over a (k, m) grid; returns (k,). The R -> inf
    limit of psi_lambda_envelope.
    """
    arr = _as_scaled_array(points)
    grid = _as_grid(grid, arr.shape[1] - 1)
    d2 = np.sum((grid[:, None, :] - arr[None, :, :-1]) ** 2, axis=2)
    return np.min(arr[None, :, -1] + 0.5 * d2, axis=1)


def psi_lambda_envelope(points, grid: np.ndarray, beta: float, r_lambda: float) -> np.ndarray:
    """Vectorized upward quasi-grain envelope over a grid of spatial points.

    Grid has shape (k, m); returns (k,). Uses 1 - cos(d) = 2 sin^2(d/2)
    computed from chord ratios, which stays accurate under the R^beta
    amplification.
    """
    arr = _as_scaled_array(points)
    grid = _as_grid(grid, arr.shape[1] - 1)
    rb = r_lambda**beta
    scale = r_lambda ** (-beta / 2.0)
    ug = exp_map(grid * scale)  # (k, m+1)
    ua = exp_map(arr[:, :-1] * scale)  # (n, m+1)
    d2 = np.sum((ug[:, None, :] - ua[None, :, :]) ** 2, axis=2)
    s2 = d2 / (d2 + np.sum((ug[:, None, :] + ua[None, :, :]) ** 2, axis=2))
    h0 = arr[None, :, -1]
    vals = (rb - h0) * 2.0 * s2 + h0
    return vals.min(axis=1)


def rescaled_hull_boundary(p: Polytope, grid: np.ndarray, params: ModelParams, r_lambda: float):
    """Height of the rescaled polytope boundary over a (k, d-1) grid of
    spatial locations v; returns (k,).

    h(v) = R^beta (1 - rho(u)/R) with u the exponential image of v and rho
    the hull's radial function; requires the origin interior to the hull.
    """
    u = exp_map(_as_grid(grid, p.dim - 1) * r_lambda ** (-params.beta / 2.0))
    rho = radial_function_batch(p, u)
    return r_lambda ** (params.beta - 1.0) * (r_lambda - rho)


def ball_grid(L: float, grid_n: int, m: int) -> np.ndarray:
    """Deterministic grid of grid_n^m axis-aligned points inside the m-ball."""
    axes = [np.linspace(-L, L, grid_n) for _ in range(m)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([a.ravel() for a in mesh])
    return pts[np.linalg.norm(pts, axis=1) <= L + 1e-12]


def windowed_festoon(scaled_points: np.ndarray, L: float, spatial_limit: float | None = None):
    """Festoon of the points within a guard-banded spatial window.

    The construction window is B(o, L + guard) with guard 2 sqrt(2 |h_min|),
    h_min the lowest height seen inside B(o, L + 1); the band suppresses
    edge bias when the boundary is later evaluated on B(o, L) only. The
    rows are taken as distinct, as sampled points are almost surely.
    Returns (festoon, kept indices, window radius).
    """
    arr = _as_scaled_array(scaled_points)
    vnorm = np.linalg.norm(arr[:, :-1], axis=1)
    near = arr[vnorm <= L + 1.0, -1]
    h_min = float(near.min()) if near.size else -1.0
    guard = 2.0 * np.sqrt(2.0 * max(1.0, abs(h_min)))
    win = L + guard
    if spatial_limit is not None:
        win = min(win, spatial_limit)
    kept = np.flatnonzero(vnorm <= win)
    if kept.size == 0:
        raise EmptyInput("no scaled points inside the construction window")
    return extreme_points(arr[kept], assume_unique=True), kept, win
