import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ggp.errors import EmptyInput, OutsideSupport
from ggp.festoon import (
    ball_grid,
    extreme_points,
    lift,
    phi_boundary_batch,
    psi_envelope,
    psi_lambda_envelope,
    rescaled_hull_boundary,
    stable_height,
    windowed_festoon,
)
from ggp.hull import convex_hull, radial_function_batch
from ggp.params import critical_radius, validate_params
from ggp.rescale import exp_map, transform_batch
from ggp.sampling import RngStream, sample_direction, sample_polytope_input


def brute_force_extremes(points, tie_tol=1e-7, endpoints_only=False):
    """Apex-scan oracle for the extreme set, independent of any hull code.

    For a candidate apex a, the downward paraboloid lowered until it touches
    the point set touches exactly the minimizers of h_j + ||v_j - a||^2 / 2,
    and each touched point admits an empty paraboloid through it. Scanning
    the apices where two (spatial dim 1) or three (dim 2) points tie, plus a
    far ring for the unbounded witness regions, reaches every extreme
    point's witness region for generic inputs.

    In spatial dim 1 the points touched at one apex lift onto one segment,
    of which only the endpoints are lower-hull vertices; endpoints_only
    keeps just the leftmost and rightmost touched point, so collinear lifts
    (integer grids) are judged as vertexship rather than as touching.
    """
    pts = np.asarray(points, dtype=float)
    v, h = pts[:, :-1], pts[:, -1]
    n, m = v.shape
    apices = [np.zeros(m)]
    if m == 1:
        for i in range(n):
            for j in range(i + 1, n):
                if v[i, 0] != v[j, 0]:
                    s_i, s_j = h[i] + v[i, 0] ** 2 / 2, h[j] + v[j, 0] ** 2 / 2
                    apices.append(np.array([(s_j - s_i) / (v[j, 0] - v[i, 0])]))
    else:
        lifted_s = h + 0.5 * np.sum(v**2, axis=1)
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    a_mat = np.vstack([v[j] - v[i], v[k] - v[i]])
                    rhs = np.array([lifted_s[j] - lifted_s[i], lifted_s[k] - lifted_s[i]])
                    if abs(np.linalg.det(a_mat)) < 1e-12:
                        continue
                    apices.append(np.linalg.solve(a_mat, rhs))
    finite = np.array(apices)
    radius = 10.0 * (np.max(np.abs(finite)) + np.max(np.abs(v)) + 1.0)
    angles = np.linspace(0, 2 * np.pi, 256, endpoint=False)
    if m == 1:
        ring = np.array([[radius], [-radius]])
    else:
        ring = radius * np.column_stack([np.cos(angles), np.sin(angles)])
    apices = np.vstack([finite, ring])

    scale = 1.0 + float(np.max(np.abs(pts)))
    found = set()
    for start in range(0, len(apices), 4096):
        a = apices[start:start + 4096]
        depth = h[None, :] + 0.5 * np.sum((v[None, :, :] - a[:, None, :]) ** 2, axis=2)
        tied = depth <= depth.min(axis=1, keepdims=True) + tie_tol * scale**2
        if endpoints_only:
            spread = np.where(tied, v[None, :, 0], np.nan)
            found.update(np.nanargmin(spread, axis=1).tolist())
            found.update(np.nanargmax(spread, axis=1).tolist())
        else:
            found.update(np.flatnonzero(tied.any(axis=0)).tolist())
    return sorted(found)


class TestLift:
    def test_examples(self):
        assert np.allclose(lift(np.array([[0.0, -1.0]])), [[0.0, -1.0]])
        assert np.allclose(lift(np.array([[1.0, 0.0]])), [[1.0, 0.5]])

    def test_scaled_point_input(self):
        # scaled points (v, h) as the rows of one array, m = 1 and m = 2
        out = lift(np.array([[2.0, 1.0], [0.0, -1.0]]))
        assert np.allclose(out, [[2.0, 3.0], [0.0, -1.0]])
        assert np.allclose(lift(np.array([[1.0, 2.0, 0.5]])), [[1.0, 2.0, 3.0]])

    def test_membership_equivalence(self):
        # (v,h) in the downward paraboloid at w0 iff the lift lies in the
        # lifted half-space s <= s0 + <v0, v - v0>
        rng = np.random.default_rng(0)
        for _ in range(10**4):
            m = rng.integers(1, 3)
            w0 = rng.uniform(-2, 2, m + 1)
            w = rng.uniform(-2, 2, m + 1)
            in_paraboloid = w[-1] <= w0[-1] - 0.5 * np.sum((w[:-1] - w0[:-1]) ** 2)
            lw, lw0 = lift(np.vstack([w, w0]))
            in_halfspace = lw[-1] <= lw0[-1] + w0[:-1] @ (lw[:-1] - lw0[:-1])
            assert in_paraboloid == in_halfspace


class TestExtremePoints:
    def test_single_point(self):
        f = extreme_points(np.array([[0.3, -1.0]]))
        assert list(f.extreme_indices) == [0]

    def test_vertical_pair_keeps_lower(self):
        f = extreme_points(np.array([[0.0, 0.0], [0.0, -1.0]]))
        assert np.allclose(f.extreme_points, [[0.0, -1.0]])

    def test_three_point_example(self):
        pts = np.array([[-1.0, 0.0], [0.0, -0.4], [1.0, 0.0]])
        f = extreme_points(pts)
        assert list(f.extreme_indices) == [0, 1, 2]
        raised = pts.copy()
        raised[1, 1] = 0.6  # lifted to 0.6, above the chord level 0.5
        f2 = extreme_points(raised)
        assert list(f2.extreme_indices) == [0, 2]

    def test_duplicates_collapse(self):
        pts = np.array([[0.0, -1.0], [0.0, -1.0], [2.0, 0.0]])
        f = extreme_points(pts)
        assert len(f.points) == 2
        assert len(f.extreme_indices) == 2

    def test_rows_with_one_lift_collapse(self):
        # 0.125 + 1e-150 rounds to 0.125, so both rows at v = 0.5 lift to one
        # point: the first is kept, also after points are added behind them
        pts = np.array([[0.5, 0.0], [-2.0, 1.0], [0.5, 1e-150], [2.0, 1.0]])
        for rows in (pts, np.vstack([pts, [[3.0, 0.5], [-3.0, 2.0]]])):
            f = extreme_points(rows)
            assert len(f.points) == len(rows) - 1
            assert [0.5, 0.0] in f.extreme_points.tolist()
            assert [0.5, 1e-150] not in f.points.tolist()

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            extreme_points(np.empty((0, 2)))

    @pytest.mark.parametrize("spatial_dim", [1, 2])
    def test_duality_against_brute_force(self, spatial_dim):
        rng = np.random.default_rng(10 + spatial_dim)
        for _ in range(30):
            n = int(rng.integers(1, 41))
            pts = np.column_stack([
                rng.uniform(-2, 2, (n, spatial_dim)),
                rng.uniform(-3, 1, n),
            ])
            f = extreme_points(pts)
            assert list(f.extreme_indices) == brute_force_extremes(pts), pts

    def test_spatial_dim_one_collinear_lifts_and_integer_grids(self):
        # lifts (v, v): one lower segment, of which only the ends are vertices
        line = np.array([[-2.0, -4.0], [0.0, 0.0], [1.0, 0.5], [2.0, 0.0]])
        assert list(extreme_points(line).extreme_indices) == [0, 3]
        above = np.vstack([line, [[0.0, 3.0], [1.5, 2.0]]])
        assert list(extreme_points(above).extreme_indices) == [0, 3]
        # integer grids: many collinear lifts and shared spatial coordinates
        rng = np.random.default_rng(14)
        for _ in range(200):
            pts = rng.integers(-3, 4, (int(rng.integers(1, 30)), 2)).astype(float)
            f = extreme_points(pts)
            assert list(f.extreme_indices) == brute_force_extremes(f.points, endpoints_only=True)

    def test_insertion_never_raises_boundary(self):
        rng = np.random.default_rng(3)
        anchors = np.array([[-2.5, 1.0], [2.5, 1.0]])  # keep [-1, 1] in support
        for _ in range(20):
            pts = np.vstack([anchors,
                             np.column_stack([rng.uniform(-2, 2, 12), rng.uniform(-2, 1, 12)])])
            f = extreme_points(pts)
            grid = np.linspace(-1, 1, 11)[:, None]
            base = phi_boundary_batch(f, grid)
            extra = np.array([[rng.uniform(-2, 2), rng.uniform(-2, 1)]])
            f2 = extreme_points(np.vstack([pts, extra]))
            after = phi_boundary_batch(f2, grid)
            assert np.all(after <= base + 1e-12)


def scaled_rows(m, min_rows, max_rows, h_lo, h_hi, spread):
    """Hypothesis arrays of rows (v_1..v_m, h) in [-spread, spread]^m x [h_lo, h_hi]."""
    def rows(n):
        v = arrays(float, (n, m), elements=st.floats(-spread, spread))
        h = arrays(float, (n, 1), elements=st.floats(h_lo, h_hi))
        return st.tuples(v, h).map(np.hstack)
    return st.integers(min_rows, max_rows).flatmap(rows)


def ball_extremes(f, L):
    ext = f.extreme_points
    return {tuple(row) for row in ext[np.linalg.norm(ext[:, :-1], axis=1) <= L]}


class TestStableHeight:
    """Inserting points at or above stable_height(f, L) leaves the festoon
    over B(o, L) unchanged; the shell certificate of the scaling-limit
    runners rests on this equality."""

    L = 1.0

    @staticmethod
    def anchored(base, m):
        # corners at |v| = 2.5 keep B(o, 1) inside the extreme points' spatial hull
        corners = np.array(np.meshgrid(*[[-2.5, 2.5]] * m)).reshape(m, -1).T
        return np.vstack([np.column_stack([corners, np.ones(len(corners))]), base])

    @pytest.mark.parametrize("m", [1, 2])
    @given(data=st.data())
    def test_insertion_at_or_above_keeps_ball(self, m, data):
        base = self.anchored(data.draw(scaled_rows(m, 1, 25, -2.0, 1.0, 3.0)), m)
        f = extreme_points(base)
        h_star = stable_height(f, self.L)
        assume(np.isfinite(h_star))
        extra = data.draw(scaled_rows(m, 1, 10, 0.0, 3.0, 4.0))
        extra[:, -1] += h_star
        f2 = extreme_points(np.vstack([base, extra]))
        grid = ball_grid(self.L, 9, m)
        np.testing.assert_allclose(phi_boundary_batch(f2, grid), phi_boundary_batch(f, grid),
                                   rtol=0, atol=1e-9)
        assert ball_extremes(f2, self.L) == ball_extremes(f, self.L)

    @pytest.mark.parametrize("m", [1, 2])
    def test_point_that_lowers_the_ball_lies_below(self, m):
        # a point just under the boundary anywhere over the ball lowers it
        # there, and stable_height places it below the bound
        rng = np.random.default_rng(5)
        base = self.anchored(np.column_stack([rng.uniform(-2, 2, (12, m)),
                                              rng.uniform(-2, 1, 12)]), m)
        f = extreme_points(base)
        h_star = stable_height(f, self.L)
        grid = ball_grid(self.L, 5, m)
        phi = phi_boundary_batch(f, grid)
        for v, height in zip(grid, phi):
            f2 = extreme_points(np.vstack([base, np.append(v, height - 1e-3)]))
            assert phi_boundary_batch(f2, v[None, :])[0] < height - 5e-4
            assert height - 1e-3 < h_star

    @pytest.mark.parametrize("L, height", [(1.0, 0.53125), (1.5, 0.53125),
                                           (np.nextafter(1.5, 2.0), math.inf), (2.0, math.inf)])
    def test_ball_in_the_interval_support_of_spatial_dimension_one(self, L, height):
        # lower pieces s = -17/12 v - 1 and s = 7/4 v - 1 have apex heights
        # c + g^2/2 of 1/288 and 17/32; B(o, L) must lie in [-1.5, 2]
        f = extreme_points(np.array([[-1.5, 0.0], [0.0, -1.0], [2.0, 0.5]]))
        assert stable_height(f, L) == pytest.approx(height, rel=1e-12)

    def test_uncovered_ball_has_no_stable_height(self):
        f = extreme_points(np.array([[-0.5, 0.0], [0.3, -1.0], [2.0, 0.5]]))
        assert stable_height(f, 1.0) == math.inf


class TestInsertionProperty:
    """Inserting a point never raises the festoon: the lower hull of the
    lifted points can only drop when a point joins them."""

    @pytest.mark.parametrize("m", [1, 2])
    @given(data=st.data())
    def test_insertion_never_raises_boundary(self, m, data):
        # the anchors keep B(o, 1) inside the spatial hull of both clouds
        base = TestStableHeight.anchored(data.draw(scaled_rows(m, 1, 25, -2.0, 1.0, 3.0)), m)
        extra = data.draw(scaled_rows(m, 1, 1, -3.0, 3.0, 4.0))
        grid = ball_grid(1.0, 9, m)
        before = phi_boundary_batch(extreme_points(base), grid)
        after = phi_boundary_batch(extreme_points(np.vstack([base, extra])), grid)
        assert np.all(after <= before + 1e-9)


class TestPhiBoundary:
    def test_single_point_support(self):
        f = extreme_points(np.array([[0.0, -1.0]]))
        assert phi_boundary_batch(f, np.array([[0.0]]))[0] == pytest.approx(-1.0, abs=1e-12)
        with pytest.raises(OutsideSupport):
            phi_boundary_batch(f, np.array([[0.5]]))

    def test_interval_support_in_spatial_dimension_one(self):
        # the extreme v's -1.5 and 2 bound the support as two inequalities;
        # the check tolerates 1e-9 * max(1, max |v|) = 2e-9
        f = extreme_points(np.array([[-1.5, 0.0], [0.0, -1.0], [2.0, 0.5]]))
        np.testing.assert_array_equal(f.lifted_lower_hull["spatial_hull"],
                                      [[-1.0, -1.5], [1.0, -2.0]])
        edges = phi_boundary_batch(f, np.array([[-1.5], [2.0], [2.0 + 1e-9]]))
        assert edges[:2].tolist() == [0.0, 0.5]
        for beyond in (-1.5 - 1e-8, 2.0 + 1e-8):
            with pytest.raises(OutsideSupport):
                phi_boundary_batch(f, np.array([[0.0], [beyond]]))

    def test_three_point_interpolation(self):
        pts = np.array([[-1.0, 0.0], [0.0, -0.4], [1.0, 0.0]])
        f = extreme_points(pts)
        # lifted chord from (0, -0.4) to (1, 0.5) has height 0.05 at v = 0.5
        assert phi_boundary_batch(f, np.array([[0.5]]))[0] == pytest.approx(0.05 - 0.125,
                                                                           abs=1e-12)

    def test_grid_must_have_shape_k_m(self):
        # in spatial dimension 1 a 1-D grid of three locations once gave one
        # value, and a (k, 2) grid lost its second column without an error
        pts = np.array([[-1.0, 0.0], [0.0, -0.4], [1.0, 0.0]])
        f = extreme_points(pts)
        grid = np.array([[-0.5], [0.0], [0.5]])
        assert phi_boundary_batch(f, grid) == pytest.approx([-0.075, -0.4, -0.075], abs=1e-12)
        for bad in (grid[:, 0], np.hstack([grid, grid]), grid[None], np.float64(0.0)):
            with pytest.raises(ValueError):
                phi_boundary_batch(f, bad)
            with pytest.raises(ValueError):
                psi_envelope(pts, bad)
            with pytest.raises(ValueError):
                psi_lambda_envelope(pts, bad, 2.0, 10.0)

    def test_boundary_passes_through_extremes(self):
        rng = np.random.default_rng(4)
        for spatial_dim in (1, 2):
            pts = np.column_stack([
                rng.uniform(-2, 2, (25, spatial_dim)),
                rng.uniform(-3, 0, 25),
            ])
            f = extreme_points(pts)
            ext = f.extreme_points
            assert phi_boundary_batch(f, ext[:, :-1]) == pytest.approx(ext[:, -1], abs=1e-9)

    def test_boundary_below_all_points(self):
        rng = np.random.default_rng(5)
        pts = np.column_stack([rng.uniform(-2, 2, 40), rng.uniform(-3, 1, 40)])
        f = extreme_points(pts)
        assert np.all(phi_boundary_batch(f, pts[:, :-1]) <= pts[:, -1] + 1e-12)

    def test_psi_dominated_by_phi(self):
        # on the support the upward envelope lies below the festoon: any
        # supporting paraboloid at v touches an extreme point e with
        # <v - e, v - apex> <= 0, whose upward paraboloid at v sits below it
        rng = np.random.default_rng(6)
        for spatial_dim in (1, 2):
            for _ in range(10):
                pts = np.column_stack([
                    rng.uniform(-2, 2, (30, spatial_dim)),
                    rng.uniform(-3, 1, 30),
                ])
                f = extreme_points(pts)
                for _ in range(20):
                    va = rng.uniform(-1.5, 1.5, spatial_dim)
                    try:
                        phi = phi_boundary_batch(f, va[None])[0]
                    except OutsideSupport:
                        continue
                    assert psi_envelope(pts, va[None])[0] <= phi + 1e-9

    def test_festoon_can_exceed_envelope_over_pits(self):
        # explicit configuration where the festoon arc rides above the
        # upward envelope of a deep interior point
        pts = np.array([[-2.0, 0.0], [0.0, -3.0], [2.0, 0.0]])
        f = extreme_points(pts)
        assert list(f.extreme_indices) == [0, 1, 2]
        v = np.array([[-1.5]])
        assert phi_boundary_batch(f, v)[0] == pytest.approx(-0.375, abs=1e-12)
        assert psi_envelope(pts, v)[0] == pytest.approx(-1.875, abs=1e-12)

    def test_scalar_equals_batch_on_degenerate_festoons(self):
        # one or two points and collinear/coplanar lifts: the LP membership
        # and least-squares paths; on each support phi(v) = s(v) - |v|^2/2
        # with s the affine function through the lifts, one location at a
        # time as in one batch
        coplanar = np.array([[a, b] for a in (-1.0, 0.0, 1.0) for b in (-1.0, 0.0, 1.0)])
        cases = [
            (np.array([[0.3, -1.0]]), [[0.3]], lambda v: -1.0 + 0.045 - 0.5 * v @ v),
            (np.array([[-1.0, 0.0], [1.0, 0.0]]), [[-1.0], [0.2], [1.0]],
             lambda v: 0.5 - 0.5 * v @ v),
            (np.array([[-2.0, -4.0], [0.0, 0.0], [2.0, 0.0]]), [[-1.5], [0.5]],
             lambda v: v[0] - 0.5 * v @ v),
            (np.array([[0.1, 0.2, -1.0]]), [[0.1, 0.2]], lambda v: -1.0 + 0.025 - 0.5 * v @ v),
            (np.array([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), [[-0.5, 0.0], [1.0, 0.0]],
             lambda v: 0.5 - 0.5 * v @ v),
            (np.column_stack([coplanar, 0.5 * coplanar[:, 0] - coplanar[:, 1] + 1.0
                              - 0.5 * np.sum(coplanar**2, axis=1)]),
             [[0.0, 0.0], [-0.7, 0.4], [1.0, 1.0]],
             lambda v: 0.5 * v[0] - v[1] + 1.0 - 0.5 * v @ v),
        ]
        for pts, locations, expected in cases:
            f = extreme_points(pts)
            locations = np.array(locations)
            batch = phi_boundary_batch(f, locations)
            for v, height in zip(locations, batch):
                assert phi_boundary_batch(f, v[None])[0] == height
                assert height == pytest.approx(expected(v), abs=1e-9)
        two = extreme_points(np.array([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
        with pytest.raises(OutsideSupport):
            phi_boundary_batch(two, np.array([[0.0, 0.5]]))


class TestPsiBoundaries:
    def test_single_point(self):
        pts = np.array([[0.0, 0.0]])
        vs = np.array([0.0, 0.7, -1.3])
        assert psi_envelope(pts, vs[:, None]) == pytest.approx(vs**2 / 2, rel=1e-12)

    def test_two_point_envelope(self):
        pts = np.array([[-1.0, 0.0], [1.0, 0.0]])
        assert psi_envelope(pts, np.array([[0.0]]))[0] == pytest.approx(0.5, rel=1e-12)

    def test_brute_force_grid_equality(self):
        rng = np.random.default_rng(7)
        pts = np.column_stack([rng.uniform(-2, 2, (30, 2)), rng.uniform(-2, 1, 30)])
        vs = np.array([rng.uniform(-2, 2, 2) for _ in range(100)])
        direct = [min(h + 0.5 * np.sum((v - vv) ** 2) for *vv, h in pts.tolist()) for v in vs]
        assert psi_envelope(pts, vs) == pytest.approx(direct, rel=1e-12)

    def test_quasi_envelope_at_apex(self):
        params = validate_params(2, 0, 2, 1e5)
        r = critical_radius(params)
        pts = np.array([[0.4, -0.7]])
        h = psi_lambda_envelope(pts, np.array([[0.4]]), params.beta, r)
        assert h[0] == pytest.approx(-0.7, abs=1e-9)

    def test_quasi_envelope_converges_to_ideal(self):
        rng = np.random.default_rng(8)
        params = validate_params(2, 0, 2, 1e5)
        gaps = {rl: [] for rl in (5.0, 10.0, 20.0)}
        grid = np.linspace(-1, 1, 21)[:, None]
        for _ in range(50):
            pts = np.column_stack([rng.uniform(-2, 2, 15), rng.uniform(-2, 1, 15)])
            for rl in gaps:
                quasi = psi_lambda_envelope(pts, grid, params.beta, rl)
                gaps[rl].append(np.max(np.abs(quasi - psi_envelope(pts, grid))))
        med = {rl: np.median(g) for rl, g in gaps.items()}
        assert med[20.0] < med[10.0] < med[5.0]

    def test_quasi_envelope_formal_limit(self):
        rng = np.random.default_rng(9)
        params = validate_params(2, 0, 2, 1e5)
        pts = np.column_stack([rng.uniform(-2, 2, 20), rng.uniform(-2, 1, 20)])
        grid = np.linspace(-1, 1, 9)[:, None]
        quasi = psi_lambda_envelope(pts, grid, params.beta, 1e9)
        assert quasi == pytest.approx(psi_envelope(pts, grid), abs=1e-6)


class TestRescaledHullBoundary:
    def test_discretized_critical_ball(self):
        params = validate_params(3, 0, 2, 1e5)
        r = critical_radius(params)
        dirs = sample_direction(RngStream(1, 0).generator(), 3, size=2000)
        poly = convex_hull(dirs * r)
        grid = ball_grid(1.0, 9, 2)
        heights = rescaled_hull_boundary(poly, grid, params, r)
        assert np.max(np.abs(heights)) < 0.05 * r**2  # discretization error only

    def test_compositional_identity(self):
        params = validate_params(2, 0, 2, 1e4)
        r = critical_radius(params)
        cloud = sample_polytope_input(RngStream(2, 0).generator(), params)
        poly = convex_hull(cloud)
        vs = np.linspace(-1, 1, 7)[:, None]
        u = exp_map(vs / r)
        rho = radial_function_batch(poly, u)
        w = transform_batch(rho[:, None] * u, params.beta, r)
        assert rescaled_hull_boundary(poly, vs, params, r) == pytest.approx(w[:, -1], abs=1e-9)

    def test_far_point_pushes_boundary_down(self):
        params = validate_params(2, 0, 2, 1e4)
        r = critical_radius(params)
        cloud = sample_polytope_input(RngStream(3, 0).generator(), params)
        base = convex_hull(cloud)
        (h0,) = rescaled_hull_boundary(base, np.zeros((1, 1)), params, r)
        spiked = convex_hull(np.vstack([cloud, [[0.0, 10.0 * r]]]))
        (h1,) = rescaled_hull_boundary(spiked, np.zeros((1, 1)), params, r)
        assert h1 < h0 - 5.0

    def test_grid_must_have_shape_k_m(self):
        params = validate_params(3, 0, 2, 1e5)
        poly = convex_hull(np.vstack([np.eye(3), -np.eye(3)]))
        for bad in (np.zeros(2), np.zeros((4, 3)), np.zeros((4, 1))):
            with pytest.raises(ValueError):
                rescaled_hull_boundary(poly, bad, params, 10.0)


class TestSupDistance:
    """The sup-distance of the scaling runner: max |phi - psi| over ball_grid."""

    def test_grid_refinement_stability(self):
        rng = np.random.default_rng(11)
        pts = np.column_stack([rng.uniform(-4, 4, 30), rng.uniform(-3, 0, 30)])
        f = extreme_points(pts)

        def sup_distance(grid_n):
            grid = ball_grid(1.0, grid_n, 1)
            return float(np.max(np.abs(phi_boundary_batch(f, grid) - psi_envelope(pts, grid))))

        coarse, fine = sup_distance(20), sup_distance(40)
        assert abs(fine - coarse) <= 0.1 * max(fine, 1e-9)

    def test_outside_support_propagates(self):
        f = extreme_points(np.array([[-0.5, 0.0], [0.5, 0.0]]))
        with pytest.raises(OutsideSupport):
            phi_boundary_batch(f, ball_grid(1.0, 21, 1))


class TestWindowedFestoon:
    def test_vertex_correspondence_smoke(self):
        params = validate_params(2, 0, 2, 1e4)
        r = critical_radius(params)
        rates = []
        for rep in range(5):
            cloud = sample_polytope_input(RngStream(12, rep).generator(), params)
            poly = convex_hull(cloud)
            w = transform_batch(cloud, params.beta, r)
            fest, kept, _ = windowed_festoon(w, 1.0)
            vnorm = np.linalg.norm(w[:, :-1], axis=1)
            hull_set = {int(i) for i in poly.vertex_input_indices if vnorm[i] <= 1.0}
            ext_set = {int(i) for i in kept[fest.extreme_indices] if vnorm[i] <= 1.0}
            union = hull_set | ext_set
            if union:
                rates.append(len(hull_set & ext_set) / len(union))
        assert np.mean(rates) > 0.8
