import itertools
import math

import numpy as np
import pytest

from ggp.errors import DegenerateInput, IndexOutOfRange, OriginOutside, OriginPoint
from ggp.hull import (
    convex_hull,
    intrinsic_volume,
    is_vertex_ball,
    is_vertex_lp,
    radial_function,
    radial_function_batch,
    surface_area,
    volume,
)
from ggp.sampling import RngStream, sample_direction


def cube_points(d):
    return np.array(list(itertools.product([0.0, 1.0], repeat=d)))


def octahedron_points():
    return np.vstack([np.eye(3), -np.eye(3)])


SQUARE_PLUS_CENTER = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5]])


class TestConvexHull:
    def test_square_plus_center(self):
        p = convex_hull(SQUARE_PLUS_CENTER)
        assert p.f_vector == (4, 4)
        assert 4 not in set(p.vertex_input_indices)  # the center is excluded

    def test_octahedron_f_vector(self):
        p = convex_hull(octahedron_points())
        assert p.f_vector == (6, 12, 8)
        f0, f1, f2 = p.f_vector
        assert f0 - f1 + f2 == 2

    def test_cube_f_vector_with_merged_facets(self):
        p = convex_hull(cube_points(3))
        assert p.f_vector == (8, 12, 6)

    def test_four_cube_f_vector(self):
        p = convex_hull(cube_points(4))
        assert p.f_vector == (16, 32, 24, 8)
        f0, f1, f2, f3 = p.f_vector
        assert f0 - f1 + f2 - f3 == 0

    def test_degenerate_input_reported(self):
        with pytest.raises(DegenerateInput):
            convex_hull(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]))
        with pytest.raises(DegenerateInput):
            convex_hull(np.array([[0.0, 0.0], [1.0, 0.0]]))

    def test_duplicates_removed_before_construction(self):
        pts = np.vstack([SQUARE_PLUS_CENTER, SQUARE_PLUS_CENTER[:2]])
        p = convex_hull(pts)
        assert p.f_vector == (4, 4)

    def test_hull_idempotence(self):
        rng = np.random.default_rng(0)
        for d in (2, 3, 4):
            pts = rng.standard_normal((60, d))
            p = convex_hull(pts)
            q = convex_hull(p.vertices)
            assert sorted(map(tuple, p.vertices)) == sorted(map(tuple, q.vertices))

    def test_containment(self):
        rng = np.random.default_rng(1)
        for d in (2, 3, 4):
            pts = rng.standard_normal((80, d))
            p = convex_hull(pts)
            scale = p.scale()
            slack = pts @ p.facet_normals.T - p.facet_offsets[None, :]
            assert np.max(slack) <= 1e-9 * scale

    def test_facet_vertices_on_plane(self):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((50, 3))
        p = convex_hull(pts)
        for f in p.facets:
            residual = p.vertices[f.vertex_indices] @ f.normal - f.offset
            assert np.max(np.abs(residual)) < 1e-9 * p.scale()

    def test_euler_relation_random_3d(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            pts = rng.standard_normal((int(rng.integers(5, 120)), 3))
            f0, f1, f2 = convex_hull(pts).f_vector
            assert f0 - f1 + f2 == 2

    def test_euler_and_dehn_sommerville_random_4d(self):
        # random clouds have simplicial hulls: each ridge lies in two
        # tetrahedral facets, so f2 = 2 f3, and with Euler f1 = f0 + f3
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = convex_hull(rng.standard_normal((int(rng.integers(6, 400)), 4)))
            assert all(len(f.vertex_indices) == 4 for f in p.facets)
            f0, f1, f2, f3 = p.f_vector
            assert f0 - f1 + f2 - f3 == 0
            assert f2 == 2 * f3
            assert f1 == f0 + f3

    def test_euler_relation_integer_grids(self):
        # grid clouds have merged, non-simplicial facets
        rng = np.random.default_rng(12)
        for d, euler in ((3, 2), (4, 0)):
            for _ in range(30):
                pts = rng.integers(-2, 3, (int(rng.integers(d + 3, 60)), d)).astype(float)
                f_vec = convex_hull(pts).f_vector
                assert sum((-1) ** i * f for i, f in enumerate(f_vec)) == euler

    def test_f0_equals_f1_random_2d(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            pts = rng.standard_normal((int(rng.integers(4, 200)), 2))
            f0, f1 = convex_hull(pts).f_vector
            assert f0 == f1

    def test_volume_monotone_under_insertion(self):
        rng = np.random.default_rng(5)
        for d in (2, 3):
            pts = rng.standard_normal((d + 2, d))
            vol_prev = volume(convex_hull(pts))
            for _ in range(20):
                pts = np.vstack([pts, rng.standard_normal((1, d))])
                vol_next = volume(convex_hull(pts))
                assert vol_next >= vol_prev - 1e-12
                vol_prev = vol_next


class TestVertexOracles:
    def test_lp_square_center(self):
        assert is_vertex_lp(SQUARE_PLUS_CENTER, 4) is False
        assert is_vertex_lp(SQUARE_PLUS_CENTER, 0) is True

    def test_lp_agrees_with_hull(self):
        rng = np.random.default_rng(6)
        for d in (2, 3, 4):
            for _ in range(10):
                n = int(rng.integers(d + 2, 60))
                pts = rng.standard_normal((n, d))
                p = convex_hull(pts)
                hull_set = set(map(int, p.vertex_input_indices))
                lp_set = {i for i in range(n) if is_vertex_lp(pts, i)}
                assert hull_set == lp_set

    def test_ball_two_points_on_line(self):
        pts = np.array([[1.0, 0.0], [2.0, 0.0]])
        assert is_vertex_ball(pts, 1) is True

    def test_ball_duplicate_resolves_false(self):
        pts = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert is_vertex_ball(pts, 0) is False
        assert is_vertex_ball(pts, 1) is False

    def test_ball_origin_point_rejected(self):
        with pytest.raises(OriginPoint):
            is_vertex_ball(np.array([[0.0, 0.0], [1.0, 0.0]]), 0)

    def test_ball_agrees_with_lp_when_origin_inside(self):
        rng = np.random.default_rng(7)
        agree = total = 0
        instances = 0
        while instances < 100:
            n = int(rng.integers(5, 31))
            pts = rng.standard_normal((n, 2))
            try:
                p = convex_hull(pts)
            except DegenerateInput:
                continue
            if np.any(p.facet_offsets <= 1e-9):
                continue  # origin not interior
            instances += 1
            for i in range(n):
                total += 1
                agree += is_vertex_ball(pts, i) == is_vertex_lp(pts, i)
        assert agree / total >= 0.99


class TestMeasures:
    def test_cube_volume_and_surface(self):
        p = convex_hull(cube_points(3))
        assert volume(p) == pytest.approx(1.0, rel=1e-12)
        assert surface_area(p) == pytest.approx(6.0, rel=1e-12)

    def test_square_perimeter_convention(self):
        p = convex_hull(cube_points(2))
        assert volume(p) == pytest.approx(1.0, rel=1e-12)
        assert surface_area(p) == pytest.approx(4.0, rel=1e-12)

    def test_simplex_volume(self):
        for d in (2, 3, 4, 5):
            pts = np.vstack([np.zeros(d), np.eye(d)])
            assert volume(convex_hull(pts)) == pytest.approx(1 / math.factorial(d), rel=1e-9)

    def test_octahedron_measures(self):
        p = convex_hull(octahedron_points())
        assert volume(p) == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert surface_area(p) == pytest.approx(8 * math.sqrt(3) / 2, rel=1e-12)

    def test_regular_tetrahedron_surface(self):
        pts = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)
        edge = math.sqrt(8)
        assert surface_area(convex_hull(pts)) == pytest.approx(4 * math.sqrt(3) / 4 * edge**2,
                                                               rel=1e-12)

    def test_volume_against_rejection_sampling(self):
        rng = np.random.default_rng(8)
        for d in (2, 3):
            pts = rng.standard_normal((40, d))
            p = convex_hull(pts)
            lo, hi = pts.min(axis=0), pts.max(axis=0)
            box = np.prod(hi - lo)
            samples = lo + (hi - lo) * rng.random((10**6, d))
            inside = np.all(samples @ p.facet_normals.T <= p.facet_offsets[None, :], axis=1)
            mc = box * inside.mean()
            se = box * math.sqrt(inside.mean() * (1 - inside.mean()) / len(samples))
            assert abs(mc - volume(p)) < max(3.5 * se, 0.01 * volume(p))


class TestIntrinsicVolumes:
    def test_cube_v1_v2(self):
        for d in (3, 4):
            p = convex_hull(cube_points(d))
            est = intrinsic_volume(p, 1, n_directions=2000, rng=RngStream(1, d))
            assert abs(est.value - d) < 3 * est.stderr
            if d == 4:
                est2 = intrinsic_volume(p, 2, n_directions=2000, rng=RngStream(2, d))
                assert abs(est2.value - math.comb(4, 2)) < 3 * est2.stderr

    def test_ball_mean_width(self):
        # V_1 of the unit ball is binom(3,1) kappa_3 / kappa_2 = 4; a
        # 600-vertex inscribed polytope should land within 5%
        dirs = sample_direction(RngStream(3, 0), 3, size=600)
        p = convex_hull(dirs)
        est = intrinsic_volume(p, 1, n_directions=4000, rng=RngStream(4, 0))
        assert abs(est.value - 4.0) < 0.2

    def test_fallthroughs(self):
        p = convex_hull(cube_points(3))
        assert intrinsic_volume(p, 3).value == volume(p)
        assert intrinsic_volume(p, 2).value == surface_area(p) / 2
        assert intrinsic_volume(p, 2).stderr == 0.0

    def test_kubota_consistency_at_surface_index(self):
        rng = np.random.default_rng(9)
        pts = rng.standard_normal((60, 3))
        p = convex_hull(pts)
        est = intrinsic_volume(p, 2, n_directions=3000, rng=RngStream(5, 0), force_mc=True)
        assert abs(est.value - surface_area(p) / 2) < 3 * est.stderr

    def test_index_out_of_range(self):
        p = convex_hull(cube_points(3))
        with pytest.raises(IndexOutOfRange):
            intrinsic_volume(p, 0)
        with pytest.raises(IndexOutOfRange):
            intrinsic_volume(p, 4)


class TestRadialFunction:
    def test_centered_cube_axis(self):
        p = convex_hull(cube_points(3) - 0.5)
        assert radial_function(p, np.array([1.0, 0.0, 0.0])) == pytest.approx(0.5, rel=1e-12)

    def test_octahedron_diagonal(self):
        p = convex_hull(octahedron_points())
        u = np.ones(3) / math.sqrt(3)
        assert radial_function(p, u) == pytest.approx(1 / math.sqrt(3), rel=1e-12)

    def test_boundary_point_supports_active_facet(self):
        rng = np.random.default_rng(10)
        pts = rng.standard_normal((50, 3))
        p = convex_hull(pts)
        dirs = sample_direction(RngStream(6, 0), 3, size=200)
        rho = radial_function_batch(p, dirs)
        x = dirs * rho[:, None]
        slack = x @ p.facet_normals.T - p.facet_offsets[None, :]
        assert np.max(slack) < 1e-9 * p.scale()  # inside all facets
        assert np.max(np.min(np.abs(slack), axis=1)) < 1e-9 * p.scale()  # on one facet

    def test_origin_outside_rejected(self):
        p = convex_hull(cube_points(3) + 2.0)
        with pytest.raises(OriginOutside):
            radial_function(p, np.array([1.0, 0.0, 0.0]))
