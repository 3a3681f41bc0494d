import itertools
import math

import numpy as np
import pytest
from scipy import sparse
from scipy.spatial import ConvexHull

from ggp import festoon, rescale
from ggp.errors import DegenerateInput, OriginOutside, ValidationError
from ggp.hull import (
    convex_hull,
    facet_groups,
    is_vertex_lp,
    radial_function_batch,
)
from ggp.sampling import RngStream, sample_direction


def cube_points(d):
    return np.array(list(itertools.product([0.0, 1.0], repeat=d)))


def octahedron_points():
    return np.vstack([np.eye(3), -np.eye(3)])


SQUARE_PLUS_CENTER = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5]])


def unique_rows_in_order(points):
    _, first = np.unique(points, axis=0, return_index=True)
    return points[np.sort(first)]


def reference_grouping(qh):
    """Merged facets by np.unique over Qhull's equations: (equations, groups, members)."""
    eqs, inverse = np.unique(qh.equations, axis=0, return_inverse=True)
    n_points, width = len(qh.points), qh.simplices.shape[1]
    keys = np.unique(np.repeat(inverse.reshape(-1), width) * n_points + qh.simplices.ravel())
    groups, members = np.divmod(keys, n_points)
    return eqs, groups, members


def reference_facets(points):
    """(facets, f-vector) of distinct points, one (normal, offset, sorted
    vertex indices) triple per merged facet, with the f-vector from
    sparse.triu pair counts: the per-facet list the array facet table
    replaced, kept as an independent check on it."""
    qh = ConvexHull(points)
    dim = points.shape[1]
    eqs, groups, members = reference_grouping(qh)
    to_local = np.empty(len(points), dtype=int)
    to_local[qh.vertices] = np.arange(len(qh.vertices))
    member_sets = np.split(members, np.searchsorted(groups, np.arange(1, len(eqs))))
    facets = [(eq[:-1].copy(), -float(eq[-1]), np.sort(to_local[m]))
              for eq, m in zip(eqs, member_sets)]
    n_v, n_f = len(qh.vertices), len(facets)
    if dim == 2:
        return facets, (n_v, n_v)
    if dim > 4:
        return facets, (n_v,) + (None,) * (dim - 2) + (n_f,)
    sizes = [len(f[2]) for f in facets]
    incidence = sparse.csr_array(
        (np.ones(sum(sizes), dtype=np.int64),
         (np.repeat(np.arange(n_f), sizes), np.concatenate([f[2] for f in facets]))),
        shape=(n_f, n_v),
    )

    def pairs_at_least(gram, k):
        return int(np.count_nonzero(sparse.triu(gram, k=1).data >= k))

    f1 = pairs_at_least(incidence.T @ incidence, dim - 1)
    if dim == 3:
        return facets, (n_v, f1, n_f)
    return facets, (n_v, f1, pairs_at_least(incidence @ incidence.T, 3), n_f)


def facet_table_clouds():
    """Random clouds in d = 2-5, integer-grid clouds (merged, non-simplicial
    facets and duplicate rows) in d = 3-4, and cubes in d = 2-5."""
    rng = np.random.default_rng(21)
    for d in (2, 3, 4, 5):
        for _ in range(8):
            yield rng.standard_normal((int(rng.integers(d + 1, 300)), d))
    for d in (3, 4):
        for _ in range(15):
            yield rng.integers(-2, 3, (int(rng.integers(d + 3, 80)), d)).astype(float)
    for d in (2, 3, 4, 5):
        yield cube_points(d)


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
        g, v = p.incidence_facets, p.incidence_vertices
        residual = np.sum(p.vertices[v] * p.facet_normals[g], axis=1) - p.facet_offsets[g]
        assert np.max(np.abs(residual)) < 1e-9 * p.scale()
        assert np.all(np.bincount(g, minlength=len(p.facet_offsets)) >= 3)

    def test_facet_table_matches_facet_list(self):
        for pts in facet_table_clouds():
            p = convex_hull(pts)
            facets, f_vec = reference_facets(unique_rows_in_order(pts))
            assert p.f_vector == f_vec
            assert len(p.facets) == len(facets) == p.f_vector[-1]
            assert np.array_equal(p.facet_normals, np.array([f[0] for f in facets]))
            assert np.array_equal(p.facet_offsets, np.array([f[1] for f in facets]))
            bounds = np.searchsorted(p.incidence_facets, np.arange(len(facets) + 1))
            for g, (_, _, vertex_indices) in enumerate(facets):
                assert np.array_equal(p.incidence_vertices[bounds[g]:bounds[g + 1]],
                                      vertex_indices)

    @pytest.mark.parametrize("d", [3, 4])
    def test_simplicial_f_vector_matches_sparse_reference(self, d):
        # random clouds, inside a ball or on its sphere, have simplicial hulls,
        # whose f1 (and f2) count distinct vertex pairs (triples) of facets
        rng = np.random.default_rng(20 + d)
        for k in range(16):
            pts = rng.standard_normal((int(rng.integers(d + 2, 600)), d))
            if k % 2:
                pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            p = convex_hull(pts)
            assert len(p.incidence_vertices) == d * len(p.facet_offsets)
            assert p.f_vector == reference_facets(pts)[1]

    def test_facet_groups_match_unique_grouping(self):
        for pts in facet_table_clouds():
            qh = ConvexHull(unique_rows_in_order(pts))
            for got, want in zip(facet_groups(qh), reference_grouping(qh)):
                assert np.array_equal(got, want)

    def test_facet_count_is_len_facets(self):
        # perfbench's tracer counts a hull's facets as len(poly.facets)
        rng = np.random.default_rng(13)
        clouds = [cube_points(3), cube_points(4), rng.standard_normal((200, 3))]
        for pts in clouds + [rng.standard_normal((60, d)) for d in (2, 4, 5)]:
            p = convex_hull(pts)
            assert len(p.facets) == p.f_vector[-1] == len(p.facet_offsets)
        assert len(convex_hull(cube_points(3)).facets) == 6

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
            assert np.all(np.bincount(p.incidence_facets, minlength=len(p.facet_offsets)) == 4)
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
            vol_prev = convex_hull(pts).volume
            for _ in range(20):
                pts = np.vstack([pts, rng.standard_normal((1, d))])
                vol_next = convex_hull(pts).volume
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


class TestInputChecks:
    def test_non_finite_points_rejected(self):
        calls = (convex_hull, lambda p: convex_hull(p, assume_unique=True),
                 lambda p: is_vertex_lp(p, 0))
        for bad in (np.nan, np.inf):
            pts = np.vstack([cube_points(2), [[bad, 0.5]]])
            for call in calls:
                with pytest.raises(ValidationError) as info:
                    call(pts)
                assert info.value.field == "points"

    # the festoon's and the scaling map's entry points share the hull's check
    @pytest.mark.parametrize("call", [
        festoon.extreme_points,
        lambda p: festoon.windowed_festoon(p, 1.0),
        lambda p: festoon.psi_envelope(p, np.zeros((1, 1))),
        lambda p: festoon.psi_lambda_envelope(p, np.zeros((1, 1)), 2.0, 5.0),
        lambda p: rescale.transform_batch(p, 2.0, 5.0),
    ])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scaled_points_rejected(self, call, bad):
        pts = np.array([[0.0, 1.0], [1.0, 2.0], [-1.0, 2.5], [bad, 0.5]])
        with pytest.raises(ValidationError) as info:
            call(pts)
        assert info.value.field == "points"
        assert "finite" in str(info.value)


class TestMeasures:
    def test_cube_volume_and_surface(self):
        p = convex_hull(cube_points(3))
        assert p.volume == pytest.approx(1.0, rel=1e-12)
        assert p.area == pytest.approx(6.0, rel=1e-12)

    def test_square_perimeter_convention(self):
        p = convex_hull(cube_points(2))
        assert p.volume == pytest.approx(1.0, rel=1e-12)
        assert p.area == pytest.approx(4.0, rel=1e-12)

    def test_simplex_volume(self):
        for d in (2, 3, 4, 5):
            pts = np.vstack([np.zeros(d), np.eye(d)])
            assert convex_hull(pts).volume == pytest.approx(1 / math.factorial(d), rel=1e-9)

    def test_octahedron_measures(self):
        p = convex_hull(octahedron_points())
        assert p.volume == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert p.area == pytest.approx(8 * math.sqrt(3) / 2, rel=1e-12)

    def test_regular_tetrahedron_surface(self):
        pts = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)
        edge = math.sqrt(8)
        assert convex_hull(pts).area == pytest.approx(4 * math.sqrt(3) / 4 * edge**2, rel=1e-12)

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
            assert abs(mc - p.volume) < max(3.5 * se, 0.01 * p.volume)


class TestRadialFunction:
    def test_centered_cube_axis(self):
        p = convex_hull(cube_points(3) - 0.5)
        rho = radial_function_batch(p, np.array([[1.0, 0.0, 0.0]]))
        assert rho[0] == pytest.approx(0.5, rel=1e-12)

    def test_octahedron_diagonal(self):
        p = convex_hull(octahedron_points())
        u = np.ones((1, 3)) / math.sqrt(3)
        assert radial_function_batch(p, u)[0] == pytest.approx(1 / math.sqrt(3), rel=1e-12)

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
            radial_function_batch(p, np.array([[1.0, 0.0, 0.0]]))
