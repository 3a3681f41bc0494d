"""Exact d-dimensional convex hulls with face counts, volume and surface area.

Hull construction is delegated to Qhull (scipy.spatial.ConvexHull), which
merges coplanar facets. The merged facets are kept as one array table
(normals, offsets, facet-vertex incidence pairs) that drives face counting,
the radial function and all containment checks. One exact vertex oracle, an
LP feasibility test, cross-validates the hull.
The facet grouping (facet_groups) and the convex-combination LP
(is_convex_combination) also serve the festoon's lifted lower hull.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, IndexOutOfRange, OriginOutside, ValidationError

__all__ = [
    "Polytope",
    "convex_hull",
    "is_vertex_lp",
    "radial_function_batch",
]


@dataclass(frozen=True)
class Polytope:
    """Full-dimensional polytope as one facet table, with its f-vector.

    Facet g is the plane {x : <facet_normals[g], x> = facet_offsets[g]},
    with <normal, x> <= offset inside. The facet-vertex incidence is the
    list of pairs (incidence_facets[k], incidence_vertices[k]), sorted by
    facet, then vertex; vertex indices point into vertices. f_vector holds
    (f_0, ..., f_{d-1}); middle entries are None for d > 4 where ridge
    enumeration is not performed. vertex_input_indices maps each vertex
    back to its row in the original (pre-deduplication) input. volume and
    area are Qhull's d-volume and surface area (the perimeter when d = 2).
    """

    dim: int
    vertices: np.ndarray
    facet_normals: np.ndarray
    facet_offsets: np.ndarray
    incidence_facets: np.ndarray
    incidence_vertices: np.ndarray
    f_vector: tuple
    vertex_input_indices: np.ndarray
    volume: float
    area: float

    @property
    def facets(self) -> np.ndarray:
        """The merged facets' outward normals; len() is the merged-facet count."""
        return self.facet_normals

    def scale(self) -> float:
        return float(np.max(np.abs(self.vertices))) or 1.0


def _dedup(points: np.ndarray):
    """Drop exact duplicate rows, keeping first occurrences in input order."""
    _, idx = np.unique(points, axis=0, return_index=True)
    keep = np.sort(idx)
    return points[keep], keep


def _finite(arr: np.ndarray) -> np.ndarray:
    """arr, after a ValidationError on points unless every coordinate is finite."""
    if not np.all(np.isfinite(arr)):
        raise ValidationError("points", "coordinates must be finite")
    return arr


def _as_points(cloud) -> np.ndarray:
    pts = np.asarray(cloud, dtype=float)
    if pts.ndim != 2:
        raise DegenerateInput("expected a 2-d array of points")
    return _finite(pts)


def facet_groups(qh):
    """Qhull's merged facets as one table: (plane equations, groups, members).

    Qhull assigns each output simplex the plane of its merged facet, so
    grouping simplices by exact equation equality recovers the merged
    facets, in lexicographic order of their equations (the order of
    np.unique(qh.equations, axis=0)). The incidence pairs (groups[k],
    members[k]) say that the point with index members[k], into the points
    Qhull was given, is a vertex of facet groups[k]; they are sorted by
    group, then member.
    """
    eqs = qh.equations
    order = np.lexsort(eqs.T[::-1])
    eqs = eqs[order]
    starts = np.empty(len(eqs), dtype=bool)
    starts[0] = True
    np.any(eqs[1:] != eqs[:-1], axis=1, out=starts[1:])
    group_of = np.empty(len(eqs), dtype=np.int64)
    group_of[order] = np.cumsum(starts) - 1
    n_points = len(qh.points)
    width = qh.simplices.shape[1]
    keys = np.sort(np.repeat(group_of, width) * n_points + qh.simplices.ravel())
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]  # simplices share vertices
    groups, members = np.divmod(keys, n_points)
    return eqs[starts], groups, members


def _pairs_at_least(gram, k: int, n_diagonal: int) -> int:
    """Index pairs i < j of a symmetric gram matrix with gram[i, j] >= k,
    given that all n_diagonal diagonal entries reach k."""
    return (int(np.count_nonzero(gram.data >= k)) - n_diagonal) // 2


def _distinct_subsets(simplices: np.ndarray, k: int, n_vertices: int) -> int:
    """Distinct k-vertex subsets of the rows of simplices (rows sorted
    ascending), each keyed as one base-n_vertices int64."""
    columns = np.array(list(itertools.combinations(range(simplices.shape[1]), k))).T
    keys = simplices[:, columns[0]]
    for c in columns[1:]:
        keys = keys * n_vertices + simplices[:, c]
    keys = np.sort(keys, axis=None)
    return int(np.count_nonzero(keys[1:] != keys[:-1])) + 1


def _count_faces(dim, n_vertices, n_facets, incidence_facets, incidence_vertices):
    """f-vector from the merged-facet incidence; exact for d <= 4.

    When every merged facet is a simplex (d vertices), every face is a
    simplex lying in some facet, and each vertex pair (each triple in d=4)
    of a facet spans one: f1 (and f2) count the distinct pairs (triples).
    Otherwise, with M the sparse facet-vertex incidence matrix, a vertex
    pair spans an edge iff it lies in >= d-1 common facets, (M^T M)_ij >=
    d-1 (>= 2 in d=3, >= 3 in d=4: the minimal common face of a non-edge
    pair is at least 2-dimensional and lies in fewer facets). A ridge in
    d=4 is a facet pair sharing >= 3 vertices, (M M^T)_ij >= 3. Every vertex
    lies in >= d facets and every facet has >= d vertices, so each diagonal
    entry passes its threshold and is subtracted from the count.
    """
    if dim == 2:
        return (n_vertices, n_vertices)
    if dim > 4:
        return (n_vertices,) + (None,) * (dim - 2) + (n_facets,)
    # subset keys reach n_vertices ** (dim - 1) and must fit an int64
    if len(incidence_vertices) == dim * n_facets and n_vertices ** (dim - 1) < 2**63:
        simplices = incidence_vertices.reshape(n_facets, dim)
        faces = [_distinct_subsets(simplices, k, n_vertices) for k in range(2, dim)]
        return (n_vertices, *faces, n_facets)
    from scipy import sparse

    indptr = np.searchsorted(incidence_facets, np.arange(n_facets + 1))
    incidence = sparse.csr_array(
        (np.ones(len(incidence_vertices), dtype=np.int32), incidence_vertices, indptr),
        shape=(n_facets, n_vertices),
    )
    transpose = incidence.T.tocsr()
    f1 = _pairs_at_least(transpose @ incidence, dim - 1, n_vertices)
    if dim == 3:
        return (n_vertices, f1, n_facets)
    return (n_vertices, f1, _pairs_at_least(incidence @ transpose, 3, n_facets), n_facets)


def convex_hull(cloud, assume_unique=False) -> Polytope:
    """Convex hull of a point cloud, with its merged-facet table and f-vector.

    Input points are deduplicated (exact coordinate equality) first;
    assume_unique skips that sort, which callers drawing from continuous
    distributions use to avoid an O(n log n) pass over large clouds.
    Raises DegenerateInput when the points are affinely dependent.
    """
    if assume_unique:
        points = _as_points(cloud)
        orig_idx = np.arange(len(points))
    else:
        points, orig_idx = _dedup(_as_points(cloud))
    n, dim = points.shape
    if n < dim + 1:
        raise DegenerateInput(f"{n} points cannot span R^{dim}")
    from scipy.spatial import ConvexHull, QhullError

    try:
        qh = ConvexHull(points)
    except QhullError as exc:
        raise DegenerateInput(f"affinely dependent input: {exc}") from exc

    vert_idx = qh.vertices  # indices into deduped points
    n_vertices = len(vert_idx)
    to_local = np.empty(n, dtype=np.int64)
    to_local[vert_idx] = np.arange(n_vertices)
    eqs, groups, members = facet_groups(qh)
    # Qhull lists 2-d hull vertices counterclockwise, not in input order
    incidence_facets, incidence_vertices = np.divmod(
        np.sort(groups * n_vertices + to_local[members]), n_vertices)
    return Polytope(
        dim=dim,
        vertices=points[vert_idx],
        facet_normals=np.ascontiguousarray(eqs[:, :-1]),
        facet_offsets=-eqs[:, -1],
        incidence_facets=incidence_facets,
        incidence_vertices=incidence_vertices,
        f_vector=_count_faces(dim, n_vertices, len(eqs), incidence_facets, incidence_vertices),
        vertex_input_indices=orig_idx[vert_idx],
        volume=float(qh.volume),
        area=float(qh.area),
    )


def is_convex_combination(points: np.ndarray, target: np.ndarray, ray=None) -> bool:
    """LP test: is target a convex combination of the rows of points, plus a
    non-negative multiple of ray when one is given?

    Exact up to the LP solver tolerance (~1e-9). Raises RuntimeError when
    the solver neither finds a combination nor proves that none exists.
    """
    if len(points) == 0:
        return False
    from scipy.optimize import linprog

    a_eq = np.vstack([points.T, np.ones(len(points))])
    if ray is not None:
        a_eq = np.column_stack([a_eq, np.append(ray, 0.0)])
    res = linprog(
        c=np.zeros(a_eq.shape[1]),
        A_eq=a_eq,
        b_eq=np.append(target, 1.0),
        bounds=(0.0, None),
        method="highs",
    )
    if res.status == 0:
        return True
    if res.status == 2:
        return False  # infeasible
    raise RuntimeError(f"LP solver failure: status {res.status} ({res.message})")


def is_vertex_lp(cloud, index: int) -> bool:
    """LP vertex oracle: x_i is a vertex iff it is not a convex combination
    of the remaining points. Exact up to the LP solver tolerance (~1e-9)."""
    points = _as_points(cloud)
    n, dim = points.shape
    if not 0 <= index < n:
        raise IndexOutOfRange(f"index {index} out of range for {n} points")
    return not is_convex_combination(np.delete(points, index, axis=0), points[index])


def _require_origin_interior(p: Polytope):
    eps = 1e-12 * p.scale()
    if np.any(p.facet_offsets <= eps):
        raise OriginOutside("origin is not interior to the polytope")


def radial_function_batch(p: Polytope, dirs: np.ndarray) -> np.ndarray:
    """Radial function for a batch of directions, shape (k, d) -> (k,).

    rho(u) = min over facets with <normal, u> > 0 of offset / <normal, u>;
    requires the origin strictly inside so every ray exits through a facet.
    """
    _require_origin_interior(p)
    dots = dirs @ p.facet_normals.T
    with np.errstate(divide="ignore"):
        t = np.where(dots > 1e-300, p.facet_offsets[None, :] / dots, np.inf)
    return t.min(axis=1)
