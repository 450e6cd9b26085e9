"""Exact Minkowski sums, convex hulls, and their interior lattice points.

The extreme rays of a pointed cone ``{x : rows . x >= 0}`` come from one
exact integer double-description routine (``_cone_rays``), which adds
the rows one at a time to a simplicial starting cone and combines only
adjacent rays.  It gives the facets ``a . x <= c`` of a hull, which are
the rays of the homogenized cone ``{(a, c) : c - a . p >= 0 for every
point p}``, and the rays of the support cones of a mirror map's columns.
A hull's interior lattice points come from the package's one
lattice-point search, ``lattice._lattice_points``.  Everything is exact
integer arithmetic; no floating point is used.
"""

from __future__ import annotations

import itertools
from math import gcd

from .errors import DegenerateHull, NoPositiveFunctional
from .lattice import DEFAULT_MAX_BOX_POINTS, _lattice_points
from .linalg import hnf_rows, hnf_rows_with_transform
from .values import Value


class Polytope(Value):
    """Full-dimensional lattice polytope with exact facet description.

    Facets are pairs ``(normal, offset)`` with the polytope on the
    ``normal . x <= offset`` side, normals primitive integer vectors.
    """

    dim: int
    vertices: tuple[tuple[int, ...], ...]
    facets: tuple[tuple[tuple[int, ...], int], ...]

    def contains(self, point, strict=False) -> bool:
        for normal, offset in self.facets:
            value = sum(a * x for a, x in zip(normal, point))
            if value > offset or (strict and value == offset):
                return False
        return True


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _cone_rays(rows, rank):
    """Primitive extreme rays of ``{x : rows . x >= 0}`` in ``Q^rank``; requires pointed.

    Exact integer double description (Motzkin et al. 1953; Fukuda and
    Prodon 1996).  The first ``rank`` independent rows bound a simplicial
    cone, and one Hermite form with transform gives both those rows and
    the cone's rays, the directions of the inverse of their matrix.  Each
    remaining row then cuts the cone: the rays nonnegative on it stay, and
    each adjacent pair of rays on strictly opposite sides adds its
    primitive positive combination on the row's hyperplane.  Each ray
    carries the bitmask of the rows so far that
    vanish on it; two rays are adjacent iff no third ray's mask contains
    the common part of theirs, which needs at least ``rank - 2`` bits.
    """
    rows = sorted(set(map(tuple, rows)))
    # U R^T = H for the rows R as columns.  Row operations keep the linear
    # relations among columns, so H's pivot columns are the first rank
    # independent rows: the basis B of the start cone, with U B^T = H_P.
    hnf, trans = hnf_rows_with_transform([tuple(row[k] for row in rows) for k in range(rank)])
    pivots = [next((c for c, a in enumerate(h) if a), None) for h in hnf]
    if None in pivots:
        raise NoPositiveFunctional("support cone contains a line; not pointed")
    basis = [rows[c] for c in pivots]
    rays = []
    for i in range(rank):
        # B (U^T s) = H_P^T s, lower triangular: forward substitution from s_i
        # = 1 gives a positive multiple of e_i, so the ray U^T s is positive on
        # basis row i and vanishes on the others.
        s = [0] * rank
        s[i] = 1
        for k in range(i + 1, rank):
            h = hnf[k][pivots[k]]
            t = sum(hnf[m][pivots[k]] * s[m] for m in range(i, k))
            s = [x * h for x in s]
            s[k] = -t
        ray = [sum(x * u[q] for x, u in zip(s, trans)) for q in range(rank)]
        g = gcd(*ray)
        rays.append((tuple(a // g for a in ray), ((1 << rank) - 1) ^ (1 << i)))
    for i, row in enumerate([row for row in rows if row not in basis], rank):
        signed = [(ray, zeros, _dot(row, ray)) for ray, zeros in rays]
        masks = [zeros for _, zeros in rays]
        positive = [entry for entry in signed if entry[2] > 0]
        negative = [entry for entry in signed if entry[2] < 0]
        rays = [(ray, zeros | (1 << i)) for ray, zeros, value in signed if value == 0]
        rays += [(ray, zeros) for ray, zeros, _ in positive]
        for p, pzeros, pvalue in positive:
            for n, nzeros, nvalue in negative:
                common = pzeros & nzeros
                if common.bit_count() < rank - 2 or any(
                    z & common == common and z != pzeros and z != nzeros for z in masks
                ):
                    continue
                ray = tuple(pvalue * b - nvalue * a for a, b in zip(p, n))
                g = gcd(*ray)
                rays.append((tuple(a // g for a in ray), common | (1 << i)))
    return sorted(ray for ray, _ in rays)


def minkowski_hull(point_sets) -> Polytope:
    """Convex hull of the Minkowski sum of the given integer point sets.

    Candidate points are all sums picking one point from each set.  The
    facets ``normal . x <= offset`` are the primitive rays ``(normal,
    offset)`` of the cone ``{(a, c) : c - a . p >= 0 for every candidate
    p}``, which is pointed because the hull is full-dimensional.  Raises
    :class:`DegenerateHull` when it is not (its interior is then empty,
    which is reported rather than guessed).
    """
    sets = [tuple(tuple(int(x) for x in p) for p in s) for s in point_sets]
    if not sets or any(not s for s in sets):
        raise ValueError("point sets must be nonempty")
    dim = len(sets[0][0])
    if dim == 0:
        raise ValueError("points need at least one coordinate")
    for s in sets:
        if any(len(p) != dim for p in s):
            raise ValueError("inconsistent dimension")
    candidates = sorted({tuple(map(sum, zip(*combo))) for combo in itertools.product(*sets)})

    origin = candidates[0]
    differences = [tuple(a - b for a, b in zip(p, origin)) for p in candidates[1:]]
    if len(hnf_rows(differences)) < dim:
        raise DegenerateHull(
            f"hull of {len(candidates)} candidate points is not full-dimensional in Z^{dim}"
        )

    rows = [tuple(-x for x in p) + (1,) for p in candidates]
    facet_list = tuple((ray[:-1], ray[-1]) for ray in _cone_rays(rows, dim + 1))
    vertices = []
    for p in candidates:
        active = [normal for normal, offset in facet_list if _dot(normal, p) == offset]
        if len(active) >= dim and len(hnf_rows(active)) == dim:
            vertices.append(p)
    return Polytope(dim=dim, vertices=tuple(vertices), facets=facet_list)


def interior_lattice_points(poly: Polytope):
    """Integer points strictly inside every facet, in lexicographic order.

    For integer ``x`` the strict ``normal . x < offset`` is the row
    ``-normal . x + offset - 1 >= 0`` of ``_lattice_points``, which caps
    the count at ``DEFAULT_MAX_BOX_POINTS``.
    """
    if not poly.vertices:
        return []
    rows = [(tuple(-a for a in normal), offset - 1) for normal, offset in poly.facets]
    return list(_lattice_points(rows, poly.dim, DEFAULT_MAX_BOX_POINTS))


def has_unique_interior_point(point_sets, point) -> bool:
    """True iff the Minkowski-sum hull has exactly ``point`` strictly inside."""
    hull = minkowski_hull(point_sets)
    return interior_lattice_points(hull) == [tuple(int(x) for x in point)]
