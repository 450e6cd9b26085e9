"""Exact Minkowski sums, convex hulls, and lattice points of polytopes.

The extreme rays of a pointed cone ``{x : rows . x >= 0}`` come from one
exact integer double-description routine (``_cone_rays``), which adds
the rows one at a time to a simplicial starting cone and combines only
adjacent rays.  It gives the facets ``a . x <= c`` of a hull, which are
the rays of the homogenized cone ``{(a, c) : c - a . p >= 0 for every
point p}``, and the rays of the support cones of a mirror map's columns.
The lattice points of a polytope given by integer inequalities are
enumerated lazily from an exact integer Fourier-Motzkin elimination
(``_lattice_points``), one nested loop per coordinate, without a bounding
box, under Kohler's rule.  It is the package's one lattice-point search
and the one place that enforces a point cap (``DEFAULT_MAX_BOX_POINTS``
or the caller's): a hull's interior points, every support set and
verdict of ``support.SupportBox``, the mirror-map tails and (its first
point) the grading of ``ci_mirror.positive_grading`` all come from it.
Everything is exact integer arithmetic; no floating point is used.
"""

from __future__ import annotations

import itertools
from math import gcd

from .errors import DegenerateHull, NoPositiveFunctional, ResourceLimit
from .linalg import hnf_rows, hnf_rows_with_transform
from .values import Value

DEFAULT_MAX_BOX_POINTS = 2_000_000


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


def _normalized(rows):
    """Rows divided by the gcd of their coefficients, deduplicated; None if infeasible.

    A row ``(a, c, mask)`` stands for ``a . x + c >= 0``, combined from the
    input rows set in ``mask`` (a duplicate keeps the smaller mask).  For
    integer ``x`` the value ``a . x`` is a multiple of ``g = gcd(a)``, so
    ``a/g . x >= floor(c/g)`` cuts off no integer point.  A row with
    ``a = 0`` is dropped when ``c >= 0``, and otherwise makes it infeasible.
    """
    out = {}
    for a, c, mask in rows:
        g = gcd(*a)
        if g == 0:
            if c < 0:
                return None
            continue
        key = (tuple(x // g for x in a), c // g)
        out[key] = min(mask, out.get(key, mask))
    return sorted(key + (mask,) for key, mask in out.items())


def _lattice_points(rows, dim: int, max_points: int):
    """Integer points ``x`` of ``{a . x + c >= 0 for every row (a, c)}``, lexicographic.

    Exact integer Fourier-Motzkin elimination: the rows of level ``k``
    involve ``x_0 .. x_k`` only, and level ``k - 1`` keeps the level-``k``
    rows free of ``x_k`` and adds, for each pair of rows with opposite
    signs in ``x_k``, the positive combination that cancels it; every
    level is normalized by ``_normalized``.  Kohler's rule (Kohler 1967;
    Imbert 1990) skips, in the ``e = dim - k``-th elimination, a redundant
    combination of more than ``e + 1`` input rows.  Skipping only drops
    valid rows, so each level still holds for every integer point of the
    polytope, and level ``dim - 1`` is the input itself, so the nested
    loops, which read the range of ``x_k`` from the level-``k`` rows given
    ``x_0 .. x_(k-1)``, yield exactly its integer points.  A generator: a caller that needs only the first point reads
    only that far.  Raises :class:`ResourceLimit` on reaching point
    ``max_points + 1``, and ``ValueError`` when a coordinate has no
    finite range (the polyhedron is unbounded).
    """
    level = _normalized([(a, c, 1 << i) for i, (a, c) in enumerate(rows)])
    if level is None:
        return
    # bounds[k]: (lower, upper) rows of level k, each ``(a_k, a_0..a_(k-1), c, mask)``
    bounds = [None] * dim
    for k in range(dim - 1, -1, -1):
        lower = [(a[k], a[:k], c, m) for a, c, m in level if a[k] > 0]
        upper = [(a[k], a[:k], c, m) for a, c, m in level if a[k] < 0]
        bounds[k] = (lower, upper)
        if k:
            kept = [row for row in level if row[0][k] == 0]
            for pk, pa, pc, pm in lower:
                for nk, na, nc, nm in upper:
                    mask = pm | nm
                    if mask.bit_count() <= dim - k + 1:  # else redundant, by Kohler's rule
                        combined = tuple(-nk * p + pk * n for p, n in zip(pa, na))
                        kept.append((combined + (0,) * (dim - k), -nk * pc + pk * nc, mask))
            level = _normalized(kept)
            if level is None:
                return
    point = [0] * dim

    def walk(k):
        if k == dim:
            yield tuple(point)
            return
        lower, upper = bounds[k]
        if not lower or not upper:
            raise ValueError(f"coordinate {k} is unbounded: the polyhedron is not a polytope")
        prefix = point[:k]
        lo = max(-((c + sum(a * x for a, x in zip(pa, prefix))) // ak) for ak, pa, c, _ in lower)
        hi = min((c + sum(a * x for a, x in zip(pa, prefix))) // -ak for ak, pa, c, _ in upper)
        for x in range(lo, hi + 1):
            point[k] = x
            yield from walk(k + 1)

    for count, found in enumerate(walk(0), 1):
        if count > max_points:
            raise ResourceLimit(
                f"polytope has more than {max_points} lattice points (cap {max_points})"
            )
        yield found
