"""Integer relation lattices: kernel bases, lattice coordinates, lattice points.

The relation lattice of a point configuration (stored as matrix columns)
is the integer kernel of the matrix.  ``kernel_basis`` computes a
saturated basis, canonicalized by Hermite normal form so that outputs are
stable across runs and platforms.  Points are given by their integer
coordinates in that basis (``points_from_coords``), and the lattice
points of a polytope of integer inequalities are enumerated lazily from
an exact integer Fourier-Motzkin elimination under Kohler's rule, one
nested loop per coordinate and no bounding box (``_lattice_points``).
It is the package's one lattice-point search and the one place that
enforces a point cap (``DEFAULT_MAX_BOX_POINTS`` or the caller's): every
support set and verdict of ``support.SupportBox``, the mirror-map tails,
the grading of ``ci_mirror.positive_grading`` (a first point) and a
hull's interior points come from it.
"""

from __future__ import annotations

from math import gcd
from operator import add

from .errors import ResourceLimit
from .linalg import kernel_rows, solve_echelon
from .rationals import to_int
from .values import Value

DEFAULT_MAX_BOX_POINTS = 2_000_000


class IntMatrix(Value):
    """Immutable integer matrix, stored by rows."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.rows or not self.rows[0]:
            raise ValueError("matrix must have positive dimensions")
        width = len(self.rows[0])
        if any(len(r) != width for r in self.rows):
            raise ValueError("ragged matrix")

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        return cls(tuple(tuple(to_int(x, "matrix entry") for x in row) for row in rows))

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.rows[0])

    def mul_vec(self, vec) -> tuple:
        if len(vec) != self.n_cols:
            raise ValueError("dimension mismatch")
        return tuple(sum(a * x for a, x in zip(row, vec)) for row in self.rows)


class RelationLattice(Value):
    """Saturated integer basis of the kernel of a point-configuration matrix.

    ``basis`` rows are in Hermite normal form (leading entries positive,
    entries above each pivot reduced), so the basis is canonical.
    """

    ambient_dim: int
    basis: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.basis)

    def points_from_coords(self, coords) -> list[tuple[int, ...]]:
        """Ambient points of a list of coordinate tuples, in order.

        One column-wise pass: ambient entry ``i`` of every point is
        ``sum_r basis[r][i] * column_r``, with ``column_r`` the ``r``-th
        coordinates of all the points, and a zero basis entry adds nothing.
        """
        coords = list(coords)
        if any(len(x) != self.rank for x in coords):
            raise ValueError("coefficient length != lattice rank")
        columns = list(zip(*coords))
        entries = []
        for i in range(self.ambient_dim):
            entry = [0] * len(coords)
            for row, column in zip(self.basis, columns):
                b = row[i]
                if b:
                    entry = list(map(add, entry, column if b == 1 else map(b.__mul__, column)))
            entries.append(entry)
        return list(zip(*entries))

    def coords_of(self, vec):
        """Coordinates of ``vec`` in the basis, or ``None`` if off the span.

        The Hermite basis is in echelon form, so the exact rational
        coordinates follow by forward substitution (``solve_echelon``); a
        non-integral result means ``vec`` lies in the rational span but
        not in the lattice itself.
        """
        if len(vec) != self.ambient_dim:
            raise ValueError("vector length != ambient dimension")
        return solve_echelon(self.basis, vec)

    def contains(self, vec) -> bool:
        coords = self.coords_of(vec)
        return coords is not None and all(c.denominator == 1 for c in coords)


def kernel_basis(matrix) -> RelationLattice:
    """Saturated Hermite basis of the integer kernel of ``matrix`` (``kernel_rows``)."""
    if not isinstance(matrix, IntMatrix):
        matrix = IntMatrix.from_rows(matrix)
    return RelationLattice(matrix.n_cols, kernel_rows(matrix.rows, matrix.n_cols))


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
    ``x_0 .. x_(k-1)``, yield exactly its integer points.  A generator: a
    caller that needs only the first point reads only that far.  Raises
    :class:`ResourceLimit` on reaching point ``max_points + 1``, and
    ``ValueError`` when a coordinate has no finite range (the polyhedron
    is unbounded).
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
