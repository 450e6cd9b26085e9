"""Integer relation lattices: kernel bases and lattice coordinates.

The relation lattice of a point configuration (stored as matrix columns)
is the integer kernel of the matrix.  ``kernel_basis`` computes a
saturated basis, canonicalized by Hermite normal form so that outputs are
stable across runs and platforms.  Points are given by their integer
coordinates in that basis (``points_from_coords``); the lattice points
themselves are enumerated in those coordinates by
``polytope._lattice_points``.
"""

from __future__ import annotations

from operator import add

from .linalg import kernel_rows, solve_echelon
from .rationals import to_int
from .values import Value


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

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.rows)

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
