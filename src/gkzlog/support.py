"""Negative-support combinatorics and radius-bounded minimality checks.

The negative support of an exponent vector is the set of coordinates that
are negative integers; variants ignore one or two designated coordinates.
In lattice coordinates, a coordinate of the shift ``v + point`` stays on
its side of the support when one integer row holds (``support_rows``);
with bounding rows (a radius box, a grade cut) they are one system of
``lattice._lattice_points`` (``support_points``).  A :class:`SupportBox`
reads every support set and minimality verdict (no shift strictly
shrinks the support) of one base vector so, within a radius, and every
verdict is radius-qualified; it is also the one input of the series
builders.  All indices are 0-based.
"""

from __future__ import annotations

from fractions import Fraction

from .lattice import DEFAULT_MAX_BOX_POINTS, RelationLattice, _lattice_points
from .rationals import rational_vector
from .values import Value


def support_rows(v, basis, excluded=()) -> dict[int, tuple[tuple[int, ...], int]]:
    """The row ``(a, c)``, read ``a . x + c >= 0``, of each integer coordinate outside ``excluded``.

    A lattice point with coordinates ``x`` in ``basis`` keeps coordinate
    ``k`` of ``v`` on its side of the negative support when the row of
    ``k`` holds.  With ``b_k`` column ``k`` of the basis, so that the shift
    is ``v_k + b_k . x``, the row is ``(b_k, v_k)`` when ``v_k >= 0`` and,
    as ``v_k + b_k . x <= -1`` for an integer point, ``(-b_k, -v_k - 1)``
    when ``v_k < 0``.  A non-integer coordinate never is a negative
    integer, so it has no row.  Keyed by coordinate, in increasing order.
    """
    for i in set(excluded):
        if not 0 <= i < len(v):
            raise ValueError(f"excluded index {i} out of range")
    rows = {}
    for k, x in enumerate(v):
        if k in excluded or x.denominator != 1:
            continue
        b = tuple(row[k] for row in basis)
        x = int(x)
        rows[k] = (b, x) if x >= 0 else (tuple(-a for a in b), -x - 1)
    return rows


def support_points(v, lattice: RelationLattice, excluded, bounds, max_points) -> list:
    """Ambient points of ``support_rows`` plus ``bounds``, as ``_lattice_points`` yields them."""
    rows = list(support_rows(v, lattice.basis, excluded).values()) + bounds
    return lattice.points_from_coords(_lattice_points(rows, lattice.rank, max_points))


class SupportVerdict(Value):
    """Outcome of a bounded minimality scan.

    ``counterexample`` is the first enumerated lattice point (if any)
    whose shift strictly shrinks the excluded-index negative support.
    """

    minimal: bool
    radius: int
    counterexample: tuple[int, ...] | None = None

    def __str__(self):
        if self.minimal:
            return f"minimal within radius {self.radius}"
        return f"counterexample {self.counterexample} at radius {self.radius}"


class SupportBox(Value):
    """Minimality verdicts and support sets of one base vector within one radius.

    The radius bounds each lattice coordinate: the ``2 * rank`` box rows
    ``radius +- x_r >= 0``, set as ``box_rows`` by ``__post_init__``.
    Each query runs ``_lattice_points`` on them plus ``support_rows``,
    lexicographic in the coordinates and capped at ``max_points`` points
    per system; nothing is enumerated before.  A box is also the
    truncation provenance a series carries (``LogSeries.meta``).
    """

    base: tuple[Fraction, ...]
    lattice: RelationLattice
    radius: int
    max_points: int = DEFAULT_MAX_BOX_POINTS

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")
        rank = self.lattice.rank
        self.__dict__.update(
            base=rational_vector(self.base),
            box_rows=[
                (tuple(sign * (r == s) for s in range(rank)), self.radius)
                for sign in (1, -1)
                for r in range(rank)
            ],
        )

    def _points(self, rows):
        return _lattice_points(rows + self.box_rows, self.lattice.rank, self.max_points)

    def check_minimal(self, excluded=()) -> SupportVerdict:
        """Verdict with the first point whose shift strictly shrinks the support.

        A shift strictly shrinks it when it keeps every row of a coordinate
        with ``v_j >= 0`` and breaks the row of at least one ``k`` with
        ``v_k < 0``: the first point over all ``k`` is the lexicographic
        minimum of the first point of each ``k``'s system.
        """
        rows = support_rows(self.base, self.lattice.basis, excluded)
        kept = [row for k, row in rows.items() if self.base[k] >= 0]
        firsts = [
            next(self._points(kept + [(tuple(-x for x in a), -c - 1)]), None)
            for k, (a, c) in rows.items()
            if self.base[k] < 0
        ]
        first = min((x for x in firsts if x is not None), default=None)
        if first is None:
            return SupportVerdict(minimal=True, radius=self.radius)
        return SupportVerdict(False, self.radius, self.lattice.points_from_coords([first])[0])

    def support_set(self, excluded=()) -> list[tuple[int, ...]]:
        """Points whose shift preserves the support, in lexicographic coordinate order."""
        return support_points(self.base, self.lattice, excluded, self.box_rows, self.max_points)

    def sweep(self, excluded_sets) -> dict[tuple[int, ...], SupportVerdict]:
        """Verdicts keyed by sorted excluded tuple, in first-occurrence order."""
        keys = dict.fromkeys(tuple(sorted(set(excluded))) for excluded in excluded_sets)
        return {key: self.check_minimal(key) for key in keys}
