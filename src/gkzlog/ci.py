"""Complete-intersection problems: point sets and their lifted GKZ systems.

A complete-intersection input is a list of integer point sets, one per
equation, the first point of each set being distinguished (``CISpec``).
``build_system`` lifts each point with an indicator block that selects
its set, which gives the point-configuration matrix, the canonical
parameter and the base exponent vector of the system the rest of the
package solves.  ``check_hypotheses`` checks the two hypotheses of the
mirror-map construction, for the ``ci`` command to print and for
``ci_mirror.mirror_map`` to raise on.  Loading a ``ci`` problem file
needs this module alone, and compiles none of the modules the check
imports when it runs; the mirror-map pipeline (``ci_mirror``) imports
this module, not the other way round.

Indices are 0-based throughout: column ``(i, j)`` is member ``j`` of set
``i``, and ``j = 0`` is the distinguished point.
"""

from __future__ import annotations

from fractions import Fraction

from .lattice import IntMatrix
from .rationals import to_int
from .values import Value


class CISpec(Value):
    """Complete-intersection input: point sets with distinguished first points."""

    point_sets: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        if not self.point_sets:
            raise ValueError("need at least one point set")
        if not all(self.point_sets):
            raise ValueError("point sets must be nonempty")
        dim = len(self.point_sets[0][0])
        if dim == 0:
            raise ValueError("points need at least one coordinate")
        for s in self.point_sets:
            if any(len(p) != dim for p in s):
                raise ValueError("inconsistent point dimension")

    @classmethod
    def from_lists(cls, sets) -> "CISpec":
        return cls(
            tuple(tuple(tuple(to_int(x, "point coordinate") for x in p) for p in s) for s in sets)
        )

    @property
    def dim(self) -> int:
        return len(self.point_sets[0][0])

    @property
    def num_sets(self) -> int:
        return len(self.point_sets)

    @property
    def column_count(self) -> int:
        return sum(len(s) for s in self.point_sets)

    def column_index(self, i: int, j: int) -> int:
        """Flat column index of member ``j`` of set ``i``."""
        if not 0 <= i < self.num_sets:
            raise ValueError("set index out of range")
        if not 0 <= j < len(self.point_sets[i]):
            raise ValueError("member index out of range")
        return sum(len(s) for s in self.point_sets[:i]) + j

    def column_of(self, flat: int) -> tuple[int, int]:
        if not 0 <= flat < self.column_count:
            raise ValueError("column index out of range")
        for i, s in enumerate(self.point_sets):
            if flat < len(s):
                return (i, flat)
            flat -= len(s)
        raise AssertionError("unreachable")

    @property
    def delta(self) -> tuple[int, ...]:
        """Sum of the distinguished points."""
        return tuple(sum(s[0][k] for s in self.point_sets) for k in range(self.dim))


def build_system(spec: CISpec):
    """Lifted matrix, parameter vector, and base exponent vector.

    Each point gains an indicator block selecting its set, the parameter
    is minus the sum of the lifted distinguished columns, and the base
    exponent vector is -1 on distinguished columns and 0 elsewhere.
    """
    n, m = spec.dim, spec.num_sets
    columns = []
    v = []
    for i, s in enumerate(spec.point_sets):
        for j, p in enumerate(s):
            indicator = [0] * m
            indicator[i] = 1
            columns.append(tuple(p) + tuple(indicator))
            v.append(Fraction(-1 if j == 0 else 0))
    matrix = IntMatrix.from_rows(
        tuple(tuple(col[r] for col in columns) for r in range(n + m))
    )
    beta = tuple(Fraction(-d) for d in spec.delta) + tuple(Fraction(-1) for _ in range(m))
    v = tuple(v)
    if matrix.mul_vec(v) != beta:
        raise AssertionError("lifted system is inconsistent")
    return matrix, beta, v


def check_hypotheses(spec: CISpec, v, lattice, radius: int, max_points: int):
    """``(unique, verdicts)``: the two hypotheses of a complete-intersection problem.

    ``verdicts`` are the minimality verdicts of the base vector ``v`` of
    ``build_system(spec)`` with nothing and with each one column excluded,
    keyed by excluded tuple, from one ``SupportBox`` of radius ``radius``,
    or 1 at radius 0, which would check the origin alone.  ``unique`` says
    whether the sum of the distinguished points is the only interior
    lattice point of the Minkowski sum of the point sets.  The sweep runs
    first, so a sweep past ``max_points`` raises :class:`ResourceLimit`
    before any hull is built.
    """
    from .polytope import has_unique_interior_point
    from .support import SupportBox

    box = SupportBox(v, lattice, max(1, radius), max_points)
    verdicts = box.sweep([()] + [(column,) for column in range(lattice.ambient_dim)])
    return has_unique_interior_point(spec.point_sets, spec.delta), verdicts
