"""Negative-support combinatorics and radius-bounded minimality checks.

The negative support of an exponent vector is the set of coordinates that
are negative integers; variants ignore one or two designated coordinates.
Minimality (no lattice shift strictly shrinks the support) is semi-decided
by scanning a coefficient box of the given radius, so every verdict is
radius-qualified.  A :class:`SupportBox` enumerates the box once and
answers every verdict and support set of one base vector at that radius;
it is also the one input of the series builders, so a run that sweeps
and builds from one box enumerates it once.  All indices are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import DEFAULT_MAX_BOX_POINTS, RelationLattice, _box
from .rationals import is_negative_integer, rational_vector


def nsupp(vector, excluded=()) -> frozenset[int]:
    """Indices (outside ``excluded``) where ``vector`` is a negative integer."""
    skip = frozenset(excluded)
    for i in skip:
        if not 0 <= i < len(vector):
            raise ValueError(f"excluded index {i} out of range")
    return frozenset(
        i
        for i, x in enumerate(vector)
        if i not in skip and is_negative_integer(x)
    )


@dataclass(frozen=True)
class SupportVerdict:
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


class SupportBox:
    """The coefficient box of one radius, with the negative support of each shift.

    The box is enumerated once, in ``enumerate_box`` order.  Bit ``k`` of
    a point's mask is set when ``v[k] + point[k]`` is a negative integer,
    which needs ``v[k]`` to be an integer.  With ``keep`` the mask of the
    coordinates outside the excluded set, a point's shift has the negative
    support of ``v`` when ``mask & keep == base_mask & keep``, and strictly
    shrinks it when ``mask & keep`` is a proper subset of that.
    """

    def __init__(self, v, lattice: RelationLattice, radius: int, max_points=DEFAULT_MAX_BOX_POINTS):
        self.base = rational_vector(v)
        self.lattice = lattice
        self.radius = radius
        integral = [(k, int(x)) for k, x in enumerate(self.base) if x.denominator == 1]
        self.base_mask = sum(1 << k for k, z in integral if z < 0)
        self.points, self.masks = [], []
        for _, point in _box(lattice, radius, max_points):
            self.points.append(point)
            self.masks.append(sum(1 << k for k, z in integral if z + point[k] < 0))

    def _target(self, excluded):
        """``(keep, base_mask & keep)`` for the excluded indices."""
        keep = (1 << len(self.base)) - 1
        for i in set(excluded):
            if not 0 <= i < len(self.base):
                raise ValueError(f"excluded index {i} out of range")
            keep &= ~(1 << i)
        return keep, self.base_mask & keep

    def check_minimal(self, excluded=()) -> SupportVerdict:
        """Verdict with the first point whose shift strictly shrinks the support."""
        keep, target = self._target(excluded)
        for point, mask in zip(self.points, self.masks):
            shifted = mask & keep
            if shifted != target and shifted | target == target:
                return SupportVerdict(minimal=False, radius=self.radius, counterexample=point)
        return SupportVerdict(minimal=True, radius=self.radius)

    def support_set(self, excluded=()) -> list[tuple[int, ...]]:
        """Points whose shift preserves the support, in box order."""
        keep, target = self._target(excluded)
        return [point for point, mask in zip(self.points, self.masks) if mask & keep == target]

    def sweep(self, excluded_sets) -> dict[tuple[int, ...], SupportVerdict]:
        """Verdicts keyed by sorted excluded tuple, in first-occurrence order."""
        keys = dict.fromkeys(tuple(sorted(set(excluded))) for excluded in excluded_sets)
        return {key: self.check_minimal(key) for key in keys}

