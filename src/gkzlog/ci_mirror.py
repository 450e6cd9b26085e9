"""Complete-intersection systems and mirror-map integrality reports.

A complete-intersection input is a list of integer point sets, one per
equation, the first point of each set being distinguished.  Lifting each
point with an indicator block gives a point-configuration matrix whose
GKZ system at the canonical parameter has a distinguished log-free
solution F and log-linear partners G, one per column.  The mirror map of
a column is

    q = lambda * exp(G / F)

computed as a formal series supported on a pointed lattice cone, graded
by integer weights that are positive on the cone's extreme rays
(``positive_grading``).  Rays and weights are both in the coordinates of
the relation lattice's basis, and the weights are the first lattice
point of one system of the lattice-point engine
(``lattice._lattice_points``); the ambient grading a report prints is
their one integer lift through the basis.  The tails of F and G are read
from the support cones themselves: cut by the grade row, each cone is a
polytope whose lattice points the same engine enumerates exactly, with
no radius bounding it.  The tails stay in lattice coordinates, where the
weights grade them; ambient points serve only the coefficient rule and
the final map.  The tails keep the integer numerators over one
denominator that ``log_free_coefficients`` returns.  The quotient ``G /
F`` (one graded division, ``_quotient_layers``) and the exponential
(``_exp_layers``) proceed grade by grade, so truncation at a grade bound
is exact.

Both run on packed grade lines (``_Lines``, ``_graded_recurrence``).  A
line is the set of points of one grade that differ only in one free
coordinate; a grade layer is one denominator and a list of lines, each
one int that holds the line's numerators in slots of equal width, a
point being a one-slot line.  The product of two lines is then one
big-int multiply (Kronecker substitution), and adding the products by
line key sums the layer.  The slot width comes from an exact bound on
every slot of the layer, so the numerators read back exactly by
construction.  Lines run along the free coordinate that puts the tails
on the fewest lines; a one-coordinate grading has none, and there each
grade is one point.  On the rank-2 lattice of two triangles each grade
is one line.

``integrality_report`` lists the non-integer coefficients, if any, up
to the bound.

Indices are 0-based throughout: column ``(i, j)`` is member ``j`` of set
``i``, and ``j = 0`` is the distinguished point.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, repeat
from math import gcd, lcm
from operator import add, mul

from .errors import DegenerateHull, MinimalityViolation, NoPositiveFunctional
from .lattice import DEFAULT_MAX_BOX_POINTS, IntMatrix, _lattice_points, kernel_basis
from .linalg import solve_integer
from .logseries import log_free_coefficients
from .polytope import _cone_rays, has_unique_interior_point
from .rationals import ratio_text, to_int
from .support import SupportBox, support_rows
from .values import Value

DEFAULT_GRADING_BOUND = 8
_SLOT_BITS = 32  # packed-line slot widths are multiples of this


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


def positive_grading(rays):
    """Lattice weights ``w`` with ``w . ray >= 1`` on every given ray.

    The rays, a nonempty sequence, are given and ``w`` is returned in the
    coordinates of one lattice basis.  ``w`` is the first lattice point
    ``(t, w)`` of ``{w . ray >= 1 for each ray, |w_r| <= t <=
    DEFAULT_GRADING_BOUND}`` (``_lattice_points``): the least max-norm,
    then the lexicographically first.  Raises :class:`NoPositiveFunctional`
    when there is none: the rays generate no pointed cone or the bound is
    too small.
    """
    rank = len(rays[0])
    units = [tuple(int(r == q) for q in range(rank)) for r in range(rank)]
    rows = [((-1,) + (0,) * rank, DEFAULT_GRADING_BOUND)]
    rows += [((1,) + tuple(s * x for x in u), 0) for s in (1, -1) for u in units]
    rows += [((0,) + tuple(ray), -1) for ray in rays]
    first = next(_lattice_points(rows, rank + 1, 1), None)
    if first is None:
        raise NoPositiveFunctional(
            f"no integer functional with coordinates in [-{DEFAULT_GRADING_BOUND}, "
            f"{DEFAULT_GRADING_BOUND}] is >= 1 on all {len(rays)} rays"
        )
    return first[1:]


class MirrorMap(Value):
    """Truncated mirror-map series for one column of a lifted system.

    ``coefficients`` maps lattice points to exact rationals; the grade of
    a point is its dot product with ``grading`` and every stored point
    has grade between 0 and ``grade_bound``.  The coefficient at the
    origin is exactly 1.
    """

    index: tuple[int, int]
    coefficients: dict
    grading: tuple[int, ...]
    grade_bound: int
    radius: int

    def grade_of(self, point) -> int:
        return sum(a * x for a, x in zip(self.grading, point))

    def grade_key(self, item):
        """Sort key of a ``(point, coeff)`` item: its grade, then its point."""
        return self.grade_of(item[0]), item[0]

    def sorted_items(self):
        return sorted(self.coefficients.items(), key=self.grade_key)




def _pack(slots, width):
    """``sum_i slots[i] * 2**(width * i)``: a line's numerators in ``width``-bit slots."""
    packed = 0
    for x in reversed(slots):
        packed = (packed << width) + x
    return packed


def _unpack(packed, width):
    """The slots of a packed line, lowest first, up to the highest nonzero one.

    Exact when every slot lies in ``(-2**(width-1), 2**(width-1))``: such
    balanced digits are unique, and the low ``width`` bits of ``packed``
    give the lowest one modulo ``2**width``.
    """
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    slots = []
    while packed:
        x = packed & mask
        if x >= half:
            x -= mask + 1
        slots.append(x)
        packed = (packed - x) >> width
    return slots


class _Layer:
    """One grade layer: a denominator and integer numerators, line by line.

    ``lines`` lists ``(key, slots)``, with ``key`` the key of the line's
    first point (``_Lines``) and ``slots`` the numerators at free
    coordinates ``lo, lo + 1, ...``; a point is a one-slot line.
    ``at(width)`` lists ``(key, packed int)`` for every line, repacked only
    when the width changes.
    """

    __slots__ = ("den", "lines", "width", "packed", "_norms")

    def __init__(self, den, lines, width=None, packed=None):
        self.den, self.lines = den, lines
        self.width, self.packed = width, packed  # packed on first use
        self._norms = None

    def at(self, width):
        if self.width != width:
            self.packed = [(key, _pack(slots, width)) for key, slots in self.lines]
            self.width = width
        return self.packed

    def norms(self):
        """``(sum, max)`` of the absolute values of the numerators."""
        if self._norms is None:
            sizes = [abs(x) for _, slots in self.lines for x in slots]
            self._norms = sum(sizes), max(sizes)
        return self._norms


class _Lines:
    """Grade lines of integer points under one grading, and their keys.

    A line of grade ``d`` is the set of points of grade ``d`` that agree
    on every coordinate but two: ``k0``, whose weight is the least nonzero
    one in absolute value, so that the grade gives it back, and the free
    coordinate ``k1``, the one that puts the given points on the fewest
    lines.  A one-coordinate grading has no free coordinate (``k1`` is
    None), and there every line is one point.  A point's key packs
    ``p[k1]`` as digit 0 and the coordinates but ``k0`` and ``k1`` as the
    next digits, in balanced base ``B``.  With ``M`` the largest
    ``|coordinate|`` of the given points, a sum of at most ``bound + 1`` of
    them has every coordinate strictly inside ``(-B/2, B/2)`` for ``B = 2 *
    (bound + 1) * M + 1``; there packing is injective and the key of a sum
    is the sum of the keys.  A line is keyed by its first point, so the sum
    of two line keys is the key of the first point of their product, and
    keys on one line differ by the distance along it.

    Each series is given as ``(points, q, numerators)``: coefficient
    ``numerators[i] / q`` at ``points[i]``, zeros allowed, as
    ``log_free_coefficients`` returns it.  ``layers`` holds ``{grade:
    _Layer}`` for each series in turn; a layer's denominator is ``q //
    gcd(q, its numerators)``, the least common multiple of its reduced
    denominators.
    """

    def __init__(self, grading, bound, *series):
        self.grading = grading = tuple(grading)
        points = [p for s in series for p in s[0]]
        columns = list(zip(*points)) or [()] * len(grading)
        grades = [0] * len(points)
        for a, column in zip(grading, columns):
            if a:
                grades = list(map(add, grades, map(mul, repeat(a), column)))
        weighted = [(abs(a), k) for k, a in enumerate(grading) if a]
        self.k0 = k0 = min(weighted)[1] if weighted else None
        free = [k for k in range(len(grading)) if k != k0]
        counts = {
            k1: len(set(zip(grades, *(columns[k] for k in free if k != k1)))) for k1 in free
        }
        self.k1 = min(counts, key=counts.get, default=None)
        self.rest = [k for k in free if k != self.k1]
        self.base = base = 2 * (bound + 1) * max(map(abs, chain(*columns)), default=0) + 1

        lines = [0] * len(points)
        for k in reversed(self.rest):
            lines = [line * base + x for line, x in zip(lines, columns[k])]
        frees = [0] * len(points) if self.k1 is None else columns[self.k1]
        self.layers = []
        start = 0
        for coords, q, numerators in series:
            found: dict[int, dict] = {}
            keys = zip(grades[start:], lines[start:], frees[start:])
            for (grade, line, x), n in zip(keys, numerators):
                if n:
                    found.setdefault(grade, {}).setdefault(line * base, {})[x] = n
            start += len(coords)
            layers = {}
            for grade, grade_lines in found.items():
                g = gcd(q, *(n for ns in grade_lines.values() for n in ns.values()))
                layer_lines = []
                for line, ns in grade_lines.items():
                    lo = min(ns)
                    slots = [0] * (max(ns) - lo + 1)
                    for x, n in ns.items():
                        slots[x - lo] = n // g
                    layer_lines.append((line + lo, slots))
                layers[grade] = _Layer(q // g, layer_lines)
            self.layers.append(layers)

    def collect(self, acc, width, den):
        """The ``_Layer`` of ``acc / den``, in lowest terms, or None if it is zero.

        ``acc`` maps keys to packed ints whose slots all lie in
        ``(-2**(width-1), 2**(width-1))``.  The ints of one line are
        merged, each shifted by its distance along the line, and read back
        by ``_unpack``: their slots may overlap.  One gcd divides out the
        layer's common factor, from the slots and, exactly, from the packed
        ints.
        """
        base = self.base
        half_base = base // 2
        found: dict[int, list] = {}
        for key in acc:
            found.setdefault((key + half_base) // base, []).append(key)
        lines, packed = [], []
        for keys in found.values():
            first = min(keys)
            n = sum(acc[key] << (width * (key - first)) for key in keys)
            slots = _unpack(n, width)
            if not slots:
                continue
            zeros = 0
            while not slots[zeros]:
                zeros += 1
            lines.append((first + zeros, slots[zeros:]))
            packed.append((first + zeros, n >> (width * zeros)))
        if not lines:
            return None
        g = gcd(den, *[x for _, slots in lines for x in slots])
        if g > 1:
            den //= g
            lines = [(key, [x // g for x in slots]) for key, slots in lines]
            packed = [(key, n // g) for key, n in packed]
        return _Layer(den, lines, width, packed)

    def series(self, layers):
        """Point-keyed ``Fraction`` series of ``{grade: _Layer}``."""
        grading, base, k0, k1 = self.grading, self.base, self.k0, self.k1
        half_base = base // 2
        w1 = 0 if k1 is None else grading[k1]
        out = {}
        point = [0] * len(grading)
        for grade, layer in layers.items():
            den = layer.den
            for key, slots in layer.lines:
                lo = (key + half_base) % base - half_base
                key = (key - lo) // base
                for k in self.rest:
                    digit = (key + half_base) % base - half_base
                    point[k] = digit
                    key = (key - digit) // base
                left = grade - sum(grading[k] * point[k] for k in self.rest)
                for x, n in enumerate(slots, lo):
                    if n:
                        if k1 is not None:
                            point[k1] = x
                        if k0 is not None:
                            point[k0] = (left - w1 * x) // grading[k0]
                        out[tuple(point)] = Fraction(n, den)
        return out


def _graded_recurrence(lines, first, step, bound, weight, divisor):
    """Layers ``r_d = (first_d + sum_{e>=1} weight(e) * step_e * r_(d-e)) / divisor(d)``.

    ``first`` and ``step`` map grades to ``_Layer``s of ``lines``, ``step``
    in grades >= 1; the recurrence is exact because the grade of a product
    is the sum of grades.  Returns ``{d: r_d}`` for ``d <= bound``, the
    zero layers left out.

    Each product of a line of ``step_e`` and a line of ``r_(d-e)`` is one
    int multiply (Kronecker substitution): packed ints multiply as
    polynomials in ``2**width`` whose coefficients are the slots of the
    product, added up by key.  A point is a one-slot line, and its product
    with another point is one multiply of two numerators.  The width makes
    reading the slots back exact by construction: every slot of ``r_d``
    before the division is at most ``sum_e |weight(e) * scale_e| *
    norm_1(step_e) * norm_inf(r_(d-e))`` plus the scaled
    ``norm_inf(first_d)``, each partial sum of it too, and the width is the
    least multiple of ``_SLOT_BITS`` above that bound and a sign.  It never
    shrinks, so a layer is repacked only when it grows.
    """
    layers = {}
    width = _SLOT_BITS
    for d in range(bound + 1):
        head = first.get(d)
        parts = [
            (weight(e), step[e], layers[d - e])
            for e in range(1, d + 1)
            if e in step and (d - e) in layers
        ]
        if head is None and not parts:
            continue
        dens = [a.den * b.den for _, a, b in parts]
        common = lcm(head.den if head else 1, *dens)
        parts = [(w * (common // den), a, b) for (w, a, b), den in zip(parts, dens)]
        top = common // head.den * head.norms()[1] if head else 0
        top += sum(abs(s) * a.norms()[0] * b.norms()[1] for s, a, b in parts)
        while top >> (width - 1):
            width += _SLOT_BITS
        acc = {}
        if head:
            scale = common // head.den
            for key, n in head.at(width):
                acc[key] = n * scale
        get = acc.get
        for scale, a, b in parts:
            b_items = b.at(width)
            for ka, na in a.at(width):
                na *= scale
                for kb, nb in b_items:
                    key = ka + kb
                    acc[key] = get(key, 0) + na * nb
        layer = lines.collect(acc, width, common * divisor(d))
        if layer is not None:
            layers[d] = layer
    return layers


def _quotient_layers(lines, g, f, bound):
    """Layers of ``g / (1 + f)``: ``r_d = g_d - sum_{e>=1} f_e * r_(d-e)``."""
    return _graded_recurrence(lines, g, f, bound, lambda e: -1, lambda d: 1)


def _exp_layers(lines, h, bound):
    """Layers of ``exp(h)`` from 1 at the zero point: ``d*E_d = sum_m m*h_m*E_(d-m)``.

    A point of ``E_d`` is a sum of points of ``h`` whose grades add up to
    ``d``.
    """
    one = {0: _Layer(1, [(0, [1])])}  # key 0 is the zero point
    return _graded_recurrence(lines, one, h, bound, lambda m: m, lambda d: d or 1)


def _exp_of_quotient(g, f, grading, bound):
    """``exp(g / (1 + f))`` up to the grade bound, for ``f`` and ``g`` in grades >= 1.

    ``f`` and ``g`` are ``(points, q, numerators)`` series (``_Lines``).
    One set of lines serves both steps, and the quotient's layers are the
    exponent's: a point of the quotient is a sum of points of ``f`` and
    ``g``, and so is a point of the exponential, at most ``bound`` of
    them in all, where the keys of ``_Lines`` add up.
    """
    lines = _Lines(grading, bound, f, g)
    sf, sg = lines.layers
    return lines.series(_exp_layers(lines, _quotient_layers(lines, sg, sf, bound), bound))


def mirror_map(
    spec: CISpec,
    index,
    grade_bound: int,
    radius: int = 2,
    max_points: int = DEFAULT_MAX_BOX_POINTS,
) -> MirrorMap:
    """Mirror-map series of one column, exact to the given grade bound.

    Verifies the unique-interior-point hypothesis and the minimality checks
    (one ``SupportBox`` of radius ``max(1, radius)``) and finds positive
    weights, in lattice coordinates (``positive_grading``), on the extreme
    rays of the cone that the support cones' extreme rays generate; the
    ambient grading is their one integer lift.  The ``F`` and ``G`` tails are
    the support points of ``v`` cut by the grade row
    ``grade_bound - weights . y >= 0`` (``y`` the lattice coordinates,
    ``_lattice_points``), so truncation at the bound is exact and no radius
    bounds them; each enumeration, like those of the minimality checks, is
    capped at ``max_points``.  The tails stay keyed by ``y``, with the integer
    numerators and the one denominator of ``log_free_coefficients``, and the
    quotient ``G / F`` and its exponential are computed grade by grade on
    one set of packed lines (``_exp_of_quotient``); the result is mapped to
    ambient points once.  The reported radius is the smallest power-of-two
    multiple of ``max(1, radius)`` whose box would enclose the tails, read
    off from the rays.
    """
    if isinstance(index, int):
        index = spec.column_of(index)
    i, j = index
    col = spec.column_index(i, j)
    if grade_bound < 0:
        raise ValueError("grade bound must be nonnegative")

    matrix, beta, v = build_system(spec)
    lattice = kernel_basis(matrix)
    width = lattice.ambient_dim

    if not has_unique_interior_point(spec.point_sets, spec.delta):
        raise DegenerateHull(
            "distinguished-point sum is not the unique interior lattice point "
            "of the Minkowski sum"
        )
    sweep = SupportBox(v, lattice, max(1, radius), max_points).sweep(
        [()] + [(column,) for column in range(width)]
    )
    for excluded, verdict in sweep.items():
        if not verdict.minimal:
            where = f" with column {excluded[0]} excluded" if excluded else ""
            raise MinimalityViolation(f"base vector fails minimality{where}: {verdict}")

    if lattice.rank == 0 or grade_bound == 0:
        return MirrorMap(
            index=(i, j),
            coefficients={(0,) * width: Fraction(1)},
            grading=(0,) * width,
            grade_bound=grade_bound,
            radius=max(1, radius),
        )

    # Every constant is 0 on a {0, -1} base vector: the rows are the cones'.
    # Column k's cone has every row but k's.
    rows = support_rows(v, lattice.basis)
    cones = {
        frozenset(a for k, (a, _) in rows.items() if k != column and any(a))
        for column in range(width)
    }
    rays = sorted(set().union(*(_cone_rays(cone, lattice.rank) for cone in cones)))
    # Every support point lies in its column's cone, which the rays generate;
    # an integer w positive on the extreme rays of their cone, read off its
    # dual, is >= 1 on every ray, so those fix the weights of the grade row.
    weights = positive_grading(_cone_rays(_cone_rays(rays, lattice.rank), lattice.rank))
    # The ambient grading the report prints.  The unique interior point makes
    # the a_j - a_(j0) positively span R^d, so a strictly positive relation
    # exists and the all-rows cone, inside every column's cone, is
    # full-dimensional.  So the rays span the lattice's rational span, the
    # saturation of their span is the lattice itself with the Hermite basis
    # lattice.basis, and this lift is the grading of the rays' own span.
    grading = solve_integer(lattice.basis, weights)

    needed = max(1, radius)
    max_coord = 0
    for ray in rays:
        grade = sum(w * x for w, x in zip(weights, ray))
        for x in ray:
            # ceil(grade_bound * |x| / grade): box coordinate reached by the
            # grade-D slice along this ray.
            max_coord = max(max_coord, -(-(grade_bound * abs(x)) // grade))
    while needed < max_coord:
        needed *= 2

    # On a {0, -1} base vector each support set is a cone; the grade row cuts it.
    # The tails stay in lattice coordinates, where the weights grade them.
    grade_row = [(tuple(-w for w in weights), grade_bound)]
    coords = {}
    for logs in ((), (col,)):
        rows = list(support_rows(v, lattice.basis, logs).values()) + grade_row
        coords[logs] = [x for x in _lattice_points(rows, lattice.rank, max_points) if any(x)]
        for x in coords[logs]:
            if sum(w * y for w, y in zip(weights, x)) < 1:
                raise AssertionError(f"support point {x} has nonpositive grade")
    points = {logs: lattice.points_from_coords(xs) for logs, xs in coords.items()}
    f_tail, g_tail = (
        (coords[logs], q, numerators)
        for logs, (q, numerators) in log_free_coefficients(v, points).items()
    )

    series = _exp_of_quotient(g_tail, f_tail, weights, grade_bound)
    return MirrorMap(
        index=(i, j),
        coefficients=dict(zip(lattice.points_from_coords(series), series.values())),
        grading=grading,
        grade_bound=grade_bound,
        radius=needed,
    )


def integrality_report(q: MirrorMap):
    """Non-integer coefficients up to the grade bound, sorted by grade."""
    items = q.coefficients.items()
    return sorted(((p, c) for p, c in items if c.denominator != 1), key=q.grade_key)


def _coefficient_lines(q: MirrorMap, items) -> list[str]:
    """One ``grade | point | value`` line per ``(point, coeff)`` of ``items``."""
    return [
        f"{q.grade_of(point)} | ({','.join(map(str, point))}) | "
        + ratio_text(coeff.numerator, coeff.denominator)
        for point, coeff in items
    ]


def render_integrality_report(q: MirrorMap, source_hash: str) -> str:
    """Text report: header lines, then OK or one line per violation."""
    lines = [
        "# mirror map integrality report",
        f"# source: {source_hash}",
        f"# index: {q.index[0]},{q.index[1]}",
        "# grading: (" + ",".join(str(c) for c in q.grading) + ")",
        f"# grade bound: {q.grade_bound}",
    ]
    lines += _coefficient_lines(q, integrality_report(q)) or ["OK"]
    return "\n".join(lines) + "\n"


def render_coefficients(q: MirrorMap) -> str:
    """All mirror-map coefficients, one ``grade | point | value`` line each."""
    lines = _coefficient_lines(q, q.sorted_items())
    return "\n".join(lines) + "\n" if lines else ""
