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
(``polytope._lattice_points``); the ambient grading a report prints is
their one integer lift through the basis.  The tails of F and G are read
from the support cones themselves: cut by the grade row, each cone is a
polytope whose lattice points the same engine enumerates exactly
(``support.support_points``), with no radius bounding it.  The quotient
``G / F`` (one graded division, ``graded_quotient``) and the exponential
proceed grade by grade, so truncation at a grade bound is exact.  Both
run on integer grade layers: one denominator per grade and an integer
numerator per point, with each point packed into one integer key whose
sums are the keys of the summed points.  ``graded_mul`` and
``graded_log`` are not on this path; they keep plain ``Fraction`` slices
(``_slice_mul``) and serve as its independent checks.
``integrality_report`` lists the non-integer coefficients, if any, up
to the bound.

Indices are 0-based throughout: column ``(i, j)`` is member ``j`` of set
``i``, and ``j = 0`` is the distinguished point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import DegenerateHull, MinimalityViolation, NoPositiveFunctional
from .lattice import IntMatrix, kernel_basis
from .linalg import solve_integer
from .logseries import log_free_coefficients
from .polytope import (
    DEFAULT_MAX_BOX_POINTS,
    _cone_rays,
    _lattice_points,
    has_unique_interior_point,
)
from .rationals import to_int
from .support import SupportBox, support_points, support_rows
from .values import Value

DEFAULT_GRADING_BOUND = 8


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


def _graded(mapping, grading):
    """Grade slices ``{grade: {point: coeff}}`` of a point-keyed series."""
    slices: dict[int, dict] = {}
    for point, coeff in mapping.items():
        slices.setdefault(sum(g * x for g, x in zip(grading, point)), {})[point] = coeff
    return slices


def _slice_mul(a_slice, b_slice, out):
    for p1, c1 in a_slice.items():
        for p2, c2 in b_slice.items():
            key = tuple(x + y for x, y in zip(p1, p2))
            out[key] = out.get(key, Fraction(0)) + c1 * c2


def graded_mul(a, b, grading, bound):
    """Product of two point-keyed series, truncated at the grade bound."""
    sa, sb = _graded(a, grading), _graded(b, grading)
    out: dict = {}
    for ga, a_slice in sa.items():
        for gb, b_slice in sb.items():
            if ga + gb <= bound:
                _slice_mul(a_slice, b_slice, out)
    return {p: c for p, c in out.items() if c}


def _pack_base(points, bound):
    """Base ``B`` of the packed keys of sums of at most ``bound + 1`` points.

    With ``M`` the largest ``|coordinate|`` of the given points, every
    coordinate of such a sum lies in ``[-(bound+1)*M, (bound+1)*M]``,
    strictly inside ``(-B/2, B/2)`` for ``B = 2*(bound+1)*M + 1``.
    """
    return 2 * (bound + 1) * max((abs(x) for p in points for x in p), default=0) + 1


def _int_layer(slice_, base):
    """Integer layer ``(den, {packed point: numerator})`` of one grade slice.

    ``den`` is the LCM of the slice's denominators, and a point packs to
    the key ``sum_k p_k * base**k``.  The base is odd, and every integer
    has exactly one expansion in the balanced digits ``-(base-1)/2 ..
    (base-1)/2``; so on points whose coordinates are such digits the
    (linear) packing is injective, the key of a sum of points is the sum
    of their keys, and ``_from_int_layers`` reads the digits back.
    """
    den = lcm(*(c.denominator for c in slice_.values()))
    layer = {}
    for point, coeff in slice_.items():
        key = 0
        for x in reversed(point):
            key = key * base + x
        layer[key] = coeff.numerator * (den // coeff.denominator)
    return den, layer


def _layer_sum(first, products, divisor=1):
    """``(first + sum w * a * b) / divisor`` for integer layers, in lowest terms.

    ``first`` is an integer layer or None and ``products`` lists
    ``(w, a, b)`` with an integer weight ``w`` and integer layers ``a``,
    ``b``.  Every term is brought over the LCM ``L`` of the denominators
    ``den_a * den_b`` (and ``first``'s), by scaling each left factor once
    by ``w * L / (den_a * den_b)``; the inner loop is then integer adds
    and multiply-adds.  One gcd divides out the layer's common factor.
    Returns None when every numerator cancels.
    """
    dens = [a[0] * b[0] for _, a, b in products]
    if first is not None:
        dens.append(first[0])
    if not dens:
        return None
    common = lcm(*dens)
    acc = {} if first is None else {k: n * (common // first[0]) for k, n in first[1].items()}
    get = acc.get
    for (weight, (_, a), (_, b)), den in zip(products, dens):
        scale = weight * (common // den)
        b_items = b.items()
        for ka, na in a.items():
            na *= scale
            for kb, nb in b_items:
                key = ka + kb
                acc[key] = get(key, 0) + na * nb
    nums = {k: n for k, n in acc.items() if n}
    if not nums:
        return None
    den = common * divisor
    g = gcd(den, *nums.values())
    return den // g, {k: n // g for k, n in nums.items()}


def _from_int_layers(layers, base, width):
    """Point-keyed ``Fraction`` series of integer layers (balanced base-``base`` digits)."""
    half = base // 2
    out = {}
    for den, nums in layers.values():
        for key, num in nums.items():
            point = []
            for _ in range(width):
                digit = (key + half) % base - half
                point.append(digit)
                key = (key - digit) // base
            out[tuple(point)] = Fraction(num, den)
    return out


def _graded_recurrence(first, step, bound, weight, divisor):
    """Layers ``r_d = (first_d + sum_{e>=1} weight(e) * step_e * r_(d-e)) / divisor(d)``.

    ``first`` and ``step`` map grades to point-keyed ``Fraction`` slices,
    ``step`` in grades >= 1 and ``first`` nonempty; the recurrence is exact
    because the grade of a product is the sum of grades.  Returns the
    point-keyed series of the layers ``r_0 .. r_bound``.

    Each layer ``r_d`` is one denominator and an integer numerator per
    point (``_layer_sum``), keyed by the packed point (``_int_layer``).
    A point of ``r_d`` is a sum of one point of ``first`` and at most
    ``bound`` points of ``step``, so its coordinates lie strictly inside
    ``(-B/2, B/2)`` for the base ``B`` of ``_pack_base``, where packing
    is injective: adding two keys gives the key of the sum.
    """
    points = [p for slices in (step, first) for slice_ in slices.values() for p in slice_]
    base = _pack_base(points, bound)
    int_first = {d: _int_layer(slice_, base) for d, slice_ in first.items()}
    int_step = {e: _int_layer(slice_, base) for e, slice_ in step.items()}
    layers: dict[int, tuple] = {}
    for d in range(bound + 1):
        products = [
            (weight(e), int_step[e], layers[d - e])
            for e in range(1, d + 1)
            if e in int_step and (d - e) in layers
        ]
        layer = _layer_sum(int_first.get(d), products, divisor(d))
        if layer is not None:
            layers[d] = layer
    return _from_int_layers(layers, base, len(points[0]))


def graded_quotient(g, f, grading, bound):
    """Quotient ``g / (1 + f)`` up to the grade bound.

    ``f`` has grades >= 1 and ``g`` grades >= 0.  Grade by grade,
    ``r_d = g_d - sum_{e>=1} f_e * r_(d-e)`` (``_graded_recurrence``).
    """
    sf, sg = _graded(f, grading), _graded(g, grading)
    if any(e < 1 for e in sf):
        raise ValueError("f must be supported in grades >= 1")
    if any(d < 0 for d in sg):
        raise ValueError("g must be supported in grades >= 0")
    if not g:
        return {}
    return _graded_recurrence(sg, sf, bound, lambda e: -1, lambda d: 1)


def graded_exp(h, grading, bound, origin):
    """Exponential of a series with grades >= 1, up to the bound.

    Uses the grade-derivative recursion ``d*E_d = sum m*H_m E_(d-m)``
    from ``E_0 = 1`` at ``origin`` (``_graded_recurrence``).
    """
    sh = _graded(h, grading)
    if any(g < 1 for g in sh):
        raise ValueError("h must be supported in grades >= 1")
    return _graded_recurrence({0: {origin: Fraction(1)}}, sh, bound, lambda m: m, lambda d: d or 1)


def graded_log(e, grading, bound, origin):
    """Logarithm of a series with constant term 1, up to the bound."""
    se = _graded(e, grading)
    if se.get(0) != {origin: Fraction(1)}:
        raise ValueError("series must have constant term exactly 1")
    log: dict[int, dict] = {}
    for d in range(1, bound + 1):
        acc = dict(se.get(d, {}))
        acc = {p: c * d for p, c in acc.items()}
        for m in range(1, d):
            if m in log and (d - m) in se:
                scaled = {p: -c * m for p, c in log[m].items()}
                _slice_mul(scaled, se[d - m], acc)
        layer = {p: c / d for p, c in acc.items() if c}
        if layer:
            log[d] = layer
    return {p: c for layer in log.values() for p, c in layer.items()}


def mirror_map(
    spec: CISpec,
    index,
    grade_bound: int,
    radius: int = 2,
    max_points: int = DEFAULT_MAX_BOX_POINTS,
) -> MirrorMap:
    """Mirror-map series of one column, exact to the given grade bound.

    Verifies the unique-interior-point hypothesis and the minimality
    checks (one ``SupportBox`` of radius ``max(1, radius)``) and finds
    positive weights on the extreme rays of the support cones, in lattice
    coordinates (``positive_grading``); the ambient grading is their one
    integer lift.  The ``F`` and ``G`` tails are the support points of
    ``v`` cut by the grade row ``grade_bound - weights . y >= 0``
    (``support_points``, ``y`` the lattice coordinates), so truncation at
    the bound is exact and no radius bounds them; each enumeration, like
    those of the minimality checks, is capped at ``max_points``.  The quotient ``G / F`` and its exponential are then
    computed grade by grade.  The reported radius is the smallest
    power-of-two multiple of ``max(1, radius)`` whose box would enclose
    the tails, read off from the rays.
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
    # Every support point lies in its column's cone, which the rays generate,
    # so the rays alone fix the weights of the grade row.
    weights = positive_grading(rays)
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
    grade_row = [(tuple(-w for w in weights), grade_bound)]
    tails = []
    for logs in ((), (col,)):
        support = support_points(v, lattice, logs, grade_row, max_points)
        points = [point for point in support if any(point)]
        for point in points:
            if sum(g * x for g, x in zip(grading, point)) < 1:
                raise AssertionError(f"support point {point} has nonpositive grade")
        coeffs = log_free_coefficients(v, points, logs)
        tails.append({point: coeff for point, coeff in zip(points, coeffs) if coeff})
    f_tail, g_tail = tails

    ratio = graded_quotient(g_tail, f_tail, grading, grade_bound)
    series = graded_exp(ratio, grading, grade_bound, (0,) * width)
    return MirrorMap(
        index=(i, j),
        coefficients=series,
        grading=grading,
        grade_bound=grade_bound,
        radius=needed,
    )


def integrality_report(q: MirrorMap):
    """Non-integer coefficients up to the grade bound, sorted by grade."""
    items = q.coefficients.items()
    return sorted(((p, c) for p, c in items if c.denominator != 1), key=q.grade_key)


def render_integrality_report(q: MirrorMap, source_hash: str) -> str:
    """Text report: header lines, then OK or one line per violation."""
    lines = [
        "# mirror map integrality report",
        f"# source: {source_hash}",
        f"# index: {q.index[0]},{q.index[1]}",
        "# grading: (" + ",".join(str(c) for c in q.grading) + ")",
        f"# grade bound: {q.grade_bound}",
    ]
    violations = integrality_report(q)
    if not violations:
        lines.append("OK")
    else:
        for point, coeff in violations:
            grade = q.grade_of(point)
            lines.append(f"{grade} | ({','.join(str(x) for x in point)}) | {coeff}")
    return "\n".join(lines) + "\n"


def render_coefficients(q: MirrorMap) -> str:
    """All mirror-map coefficients, one ``grade | point | value`` line each."""
    lines = []
    for point, coeff in q.sorted_items():
        grade = q.grade_of(point)
        lines.append(f"{grade} | ({','.join(str(x) for x in point)}) | {coeff}")
    return "\n".join(lines) + "\n" if lines else ""
