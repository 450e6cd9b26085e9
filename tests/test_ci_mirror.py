"""Lifted systems, gradings, graded arithmetic, mirror maps."""

import math
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gkzlog import (
    CISpec,
    NoPositiveFunctional,
    ResourceLimit,
    build_system,
    build_tails,
    integrality_report,
    kernel_basis,
    mirror_map,
    positive_grading,
)
from gkzlog import ci_mirror
from gkzlog.ci_mirror import _pack, _unpack, render_coefficients, render_integrality_report
from gkzlog import polytope
from gkzlog.cli import load_problem
from gkzlog.lattice import _normalized
from gkzlog.linalg import hnf_rows, kernel_rows, solve_integer
from gkzlog.polytope import _cone_rays
from gkzlog.support import SupportBox, support_rows
from tests.conftest import (
    FIXTURES,
    _reference_cone_rays,
    point_of,
    projective_ci_sets,
    shell_grading,
)
from tests.oracles import graded_log, graded_mul, reference_exp, reference_quotient

# the 10 lattice points of conv{(-1,-1), (2,-1), (-1,2)}, origin first: a
# reflexive triangle whose one-set CI has a rank-7 relation lattice
RANK7_TRIANGLE = (
    ((0, 0), (-1, -1), (0, -1), (1, -1), (2, -1), (-1, 0), (1, 0), (-1, 1), (0, 1), (-1, 2)),
)


def column_cones(spec):
    """The relation lattice, and the rows of each column's support cone in column order."""
    matrix, beta, v = build_system(spec)
    lattice = kernel_basis(matrix)
    cones = []
    for column in range(lattice.ambient_dim):
        rows = support_rows(v, lattice.basis, (column,)).values()
        assert all(c == 0 for _, c in rows)  # v lies in {0, -1}^N: the rows are a cone's
        cones.append(sorted({a for a, _ in rows if any(a)}))
    return lattice, cones


def support_cone_rays(spec):
    """The relation lattice, and the extreme rays of every column's support cone.

    The rays are in the lattice's coordinates, sorted, and come from the
    cofactor subset search, not from ``_cone_rays``.
    """
    lattice, cones = column_cones(spec)
    rays = set().union(*(_reference_cone_rays(cone, lattice.rank) for cone in cones))
    return lattice, sorted(rays)


def fact(n):
    return math.factorial(n)


def harmonic(n):
    return sum(F(1, i) for i in range(1, n + 1))


class TestBuildSystem:
    def test_two_triangles_matrix(self, two_triangles_spec):
        matrix, beta, v = build_system(two_triangles_spec)
        assert matrix.rows == (
            (0, 1, 0, -1, 0, 0, 0),
            (0, 0, 1, -1, 0, 0, 0),
            (0, 0, 0, 0, 1, 0, -1),
            (0, 0, 0, 0, 0, 1, -1),
            (1, 1, 1, 1, 1, 1, 1),
        )
        assert beta == (F(0), F(0), F(0), F(0), F(-1))
        assert v == (F(-1),) + (F(0),) * 6
        assert matrix.mul_vec(v) == beta

    def test_quadrilateral_matrix(self, quadrilateral_spec):
        matrix, beta, v = build_system(quadrilateral_spec)
        assert matrix.rows == ((0, 1, -1, 1, 1), (0, 1, 0, -1, 0), (1, 1, 1, 1, 1))
        assert beta == (F(0), F(0), F(-1))
        assert v == (F(-1), F(0), F(0), F(0), F(0))

    def test_two_equation_toy(self):
        spec = CISpec.from_lists([[(0,), (1,)], [(0,), (2,)]])
        matrix, beta, v = build_system(spec)
        assert matrix.rows == ((0, 1, 0, 2), (1, 1, 0, 0), (0, 0, 1, 1))
        assert beta == (F(0), F(-1), F(-1))
        assert v == (F(-1), F(0), F(-1), F(0))
        assert spec.delta == (0,)
        assert spec.column_index(1, 1) == 3
        assert spec.column_of(2) == (1, 0)


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


class TestPositiveGrading:
    def test_two_triangles_generators(self, two_triangles_spec):
        lattice, rays = support_cone_rays(two_triangles_spec)
        weights = positive_grading(rays)
        assert len(weights) == lattice.rank
        assert all(dot(weights, ray) >= 1 for ray in rays)

    def test_not_pointed(self):
        with pytest.raises(NoPositiveFunctional, match=r"is >= 1 on all 2 rays$"):
            positive_grading([(1, 0), (-1, 0)])

    def test_quadrilateral_generators(self, quadrilateral_spec):
        lattice, rays = support_cone_rays(quadrilateral_spec)
        weights = positive_grading(rays)
        assert len(weights) == lattice.rank
        assert all(dot(weights, ray) >= 1 for ray in rays)

    def test_searched_values_survive_the_lift(self, quadrilateral_spec):
        # the least max-norm first, then the lexicographically first weights
        assert positive_grading([(1, -1), (1, 1)]) == (1, 0)
        assert positive_grading([(1, 0, 1), (0, 1, 1)]) == (0, 0, 1)
        # rays with a common factor keep their values: weights are never rescaled
        assert positive_grading([(2, 0), (0, 2)]) == (1, 1)
        # the ambient grading of a mirror map takes the searched values on
        # every ray point, so grades are never rescaled by the lift
        lattice, rays = support_cone_rays(quadrilateral_spec)
        grading = mirror_map(quadrilateral_spec, 0, 1).grading
        weights = positive_grading(rays)
        assert [dot(grading, point) for point in lattice.points_from_coords(rays)] == [
            dot(weights, ray) for ray in rays
        ]

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda width: st.lists(st.tuples(*[st.integers(-3, 3)] * width), max_size=6)
        )
    )
    def test_matches_the_shell_search(self, points):
        # the least max-norm first, then the lexicographically first functional,
        # or no functional at all, as the search over growing shells found it;
        # on a full-rank point set the shells run over the identity basis, so
        # their functional is in the points' own coordinates
        points = [p for p in points if any(p)]
        assume(points and not kernel_rows(points, len(points[0])))
        try:
            want = shell_grading(points)
        except NoPositiveFunctional:
            with pytest.raises(NoPositiveFunctional):
                positive_grading(points)
            return
        assert positive_grading(points) == want

    def test_rank7_triangle_query_rows_stay_bounded(self, monkeypatch):
        # With Kohler's rule the largest elimination level of the grading query
        # on the triangle's 66 rays combines 13,137 rows.  Without it the fifth
        # level passes 25,000 (and the sixth 13 million), where this guard stops.
        levels = []

        def guarded(rows):
            if len(rows) > 20_000:
                raise AssertionError(f"an elimination level of {len(rows)} rows")
            levels.append(len(rows))
            return _normalized(rows)

        lattice, rays = support_cone_rays(CISpec.from_lists(RANK7_TRIANGLE))
        assert len(rays) == 66
        monkeypatch.setattr("gkzlog.lattice._normalized", guarded)
        grading = solve_integer(lattice.basis, positive_grading(rays))
        assert grading == (-3, 3, 0, 0, 3, 1, 1, 0, 0, 0)
        assert len(levels) == 8  # the input and one level per eliminated coordinate


CI_SPECS = {
    **{
        name: load_problem(str(FIXTURES / f"{name}.json")).spec
        for name in ("ci_two_triangles", "ci_quadrilateral", "quintic", "hexagon")
    },
    "rank7_triangle": CISpec.from_lists(RANK7_TRIANGLE),
}


def union_cone_extreme_rays(rays, rank):
    """The extreme rays of the cone the rays generate, read off its dual, as ``mirror_map`` does."""
    return _cone_rays(_cone_rays(rays, rank), rank)


@pytest.mark.parametrize("name", sorted(CI_SPECS))
def test_the_union_cone_extreme_rays_grade_as_all_rays_do(name, monkeypatch):
    spec = CI_SPECS[name]
    lattice, rays = support_cone_rays(spec)
    extreme = union_cone_extreme_rays(rays, lattice.rank)
    assert set(extreme) <= set(rays)
    assert positive_grading(extreme) == positive_grading(rays)
    # the grading system of mirror_map holds one row, w . ray >= 1, per extreme ray
    systems = []
    points = ci_mirror._lattice_points
    record = lambda rows, *args: systems.append(rows) or points(rows, *args)
    monkeypatch.setattr(ci_mirror, "_lattice_points", record)
    mirror_map(spec, 1, 1)
    assert sum(c == -1 for _, c in systems[0]) == len(extreme)
    if name == "hexagon":
        assert (len(rays), len(extreme)) == (11, 6)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda rank: st.tuples(
            st.just(rank),
            st.lists(
                st.lists(st.tuples(*[st.integers(-2, 2)] * rank), min_size=rank, max_size=rank + 2),
                min_size=1,
                max_size=3,
            ),
        )
    )
)
def test_the_union_cone_extreme_rays_grade_as_all_rays_do_on_random_cones(drawn):
    # the rays of one to three random pointed cones, spanning the lattice as
    # the support cones of a mirror map do
    rank, cones = drawn
    rays = set()
    for rows in cones:
        if len(hnf_rows(rows)) == rank:
            rays.update(_reference_cone_rays(rows, rank))
    rays = sorted(rays)
    assume(rays and len(hnf_rows(rays)) == rank)
    try:
        want = positive_grading(rays)
    except NoPositiveFunctional:
        with pytest.raises(NoPositiveFunctional):
            positive_grading(union_cone_extreme_rays(rays, rank))
        return
    extreme = union_cone_extreme_rays(rays, rank)
    assert set(extreme) <= set(rays)
    assert positive_grading(extreme) == want


def as_tail(series):
    """``(points, q, numerators)`` of a point-keyed ``Fraction`` series, as ``_Lines`` reads it."""
    q = math.lcm(*(c.denominator for c in series.values()))
    return list(series), q, [c.numerator * (q // c.denominator) for c in series.values()]


def graded_quotient(g, f, grading, bound):
    """``g / (1 + f)`` on packed lines, for ``f`` in grades >= 1 and ``g`` in grades >= 0."""
    lines = ci_mirror._Lines(grading, as_tail(f), as_tail(g))
    sf, sg = lines.layers
    return lines.series(ci_mirror._quotient_layers(lines, sg, sf, bound))


def graded_exp(h, grading, bound):
    """``exp(h)`` on packed lines from 1 at the zero point, for ``h`` in grades >= 1."""
    lines = ci_mirror._Lines(grading, as_tail(h))
    return lines.series(ci_mirror._exp_layers(lines, lines.layers[0], bound))


class TestGradedArithmetic:
    GRADING = (1, 1)
    ORIGIN = (0, 0)

    def _sample(self):
        return {
            (1, 0): F(3),
            (0, 1): F(-1, 2),
            (1, 1): F(5, 7),
            (2, 1): F(-2),
        }

    def test_inverse_identity(self):
        # the quotient of 1 is the inverse of 1 + f
        f = self._sample()
        inv = graded_quotient({self.ORIGIN: F(1)}, f, self.GRADING, 6)
        one_plus = dict(f)
        one_plus[self.ORIGIN] = F(1)
        product = graded_mul(one_plus, inv, self.GRADING, 6)
        assert product == {self.ORIGIN: F(1)}

    def test_exp_log_roundtrip(self):
        h = self._sample()
        e = graded_exp(h, self.GRADING, 7)
        assert e[self.ORIGIN] == 1
        back = graded_log(e, self.GRADING, 7, self.ORIGIN)
        assert back == h

    def test_grades_bounded(self):
        f = self._sample()
        e = graded_exp(f, self.GRADING, 5)
        assert all(sum(p) <= 5 for p in e)


GRADED_POINT = st.tuples(st.integers(-2, 4), st.integers(0, 4))
GRADED_COEFF = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@settings(max_examples=150, deadline=None)
@given(
    f=st.dictionaries(GRADED_POINT, GRADED_COEFF, max_size=6),
    g=st.dictionaries(GRADED_POINT, GRADED_COEFF, max_size=6),
    bound=st.integers(0, 7),
)
def test_quotient_times_one_plus_f_is_g(f, g, bound):
    # grading (1, 2) is positive on the points of grade >= 1 drawn here
    grading = (1, 2)
    grade = lambda p: p[0] + 2 * p[1]
    f = {p: c for p, c in f.items() if grade(p) >= 1}
    g = {p: c for p, c in g.items() if grade(p) >= 0}
    quotient = graded_quotient(g, f, grading, bound)
    assert all(0 <= grade(p) <= bound and c for p, c in quotient.items())
    one_plus_f = dict(f)
    one_plus_f[(0, 0)] = F(1)
    want = {p: c for p, c in g.items() if grade(p) <= bound and c}
    assert graded_mul(one_plus_f, quotient, grading, bound) == want


# Grading (1, 1) on points with negative coordinates: grade 1 is reached by
# points like (M, 1 - M), whose multiples run far from the origin.
FLAT = (1, 1)
flat_grade = lambda p: p[0] + p[1]
SIGNED_POINT = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
WIDE_COEFF = st.fractions(min_value=-20, max_value=20, max_denominator=30)


def _with_grades(series, lowest):
    return {p: c for p, c in series.items() if flat_grade(p) >= lowest}


@settings(max_examples=200, deadline=None)
@given(
    f=st.dictionaries(SIGNED_POINT, WIDE_COEFF, max_size=6),
    g=st.dictionaries(SIGNED_POINT, WIDE_COEFF, max_size=6),
    bound=st.integers(0, 7),
)
def test_quotient_equals_fraction_reference(f, g, bound):
    f, g = _with_grades(f, 1), _with_grades(g, 0)
    assert graded_quotient(g, f, FLAT, bound) == reference_quotient(g, f, FLAT, bound)


@settings(max_examples=200, deadline=None)
@given(
    h=st.dictionaries(SIGNED_POINT, WIDE_COEFF, max_size=6),
    bound=st.integers(0, 7),
)
def test_exp_equals_fraction_reference(h, bound):
    h = _with_grades(h, 1)
    origin = (0, 0)
    assert graded_exp(h, FLAT, bound) == reference_exp(h, FLAT, bound, origin)


@settings(max_examples=100, deadline=None)
@given(
    top=st.integers(1, 6),
    coeffs=st.lists(WIDE_COEFF.filter(bool), min_size=3, max_size=3),
    extra=st.dictionaries(SIGNED_POINT, WIDE_COEFF, max_size=4),
    bound=st.integers(0, 6),
)
def test_points_at_the_packing_bound(top, coeffs, extra, bound):
    # (top, 1 - top) has grade 1 and the largest |coordinate| of the inputs,
    # so r_bound holds (top, -top) + bound * (top, 1 - top), whose first
    # coordinate (bound + 1) * top is the farthest any output point reaches:
    # line keys summed over bound products still locate it exactly.
    extra = {p: c for p, c in extra.items() if max(map(abs, p)) <= top}
    step, start = (top, 1 - top), (top, -top)
    f = {**_with_grades(extra, 1), step: coeffs[0]}
    g = {**_with_grades(extra, 0), start: coeffs[1]}
    quotient = graded_quotient(g, f, FLAT, bound)
    assert quotient == reference_quotient(g, f, FLAT, bound)
    far = (start[0] + bound * step[0], start[1] + bound * step[1])
    if not extra:
        assert quotient[far] == coeffs[1] * (-coeffs[0]) ** bound
    h = {**_with_grades(extra, 1), step: coeffs[2]}
    assert graded_exp(h, FLAT, bound) == reference_exp(h, FLAT, bound, (0, 0))


@pytest.mark.parametrize("bound", [0, 3])
def test_empty_series(bound):
    sample = {(1, 0): F(3), (2, -1): F(-1, 2)}
    origin = (0, 0)
    for g, f in (({}, {}), ({}, sample), ({origin: F(2)}, {})):
        assert graded_quotient(g, f, FLAT, bound) == reference_quotient(g, f, FLAT, bound)
    assert graded_quotient({}, sample, FLAT, bound) == {}
    assert graded_exp({}, FLAT, bound) == {origin: F(1)}


@settings(max_examples=150, deadline=None)
@given(
    h=st.dictionaries(SIGNED_POINT, WIDE_COEFF, max_size=6),
    bound=st.integers(0, 7),
)
def test_log_of_exp_is_identity(h, bound):
    h = _with_grades(h, 1)
    origin = (0, 0)
    want = {p: c for p, c in h.items() if flat_grade(p) <= bound and c}
    assert graded_log(graded_exp(h, FLAT, bound), FLAT, bound, origin) == want


@settings(max_examples=200, deadline=None)
@given(
    width=st.integers(2, 130),
    data=st.data(),
)
def test_unpack_inverts_pack_inside_the_balanced_range(width, data):
    # every slot strictly inside (-2**(width-1), 2**(width-1)), the extremes included
    edge = 2 ** (width - 1) - 1
    slot = st.sampled_from([edge, -edge, 1, -1, 0]) | st.integers(-edge, edge)
    slots = data.draw(st.lists(slot, max_size=8))
    while slots and not slots[-1]:
        slots.pop()
    assert _unpack(_pack(slots, width), width) == slots


@st.composite
def graded_inputs(draw):
    """A grading of rank 1-4, ``f`` and ``h`` in its grades >= 1 and ``g`` in grades >= 0.

    Each coordinate ranges over ``[-span, span]``: coordinates with span 0
    are fixed, so the points crowd onto few lines along the others (dense
    lines), while wide spans scatter them (one-point lines).  Coefficients
    have both signs.
    """
    rank = draw(st.integers(1, 4))
    grading = draw(st.tuples(*[st.integers(-2, 2)] * rank).filter(any))
    spans = draw(st.tuples(*[st.integers(0, 4)] * rank))
    point = st.tuples(*[st.integers(-s, s) for s in spans])
    size = draw(st.integers(0, 30))
    series = [draw(st.dictionaries(point, WIDE_COEFF, max_size=size)) for _ in range(3)]
    f, g, h = (
        {p: c for p, c in s.items() if dot(grading, p) >= low}
        for s, low in zip(series, (1, 0, 1))
    )
    return grading, f, g, h


@settings(max_examples=150, deadline=None)
@given(inputs=graded_inputs(), bound=st.integers(0, 6))
def test_packed_lines_equal_the_fraction_oracle(inputs, bound):
    grading, f, g, h = inputs
    zero = (0,) * len(grading)
    assert graded_quotient(g, f, grading, bound) == reference_quotient(g, f, grading, bound)
    assert graded_exp(h, grading, bound) == reference_exp(h, grading, bound, zero)
    g = {p: c for p, c in g.items() if dot(grading, p) >= 1}
    ratio = reference_quotient(g, f, grading, bound)
    want = reference_exp(ratio, grading, bound, zero)
    assert ci_mirror._exp_of_quotient(as_tail(g), as_tail(f), grading, bound) == want
    # only a one-coordinate grading leaves no free coordinate to pack along
    lines = ci_mirror._Lines(grading, as_tail(f), as_tail(g))
    assert (lines.k1 is None) == (len(grading) == 1)


@settings(max_examples=80, deadline=None)
@given(
    bits=st.sampled_from([31, 32, 63, 64, 95, 127, 128]),
    shift=st.integers(-1, 1),
    log_length=st.integers(0, 3),
    log_v=st.integers(0, 3),
    sign=st.sampled_from([1, -1]),
    extra=st.integers(0, 3),
    bound=st.integers(1, 3),
)
def test_a_slot_at_the_exact_bound_reads_back(bits, shift, log_length, log_v, sign, extra, bound):
    # f_1 is a line of L points with coefficient -sign*c and g = r_0 a line of
    # L + extra points with coefficient v, L and v powers of two.  The slot at
    # (1, L - 1) of r_1 = -f_1 * r_0 sums all L products: it is sign * L*c*v,
    # exactly norm_1(f_1) * norm_inf(r_0), the bound the width must hold,
    # and L*c*v = 2**bits + shift*L*v sits at a power-of-two edge.
    length, v = 2**log_length, 2**log_v
    c = 2**bits // (length * v) + shift
    f = {(1, y): F(-sign * c) for y in range(length)}
    g = {(0, y): F(v) for y in range(length + extra)}
    quotient = graded_quotient(g, f, (1, 0), bound)
    assert quotient[(1, length - 1)] == sign * length * c * v
    assert quotient == reference_quotient(g, f, (1, 0), bound)


@settings(max_examples=40, deadline=None)
@given(
    bits=st.sampled_from([31, 32, 63, 64, 95]),
    shift=st.integers(-1, 1),
    signs=st.lists(st.sampled_from([1, -1]), min_size=2, max_size=6),
    bound=st.integers(0, 2),
)
def test_a_first_layer_at_the_exact_bound_reads_back(bits, shift, signs, bound):
    # with f empty the quotient is g itself: every slot of r_0 is a scaled
    # numerator of g_0 alone, at a power-of-two edge of the width
    g = {(0, y): F(s * (2**bits + shift)) for y, s in enumerate(signs)}
    assert graded_quotient(g, {}, (1, 0), bound) == g


def mirror_tails(spec, index, bound, **kwargs):
    """The lattice weights and the ``f`` and ``g`` tails ``mirror_map`` passes to the graded step."""
    tails = {}

    def spy(g, f, grading, bound):
        tails.update(f=f, g=g, grading=grading)
        return exp_of_quotient(g, f, grading, bound)

    exp_of_quotient = ci_mirror._exp_of_quotient
    with mock.patch.object(ci_mirror, "_exp_of_quotient", spy):
        mirror_map(spec, index, bound, **kwargs)
    return tails["grading"], tails["f"], tails["g"]


def test_two_triangles_tails_lie_on_one_line_per_grade(two_triangles_spec):
    # the bench workload's lattice tails: weights (-1, 0), so every grade
    # layer of F and G is one dense line along the second coordinate
    grading, f, g = mirror_tails(two_triangles_spec, 2, 12, radius=4)
    lines = ci_mirror._Lines(grading, f, g)
    assert grading == (-1, 0) and (lines.k0, lines.k1) == (0, 1)
    for layers in lines.layers:
        assert all(len(layer.lines) == 1 for layer in layers.values())
        longer = [layer for layer in layers.values() if len(layer.lines[0][1]) > 1]
        assert len(longer) >= len(layers) - 1


@pytest.mark.parametrize("column", range(1, 7))
def test_hexagon_tails_pack_along_a_free_coordinate(column):
    # the rank-4 tails of the hexagon-mirror8 workload: a free coordinate
    # always exists past rank 1, so the lines run along one and some hold
    # more than one point
    spec = load_problem(str(FIXTURES / "hexagon.json")).spec
    grading, f, g = mirror_tails(spec, column, 8, radius=4)
    lines = ci_mirror._Lines(grading, f, g)
    assert len(grading) == 4 and lines.k1 is not None
    assert len({lines.k0, lines.k1, *lines.rest}) == 4
    layers = [layer for layers in lines.layers for layer in layers.values()]
    slots = [len(slots) for layer in layers for _, slots in layer.lines]
    assert max(slots) > 1


def line_tails(case, spec):
    """``(grading, tails)`` of one ``_Lines`` case: workload tails or a one-coordinate grading."""
    if case == "two-triangles":
        grading, f, g = mirror_tails(spec, 2, 6, radius=3)
        return grading, [f, g]
    if case == "hexagon":
        spec = load_problem(str(FIXTURES / "hexagon.json")).spec
        grading, f, g = mirror_tails(spec, 1, 6, radius=3)
        return grading, [f, g]
    return (2,), [as_tail({(1,): F(3, 2), (3,): F(-1), (4,): F(0)})]


@pytest.mark.parametrize("case", ["two-triangles", "hexagon", "one-coordinate"])
def test_line_keys_are_first_point_coordinates_and_decode_back(case, two_triangles_spec):
    # a line's key is its first point's coordinates but k0 and k1, then
    # its k1 coordinate (0 without one); series() reads every nonzero
    # coefficient back at its point
    grading, tails = line_tails(case, two_triangles_spec)
    lines = ci_mirror._Lines(grading, *tails)

    def key(point):
        return tuple(point[k] for k in lines.rest) + (0 if lines.k1 is None else point[lines.k1],)

    for (points, q, numerators), layers in zip(tails, lines.layers):
        want = {p: F(n, q) for p, n in zip(points, numerators) if n}
        got = lines.series(layers)
        assert got == want
        firsts = {}
        for p in sorted(got, key=key):
            grade = sum(a * x for a, x in zip(grading, p))
            firsts.setdefault((grade, key(p)[:-1]), key(p))
        keys = {(grade, k) for grade, layer in layers.items() for k, _ in layer.lines}
        assert keys == {(grade, k) for (grade, _), k in firsts.items()}


class TestMirrorMap:
    def test_trivial_at_grade_zero(self, two_triangles_spec):
        q = mirror_map(two_triangles_spec, (0, 0), 0, radius=2)
        assert q.coefficients == {(0,) * 7: F(1)}

    def test_flat_index_accepted(self, two_triangles_spec):
        a = mirror_map(two_triangles_spec, 3, 2, radius=2)
        b = mirror_map(two_triangles_spec, (0, 3), 2, radius=2)
        assert a.coefficients == b.coefficients

    def test_two_triangles_low_grades(self, two_triangles_spec):
        q = mirror_map(two_triangles_spec, (0, 0), 2, radius=2)
        assert q.coefficients[(0,) * 7] == 1
        # grade-1 coefficients from the harmonic closed form, converted out
        # of the alternating-sign convention of the generating function
        want = -F(fact(3), fact(1) ** 3) * harmonic(3) * (-1) ** 1
        for point in ((-3, 1, 1, 1, 0, 0, 0), (-3, 0, 0, 0, 1, 1, 1)):
            assert q.grade_of(point) == 1
            assert q.coefficients[point] == want
        assert want == 11

    def test_grade_range_and_origin(self, quadrilateral_spec):
        q = mirror_map(quadrilateral_spec, (0, 4), 5, radius=3)
        grades = [q.grade_of(p) for p in q.coefficients]
        assert min(grades) == 0 and max(grades) <= 5
        assert q.coefficients[(0,) * 5] == 1

    def test_quadrilateral_negative_direction_support(self, quadrilateral_spec):
        # the last column's series draws on support points with a negative
        # entry in that column
        q = mirror_map(quadrilateral_spec, (0, 4), 4, radius=3)
        assert any(p[4] < 0 for p in q.coefficients)

    def test_integrality_smoke(self, two_triangles_spec):
        for j in range(7):
            q = mirror_map(two_triangles_spec, (0, j), 4, radius=2)
            assert integrality_report(q) == []

    def test_rank_one_family(self):
        # one-dimensional family; F has central-binomial coefficients
        spec = CISpec.from_lists([[(0,), (1,), (-1,)]])
        matrix, beta, v = build_system(spec)
        lattice = kernel_basis(matrix)
        assert lattice.basis == ((2, -1, -1),)
        series = build_tails(SupportBox(v, lattice, 6), [()])[()]
        for k in range(7):
            want = F(fact(2 * k), fact(k) ** 2)
            assert series.coefficient((F(-1 - 2 * k), F(k), F(k))) == want
        q = mirror_map(spec, (0, 1), 6, radius=2)
        assert integrality_report(q) == []
        assert q.coefficients[(-2, 1, 1)] == -2

    def test_tail_enumeration_is_capped(self, two_triangles_spec):
        # the minimality box (81 points) fits under the cap; the grade-40
        # tails (821 coefficients) do not
        mirror_map(two_triangles_spec, (0, 1), 8, radius=4, max_points=100)
        with pytest.raises(ResourceLimit, match="cap 100"):
            mirror_map(two_triangles_spec, (0, 1), 40, radius=4, max_points=100)

    def test_reconstruction_f_times_ratio_is_g(self, quadrilateral_spec):
        # multiply the computed ratio back by F and compare with G
        bound = 5
        q = mirror_map(quadrilateral_spec, (0, 4), bound, radius=3)
        matrix, beta, v = build_system(quadrilateral_spec)
        lattice = kernel_basis(matrix)
        radius = q.radius

        def as_points(series):
            out = {}
            for (exponent, _), coeff in series.items():
                point = tuple(int(e - b) for e, b in zip(exponent, v))
                if q.grade_of(point) <= bound:
                    out[point] = coeff
            return out

        tails = build_tails(SupportBox(v, lattice, radius), [(), (4,)])
        f_mapping, g_mapping = as_points(tails[()]), as_points(tails[4,])
        ratio = graded_log(q.coefficients, q.grading, bound, (0,) * 5)
        assert graded_mul(f_mapping, ratio, q.grading, bound) == g_mapping


class TestReports:
    def test_render_ok(self, two_triangles_spec):
        q = mirror_map(two_triangles_spec, (0, 0), 2, radius=2)
        text = render_integrality_report(q, "sha256:feedface")
        assert text.splitlines()[-1] == "OK"
        assert "# grade bound: 2" in text

    def test_render_violations(self):
        from gkzlog.ci_mirror import MirrorMap

        q = MirrorMap(
            index=(0, 1),
            coefficients={(0, 0): F(1), (1, 0): F(1, 2), (0, 1): F(3)},
            grading=(1, 1),
            grade_bound=2,
            radius=2,
        )
        assert integrality_report(q) == [((1, 0), F(1, 2))]
        text = render_integrality_report(q, "sha256:0")
        assert text.splitlines()[-1] == "1 | (1,0) | 1/2"
        coeffs = render_coefficients(q)
        assert coeffs.splitlines()[0] == "0 | (0,0) | 1"

    def test_a_coefficient_past_the_digit_limit_is_a_resource_limit(self):
        from gkzlog.ci_mirror import MirrorMap

        q = MirrorMap((0, 1), {(0,): F(1), (1,): F(10**5000, 3)}, (1,), 1, 1)
        for render in (render_coefficients, lambda q: render_integrality_report(q, "sha256:0")):
            with pytest.raises(ResourceLimit, match=r"more than \d+ digits"):
                render(q)


@pytest.mark.parametrize("spec_name", ["two_triangles_spec", "quadrilateral_spec"])
def test_lifted_quasisolutions_box_verified(spec_name, request):
    # F and the first-order quasisolutions of both lifted systems pass the
    # certified box check for every basis operator
    from gkzlog import BoxOp, verify_box_operators

    spec = request.getfixturevalue(spec_name)
    matrix, beta, v = build_system(spec)
    lattice = kernel_basis(matrix)
    radius = 4
    width = matrix.n_cols
    tails = build_tails(SupportBox(v, lattice, radius), [(), (0,), (width - 1,)])
    series_f = tails[()]
    ops = [BoxOp(row) for row in lattice.basis]
    assert all(report.passed for report in verify_box_operators(series_f, ops))
    for col in (0, width - 1):
        unit = tuple(1 if k == col else 0 for k in range(width))
        quasi = series_f.mul_log_linear(unit) + tails[col,]
        assert all(report.passed for report in verify_box_operators(quasi, ops))


def test_support_sets_match_sign_conditions(quadrilateral_spec):
    # the support sets of the lifted system are exactly the sign-condition
    # regions used for the cone analysis
    matrix, beta, v = build_system(quadrilateral_spec)
    lattice = kernel_basis(matrix)
    got = set(SupportBox(v, lattice, 3).support_set((4,)))
    want = set()
    for c1 in range(-3, 4):
        for c2 in range(-3, 4):
            point = point_of(lattice, (c1, c2))
            if point[0] <= 0 and all(point[k] >= 0 for k in (1, 2, 3)):
                want.add(point)
    assert got == want


@pytest.mark.parametrize(
    "name",
    ["ci_two_triangles", "ci_quadrilateral", "quintic", "hexagon"]
    + [(5,), (4, 2), (3, 3), (2, 2, 3), (2, 2, 2, 2)],
)
def test_grading_from_rays_equals_grading_with_seed_points(name):
    # Seed support points lie in the cones the rays generate, so the ambient
    # search over the ray points and the seed points, in the saturation of
    # their span, finds the grading the lattice-coordinate weights lift to.
    if isinstance(name, tuple):
        spec, radius = CISpec.from_lists(projective_ci_sets(name)), 2
    else:
        problem = load_problem(str(FIXTURES / f"{name}.json"))
        spec, radius = problem.spec, problem.radius
    v = build_system(spec)[2]
    lattice, rays = support_cone_rays(spec)
    width = lattice.ambient_dim
    seed_box = SupportBox(v, lattice, min(radius, 3))
    seed_points = [
        point for column in range(width) for point in seed_box.support_set((column,)) if any(point)
    ]
    want = shell_grading(lattice.points_from_coords(rays) + seed_points)
    weights = positive_grading(rays)
    assert tuple(dot(row, want) for row in lattice.basis) == weights
    for column in range(width):
        assert mirror_map(spec, column, 1, radius=radius).grading == want


@pytest.mark.parametrize(
    "name", ["ci_two_triangles", "ci_quadrilateral", "quintic", "hexagon", "rank7_triangle"]
)
def test_support_cone_rays_match_the_cofactor_directions(name, monkeypatch):
    # the rows of a cone that vanish on one of its rays leave a cone that
    # contains that ray's line; one Hermite form gives the start cone's rays
    if name == "rank7_triangle":
        spec = CISpec.from_lists(RANK7_TRIANGLE)
    else:
        spec = load_problem(str(FIXTURES / f"{name}.json")).spec
    lattice, cones = column_cones(spec)
    forms = []
    hermite = polytope.hnf_rows_with_transform
    monkeypatch.setattr(
        polytope, "hnf_rows_with_transform", lambda m: forms.append(m) or hermite(m)
    )
    for cone in cones:
        forms.clear()
        rays = _cone_rays(cone, lattice.rank)
        assert len(forms) == 1
        assert rays == _reference_cone_rays(cone, lattice.rank)
        through = [row for row in cone if sum(a * b for a, b in zip(row, rays[0])) == 0]
        with pytest.raises(
            NoPositiveFunctional, match="^support cone contains a line; not pointed$"
        ):
            _cone_rays(through, lattice.rank)


def test_quintic_period_known_answer():
    # Candelas-de la Ossa-Green-Parkes: the F coefficients of the quintic
    # are (-1)^n (5n)!/(n!)^5 along the lattice ray n*(-5,1,1,1,1,1).
    problem = load_problem(str(FIXTURES / "quintic.json"))
    lattice = kernel_basis(problem.matrix)
    assert lattice.basis == ((5, -1, -1, -1, -1, -1),)
    series = build_tails(SupportBox(problem.v, lattice, 10), [()])[()]
    assert len(series) == 11
    for n in range(11):
        exponent = tuple(x + n * d for x, d in zip(problem.v, (-5, 1, 1, 1, 1, 1)))
        assert series.coefficient(exponent) == (-1) ** n * fact(5 * n) // fact(n) ** 5


def test_quintic_mirror_map_known_answer():
    # Candelas-de la Ossa-Green-Parkes: with F = sum (5n)!/(n!)^5 z^n and
    # G = 5 sum (5n)!/(n!)^5 (H_5n - H_n) z^n, the map exp(G/F) of the
    # relation (-5,1,1,1,1,1) is m_0^(-5) * m_1^5, read along n*(-5,1,1,1,1,1)
    # in the alternating-sign convention of the generating function.  The
    # lattice has rank 1, so the graded step runs with no free coordinate.
    bound, grading, zero = 8, (1,), (0,)
    spec = load_problem(str(FIXTURES / "quintic.json")).spec
    ray = (-5, 1, 1, 1, 1, 1)
    logs = []
    for column in (0, 1):
        q = mirror_map(spec, column, bound, radius=10)
        assert len(q.coefficients) == bound + 1
        along = {(n,): q.coefficients[tuple(n * x for x in ray)] for n in range(bound + 1)}
        logs.append(graded_log(along, grading, bound, zero))
    exponent = {p: 5 * (logs[1].get(p, 0) - logs[0].get(p, 0)) for p in logs[0] | logs[1]}
    got = reference_exp(exponent, grading, bound, zero)
    period = {n: F(fact(5 * n), fact(n) ** 5) for n in range(bound + 1)}
    f = {(n,): period[n] for n in range(1, bound + 1)}
    g = {(n,): 5 * period[n] * (harmonic(5 * n) - harmonic(n)) for n in range(1, bound + 1)}
    want = reference_exp(reference_quotient(g, f, grading, bound), grading, bound, zero)
    assert got == {(n,): (-1) ** n * c for (n,), c in want.items()}
    assert [want[(n,)] for n in range(5)] == [1, 770, 1014275, 1703916750, 3286569025625]
