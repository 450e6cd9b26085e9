"""Minkowski hulls, interior lattice points, and lattice points of polytopes."""

import itertools
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gkzlog import (
    DegenerateHull,
    NoPositiveFunctional,
    ResourceLimit,
    build_system,
    has_unique_interior_point,
    interior_lattice_points,
    kernel_basis,
    minkowski_hull,
    mirror_map,
)
from gkzlog import ci_mirror
from gkzlog.cli import load_problem
from gkzlog.lattice import _lattice_points, _normalized
from gkzlog.polytope import _cone_rays
from gkzlog.support import support_points
from tests.conftest import (
    FIXTURES,
    QUADRILATERAL_SETS,
    TWO_TRIANGLES_SETS,
    _reference_cone_rays,
    box_points,
    cofactor_vector,
    fm_lattice_points,
    projective_ci_sets,
)
from tests.oracles import nsupp

CI_FIXTURES = ["ci_two_triangles", "ci_quadrilateral", "quintic", "hexagon"]

SQUARE = ((0, 0), (1, 0), (0, 1), (1, 1))
SIMPLEX = ((0, 0), (1, 0), (0, 1))


def test_square():
    hull = minkowski_hull([SQUARE])
    assert len(hull.facets) == 4
    assert set(hull.vertices) == set(SQUARE)
    assert interior_lattice_points(hull) == []


def test_unit_simplex_has_no_interior_points():
    hull = minkowski_hull([SIMPLEX])
    assert interior_lattice_points(hull) == []
    assert not has_unique_interior_point([SIMPLEX], (0, 0))


def test_two_segments_sum_to_square():
    hull = minkowski_hull([((0, 0), (1, 0)), ((0, 0), (0, 1))])
    assert set(hull.vertices) == set(SQUARE)
    assert len(hull.facets) == 4


def test_quadrilateral_example():
    points = QUADRILATERAL_SETS[0][1:]  # hull of the non-distinguished points
    hull = minkowski_hull([points])
    assert hull.contains((0, 0), strict=True)
    assert interior_lattice_points(hull) == [(0, 0)]
    assert has_unique_interior_point([points], (0, 0))


def test_two_triangles_example():
    points = TWO_TRIANGLES_SETS[0]
    hull = minkowski_hull([points])
    assert interior_lattice_points(hull) == [(0, 0, 0, 0)]
    assert has_unique_interior_point([points], (0, 0, 0, 0))


def test_interior_points_strictly_inside():
    points = QUADRILATERAL_SETS[0]
    hull = minkowski_hull([points])
    for point in interior_lattice_points(hull):
        for normal, offset in hull.facets:
            assert sum(a * x for a, x in zip(normal, point)) < offset


def test_minkowski_symmetric():
    a = ((0, 0), (2, 1), (1, 3))
    b = ((0, 0), (1, 0), (0, 1), (-1, -1))
    left = minkowski_hull([a, b])
    right = minkowski_hull([b, a])
    assert left.vertices == right.vertices
    assert left.facets == right.facets


def test_translation_equivariance():
    a = ((0, 0), (1, 0), (0, 1), (-1, -1))
    shift = (3, -2)
    moved = tuple(tuple(x + s for x, s in zip(p, shift)) for p in a)
    base = minkowski_hull([a])
    trans = minkowski_hull([moved])
    want = sorted(tuple(x + s for x, s in zip(p, shift)) for p in base.vertices)
    assert sorted(trans.vertices) == want
    base_interior = interior_lattice_points(base)
    trans_interior = interior_lattice_points(trans)
    assert trans_interior == [tuple(x + s for x, s in zip(p, shift)) for p in base_interior]


def test_degenerate_hull():
    with pytest.raises(DegenerateHull):
        minkowski_hull([((0, 0), (1, 1), (2, 2))])


def test_vertices_satisfy_facets():
    points = TWO_TRIANGLES_SETS[0]
    hull = minkowski_hull([points])
    for vertex in hull.vertices:
        assert hull.contains(vertex)


def test_rejects_mixed_dimensions():
    with pytest.raises(ValueError):
        minkowski_hull([((0, 0), (1,))])


def test_rejects_zero_dimensional_points():
    with pytest.raises(ValueError, match="at least one coordinate"):
        minkowski_hull([[()]])


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _reference_facets(candidates, dim):
    """Facets by brute force: each spanning dim-subset of the points proposes
    the hyperplane of its cofactor normal, kept when every point lies on one side."""
    facets = set()
    for subset in itertools.combinations(candidates, dim):
        normal = cofactor_vector([tuple(a - b for a, b in zip(p, subset[0])) for p in subset[1:]])
        if not any(normal):
            continue
        offset = _dot(normal, subset[0])
        values = [_dot(normal, p) - offset for p in candidates]
        if all(v >= 0 for v in values):
            normal, offset = tuple(-a for a in normal), -offset
        elif not all(v <= 0 for v in values):
            continue
        g = gcd(*normal)
        facets.add((tuple(a // g for a in normal), offset // g))
    return tuple(sorted(facets))


@settings(max_examples=100, deadline=None)
@given(dim=st.integers(1, 4), data=st.data())
def test_hull_facets_match_a_brute_force_facet_search(dim, data):
    point = st.tuples(*[st.integers(-3, 3)] * dim)
    sets = data.draw(st.lists(st.lists(point, min_size=1, max_size=4), min_size=1, max_size=2))
    try:
        hull = minkowski_hull(sets)
    except DegenerateHull:
        assume(False)
    candidates = sorted({tuple(map(sum, zip(*combo))) for combo in itertools.product(*sets)})
    assert hull.facets == _reference_facets(candidates, dim)


@pytest.mark.parametrize("degrees, facets", [((2, 2, 3), 21), ((2, 2, 2, 2), 32)])
def test_projective_ci_hulls_have_the_origin_alone_inside(degrees, facets):
    # the Calabi-Yau complete intersections of these degrees in P^6 and P^7:
    # 36 and 81 Minkowski candidates in dimension 6 and 7
    sets = projective_ci_sets(degrees)
    hull = minkowski_hull(sets)
    assert len(hull.facets) == facets
    assert interior_lattice_points(hull) == [sets[0][0]]


@pytest.mark.parametrize("degrees", [(3, 3), (2, 4)])
def test_projective_ci_hull_facets_match_a_brute_force_facet_search(degrees):
    sets = projective_ci_sets(degrees)
    candidates = sorted({tuple(map(sum, zip(*combo))) for combo in itertools.product(*sets)})
    assert minkowski_hull(sets).facets == _reference_facets(candidates, 5)


@settings(max_examples=300, deadline=None)
@given(rank=st.integers(1, 5), data=st.data())
def test_cone_rays_match_the_cofactor_directions(rank, data):
    # zero rows and positive multiples of a row put several rows on one
    # hyperplane, which the zero sets of the rays must not mistake for more
    row = st.tuples(*[st.integers(-3, 3)] * rank)
    rows = data.draw(st.lists(row, min_size=1, max_size=7))
    multiples = data.draw(st.lists(st.tuples(st.sampled_from(rows), st.integers(2, 3)), max_size=2))
    rows += [tuple(k * a for a in r) for r, k in multiples]
    rows += [(0,) * rank] * data.draw(st.integers(0, 1))
    rows = sorted(set(rows))
    try:
        want = _reference_cone_rays(rows, rank)
    except NoPositiveFunctional:
        with pytest.raises(
            NoPositiveFunctional, match="^support cone contains a line; not pointed$"
        ):
            _cone_rays(rows, rank)
        return
    assert _cone_rays(rows, rank) == want


@settings(max_examples=150, deadline=None)
@given(dim=st.integers(1, 3), data=st.data())
def test_interior_points_match_a_bounding_box_scan(dim, data):
    point = st.tuples(*[st.integers(-3, 3)] * dim)
    sets = data.draw(st.lists(st.lists(point, min_size=2, max_size=4), min_size=1, max_size=2))
    try:
        hull = minkowski_hull(sets)
    except DegenerateHull:
        assume(False)
    lows = [min(v[i] for v in hull.vertices) for i in range(dim)]
    highs = [max(v[i] for v in hull.vertices) for i in range(dim)]
    box = itertools.product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs)))
    assert interior_lattice_points(hull) == [p for p in box if hull.contains(p, strict=True)]


def _grade_cut(lattice, grading, grade_bound):
    """The row ``grade_bound - grading . x >= 0`` in the lattice's coordinates."""
    weights = [sum(g * b for g, b in zip(grading, row)) for row in lattice.basis]
    return [(tuple(-w for w in weights), grade_bound)]


def _tail(v, lattice, excluded_col, grading, grade_bound):
    """Lattice coordinates of the grade-cut support points, as ``support_points`` yields them."""
    excluded = () if excluded_col is None else (excluded_col,)
    return support_points(v, lattice, excluded, _grade_cut(lattice, grading, grade_bound), 10**6)


def _brute_force(rows, ranges):
    """Points of the box ``prod range(lo, hi + 1)`` satisfying every row, lexicographic."""
    return [
        point
        for point in itertools.product(*(range(lo, hi + 1) for lo, hi in ranges))
        if all(sum(a * x for a, x in zip(row, point)) + c >= 0 for row, c in rows)
    ]


@pytest.mark.parametrize("name", CI_FIXTURES)
def test_support_polytopes_match_grade_filtered_box(name, monkeypatch):
    # The grade-bounded support cone of F (no column excluded) and of every
    # G_col has, as a set, the points of grade <= D of the support set in the
    # brute-force coefficient box of the radius mirror_map reports for that grade.
    # mirror_map reads its F and G tails through the same query at the same cut.
    read = []  # (excluded, coordinates) of each support query mirror_map runs
    query = ci_mirror.support_points

    def recording_query(v, lattice, excluded, *args):
        read.append((excluded, query(v, lattice, excluded, *args)))
        return read[-1][1]

    monkeypatch.setattr(ci_mirror, "support_points", recording_query)
    problem = load_problem(str(FIXTURES / f"{name}.json"))
    matrix, beta, v = build_system(problem.spec)
    lattice = kernel_basis(matrix)
    width = lattice.ambient_dim
    base = nsupp(v)
    support_sets = {}  # radius -> {excluded: support set}
    for grade_bound in range(1, 9):
        read.clear()
        q = mirror_map(problem.spec, 0, grade_bound, radius=problem.radius)
        assert [excluded for excluded, _ in read] == [(), (0,)]  # F, then G of column 0
        for excluded, coords in read:
            excluded_col = excluded[0] if excluded else None
            assert coords == _tail(v, lattice, excluded_col, q.grading, grade_bound)
        if q.radius not in support_sets:
            shifted = [
                (point, nsupp([x + d for x, d in zip(v, point)]))
                for point in box_points(lattice, q.radius)
            ]
            support_sets[q.radius] = {
                excluded: [point for point, s in shifted if s - {*excluded} == base - {*excluded}]
                for excluded in [()] + [(c,) for c in range(width)]
            }
        for excluded_col in [None, *range(width)]:
            excluded = () if excluded_col is None else (excluded_col,)
            want = {
                point
                for point in support_sets[q.radius][excluded]
                if q.grade_of(point) <= grade_bound
            }
            coords = _tail(v, lattice, excluded_col, q.grading, grade_bound)
            got = lattice.points_from_coords(coords)
            assert len(got) == len(set(got))
            assert set(got) == want, (name, grade_bound, excluded_col)


@pytest.mark.parametrize("name", CI_FIXTURES)
def test_tail_polytopes_stay_within_twice_the_coefficient_count(name):
    problem = load_problem(str(FIXTURES / f"{name}.json"))
    matrix, beta, v = build_system(problem.spec)
    lattice = kernel_basis(matrix)
    for col in range(lattice.ambient_dim):
        q = mirror_map(problem.spec, col, 8, radius=problem.radius)
        for excluded_col in (None, col):
            points = _tail(v, lattice, excluded_col, q.grading, 8)
            assert len(points) <= 2 * len(q.coefficients)
        if name == "hexagon" and col == 1:
            assert len(q.coefficients) == 72
            assert len(_tail(v, lattice, None, q.grading, 8)) == 63
            assert len(_tail(v, lattice, 1, q.grading, 8)) == 119


_coefficient = st.integers(-4, 4)


@settings(max_examples=150, deadline=None)
@given(
    dim=st.integers(1, 3),
    data=st.data(),
)
def test_lattice_points_match_brute_force(dim, data):
    # random rows, plus x_k >= -3 and one bounding row w . x <= bound with
    # w >= 1, which keep x_k <= (bound + 3 * (sum(w) - w_k)) / w_k
    vector = st.tuples(*[_coefficient] * dim)
    rows = data.draw(st.lists(st.tuples(vector, st.integers(-6, 6)), max_size=5))
    weights = data.draw(st.tuples(*[st.integers(1, 3)] * dim))
    bound = data.draw(st.integers(0, 6))
    rows = rows + [(tuple(1 if i == k else 0 for i in range(dim)), 3) for k in range(dim)]
    rows.append((tuple(-w for w in weights), bound))
    ranges = [(-3, (bound + 3 * (sum(weights) - w)) // w) for w in weights]
    want = _brute_force(rows, ranges)
    assert list(_lattice_points(rows, dim, 10**6)) == want
    if want:
        with pytest.raises(ResourceLimit, match=f"cap {len(want) - 1}"):
            list(_lattice_points(rows, dim, len(want) - 1))


def _outcome(points):
    """The points a lattice-point generator yields, then the error it raises, if any."""
    seen = []
    try:
        seen.extend(points)
    except (ResourceLimit, ValueError) as exc:
        return seen, type(exc), str(exc)
    return seen, None, None


@settings(max_examples=300, deadline=None)
@given(dim=st.integers(1, 5), data=st.data())
def test_lattice_points_match_the_elimination_without_kohlers_rule(dim, data):
    # up to 7 random rows plus a random subset of the box rows radius +- x_k >= 0,
    # so that some systems are unbounded or empty: Kohler's rule only drops
    # redundant rows, so the points, their order and the error raised agree
    vector = st.tuples(*[_coefficient] * dim)
    rows = data.draw(st.lists(st.tuples(vector, st.integers(-6, 6)), max_size=7))
    radius = data.draw(st.integers(0, 2))
    box = [(tuple(s * (i == k) for i in range(dim)), radius) for s in (1, -1) for k in range(dim)]
    rows += data.draw(st.lists(st.sampled_from(box), unique=True, max_size=2 * dim))
    cap = data.draw(st.one_of(st.integers(0, 20), st.just(10**4)))
    want = _outcome(fm_lattice_points(rows, dim, cap))
    assert _outcome(_lattice_points(rows, dim, cap)) == want


def test_lattice_points_yield_up_to_the_cap_then_raise():
    # a 10 x 10 square, read lazily: the cap fires on reaching point cap + 1
    square = [((1, 0), 0), ((-1, 0), 9), ((0, 1), 0), ((0, -1), 9)]
    points = _lattice_points(square, 2, 3)
    assert [next(points) for _ in range(3)] == [(0, 0), (0, 1), (0, 2)]
    with pytest.raises(ResourceLimit, match="cap 3"):
        next(points)
    assert next(_lattice_points(square, 2, 1)) == (0, 0)
    # the one point of dimension 0 counts too
    with pytest.raises(ResourceLimit, match="cap 0"):
        next(_lattice_points([], 0, 0))


def test_lattice_points_infeasible_systems():
    assert list(_lattice_points([((1,), -1), ((-1,), 0)], 1, 100)) == []
    # rationally feasible, no integer point: x = 1/2
    assert list(_lattice_points([((2,), -1), ((-2,), 1)], 1, 100)) == []
    # x, y >= 1/3 and x + y <= 5/3: a rational triangle without lattice points
    rows = [((3, 0), -1), ((0, 3), -1), ((-3, -3), 5)]
    assert list(_lattice_points(rows, 2, 100)) == []
    # a constant row that fails
    rows = [((0, 0), -1), ((1, 0), 0), ((-1, -1), 2), ((0, 1), 0)]
    assert list(_lattice_points(rows, 2, 100)) == []


def test_lattice_points_single_point():
    rows = [((1, 0), -2), ((-1, 0), 2), ((0, 1), 1), ((0, -1), -1)]
    assert list(_lattice_points(rows, 2, 100)) == [(2, -1)]
    # the apex of a cone cut at grade 0, in three dimensions
    rows = [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((-1, -2, -1), 0)]
    assert list(_lattice_points(rows, 3, 1)) == [(0, 0, 0)]
    assert list(_lattice_points([], 0, 1)) == [()]
    assert list(_lattice_points([((), -1)], 0, 1)) == []


def test_lattice_points_duplicate_and_proportional_rows():
    # each row carries the mask of the input rows it combines; a duplicate
    # keeps the smaller one
    rows = [((2, 4), 6, 0b1000), ((1, 2), 3, 0b0110), ((3, 6), 10, 0b0001), ((1, 2), 3, 0b0100)]
    assert _normalized(rows) == [((1, 2), 3, 0b1)]
    assert _normalized([((0, 0), 0, 1), ((0, 0), -1, 2)]) is None
    simplex = [((1, 0), 0), ((0, 1), 0), ((-1, -1), 4)]
    repeated = simplex + [((2, 0), 0), ((0, 3), 1), ((-2, -2), 9), ((-1, -1), 4)]
    assert list(_lattice_points(repeated, 2, 100)) == list(_lattice_points(simplex, 2, 100))
    assert len(list(_lattice_points(simplex, 2, 100))) == 15


def test_lattice_points_reject_unbounded_polyhedra():
    with pytest.raises(ValueError, match="unbounded"):
        list(_lattice_points([((1, 0), 0), ((0, 1), 0)], 2, 100))
