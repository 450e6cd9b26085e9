"""Negative-support sets, minimality verdicts, support-set listings."""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkzlog import (
    ResourceLimit,
    SupportBox,
    SupportVerdict,
    kernel_basis,
)
from gkzlog.cli import load_problem
from gkzlog.support import support_points, support_rows
from tests.conftest import FIXTURES, GAUSS_MATRIX, PYRAMID_MATRIX, box_points, gauss_v
from tests.oracles import nsupp

PYRAMID_V = (F(0), F(0), F(0), F(0), F(1))


def test_nsupp_basics():
    assert nsupp((-1, 0, 0, 0, 1)) == {0}
    assert nsupp((0, 0, 0, 0, 1)) == frozenset()
    assert nsupp((-1, -2, F(3, 2), -1), excluded={1, 3}) == {0}
    assert nsupp((F(-1, 2), -1)) == {1}


def test_nsupp_excluded_range():
    with pytest.raises(ValueError):
        nsupp((1, 2), excluded={5})


def test_gauss_minimal(gauss_lattice):
    for a, b in ((F(1, 2), F(1, 3)), (F(2, 5), F(7, 3))):
        box = SupportBox(gauss_v(a, b), gauss_lattice, 20)
        assert box.check_minimal(()).minimal
        for i in range(4):
            assert box.check_minimal((i,)).minimal


def test_gauss_counterexample(gauss_lattice):
    verdict = SupportBox((-1, 1, 1, 1), gauss_lattice, 5).check_minimal(())
    assert not verdict.minimal
    assert verdict.counterexample == (1, 1, -1, -1)


def test_counterexample_search_stops_at_the_first_point(gauss_lattice):
    # the 11-point box is never walked: each system is read up to its first point
    capped = SupportBox((-1, 1, 1, 1), gauss_lattice, 5, max_points=1).check_minimal()
    assert capped == SupportBox((-1, 1, 1, 1), gauss_lattice, 5).check_minimal()
    assert not capped.minimal


def test_support_rows_by_hand():
    basis = ((1, 1, -1, -1),)
    v = (F(-1), F(1, 2), F(0), F(2))
    # v_0 + x <= -1, v_2 - x >= 0, v_3 - x >= 0; the non-integer v_1 has no row
    assert support_rows(v, basis) == {0: ((-1,), 0), 2: ((-1,), 0), 3: ((-1,), 2)}
    assert support_rows(v, basis, (0, 2)) == {3: ((-1,), 2)}
    with pytest.raises(ValueError):
        support_rows(v, basis, (4,))


def test_negative_radius_is_rejected(gauss_lattice):
    with pytest.raises(ValueError, match="radius"):
        SupportBox((-1, 1, 1, 1), gauss_lattice, -1)


def test_counterexample_monotone_in_radius(gauss_lattice):
    small = SupportBox((-1, 1, 1, 1), gauss_lattice, 2).check_minimal(())
    large = SupportBox((-1, 1, 1, 1), gauss_lattice, 8).check_minimal(())
    assert not small.minimal and not large.minimal
    assert small.counterexample == large.counterexample


def test_pyramid_minimal_everywhere(pyramid_lattice):
    box = SupportBox(PYRAMID_V, pyramid_lattice, 10)
    assert box.check_minimal(()).minimal
    for i in range(5):
        assert box.check_minimal((i,)).minimal
    for i in range(5):
        for j in range(i + 1, 5):
            assert box.check_minimal((i, j)).minimal


def test_pyramid_support_sets(pyramid_lattice):
    box = SupportBox(PYRAMID_V, pyramid_lattice, 3)
    # nothing excluded: only the origin
    assert box.support_set(()) == [(0, 0, 0, 0, 0)]
    for i in range(4):
        assert box.support_set((i,)) == [(0, 0, 0, 0, 0)]
    # last column excluded: the positive quadrant of the lattice
    got = set(box.support_set((4,)))
    want = {
        (a, b, a, b, -2 * a - 2 * b) for a in range(4) for b in range(4)
    }
    assert got == want
    # indices 0 and 2 excluded: -a >= b >= 0
    got = set(box.support_set((0, 2)))
    want = {
        (a, b, a, b, -2 * a - 2 * b)
        for a in range(-3, 4)
        for b in range(-3, 4)
        if -a >= b >= 0
    }
    assert got == want
    # indices 1 and 3 excluded: -b >= a >= 0
    got = set(box.support_set((1, 3)))
    want = {
        (a, b, a, b, -2 * a - 2 * b)
        for a in range(-3, 4)
        for b in range(-3, 4)
        if -b >= a >= 0
    }
    assert got == want
    # the remaining pairs are trivial
    for pair in ((0, 1), (0, 3), (1, 2), (2, 3)):
        assert box.support_set(pair) == [(0, 0, 0, 0, 0)]


def test_support_points_are_lattice_coordinates(pyramid_lattice):
    # support_points yields coordinates in the basis, inside the bounding
    # rows and lexicographic; support_set maps the same list to points
    box = SupportBox(PYRAMID_V, pyramid_lattice, 3)
    for excluded in [(), (4,), (0, 2), (1, 3)]:
        coords = support_points(PYRAMID_V, pyramid_lattice, excluded, box.box_rows, box.max_points)
        assert coords == sorted(set(coords))
        assert all(len(x) == pyramid_lattice.rank and max(map(abs, x)) <= 3 for x in coords)
        assert pyramid_lattice.points_from_coords(coords) == box.support_set(excluded)
    # a grade cut bounds the quadrant in place of the box: a + b <= 2
    cut = [((-1, -1), 2)]
    assert support_points(PYRAMID_V, pyramid_lattice, (4,), cut, 100) == [
        (a, b) for a in range(3) for b in range(3 - a)
    ]


def test_origin_always_in_support(gauss_lattice, pyramid_lattice):
    assert (0, 0, 0, 0) in SupportBox(gauss_v(F(1, 2), F(1, 3)), gauss_lattice, 2).support_set()
    assert (0, 0, 0, 0, 0) in SupportBox(PYRAMID_V, pyramid_lattice, 2).support_set((4,))


def test_support_nesting(pyramid_lattice):
    # L_v inside every single-excluded set inside every matching pair set
    box = SupportBox(PYRAMID_V, pyramid_lattice, 3)
    base = set(box.support_set(()))
    for i in range(5):
        single = set(box.support_set((i,)))
        assert base <= single
        for j in range(5):
            if j == i:
                continue
            pair = set(box.support_set(tuple(sorted((i, j)))))
            assert single <= pair


@pytest.mark.parametrize(
    "v",
    [
        (F(0), F(0), F(0), F(0), F(1)),
        (F(-1), F(0), F(0), F(0), F(2)),
        (F(1, 2), F(0), F(-1, 2), F(0), F(1)),
    ],
)
def test_two_singles_imply_plain_minimality(pyramid_lattice, v):
    # whenever two distinct single-index checks pass, the plain check passes
    box = SupportBox(v, pyramid_lattice, 6)
    for i in range(5):
        for j in range(i + 1, 5):
            ok_i = box.check_minimal((i,)).minimal
            ok_j = box.check_minimal((j,)).minimal
            if ok_i and ok_j:
                assert box.check_minimal(()).minimal


# --- differential tests: the lattice-point systems against a brute-force box scan ---


def reference_scan(v, lattice, radius, excluded):
    """nsupp of every shift in the brute-force coefficient box, in box order."""
    base = tuple(F(x) for x in v)
    target = nsupp(base, excluded)
    counterexample = None
    kept = []
    for point in box_points(lattice, radius):
        shifted = nsupp([x + d for x, d in zip(base, point)], excluded)
        if counterexample is None and shifted < target:
            counterexample = point
        if shifted == target:
            kept.append(point)
    verdict = SupportVerdict(counterexample is None, radius, counterexample)
    return verdict, kept


def small_excluded_sets(n):
    singles = [(i,) for i in range(n)]
    pairs = [tuple(pair) for pair in itertools.combinations(range(n), 2)]
    return [()] + singles + pairs


@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.json")))
def test_box_queries_match_reference_scan_on_fixtures(fixture):
    problem = load_problem(str(FIXTURES / fixture))
    lattice = kernel_basis(problem.matrix)
    box = SupportBox(problem.v, lattice, problem.radius)
    sets = small_excluded_sets(problem.matrix.n_cols)
    verdicts = []
    for excluded in sets:
        verdict, kept = reference_scan(problem.v, lattice, problem.radius, excluded)
        assert box.check_minimal(excluded) == verdict, excluded
        assert box.support_set(excluded) == kept, excluded
        verdicts.append(verdict)
    assert list(box.sweep(sets).values()) == verdicts


RATIONALS = st.one_of(
    st.integers(-3, 3).map(F),
    st.builds(F, st.integers(-7, 7), st.integers(2, 4)),
)


RANDOM_VECTOR_LATTICES = {
    "gauss": (kernel_basis(GAUSS_MATRIX), 3),
    "pyramid": (kernel_basis(PYRAMID_MATRIX), 3),
    "hexagon": (kernel_basis(load_problem(str(FIXTURES / "hexagon.json")).matrix), 2),
}


@settings(max_examples=200, deadline=None)
@given(data=st.data(), which=st.sampled_from(sorted(RANDOM_VECTOR_LATTICES)))
def test_box_queries_match_reference_scan_on_random_vectors(data, which):
    # ranks 1, 2 and 4, each up to its largest radius
    lattice, max_radius = RANDOM_VECTOR_LATTICES[which]
    radius = data.draw(st.integers(0, max_radius), label="radius")
    n = lattice.ambient_dim
    v = data.draw(st.lists(RATIONALS, min_size=n, max_size=n), label="v")
    excluded = data.draw(
        st.lists(st.integers(0, n - 1), max_size=2, unique=True).map(tuple), label="excluded"
    )
    verdict, kept = reference_scan(v, lattice, radius, excluded)
    box = SupportBox(v, lattice, radius)
    assert box.check_minimal(excluded) == verdict
    assert box.support_set(excluded) == kept


def test_sweep_keys_are_sorted_sets_in_first_occurrence_order(pyramid_lattice):
    box = SupportBox(PYRAMID_V, pyramid_lattice, 2)
    verdicts = box.sweep([(), (4,), (1,), (1, 1), (2, 0), (0, 2), (4,)])
    assert list(verdicts) == [(), (4,), (1,), (0, 2)]
    assert all(verdict.minimal for verdict in verdicts.values())


@pytest.mark.parametrize("excluded", [(4,), (0, 9), (-1,)])
def test_box_excluded_index_out_of_range(gauss_lattice, excluded):
    v = gauss_v(F(1, 2), F(1, 3))
    box = SupportBox(v, gauss_lattice, 2)
    with pytest.raises(ValueError):
        box.check_minimal(excluded)
    with pytest.raises(ValueError):
        box.support_set(excluded)


def test_box_respects_the_point_cap(pyramid_lattice):
    # the last column excluded keeps the 4 x 4 quadrant of the radius-3 box
    box = SupportBox(PYRAMID_V, pyramid_lattice, 3, max_points=15)
    with pytest.raises(ResourceLimit, match="cap 15"):
        box.support_set((4,))
    assert box.support_set(()) == [(0, 0, 0, 0, 0)]
    assert len(SupportBox(PYRAMID_V, pyramid_lattice, 3, max_points=16).support_set((4,))) == 16
