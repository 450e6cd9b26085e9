"""Kernel bases, saturation, and lattice coordinates."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkzlog import IntMatrix, kernel_basis
from gkzlog.cli import load_problem
from tests.conftest import FIXTURES, GAUSS_MATRIX, PYRAMID_MATRIX, box_points, point_of


def test_gauss_kernel():
    lat = kernel_basis(GAUSS_MATRIX)
    assert lat.rank == 1
    assert lat.basis[0] in ((1, 1, -1, -1), (-1, -1, 1, 1))
    # HNF sign convention: leading nonzero entry positive
    assert lat.basis == ((1, 1, -1, -1),)


def test_identity_kernel_is_trivial():
    lat = kernel_basis(((1, 0), (0, 1)))
    assert lat.rank == 0
    assert lat.basis == ()
    assert lat.points_from_coords([()]) == [(0, 0)]


def test_pyramid_kernel_shape():
    lat = kernel_basis(PYRAMID_MATRIX)
    assert lat.rank == 2
    for row in lat.basis:
        a, b = row[0], row[1]
        assert row == (a, b, a, b, -2 * a - 2 * b)
    assert lat.contains((1, 1, 1, 1, -4))
    assert not lat.contains((1, 0, 0, 0, -1))


def test_two_triangles_kernel_shape():
    matrix = (
        (0, 1, 0, -1, 0, 0, 0),
        (0, 0, 1, -1, 0, 0, 0),
        (0, 0, 0, 0, 1, 0, -1),
        (0, 0, 0, 0, 0, 1, -1),
        (1, 1, 1, 1, 1, 1, 1),
    )
    lat = kernel_basis(matrix)
    assert lat.rank == 2
    for row in lat.basis:
        l, m = row[1], row[4]
        assert row == (-3 * l - 3 * m, l, l, l, m, m, m)
    assert lat.contains((-3, 1, 1, 1, 0, 0, 0))
    assert lat.contains((-3, 0, 0, 0, 1, 1, 1))


@pytest.mark.parametrize(
    "matrix,member",
    [
        (((2, -2),), (1, 1)),
        (((2, 4),), (2, -1)),
        (((6, 10, 15),), (5, -3, 0)),
        (((6, 10, 15),), (0, 3, -2)),
        (((1, 2, 3),), (1, 1, -1)),
    ],
)
def test_kernel_saturation(matrix, member):
    # A x = 0 for an integer x must mean x is an *integer* combination
    lat = kernel_basis(matrix)
    assert IntMatrix.from_rows(matrix).mul_vec(member) == (0,) * len(matrix)
    assert lat.contains(member)


def test_enumerated_points_are_relations():
    lat = kernel_basis(PYRAMID_MATRIX)
    matrix = IntMatrix.from_rows(PYRAMID_MATRIX)
    for point in box_points(lat, 3):
        assert matrix.mul_vec(point) == (0, 0, 0)


def test_coords_roundtrip():
    lat = kernel_basis(PYRAMID_MATRIX)
    [point] = lat.points_from_coords([(3, -2)])
    coords = lat.coords_of(point)
    assert coords == (3, -2)
    assert lat.coords_of((1, 0, 0, 0, 0)) is None


FIXTURE_LATTICES = {
    path.stem: kernel_basis(load_problem(str(path)).matrix) for path in FIXTURES.glob("*.json")
}
FIXTURE_LATTICES["rank0"] = kernel_basis(((1, 0, 0), (0, 1, 0), (0, 0, 1)))


@pytest.mark.parametrize("name", sorted(FIXTURE_LATTICES))
@pytest.mark.parametrize("radius", [0, 1, 3])
def test_box_points_match_points_from_coords(name, radius):
    # coordinates round-trip through points_from_coords and coords_of
    lat = FIXTURE_LATTICES[name]
    steps = range(-radius, radius + 1)
    coords = list(itertools.product(steps, repeat=lat.rank))
    for coeffs, point in zip(coords, lat.points_from_coords(coords), strict=True):
        assert lat.coords_of(point) == coeffs
        assert lat.contains(point)


def test_points_from_coords_of_no_points_and_of_rank_zero():
    assert FIXTURE_LATTICES["square_pyramid"].points_from_coords([]) == []
    rank0 = FIXTURE_LATTICES["rank0"]
    assert rank0.points_from_coords([]) == []
    assert rank0.points_from_coords([(), ()]) == [(0, 0, 0), (0, 0, 0)]
    with pytest.raises(ValueError, match="coefficient length"):
        rank0.points_from_coords([(), (1,)])
    with pytest.raises(ValueError, match="coefficient length"):
        FIXTURE_LATTICES["square_pyramid"].points_from_coords([(1, 2), (3,)])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(FIXTURE_LATTICES)))
def test_points_from_coords_matches_the_per_point_map(data, name):
    lat = FIXTURE_LATTICES[name]
    coords = data.draw(st.lists(st.tuples(*[st.integers(-50, 50)] * lat.rank), max_size=12))
    assert lat.points_from_coords(coords) == [point_of(lat, c) for c in coords]
    # a generator of coordinates maps as its list does
    assert lat.points_from_coords(iter(coords)) == [point_of(lat, c) for c in coords]
