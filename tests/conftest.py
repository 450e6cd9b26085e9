"""Shared fixtures: the four running example systems."""

import itertools
from fractions import Fraction as F
from pathlib import Path

import pytest

from gkzlog import CISpec, kernel_basis

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

GAUSS_MATRIX = ((1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, -1))
PYRAMID_MATRIX = ((1, 1, 1, 1, 1), (-1, 1, 1, -1, 0), (-1, -1, 1, 1, 0))
PYRAMID_BETA = (F(1), F(0), F(0))
PYRAMID_V = (F(0), F(0), F(0), F(0), F(1))

TWO_TRIANGLES_SETS = (
    (
        (0, 0, 0, 0),
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (-1, -1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (0, 0, -1, -1),
    ),
)
QUADRILATERAL_SETS = (((0, 0), (1, 1), (-1, 0), (1, -1), (1, 0)),)


def laplace_det(rows):
    """Determinant of a small square integer matrix by expansion along its first row."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * a * laplace_det([row[:j] + row[j + 1 :] for row in rows[1:]])
        for j, a in enumerate(rows[0])
        if a
    )


def cofactor_vector(rows):
    """Vector orthogonal to ``n - 1`` rows of length ``n``: signed maximal minors.

    Zero exactly when the rows are dependent.
    """
    rows = [tuple(row) for row in rows]
    n = len(rows) + 1
    return tuple((-1) ** j * laplace_det([row[:j] + row[j + 1 :] for row in rows]) for j in range(n))


def box_points(lattice, radius):
    """Every lattice point with basis coordinates in ``[-radius, radius]``, by brute force.

    In lexicographic order of the coordinates; ``(2 * radius + 1) ** rank``
    points, the one point of rank 0 included.
    """
    steps = range(-radius, radius + 1)
    return [lattice.point_from_coords(c) for c in itertools.product(steps, repeat=lattice.rank)]


def gauss_v(a, b):
    return (-F(a), -F(b), F(0), F(0))


def gauss_beta(a, b):
    return (-F(a), -F(b), F(0))


@pytest.fixture(scope="session")
def gauss_lattice():
    return kernel_basis(GAUSS_MATRIX)


@pytest.fixture(scope="session")
def pyramid_lattice():
    return kernel_basis(PYRAMID_MATRIX)


@pytest.fixture(scope="session")
def two_triangles_spec():
    return CISpec.from_lists(TWO_TRIANGLES_SETS)


@pytest.fixture(scope="session")
def quadrilateral_spec():
    return CISpec.from_lists(QUADRILATERAL_SETS)
