"""Exact linear algebra: Hermite normal form with transform, integer kernels, echelon and
integer solves."""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkzlog.lattice import RelationLattice, kernel_basis
from gkzlog.linalg import (
    hnf_rows,
    hnf_rows_with_transform,
    kernel_rows,
    solve_echelon,
    solve_integer,
)
from tests.conftest import laplace_det

MATRIX = st.integers(1, 4).flatmap(
    lambda ncols: st.lists(
        st.lists(st.integers(-6, 6), min_size=ncols, max_size=ncols), min_size=1, max_size=4
    )
)


def matmul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def minor_rank(rows):
    """Rank as the largest order of a nonzero minor, by brute force."""
    rows = [tuple(row) for row in rows]
    ncols = len(rows[0]) if rows else 0
    for k in range(min(len(rows), ncols), 0, -1):
        for row_set in itertools.combinations(rows, k):
            for cols in itertools.combinations(range(ncols), k):
                if laplace_det([[row[c] for c in cols] for row in row_set]):
                    return k
    return 0


def assert_hermite(rows):
    """Echelon form, positive pivots, entries above a pivot in [0, pivot)."""
    pivot_cols = []
    for row in rows:
        col = next(c for c, x in enumerate(row) if x)
        assert row[col] > 0
        assert not pivot_cols or col > pivot_cols[-1]
        pivot_cols.append(col)
    for k, col in enumerate(pivot_cols):
        for above in rows[:k]:
            assert 0 <= above[col] < rows[k][col]


@settings(max_examples=200, deadline=None)
@given(MATRIX)
def test_hnf_transform_is_unimodular_and_maps_m_to_h(matrix):
    hnf, trans = hnf_rows_with_transform(matrix)
    assert matmul(trans, matrix) == hnf
    assert abs(laplace_det(trans)) == 1
    nonzero = [row for row in hnf if any(row)]
    # zero rows come last
    assert all(not any(row) for row in hnf[len(nonzero):])
    assert_hermite(nonzero)
    assert hnf_rows(matrix) == tuple(nonzero)
    assert len(nonzero) == minor_rank(matrix)


@settings(max_examples=200, deadline=None)
@given(MATRIX, st.data())
def test_solve_echelon_inverts_the_hermite_rows(matrix, data):
    rows = hnf_rows(matrix)
    ncols = len(matrix[0])
    lattice = RelationLattice(ambient_dim=ncols, basis=rows)
    rank = len(rows)

    # Lattice points: integer coordinates, round trip through points_from_coords.
    coeffs = data.draw(st.lists(st.integers(-5, 5), min_size=rank, max_size=rank))
    [point] = lattice.points_from_coords([coeffs])
    assert solve_echelon(rows, point) == tuple(coeffs)

    # Rational points of the span: the exact coordinates come back, and they
    # are integral only for lattice points.
    fractions = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    rational = data.draw(st.lists(fractions, min_size=rank, max_size=rank))
    span_point = tuple(
        sum((c * row[i] for c, row in zip(rational, rows)), F(0)) for i in range(ncols)
    )
    coords = solve_echelon(rows, span_point)
    assert coords == tuple(rational)
    # Hermite rows are independent: a non-integral coefficient means off the lattice.
    assert lattice.contains(span_point) == all(c.denominator == 1 for c in rational)

    # Arbitrary vectors: None exactly when appending them raises the rank.
    vec = data.draw(st.lists(st.integers(-6, 6), min_size=ncols, max_size=ncols))
    coords = solve_echelon(rows, vec)
    assert (coords is None) == (minor_rank(list(rows) + [vec]) > rank)
    if coords is not None:
        assert all(
            sum(c * row[i] for c, row in zip(coords, rows)) == vec[i] for i in range(ncols)
        )


@settings(max_examples=200, deadline=None)
@given(MATRIX, st.data())
def test_solve_integer_lifts_every_target_through_a_kernel_basis(matrix, data):
    basis = kernel_basis(matrix).basis
    if not basis:
        return
    target = data.draw(st.lists(st.integers(-6, 6), min_size=len(basis), max_size=len(basis)))
    sol = solve_integer(basis, target)
    assert all(isinstance(c, int) for c in sol)
    assert tuple(sum(b * c for b, c in zip(row, sol)) for row in basis) == tuple(target)


@settings(max_examples=200, deadline=None)
@given(MATRIX)
def test_kernel_rows_is_the_saturated_hermite_basis_of_the_kernel(matrix):
    width = len(matrix[0])
    kernel = kernel_rows(matrix, width)
    assert all(len(x) == width for x in kernel)
    assert all(not any(sum(a * b for a, b in zip(row, x)) for row in matrix) for x in kernel)
    assert len(kernel) + minor_rank(matrix) == width
    assert hnf_rows(kernel) == kernel
    # Saturated: the rows map Z^width onto Z^len(kernel), so every unit target lifts.
    for k in range(len(kernel)):
        unit = tuple(int(i == k) for i in range(len(kernel)))
        sol = solve_integer(kernel, unit)
        assert tuple(sum(b * c for b, c in zip(row, sol)) for row in kernel) == unit


def test_kernel_rows_by_hand():
    assert kernel_rows([], 3) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert kernel_rows([()], 0) == ()
    assert kernel_rows([(2, 4)], 2) == ((2, -1),)
    assert kernel_rows([(1, 0), (0, 3)], 2) == ()
    # the rank-1 cone ray of the empty subset
    assert kernel_rows((), 1) == ((1,),)


def test_solve_integer_rejects_a_non_saturated_basis():
    with pytest.raises(ValueError, match="not saturated"):
        solve_integer(((2, 0),), (1,))


def test_hnf_conventions_by_hand():
    assert hnf_rows([[2, 4], [1, 3]]) == ((1, 1), (0, 2))
    assert hnf_rows([[0, -3], [0, 6]]) == ((0, 3),)
    assert hnf_rows([]) == ()
    assert len(hnf_rows([[1, 2], [2, 4]])) == 1
    hnf, trans = hnf_rows_with_transform([[0, 0], [-2, 0]])
    assert hnf == ((2, 0), (0, 0))
    assert matmul(trans, [[0, 0], [-2, 0]]) == hnf


def test_solve_echelon_by_hand():
    assert solve_echelon(((2, 0, 1), (0, 3, 1)), (1, 1, F(5, 6))) == (F(1, 2), F(1, 3))
    assert solve_echelon(((1, 1),), (1, 2)) is None
    # entries above a later pivot feed the forward substitution
    assert solve_echelon(((1, 5), (0, 2)), (1, 1)) == (1, -2)
    assert solve_echelon((), (0, 0)) == ()
    assert solve_echelon((), (0, 1)) is None
