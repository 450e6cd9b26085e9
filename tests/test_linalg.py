"""Exact linear algebra: Hermite normal form with transform, ranks, solves."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkzlog.linalg import (
    det_int,
    hnf_rows,
    hnf_rows_with_transform,
    rank_rational,
    solve_rational,
)

MATRIX = st.integers(1, 4).flatmap(
    lambda ncols: st.lists(
        st.lists(st.integers(-6, 6), min_size=ncols, max_size=ncols), min_size=1, max_size=4
    )
)


def matmul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


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
    assert abs(det_int(trans)) == 1
    nonzero = [row for row in hnf if any(row)]
    # zero rows come last
    assert all(not any(row) for row in hnf[len(nonzero):])
    assert_hermite(nonzero)
    assert hnf_rows(matrix) == tuple(nonzero)
    assert len(nonzero) == rank_rational(matrix)


@settings(max_examples=200, deadline=None)
@given(MATRIX, st.data())
def test_rank_agrees_with_the_full_rank_check_of_solve(matrix, data):
    ncols = len(matrix[0])
    rhs = data.draw(st.lists(st.integers(-5, 5), min_size=len(matrix), max_size=len(matrix)))
    if rank_rational(matrix) < ncols:
        with pytest.raises(ValueError, match="full column rank"):
            solve_rational(matrix, rhs)
        return
    sol = solve_rational(matrix, rhs)
    if sol is None:
        # inconsistent: the augmented matrix has a larger rank
        assert rank_rational([row + [b] for row, b in zip(matrix, rhs)]) > ncols
    else:
        assert all(sum(a * x for a, x in zip(row, sol)) == b for row, b in zip(matrix, rhs))


def test_hnf_conventions_by_hand():
    assert hnf_rows([[2, 4], [1, 3]]) == ((1, 1), (0, 2))
    assert hnf_rows([[0, -3], [0, 6]]) == ((0, 3),)
    assert hnf_rows([]) == ()
    hnf, trans = hnf_rows_with_transform([[0, 0], [-2, 0]])
    assert hnf == ((2, 0), (0, 0))
    assert matmul(trans, [[0, 0], [-2, 0]]) == hnf


def test_solve_rational_by_hand():
    assert solve_rational([[2, 0], [0, 3], [1, 1]], [1, 1, F(5, 6)]) == (F(1, 2), F(1, 3))
    assert solve_rational([[1], [1]], [1, 2]) is None
    assert rank_rational([[1, 2], [2, 4]]) == 1
    assert rank_rational([]) == 0
