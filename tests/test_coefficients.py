"""Scalar kernel tests: the derivative-chain walk against the closed forms.

``f_coeffs`` reads one member of the package's integer chain walk; the
closed forms (brackets and shifted symmetric sums) live in
``tests/oracles.py``, and their own hand values are checked here first.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkzlog import MinimalityViolation, UndefinedBracket, f_coeffs
from tests.oracles import (
    PoleAtShift,
    bracket,
    bracket_vec,
    closed_form_f_coeffs,
    dlog,
    elem_sym_shifted,
    mono_sum_shifted,
    plus,
    scaled,
    trimmed,
)


@pytest.mark.parametrize("z", [F(0), F(1), F(-5, 2), F(1, 3), F(-7)])
def test_bracket_k_zero(z):
    assert bracket(z, 0) == 1


def test_bracket_hand_values():
    assert bracket(0, 2) == F(1, 2)
    assert bracket(-3, -2) == 12
    assert bracket(F(-1, 2), -1) == F(-1, 2)
    assert bracket(-3, 2) == F(1, 2)  # (z+1)(z+2) = (-2)(-1)
    assert bracket(0, -1) == 0
    assert bracket(1, -3) == 0


def test_bracket_undefined():
    with pytest.raises(UndefinedBracket):
        bracket(-3, 3)
    with pytest.raises(UndefinedBracket):
        bracket(-1, 5)
    # defined just below the threshold
    assert bracket(-3, 2) == F(1, 2)


@pytest.mark.parametrize("z", [F(1, 2), F(-5, 2), F(7, 3), F(2)])
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_bracket_inverse_identity(z, k):
    assert bracket(z, k) * bracket(z + k, -k) == 1


def test_bracket_vec():
    assert bracket_vec((F(0), F(0)), (0, 0)) == 1
    assert bracket_vec((F(-1, 2), F(-1, 3)), (-1, -1)) == F(1, 6)
    with pytest.raises(UndefinedBracket) as err:
        bracket_vec((F(0), F(-1)), (2, 1))
    assert err.value.index == 1


def test_elem_sym_basics():
    assert elem_sym_shifted(1, 0, F(99)) == 1
    assert elem_sym_shifted(2, 1, -1) == -3  # (-1) + (-2)
    assert elem_sym_shifted(3, 2, -1) == 11  # pairwise products of -1,-2,-3


@pytest.mark.parametrize("i", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("z", [F(7, 3), F(-1, 2), F(4)])
def test_elem_sym_full_degree_is_bracket(i, z):
    assert elem_sym_shifted(i, i, z) == bracket(z, -i)


def test_mono_sum_basics():
    assert mono_sum_shifted(3, 0, F(9)) == 1
    assert mono_sum_shifted(2, 1, 0) == F(3, 2)
    assert mono_sum_shifted(1, 2, 0) == 1
    # degree-2 sum in two reciprocals: x^2 + xy + y^2
    assert mono_sum_shifted(2, 2, 0) == F(7, 4)


def test_mono_sum_pole():
    with pytest.raises(PoleAtShift):
        mono_sum_shifted(3, 1, -2)
    assert mono_sum_shifted(1, 1, -2) == -1


def test_f_coeffs_examples():
    assert f_coeffs(F(5, 7), 0, 1) == (F(0), F(1))
    assert f_coeffs(F(-1, 2), -1, 1) == (F(1), F(-1, 2))
    assert f_coeffs(0, 2, 2) == (F(7, 4), F(-3, 2), F(1, 2))
    assert all(type(c) is F for c in f_coeffs(0, 2, 2))
    # trailing zeros are trimmed: the zero polynomial is the empty tuple
    assert f_coeffs(0, -1, 1) == (F(1),) and f_coeffs(0, -1, 0) == ()
    with pytest.raises(MinimalityViolation) as err:
        f_coeffs(-2, 2, 1)
    message = "f_coeffs(-2, 2, 1) has no product formula (z negative integer, k >= -z)"
    assert str(err.value) == message


def test_f_coeffs_rejects_only_a_negative_log_power():
    with pytest.raises(ValueError, match="log power must be nonnegative"):
        f_coeffs(F(1, 2), 1, -1)
    for m in (3, 4):
        for k in (-3, 1, 4):
            assert f_coeffs(F(1, 2), k, m) == closed_form_f_coeffs(F(1, 2), k, m)


@pytest.mark.parametrize("z", [F(0), F(1), F(-5, 2), F(1, 3)])
@pytest.mark.parametrize("k", range(-6, 7))
def test_f_coeffs_m0_is_bracket(z, k):
    assert f_coeffs(z, k, 0) == trimmed([bracket(z, k)])


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("z", [F(0), F(1), F(-5, 2), F(1, 3)])
@pytest.mark.parametrize("k", range(-5, 7))
def test_f_coeffs_derivative_chain(m, z, k):
    # d/dt of t^(z+k) * f(log t) divided by t^(z+k-1) must be the k-1 member:
    # (z+k) * f + df/dlog.
    here = f_coeffs(z, k, m)
    prev = f_coeffs(z, k - 1, m)
    assert plus(scaled(here, z + k), dlog(here)) == prev
    assert here == closed_form_f_coeffs(z, k, m)


def test_f_coeffs_negative_one_quadratic_has_no_constant():
    # the excluded-at--1 case of the second-order family: constant term 0
    poly = f_coeffs(F(1, 3), -1, 2)
    assert poly[0] == 0
    assert poly[2] == bracket(F(1, 3), -1)


def test_purity_bit_identical():
    for _ in range(3):
        assert f_coeffs(F(-5, 2), 4, 2) == f_coeffs(F(-5, 2), 4, 2)


def outcome(function, z, k, m):
    """What ``function`` returns, or the message of the ``MinimalityViolation`` it raises."""
    try:
        return function(z, k, m)
    except MinimalityViolation as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(
    z=st.one_of(
        st.integers(-9, 9).map(F),
        st.fractions(min_value=-9, max_value=9, max_denominator=7),
    ),
    k=st.integers(-8, 8),
    m=st.integers(0, 4),
)
def test_walk_matches_the_closed_form_for_random_rationals(z, k, m):
    walked = outcome(f_coeffs, z, k, m)
    assert walked == outcome(closed_form_f_coeffs, z, k, m)
    # both stop exactly where a factor z + j, 1 <= j <= k, vanishes
    assert isinstance(walked, str) == (z.denominator == 1 and z < 0 and k >= -z)
