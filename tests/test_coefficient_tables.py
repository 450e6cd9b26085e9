"""Differential tests: derivative-chain tables against the closed forms.

The series builders and the mirror map read their coefficients from
``chain_constants`` tables through ``log_free_coefficients``.  The closed
forms (``bracket`` and ``f_coeffs``, which is built from
``elem_sym_shifted`` and ``mono_sum_shifted``) are the oracle here.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkzlog import (
    MinimalityViolation,
    SupportBox,
    UndefinedBracket,
    bracket,
    build_tail,
    chain_constants,
    f_coeffs,
    kernel_basis,
    log_free_coefficients,
)
from gkzlog.cli import load_problem
from tests.conftest import FIXTURES, GAUSS_MATRIX


def closed_form_chain(z, m, lo, hi):
    """Closed-form constants for lo <= k <= hi, up to the first undefined k."""
    out = []
    for k in range(lo, hi + 1):
        try:
            out.append(f_coeffs(z, k, m).constant)
        except MinimalityViolation:
            break
    return out


def closed_form_coefficient(v, point, logs):
    """The coefficient as the closed forms give it, or the exception they raise.

    Log-free coordinates are brackets and come first; coordinates with a
    log power are constant terms of ``f_coeffs``.
    """
    powers = [logs.count(j) for j in range(len(v))]
    try:
        out = F(1)
        for j in sorted(range(len(v)), key=lambda j: powers[j] > 0):
            z, k, m = v[j], point[j], powers[j]
            out *= bracket(z, k) if m == 0 else f_coeffs(z, k, m).constant
        return out
    except (UndefinedBracket, MinimalityViolation) as exc:
        return type(exc)


def log_sets(n):
    yield ()
    for i in range(n):
        yield (i,)
        yield (i, i)
        for j in range(i + 1, n):
            yield (i, j)


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("z", [F(0), F(1), F(-5, 2), F(1, 3)])
def test_chain_matches_closed_form_on_the_criterion_7_grid(m, z):
    assert chain_constants(f_coeffs(z, 0, m), z, -6, 6) == closed_form_chain(z, m, -6, 6)


@pytest.mark.parametrize("lo, hi", [(-4, -1), (2, 5), (0, 0), (3, 2)])
def test_chain_ranges_that_miss_zero(lo, hi):
    z = F(-1, 3)
    for m in range(3):
        assert chain_constants(f_coeffs(z, 0, m), z, lo, hi) == closed_form_chain(z, m, lo, hi)


@pytest.mark.parametrize("m", [0, 1, 2])
def test_chain_stops_at_the_pole(m):
    # z = -3: f_k is undefined exactly for k >= 3
    constants = chain_constants(f_coeffs(-3, 0, m), -3, -2, 6)
    assert len(constants) == 5
    assert constants == closed_form_chain(F(-3), m, -2, 6)
    assert chain_constants(f_coeffs(-3, 0, m), -3, 3, 6) == []


def test_undefined_entry_raises_the_closed_form_class():
    v = (F(-3), F(0))
    assert log_free_coefficients(v, [(2, 1)], ()) == [bracket(-3, 2)]
    with pytest.raises(UndefinedBracket) as err:
        log_free_coefficients(v, [(2, 1), (3, 1)], ())
    assert err.value.index == 0
    with pytest.raises(MinimalityViolation):
        log_free_coefficients(v, [(3, 1)], (0,))
    # a log-free coordinate past its pole wins over a logged one, as in the
    # closed forms, where the brackets are evaluated first
    with pytest.raises(UndefinedBracket):
        log_free_coefficients((F(-1), F(-1)), [(2, 2)], (1,))


def test_builder_raises_minimality_violation_past_a_pole():
    # v = (-1, 1, 1, 1) is not minimal with index 0 excluded (see test_cli):
    # G_0 meets the support point (1, 1, -1, -1), past the pole of f_coeffs(-1, k, 1).
    lattice = kernel_basis(GAUSS_MATRIX)
    v = (F(-1), F(1), F(1), F(1))
    with pytest.raises(MinimalityViolation):
        build_tail(SupportBox(v, lattice, 3), (0,))


FIXTURE_FILES = sorted(FIXTURES.glob("*.json"))


@pytest.mark.parametrize("path", FIXTURE_FILES, ids=[p.stem for p in FIXTURE_FILES])
def test_rule_matches_closed_forms_on_every_fixture_support_point(path):
    problem = load_problem(str(path))
    lattice = kernel_basis(problem.matrix)
    v = problem.v
    box = SupportBox(v, lattice, problem.radius)
    compared = 0
    for logs in log_sets(len(v)):
        points = box.support_set(logs)
        # the fixtures pass their minimality checks, so every entry is defined
        expected = [closed_form_coefficient(v, point, logs) for point in points]
        assert log_free_coefficients(v, points, logs) == expected, logs
        compared += len(points)
    assert compared > 0


rationals = st.one_of(
    st.integers(-8, 8).map(F),
    st.fractions(min_value=-8, max_value=8, max_denominator=9),
)


@settings(max_examples=300, deadline=None)
@given(
    z=rationals,
    m=st.integers(0, 2),
    lo=st.integers(-12, 12),
    span=st.integers(0, 12),
)
def test_chain_matches_closed_form_for_random_rationals(z, m, lo, span):
    hi = lo + span
    assert chain_constants(f_coeffs(z, 0, m), z, lo, hi) == closed_form_chain(z, m, lo, hi)
