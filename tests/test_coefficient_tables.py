"""Differential tests: derivative-chain tables against the closed forms.

The series builders and the mirror map read their coefficients from
``chain_constants`` tables through ``log_free_coefficients``, one walk
per coordinate and log power for all the keys of a call.  The closed
forms in ``tests/oracles.py`` (``bracket``, ``bracket_vec`` and
``closed_form_f_coeffs``, which is built from ``elem_sym_shifted`` and
``mono_sum_shifted``) are the oracle here.
"""

from fractions import Fraction as F
from itertools import combinations_with_replacement
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkzlog import (
    MinimalityViolation,
    SupportBox,
    UndefinedBracket,
    build_tails,
    chain_constants,
    f_coeffs,
    kernel_basis,
    log_free_coefficients,
)
from gkzlog.cli import load_problem
from tests.conftest import FIXTURES, GAUSS_MATRIX
from tests.oracles import bracket, bracket_vec, closed_form_f_coeffs


def constant(poly):
    """The constant term of a log polynomial; the empty tuple is zero."""
    return poly[0] if poly else F(0)


def closed_form_chain(z, m, lo, hi):
    """Closed-form constants for lo <= k <= hi, up to the first undefined k."""
    out = []
    for k in range(lo, hi + 1):
        try:
            out.append(constant(closed_form_f_coeffs(z, k, m)))
        except MinimalityViolation:
            break
    return out


def closed_form_coefficient(v, point, logs):
    """The coefficient as the closed forms give it, or the exception they raise.

    Log-free coordinates are brackets and come first; coordinates with a
    log power are constant terms of ``closed_form_f_coeffs``.
    """
    powers = [logs.count(j) for j in range(len(v))]
    try:
        out = F(1)
        for j in sorted(range(len(v)), key=lambda j: powers[j] > 0):
            z, k, m = v[j], point[j], powers[j]
            out *= bracket(z, k) if m == 0 else constant(closed_form_f_coeffs(z, k, m))
        return out
    except (UndefinedBracket, MinimalityViolation) as exc:
        return type(exc)


def chain(z, m, lo, hi):
    """``chain_constants`` of ``t**z log(t)**m`` as ``Fraction``s, after checking its pairs."""
    pairs = chain_constants(f_coeffs(z, 0, m), z, lo, hi)
    assert all(d > 0 and gcd(n, d) == 1 for n, d in pairs)
    return [F(n, d) for n, d in pairs]


def rule(v, points, logs):
    """The rule's coefficients of one key, as ``Fraction``s."""
    q, numerators = log_free_coefficients(v, {logs: points})[logs]
    return [F(n, q) for n in numerators]


def log_sets(n):
    yield ()
    for i in range(n):
        yield (i,)
        yield (i, i)
        for j in range(i + 1, n):
            yield (i, j)


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("z", [F(0), F(1), F(-5, 2), F(1, 3)])
def test_chain_matches_closed_form_on_the_criterion_7_grid(m, z):
    assert chain(z, m, -6, 6) == closed_form_chain(z, m, -6, 6)


@pytest.mark.parametrize("lo, hi", [(-4, -1), (2, 5), (0, 0), (3, 2)])
def test_chain_ranges_that_miss_zero(lo, hi):
    z = F(-1, 3)
    for m in range(5):
        assert chain(z, m, lo, hi) == closed_form_chain(z, m, lo, hi)


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_chain_stops_at_the_pole(m):
    # z = -3: f_k is undefined exactly for k >= 3
    constants = chain(F(-3), m, -2, 6)
    assert len(constants) == 5
    assert constants == closed_form_chain(F(-3), m, -2, 6)
    assert chain(F(-3), m, 3, 6) == []


def test_undefined_entry_raises_the_closed_form_class():
    v = (F(-3), F(0))
    assert rule(v, [(2, 1)], ()) == [bracket(-3, 2)]
    with pytest.raises(UndefinedBracket) as err:
        rule(v, [(2, 1), (3, 1)], ())
    assert err.value.index == 0
    with pytest.raises(MinimalityViolation):
        rule(v, [(3, 1)], (0,))
    # a log-free coordinate past its pole wins over a logged one, as in the
    # closed forms, where the brackets are evaluated first
    with pytest.raises(UndefinedBracket):
        rule((F(-1), F(-1)), [(2, 2)], (1,))


def test_a_shared_chain_past_its_pole_raises_for_the_key_that_reaches_it():
    # (0, m=0) is shared by () and (1,); the union range [2, 3] runs into the
    # pole of z = -3 at k = 3, which only the point of (1,) reaches
    v = (F(-3), F(0))
    sets = {(): [(2, 1)], (1,): [(0, 0), (3, 1)]}
    with pytest.raises(UndefinedBracket) as err:
        log_free_coefficients(v, sets)
    assert str(err.value) == "bracket(-3, 3) undefined at index 0: a factor z+j is zero"
    assert (err.value.z, err.value.k, err.value.index) == (-3, 3, 0)
    # (0, m=1) alone: the chain of f_coeffs(-3, k, 1) stops at the same pole
    sets = {(): [(3, 1)], (0,): [(-2, 0), (3, 1)]}
    with pytest.raises(MinimalityViolation) as err:
        log_free_coefficients(v, {(0,): sets[(0,)]})
    assert str(err.value) == "f_coeffs(-3, 3, 1) has no product formula"
    # keys are read in order: the first key's undefined point raises first
    with pytest.raises(UndefinedBracket):
        log_free_coefficients(v, sets)


def test_builder_raises_minimality_violation_past_a_pole():
    # v = (-1, 1, 1, 1) is not minimal with index 0 excluded (see test_cli):
    # G_0 meets the support point (1, 1, -1, -1), past the pole of f_coeffs(-1, k, 1).
    lattice = kernel_basis(GAUSS_MATRIX)
    v = (F(-1), F(1), F(1), F(1))
    with pytest.raises(MinimalityViolation):
        build_tails(SupportBox(v, lattice, 3), [(0,)])


FIXTURE_FILES = sorted(FIXTURES.glob("*.json"))


@pytest.mark.parametrize("path", FIXTURE_FILES, ids=[p.stem for p in FIXTURE_FILES])
def test_rule_matches_closed_forms_on_every_fixture_support_point(path):
    problem = load_problem(str(path))
    lattice = kernel_basis(problem.matrix)
    v = problem.v
    box = SupportBox(v, lattice, problem.radius)
    keys = list(log_sets(len(v)))
    point_sets = {logs: box.support_set(logs) for logs in keys}
    coefficients = log_free_coefficients(v, point_sets)
    tails = build_tails(box, keys)
    assert list(coefficients) == list(tails) == keys
    compared = 0
    for logs, points in point_sets.items():
        # the fixtures pass their minimality checks, so every entry is defined
        expected = [closed_form_coefficient(v, point, logs) for point in points]
        if not logs:
            assert expected == [bracket_vec(v, point) for point in points]
        q, numerators = coefficients[logs]
        assert [F(n, q) for n in numerators] == expected, logs
        assert rule(v, points, logs) == expected, logs
        # the tail holds the nonzero coefficients at the exponents v + point
        want = {tuple(z + x for z, x in zip(v, point)): c for point, c in zip(points, expected)}
        assert {exponent: c for (exponent, _), c in tails[logs].items()} == {
            e: c for e, c in want.items() if c
        }, logs
        assert tails[logs] == build_tails(box, [logs])[logs]
        compared += len(points)
    assert compared > 0


rationals = st.one_of(
    st.integers(-8, 8).map(F),
    st.fractions(min_value=-8, max_value=8, max_denominator=9),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 3))
def test_multi_key_rule_matches_closed_forms_for_random_rationals(data, n):
    # random points, so keys that share a (j, m) walk its chain over the
    # union of ranges that differ; keys up to order 4
    v = tuple(data.draw(rationals) for _ in range(n))
    orders = [key for k in range(5) for key in combinations_with_replacement(range(n), k)]
    keys = data.draw(st.lists(st.sampled_from(orders), unique=True, min_size=1))
    point = st.tuples(*[st.integers(-6, 6)] * n)
    sets = {logs: data.draw(st.lists(point, max_size=6)) for logs in keys}
    expected = {
        logs: [closed_form_coefficient(v, p, logs) for p in points] for logs, points in sets.items()
    }
    raised = [c for values in expected.values() for c in values if isinstance(c, type)]
    if raised:
        with pytest.raises(raised[0]):
            log_free_coefficients(v, sets)
        return
    got = log_free_coefficients(v, sets)
    assert {logs: [F(n, q) for n in nums] for logs, (q, nums) in got.items()} == expected


@settings(max_examples=300, deadline=None)
@given(
    z=rationals,
    m=st.integers(0, 4),
    lo=st.integers(-12, 12),
    span=st.integers(0, 12),
)
def test_chain_matches_closed_form_for_random_rationals(z, m, lo, span):
    hi = lo + span
    assert chain(z, m, lo, hi) == closed_form_chain(z, m, lo, hi)
