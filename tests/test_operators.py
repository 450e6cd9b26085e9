"""Operator application, certified verification, commutation, mutations."""

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkzlog import (
    BoxOp,
    EulerOp,
    LogSeries,
    NonLatticeExponent,
    ProblemFileError,
    RelationLattice,
    apply_box,
    apply_euler,
    build_tails,
    combine,
    differentiate,
    kernel_basis,
    verify_box_operators,
    verify_euler_annihilation,
)
from gkzlog import operators
from gkzlog.linalg import solve_echelon
from gkzlog.support import SupportBox
from tests.conftest import (
    GAUSS_MATRIX,
    PYRAMID_BETA,
    PYRAMID_MATRIX,
    PYRAMID_V,
    fraction_apply_box,
    fraction_apply_euler,
    fraction_derive,
    fraction_verify_box,
    gauss_beta,
    gauss_v,
    point_of,
)
from tests.oracles import closed_form_f_coeffs, with_term_added


def test_differentiate_power_rule():
    s = LogSeries.monomial((F(1, 2),))
    out = differentiate(s, 0)
    assert out == LogSeries.monomial((F(-1, 2),), coeff=F(1, 2))


def test_differentiate_pure_log():
    s = LogSeries.monomial((F(0),), (1,))
    assert differentiate(s, 0) == LogSeries.monomial((F(-1),))


def test_differentiate_product_rule():
    s = LogSeries.monomial((F(2),), (2,))
    out = differentiate(s, 0)
    assert out.coefficient((1,), (2,)) == 2
    assert out.coefficient((1,), (1,)) == 2
    assert len(out) == 2


def test_partials_commute_on_random_series():
    rng = random.Random(20240817)
    for _ in range(100):
        terms = {}
        for _ in range(10):
            exponent = tuple(
                F(rng.randint(-6, 6), rng.choice((1, 1, 2, 3))) for _ in range(3)
            )
            logdeg = tuple(rng.randint(0, 2) for _ in range(3))
            terms[(exponent, logdeg)] = F(rng.randint(-9, 9), rng.randint(1, 7))
        series = LogSeries(3, terms)
        j, k = rng.randrange(3), rng.randrange(3)
        assert differentiate(differentiate(series, j), k) == differentiate(
            differentiate(series, k), j
        )


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("z", [F(0), F(1, 3), F(-5, 2)])
@pytest.mark.parametrize("k", range(-4, 5))
def test_differentiate_matches_coefficient_chain(m, z, k):
    # one-variable series t^(z+k) * f(log t) differentiates to the k-1 member
    poly = closed_form_f_coeffs(z, k, m)
    series = LogSeries(
        1, {((z + k,), (d,)): c for d, c in enumerate(poly.coeffs) if c}
    )
    prev = closed_form_f_coeffs(z, k - 1, m)
    want = LogSeries(
        1, {((z + k - 1,), (d,)): c for d, c in enumerate(prev.coeffs) if c}
    )
    assert differentiate(series, 0) == want


def test_box_op_entries_are_strict_integers():
    assert BoxOp((2, -1)).point == (2, -1)
    assert BoxOp((2, -1)).plus == (2, 0) and BoxOp((2, -1)).minus == (0, 1)
    for bad in ((1.7, -1.2, 0), ("2", "-2"), (True, False), (F(1), 0)):
        with pytest.raises(ProblemFileError, match="box operator entry"):
            BoxOp(bad)


def test_apply_box_zero_series():
    assert not apply_box(LogSeries(4), BoxOp((1, 1, -1, -1)))


def derivative_oracle(exponent, logdeg, coeff, orders):
    """Terms of prod_j (d/dlambda_j)^orders[j] of one monomial, read off the
    derivative chain: the k-th derivative of t^u log(t)^d is member -k of
    the chain that ``closed_form_f_coeffs`` describes."""
    terms = {((), ()): coeff}
    for u, d, k in zip(exponent, logdeg, orders):
        poly = closed_form_f_coeffs(u, -k, d).coeffs
        terms = {
            (e + (u - k,), degs + (m,)): c * w
            for (e, degs), c in terms.items()
            for m, w in enumerate(poly)
            if w
        }
    return terms


MONOMIAL = st.tuples(
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.integers(0, 2),
)


@settings(max_examples=120, deadline=None)
@given(
    data=st.data(),
    nvars=st.integers(1, 4),
    coeffs=st.lists(st.builds(F, st.integers(-5, 5), st.integers(1, 4)), min_size=1, max_size=3),
)
def test_apply_box_matches_product_of_derivative_chains(data, nvars, coeffs):
    point = data.draw(st.tuples(*[st.integers(-3, 3)] * nvars))
    op = BoxOp(point)
    want = {}
    series_terms = {}
    for coeff in coeffs:
        pairs = data.draw(st.tuples(*[MONOMIAL] * nvars))
        exponent = tuple(u for u, _ in pairs)
        logdeg = tuple(d for _, d in pairs)
        series_terms[(exponent, logdeg)] = series_terms.get((exponent, logdeg), 0) + coeff
        for sign, orders in ((1, op.plus), (-1, op.minus)):
            for key, c in derivative_oracle(exponent, logdeg, coeff, orders).items():
                want[key] = want.get(key, 0) + sign * c
    series = LogSeries(nvars, series_terms)
    assert apply_box(series, op) == LogSeries(nvars, want)
    for j in range(nvars):
        unit = tuple(int(i == j) for i in range(nvars))
        want_j = {}
        for (exponent, logdeg), coeff in series_terms.items():
            for key, c in derivative_oracle(exponent, logdeg, coeff, unit).items():
                want_j[key] = want_j.get(key, 0) + c
        assert differentiate(series, j) == LogSeries(nvars, want_j)


def test_apply_box_single_term_boundary_artifact(gauss_lattice):
    v = gauss_v(F(1, 2), F(1, 3))
    meta = SupportBox(v, gauss_lattice, 0)
    series = LogSeries.monomial(v, meta=meta)
    out = apply_box(series, BoxOp((-1, -1, 1, 1)))
    expected_exp = (F(-3, 2), F(-4, 3), F(0), F(0))
    assert out == LogSeries.monomial(expected_exp, coeff=F(-1, 6), meta=meta)
    # with an honest radius of 0 the artifact is outside the certified region,
    # which is empty, so the check certifies nothing and does not pass
    report = verify_box_operators(series, [BoxOp((-1, -1, 1, 1))])[0]
    assert len(report.violations) == 0
    assert report.certified_region == 0
    assert not report.passed


def test_apply_euler_base_monomial(gauss_lattice):
    v = gauss_v(F(1, 2), F(1, 3))
    series = LogSeries.monomial(v)
    for row, beta_i in zip(GAUSS_MATRIX, gauss_beta(F(1, 2), F(1, 3))):
        assert not apply_euler(series, EulerOp(row, beta_i))


def test_apply_euler_log_relation_vanishes(pyramid_lattice):
    # lambda^v log(lambda^l) with l in the lattice satisfies the Euler operators
    series = LogSeries.monomial(PYRAMID_V).mul_log_linear((1, 0, 1, 0, -2))
    for row, beta_i in zip(PYRAMID_MATRIX, PYRAMID_BETA):
        assert not apply_euler(series, EulerOp(row, beta_i))


def test_apply_euler_single_log_does_not_vanish():
    series = LogSeries.monomial(PYRAMID_V).mul_log_linear((1, 0, 0, 0, 0))
    out = apply_euler(series, EulerOp(PYRAMID_MATRIX[0], PYRAMID_BETA[0]))
    assert out == LogSeries.monomial(PYRAMID_V)


class TestVerification:
    def test_zero_series_passes(self, gauss_lattice):
        meta = SupportBox(gauss_v(F(1, 2), F(1, 3)), gauss_lattice, 5)
        report = verify_box_operators(LogSeries(4, meta=meta), [BoxOp((1, 1, -1, -1))])[0]
        assert report.passed and report.checked_term_count == 0

    def test_requires_metadata(self):
        with pytest.raises(ValueError):
            verify_box_operators(LogSeries(4), [BoxOp((1, 1, -1, -1))])

    def test_gauss_f_box_and_euler(self, gauss_lattice):
        v = gauss_v(F(2, 5), F(7, 3))
        series = build_tails(SupportBox(v, gauss_lattice, 6), [()])[()]
        assert verify_box_operators(series, [BoxOp(gauss_lattice.basis[0])])[0].passed
        assert verify_euler_annihilation(series, GAUSS_MATRIX, gauss_beta(F(2, 5), F(7, 3))).passed

    def test_pyramid_quasisolution_boxes(self, pyramid_lattice):
        box = SupportBox(PYRAMID_V, pyramid_lattice, 4)
        series_f, series_g = build_tails(box, [(), (4,)]).values()
        quasi = series_f.mul_log_linear((0, 0, 0, 0, 1)) + series_g
        # composite relations are annihilated too, not only basis vectors
        composite = tuple(a + b for a, b in zip(*pyramid_lattice.basis))
        flipped = tuple(-x for x in pyramid_lattice.basis[0])
        ops = [BoxOp(row) for row in (*pyramid_lattice.basis, composite, flipped)]
        assert all(report.passed for report in verify_box_operators(quasi, ops))

    @pytest.mark.parametrize("a", range(-3, 4))
    @pytest.mark.parametrize("b", range(-2, 3))
    def test_certified_region_is_the_count_of_doubly_covered_box_points(
        self, pyramid_lattice, a, b
    ):
        # oracle: box points x whose partner x - c is in the box too
        radius = 2
        series = build_tails(SupportBox(PYRAMID_V, pyramid_lattice, radius), [()])[()]
        row = tuple(a * p + b * q for p, q in zip(*pyramid_lattice.basis))
        span = range(-radius, radius + 1)
        want = sum(1 for x, y in itertools.product(span, span) if x - a in span and y - b in span)
        report = verify_box_operators(series, [BoxOp(row)])[0]
        assert report.certified_region == want
        assert report.passed == (want > 0)

    def test_quasisolution_fails_euler(self, pyramid_lattice):
        box = SupportBox(PYRAMID_V, pyramid_lattice, 4)
        series_f, series_g = build_tails(box, [(), (4,)]).values()
        quasi = series_f.mul_log_linear((0, 0, 0, 0, 1)) + series_g
        report = verify_euler_annihilation(quasi, PYRAMID_MATRIX, PYRAMID_BETA)
        assert not report.passed

    def test_combination_passes_euler(self, gauss_lattice):
        a, b = F(1, 2), F(1, 3)
        v = gauss_v(a, b)
        box = SupportBox(v, gauss_lattice, 6)
        tails = build_tails(box, [(), (0,), (1,), (2,), (3,)])
        solution = combine(tails, [(la, (a,)) for a, la in enumerate((-1, -1, 1, 1))])
        assert verify_euler_annihilation(solution, GAUSS_MATRIX, gauss_beta(a, b)).passed
        assert verify_box_operators(solution, [BoxOp(gauss_lattice.basis[0])])[0].passed

    def test_corrupted_partner_is_caught(self, pyramid_lattice):
        box = SupportBox(PYRAMID_V, pyramid_lattice, 4)
        series_f, series_g = build_tails(box, [(), (4,)]).values()
        quasi = series_f.mul_log_linear((0, 0, 0, 0, 1)) + series_g
        corrupted = with_term_added(quasi, (F(1), F(0), F(1), F(0), F(-1)), (0,) * 5, 1)
        failures = verify_box_operators(corrupted, [BoxOp(row) for row in pyramid_lattice.basis])
        assert any(not report.passed for report in failures)
        bad = next(report for report in failures if not report.passed)
        assert bad.violations

    def test_off_coset_series_raises(self, pyramid_lattice):
        meta = SupportBox(PYRAMID_V, pyramid_lattice, 3)
        rogue = LogSeries.monomial((F(1, 7), F(1), F(1), F(1), F(1)), meta=meta)
        with pytest.raises(NonLatticeExponent):
            verify_box_operators(rogue, [BoxOp(pyramid_lattice.basis[0])])


def test_gauss_second_order_quasisolutions_box_verified(gauss_lattice):
    a, b = F(1, 2), F(1, 3)
    v = gauss_v(a, b)
    radius = 5
    keys = [(), *((i,) for i in range(4)), *itertools.combinations_with_replacement(range(4), 2)]
    tails = build_tails(SupportBox(v, gauss_lattice, radius), keys)
    series_f = tails[()]
    series_g = [tails[i,] for i in range(4)]
    ops = [BoxOp(row) for row in gauss_lattice.basis]
    for i in range(4):
        for j in range(i, 4):
            unit_i = tuple(1 if k == i else 0 for k in range(4))
            unit_j = tuple(1 if k == j else 0 for k in range(4))
            quasi = series_f.mul_log_linear(unit_i).mul_log_linear(unit_j)
            if i == j:
                quasi = quasi + series_g[i].mul_log_linear(unit_i).scale(2) + tails[i, i]
            else:
                quasi = (
                    quasi
                    + series_g[i].mul_log_linear(unit_j)
                    + series_g[j].mul_log_linear(unit_i)
                    + tails[i, j]
                )
            assert all(report.passed for report in verify_box_operators(quasi, ops)), (i, j)


def test_mutations_flip_verification(gauss_lattice):
    # every single-coefficient perturbation of a verified quasisolution
    # must be caught by at least one basis box operator
    a, b = F(1, 2), F(1, 3)
    v = gauss_v(a, b)
    radius = 4
    series_f, series_g = build_tails(SupportBox(v, gauss_lattice, radius), [(), (0,)]).values()
    quasi = series_f.mul_log_linear((1, 0, 0, 0)) + series_g
    ops = [BoxOp(row) for row in gauss_lattice.basis]
    assert all(report.passed for report in verify_box_operators(quasi, ops))
    for key, coeff in quasi.items():
        mutated = with_term_added(quasi, *key, 1)
        assert not all(report.passed for report in verify_box_operators(mutated, ops)), (key, coeff)


DIFF_LATTICES = (kernel_basis(GAUSS_MATRIX), kernel_basis(PYRAMID_MATRIX))
SMALL_FRACTION = st.builds(F, st.integers(-6, 6), st.sampled_from((1, 2, 3, 4, 6)))
COEFF = st.builds(F, st.integers(-9, 9).filter(bool), st.sampled_from((1, 2, 5, 7, 12)))


@st.composite
def certified_series(draw):
    """A series with truncation metadata, mostly on its base coset.

    Exponents are the base plus a lattice point of a box one wider than
    the radius, and some are moved off the coset: by half a lattice point
    (in the span, off the lattice) or by a small rational vector (mostly
    off the span).
    """
    lattice = draw(st.sampled_from(DIFF_LATTICES))
    n = lattice.ambient_dim
    base = tuple(draw(SMALL_FRACTION) for _ in range(n))
    radius = draw(st.integers(0, 3))
    span = st.integers(-radius - 1, radius + 1)
    terms = {}
    for _ in range(draw(st.integers(0, 8))):
        point = point_of(lattice, [draw(span) for _ in range(lattice.rank)])
        exponent = tuple(b + x for b, x in zip(base, point))
        move = draw(st.sampled_from(("none",) * 6 + ("half", "rational")))
        if move == "half":
            half = point_of(lattice, [draw(st.integers(-3, 3)) for _ in range(lattice.rank)])
            exponent = tuple(e + F(x, 2) for e, x in zip(exponent, half))
        elif move == "rational":
            exponent = tuple(e + draw(SMALL_FRACTION) for e in exponent)
        logdeg = tuple(draw(st.integers(0, 2)) for _ in range(n))
        terms[(exponent, logdeg)] = draw(COEFF)
    return LogSeries(n, terms, SupportBox(base, lattice, radius))


@st.composite
def box_ops(draw, lattice):
    """A relation of ``lattice``, or any small integer vector (unbalanced, mostly off the span)."""
    if draw(st.integers(0, 2)):
        coords = [draw(st.integers(-2, 2)) for _ in range(lattice.rank)]
        return BoxOp(point_of(lattice, coords))
    return BoxOp(tuple(draw(st.integers(-2, 2)) for _ in range(lattice.ambient_dim)))


def outcome(check, *args):
    """The value of ``check(*args)``, or the type and message of the error it raised."""
    try:
        return check(*args)
    except NonLatticeExponent as exc:
        return (type(exc), str(exc))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), series=certified_series())
def test_integer_operators_match_fraction_oracles(data, series):
    lattice = series.meta.lattice
    op = data.draw(box_ops(lattice))
    assert apply_box(series, op) == fraction_apply_box(series, op)
    got = outcome(verify_box_operators, series, [op])
    assert got == outcome(lambda: [fraction_verify_box(series, op)])
    row = tuple(data.draw(st.integers(-2, 2)) for _ in range(series.nvars))
    euler = EulerOp(row, data.draw(SMALL_FRACTION))
    assert apply_euler(series, euler) == fraction_apply_euler(series, euler)
    j = data.draw(st.integers(0, series.nvars - 1))
    unit = [int(i == j) for i in range(series.nvars)]
    assert differentiate(series, j) == LogSeries(series.nvars, fraction_derive(series, unit))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), series=certified_series())
def test_shared_sides_verify_as_each_operator_alone(data, series):
    # the basis shares sides (the pyramid's minus sides agree), and so do an
    # operator, its negative and repeats of it
    lattice = series.meta.lattice
    drawn = data.draw(st.lists(box_ops(lattice), min_size=1, max_size=3))
    ops = [BoxOp(row) for row in lattice.basis] + drawn + [BoxOp(tuple(-x for x in drawn[0].point))]
    ops = data.draw(st.permutations(ops + drawn[:1]))

    def each(series, ops):
        return [verify_box_operators(series, [op])[0] for op in ops]

    def oracle(series, ops):
        return [fraction_verify_box(series, op) for op in ops]

    got = outcome(verify_box_operators, series, ops)
    assert got == outcome(each, series, ops) == outcome(oracle, series, ops)


def test_box_check_solves_once_per_residual_term(pyramid_lattice, monkeypatch):
    # one integer solve per residual term, and one coords_of, for l
    calls, solves = [], []
    solve = RelationLattice.coords_of

    def counted(self, vec):
        calls.append(vec)
        return solve(self, vec)

    def counted_solve(rows, vec, den=1):
        solves.append(vec)
        return solve_echelon(rows, vec, den)

    monkeypatch.setattr(RelationLattice, "coords_of", counted)
    monkeypatch.setattr(operators, "solve_echelon", counted_solve)
    series_f, series_g = build_tails(SupportBox(PYRAMID_V, pyramid_lattice, 4), [(), (4,)]).values()
    quasi = series_f.mul_log_linear((0, 0, 0, 0, 1)) + series_g
    corrupted = with_term_added(quasi, (F(1), F(0), F(1), F(0), F(-1)), (0,) * 5, 1)
    for series in (quasi, corrupted):
        for row in pyramid_lattice.basis:
            calls.clear()
            solves.clear()
            report = verify_box_operators(series, [BoxOp(row)])[0]
            assert report.checked_term_count > 0
            assert len(calls) == 1 and len(solves) == report.checked_term_count
