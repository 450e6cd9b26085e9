"""Series builders against closed forms, combinations, arithmetic, text format."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkzlog import (
    LogSeries,
    ProblemFileError,
    SupportBox,
    build_tails,
    combine,
    from_text,
    kernel_basis,
    tails_read,
    to_text,
)
from gkzlog.cli import load_problem
from tests.conftest import (
    FIXTURES,
    FractionSeries,
    fraction_combine,
    fraction_to_text,
    gauss_v,
    solution_terms,
    tails_of,
)
from tests.oracles import bracket_vec, filter_terms, position_splits, with_term_added

PYRAMID_V = (F(0), F(0), F(0), F(0), F(1))


def fact(n):
    return math.factorial(n)


def harmonic(n):
    return sum(F(1, i) for i in range(1, n + 1))


def pyramid_exponent(a, b):
    return (F(a), F(b), F(a), F(b), F(1 - 2 * a - 2 * b))


class TestGaussBuilders:
    def test_f_first_coefficient(self, gauss_lattice):
        v = gauss_v(F(1, 2), F(1, 3))
        series = build_tails(SupportBox(v, gauss_lattice, 4), [()])[()]
        exp = tuple(x + d for x, d in zip(v, (-1, -1, 1, 1)))
        assert series.coefficient(exp) == F(1, 6)

    def test_f_base_coefficient_is_one(self, gauss_lattice):
        v = gauss_v(F(2, 5), F(7, 3))
        series = build_tails(SupportBox(v, gauss_lattice, 6), [()])[()]
        assert series.coefficient(v) == 1

    def test_g_vanishes_at_base(self, gauss_lattice):
        v = gauss_v(F(1, 2), F(1, 3))
        tails = build_tails(SupportBox(v, gauss_lattice, 5), [(i,) for i in range(4)])
        for series in tails.values():
            assert series.coefficient(v) == 0


class TestPyramidBuilders:
    def test_f_is_single_monomial(self, pyramid_lattice):
        series = build_tails(SupportBox(PYRAMID_V, pyramid_lattice, 6), [()])[()]
        assert series == LogSeries.monomial(PYRAMID_V)

    def test_g_zero_for_first_four(self, pyramid_lattice):
        tails = build_tails(SupportBox(PYRAMID_V, pyramid_lattice, 6), [(i,) for i in range(4)])
        assert not any(tails.values())

    def test_g_last_closed_form(self, pyramid_lattice):
        series = build_tails(SupportBox(PYRAMID_V, pyramid_lattice, 6), [(4,)])[(4,)]
        for a in range(4):
            for b in range(4):
                if (a, b) == (0, 0):
                    continue
                want = F(fact(2 * a + 2 * b - 2), fact(a) ** 2 * fact(b) ** 2)
                assert series.coefficient(pyramid_exponent(a, b)) == want

    def test_h_diag_closed_form(self, pyramid_lattice):
        series = build_tails(SupportBox(PYRAMID_V, pyramid_lattice, 6), [(4, 4)])[(4, 4)]
        assert series.coefficient(pyramid_exponent(1, 0)) == 2
        assert series.coefficient(pyramid_exponent(1, 1)) == -2
        for a in range(4):
            for b in range(4):
                if (a, b) == (0, 0):
                    continue
                k = 2 * a + 2 * b
                want = 2 * F(fact(k - 2), fact(a) ** 2 * fact(b) ** 2) * (1 - harmonic(k - 2))
                assert series.coefficient(pyramid_exponent(a, b)) == want

    def test_h_off_with_last_closed_form(self, pyramid_lattice):
        tails = build_tails(SupportBox(PYRAMID_V, pyramid_lattice, 6), [(i, 4) for i in range(4)])
        for i in (0, 2):
            series = tails[i, 4]
            for a in range(1, 4):
                for b in range(4):
                    want = -F(fact(2 * a + 2 * b - 2), fact(a) ** 2 * fact(b) ** 2) * harmonic(a)
                    assert series.coefficient(pyramid_exponent(a, b)) == want
        for i in (1, 3):
            series = tails[i, 4]
            assert series.coefficient(pyramid_exponent(2, 1)) == -F(fact(4), fact(2) ** 2) * harmonic(1)

    def test_h_opposite_corners(self, pyramid_lattice):
        tails = build_tails(SupportBox(PYRAMID_V, pyramid_lattice, 6), [(0, 2), (1, 3)])
        h13 = tails[0, 2]
        assert h13.coefficient(pyramid_exponent(-1, 0)) == F(1, 6)
        for a in range(-3, 1):
            for b in range(0, 4):
                if not (-a >= b >= 0) or a == 0:
                    continue
                want = F(fact(-a - 1) ** 2, fact(b) ** 2 * fact(-2 * a - 2 * b + 1))
                assert h13.coefficient(pyramid_exponent(a, b)) == want
        h24 = tails[1, 3]
        assert h24.coefficient(pyramid_exponent(0, -1)) == F(1, 6)

    def test_h_trivial_pairs_are_zero(self, pyramid_lattice):
        box = SupportBox(PYRAMID_V, pyramid_lattice, 5)
        assert not any(build_tails(box, [(0, 1), (0, 3), (1, 2), (2, 3)]).values())

    def test_h_symmetric(self, pyramid_lattice):
        box = SupportBox(PYRAMID_V, pyramid_lattice, 4)
        for i in range(5):
            for j in range(i + 1, 5):
                a = build_tails(box, [(i, j)])[(i, j)]
                b = build_tails(box, [(j, i)])[(j, i)]
                assert a == b


def test_f_extension_over_single_excluded_support_changes_nothing(pyramid_lattice):
    # brackets vanish on the extra support points, so extending F's sum
    # over the single-excluded set adds nothing
    box = SupportBox(PYRAMID_V, pyramid_lattice, 5)
    plain = set(box.support_set(()))
    extended = box.support_set((4,))
    for point in extended:
        if point not in plain:
            assert bracket_vec(PYRAMID_V, point) == 0


class TestCombinations:
    def test_tails_read_f_first_then_by_length_and_index(self):
        terms = [(1, (4, 2)), (0, (1,)), (-2, (3, 3)), (1, (0,))]
        assert tails_read(terms) == [(), (0,), (2,), (3,), (4,), (2, 4), (3, 3)]
        assert tails_read([]) == [()]

    def test_first_order_zero_point(self, pyramid_lattice):
        box = SupportBox(PYRAMID_V, pyramid_lattice, 4)
        terms = solution_terms((0, 0, 0, 0, 0))
        assert not combine(tails_of(box, terms), terms)

    def test_first_order_displayed_solutions(self, pyramid_lattice):
        box = SupportBox(PYRAMID_V, pyramid_lattice, 5)
        series_f, series_g4 = build_tails(box, [(), (4,)]).values()
        for point, weight in (((-1, 0, -1, 0, 2), 2), ((0, 1, 0, 1, -2), -2)):
            terms = solution_terms(point)
            got = combine(tails_of(box, terms), terms)
            assert got == series_f.mul_log_linear(point) + series_g4.scale(weight)

    def test_second_order_zero_points(self, pyramid_lattice):
        box = SupportBox(PYRAMID_V, pyramid_lattice, 3)
        zero = (0, 0, 0, 0, 0)
        terms = solution_terms(zero, zero)
        assert not combine(tails_of(box, terms), terms)

    def test_second_order_displayed_tail(self, pyramid_lattice):
        box = SupportBox(PYRAMID_V, pyramid_lattice, 5)
        l1, l2 = (-1, 0, -1, 0, 2), (0, 1, 0, 1, -2)
        terms = solution_terms(l1, l2)
        got = combine(tails_of(box, terms), terms)
        tails = build_tails(box, [(), (4,), (4, 4), *((i, 4) for i in range(4))])
        series_g4 = tails[4,]
        want = tails[()].mul_log_linear(l1).mul_log_linear(l2)
        want = want + series_g4.scale(2).mul_log_linear(l2)
        want = want + series_g4.scale(-2).mul_log_linear(l1)
        want = want + tails[4, 4].scale(-4)
        for i in range(4):
            want = want + tails[i, 4].scale(2)
        assert got == want


# The combinations as chains of whole-series operations, with the log-form
# product written out here, term by term.
def times_log_form(series, ivec):
    out = LogSeries(series.nvars, meta=series.meta)
    for (exponent, logdeg), coeff in series.items():
        for i, weight in enumerate(ivec):
            if weight:
                bumped = list(logdeg)
                bumped[i] += 1
                out = out + LogSeries.monomial(exponent, bumped, coeff * weight)
    return out


def first_order_chain(series_f, series_g, point):
    out = times_log_form(series_f, point)
    for weight, g in zip(point, series_g):
        if weight:
            out = out + g.scale(weight)
    return out


def second_order_chain(series_f, series_g, table_h, point, point2):
    n = series_f.nvars
    out = times_log_form(times_log_form(series_f, point), point2)
    first = LogSeries(n, meta=series_f.meta)
    second = LogSeries(n, meta=series_f.meta)
    for i in range(n):
        if point[i]:
            first = first + series_g[i].scale(point[i])
        if point2[i]:
            second = second + series_g[i].scale(point2[i])
    out = out + times_log_form(first, point2) + times_log_form(second, point)
    for i in range(n):
        for j in range(n):
            if point[i] * point2[j]:
                out = out + table_h[i][j].scale(point[i] * point2[j])
    return out


NVARS = 3
SERIES = st.dictionaries(
    st.tuples(st.tuples(*[st.integers(-1, 1)] * NVARS), st.tuples(*[st.integers(0, 1)] * NVARS)),
    st.builds(F, st.integers(-4, 4), st.integers(1, 3)),
    max_size=3,
).map(lambda terms: LogSeries(NVARS, terms))
POINT = st.tuples(*[st.integers(-2, 2)] * NVARS)


@settings(max_examples=100, deadline=None)
@given(
    series_f=SERIES,
    series_g=st.lists(SERIES, min_size=NVARS, max_size=NVARS),
    upper=st.lists(SERIES, min_size=6, max_size=6),
    point=POINT,
    point2=POINT,
    index=st.integers(0, NVARS - 1),
)
def test_combinations_equal_the_operation_chains(series_f, series_g, upper, point, point2, index):
    cells = iter(upper)
    table = [[None] * NVARS for _ in range(NVARS)]
    tails = {(): series_f}
    for i in range(NVARS):
        tails[(i,)] = series_g[i]
        for j in range(i, NVARS):
            table[i][j] = table[j][i] = tails[(i, j)] = next(cells)
    got = combine(tails, solution_terms(point))
    assert got == first_order_chain(series_f, series_g, point)
    got = combine(tails, solution_terms(point, point2))
    assert got == second_order_chain(series_f, series_g, table, point, point2)
    # the repeated index (a, a): F*log_a^2 + 2*G_a*log_a + H_aa
    unit = tuple(int(k == index) for k in range(NVARS))
    got = combine(tails, [(1, (index, index))])
    assert got == second_order_chain(series_f, series_g, table, unit, unit)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_order_k_solution_leads_with_powers_of_the_log_form(k):
    # the order-k solution of l, ..., l is F*(l.log)^k + k*(sum_a l_a G_a)*(l.log)^(k-1)
    # plus terms of lower log degree
    problem = load_problem(str(FIXTURES / "quintic.json"))
    lattice = kernel_basis(problem.matrix)
    (point,) = lattice.basis
    terms = solution_terms(*[point] * k)
    tails = build_tails(SupportBox(problem.v, lattice, 3), tails_read(terms))
    solution = combine(tails, terms)

    def log_degree(series, d):
        return filter_terms(series, lambda exponent, logdeg: sum(logdeg) == d)

    def times_power(series, d):
        for _ in range(d):
            series = series.mul_log_linear(point)
        return series

    partner = LogSeries(len(point))
    for a, weight in enumerate(point):
        partner = partner + tails[(a,)].scale(weight)
    assert log_degree(solution, k) == times_power(tails[()], k)
    assert log_degree(solution, k - 1) == times_power(partner, k - 1).scale(k)
    assert log_degree(solution, k - 1)


class TestCombinationChecks:
    def _metas(self, gauss_lattice):
        v = gauss_v(1, 2)
        return SupportBox(v, gauss_lattice, 2), SupportBox(v, gauss_lattice, 3)

    def _tails(self, n, zero):
        tails = {(): zero, **{(i,): zero for i in range(n)}}
        tails.update({(i, j): zero for i in range(n) for j in range(i, n)})
        return tails

    def test_meta_merges_over_entering_series(self, gauss_lattice):
        meta, other = self._metas(gauss_lattice)
        tails = self._tails(4, LogSeries(4))
        tails[(0,)], tails[(2,)] = LogSeries(4, meta=meta), LogSeries(4, meta=other)
        assert combine(tails, [(1, (0,))]).meta == meta
        assert combine(tails, [(1, (0, 0))]).meta == meta
        # a zero weight reads nothing
        assert combine(tails, [(1, (0,)), (0, (2,))]).meta == meta
        with pytest.raises(ValueError, match="metadata"):
            combine(tails, [(1, (0,)), (1, (2,))])
        with pytest.raises(ValueError, match="metadata"):
            combine(tails, [(1, (0, 2))])
        tails[(0, 1)] = LogSeries(4, meta=other)
        with pytest.raises(ValueError, match="metadata"):
            combine(tails, [(1, (1, 0))])

    def test_entering_series_of_another_dimension(self):
        tails = self._tails(2, LogSeries(2))
        tails[(1,)] = LogSeries(3)
        assert not combine(tails, [(1, (0,))])
        with pytest.raises(ValueError, match="dimension"):
            combine(tails, [(1, (1,))])
        with pytest.raises(ValueError, match="dimension"):
            combine(tails, [(1, (0, 1))])
        tails[(0, 0)] = LogSeries(3)
        with pytest.raises(ValueError, match="dimension"):
            combine(tails, [(1, (0, 0))])
        with pytest.raises(ValueError, match="dimension"):
            combine(tails, [(1, (2,))])


class TestArithmetic:
    def test_add_negate(self):
        s = LogSeries.monomial((F(1, 2), F(0)), (1, 0), coeff=F(3, 4))
        assert not (s + (-s))
        assert s.scale(1) == s
        assert s.scale(0) == LogSeries(2)

    def test_mul_log_linear_by_hand(self):
        s = LogSeries(2, {((F(1), F(0)), (0, 0)): F(2), ((F(0), F(1)), (1, 0)): F(3)})
        out = s.mul_log_linear((1, -2))
        assert out.coefficient((1, 0), (1, 0)) == 2
        assert out.coefficient((1, 0), (0, 1)) == -4
        assert out.coefficient((0, 1), (2, 0)) == 3
        assert out.coefficient((0, 1), (1, 1)) == -6
        assert len(out) == 4

    def test_filter_terms(self):
        s = LogSeries(1, {((F(0),), (0,)): 1, ((F(1),), (0,)): 2})
        assert len(filter_terms(s, lambda e, d: e[0] > 0)) == 1

    def test_meta_conflict_raises(self, gauss_lattice, pyramid_lattice):
        a = build_tails(SupportBox(gauss_v(F(1, 2), F(1, 3)), gauss_lattice, 2), [()])[()]
        b = build_tails(SupportBox(gauss_v(F(1, 2), F(1, 3)), gauss_lattice, 3), [()])[()]
        with pytest.raises(ValueError):
            a + b

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            LogSeries(2) + LogSeries(3)

    def test_coefficient_checks_lengths(self):
        s = LogSeries.monomial((1, 2, 3))
        assert s.coefficient((1, 2, 3)) == 1
        for exponent, logdeg in (((1, 2), None), ((1, 2, 3), (0, 0)), ((1, 2, 3, 4), None)):
            with pytest.raises(ValueError, match="dimension mismatch"):
                s.coefficient(exponent, logdeg)

    def test_log_powers_are_strict_integers(self):
        assert LogSeries.monomial((1, 2), (2, 1)).coefficient((1, 2), (2, 1)) == 1
        for bad in ((0.9, 1), (True, 0), ("1", 0), (F(1), 0)):
            with pytest.raises(ProblemFileError, match="log power"):
                LogSeries.monomial((1, 2), bad)
            with pytest.raises(ProblemFileError, match="log power"):
                LogSeries.monomial((1, 2)).coefficient((1, 2), bad)
        with pytest.raises(ValueError, match="negative log power"):
            LogSeries.monomial((1, 2), (-1, 0))


class TestSerialization:
    def test_round_trip(self, pyramid_lattice):
        box = SupportBox(PYRAMID_V, pyramid_lattice, 4)
        series_f, series_g = build_tails(box, [(), (4,)]).values()
        quasi = series_f.mul_log_linear((0, 0, 0, 0, 1)) + series_g
        text = to_text(quasi)
        again = from_text(text)
        assert again == quasi
        assert to_text(again) == text

    def test_zero_series(self):
        assert to_text(LogSeries(3)) == ""
        assert from_text("", nvars=3) == LogSeries(3)
        with pytest.raises(ValueError):
            from_text("")

    def test_golden_text(self, gauss_lattice):
        series = build_tails(SupportBox(gauss_v(F(1, 2), F(1, 3)), gauss_lattice, 2), [()])[()]
        # depth-2 coefficient: (1/2)(3/2) * (1/3)(4/3) / 2!^2 = 1/12
        assert to_text(series) == (
            "1/12 * lambda^(-5/2,-7/3,2,2) * log^(0,0,0,0)\n"
            "1/6 * lambda^(-3/2,-4/3,1,1) * log^(0,0,0,0)\n"
            "1 * lambda^(-1/2,-1/3,0,0) * log^(0,0,0,0)\n"
        )

    def test_comments_ignored(self):
        text = "# header\n\n1/2 * lambda^(-1/2,0) * log^(0,1)\n"
        series = from_text(text)
        assert series.coefficient((F(-1, 2), 0), (0, 1)) == F(1, 2)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            from_text("1/2 + lambda\n")
        # a zero denominator, in the coefficient or in an exponent, names its line
        good = "1 * lambda^(0) * log^(0)\n"
        for bad in ("1/0 * lambda^(0) * log^(0)", "1 * lambda^(1/0) * log^(0)"):
            with pytest.raises(ValueError, match="^line 2: ") as caught:
                from_text(good + bad + "\n")
            assert type(caught.value) is ValueError
        # so does a negative log power
        with pytest.raises(ValueError, match="^line 2: negative log power$") as caught:
            from_text(good + "1 * lambda^(0) * log^(-1)\n")
        assert type(caught.value) is ValueError

    def test_repeated_terms_add_up(self):
        text = "1/2 * lambda^(1/2) * log^(0)\n-1/2 * lambda^(2/4) * log^(0)\n"
        text += "1/3 * lambda^(1) * log^(0)\n"
        assert from_text(text) == LogSeries.monomial((1,), coeff=F(1, 3))
        assert to_text(from_text(text)) == "1/3 * lambda^(1) * log^(0)\n"


def test_meta_travels(pyramid_lattice):
    box = SupportBox(PYRAMID_V, pyramid_lattice, 4)
    tails = build_tails(box, [*tails_read([(1, (0, 4))]), (4, 4)])
    assert len(tails) == 5 and all(tail.meta is box for tail in tails.values())
    assert tails[()].mul_log_linear((0, 0, 0, 0, 1)).meta is box
    assert combine(tails, [(1, (0, 4))]).meta is box


def test_tails_of_equal_boxes_combine(pyramid_lattice):
    box, twin = (SupportBox(PYRAMID_V, pyramid_lattice, 4) for _ in range(2))
    assert box is not twin and box == twin and hash(box) == hash(twin)
    tails = build_tails(box, [(), (4,)])
    mixed = {(): tails[()], (4,): build_tails(twin, [(4,)])[(4,)]}
    assert combine(mixed, [(1, (4,))]) == combine(tails, [(1, (4,))])


# The integer-keyed series against FractionSeries, the Fraction-keyed class
# it replaced: the same terms, the same text, through every operation.
DIFF_NVARS = 2
MIXED = st.builds(F, st.integers(-6, 6), st.sampled_from((1, 1, 2, 3, 4, 6)))
DIFF_TERMS = st.dictionaries(
    st.tuples(st.tuples(*[MIXED] * DIFF_NVARS), st.tuples(*[st.integers(0, 2)] * DIFF_NVARS)),
    st.builds(F, st.integers(-5, 5), st.sampled_from((1, 2, 3, 7, 12))),
    max_size=5,
)
WEIGHT = st.builds(F, st.integers(-3, 3), st.sampled_from((1, 1, 2, 5)))
PREDICATES = (
    lambda e, d: all(x.denominator == 1 for x in e),
    lambda e, d: e[0] > 0,
    lambda e, d: sum(d) % 2 == 0,
)


def same(series, oracle):
    """``series`` holds ``oracle``'s terms, and both print the same text."""
    assert series.nvars == oracle.nvars and series.meta == oracle.meta
    assert dict(series.items()) == oracle._terms and len(series) == len(oracle._terms)
    assert to_text(series) == fraction_to_text(oracle)
    assert from_text(to_text(series), nvars=series.nvars) == series
    return series


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    first=DIFF_TERMS,
    second=DIFF_TERMS,
    weight=WEIGHT,
    ivec=st.tuples(*[WEIGHT] * DIFF_NVARS),
    predicate=st.sampled_from(PREDICATES),
)
def test_integer_series_match_the_fraction_oracle(data, first, second, weight, ivec, predicate):
    a, b = LogSeries(DIFF_NVARS, first), LogSeries(DIFF_NVARS, second)
    ra, rb = FractionSeries(DIFF_NVARS, first), FractionSeries(DIFF_NVARS, second)
    same(a, ra)
    same(a + b, ra + rb)
    same(a - b, ra - rb)
    same(-a, -ra)
    same(a.scale(weight), ra.scale(weight))
    same(a.mul_log_linear(ivec), ra.mul_log_linear(ivec))
    same(filter_terms(a, predicate), ra.filter_terms(predicate))
    exponent = data.draw(st.tuples(*[MIXED] * DIFF_NVARS))
    logdeg = data.draw(st.tuples(*[st.integers(0, 2)] * DIFF_NVARS))
    same(with_term_added(a, exponent, logdeg, weight), ra.with_term_added(exponent, logdeg, weight))
    # exponents on the series, off its scale (a fifth never divides D) and anywhere
    probes = [key for key in first] + [((F(1, 5), F(0)), (0, 0)), (exponent, logdeg)]
    for probe in probes:
        assert a.coefficient(*probe) == ra.coefficient(*probe)
    # combine, over tails of mixed scales
    tails, oracle_tails = {}, {}
    for key in [(), (0,), (1,), (0, 0), (0, 1), (1, 1)]:
        terms = data.draw(DIFF_TERMS)
        tails[key] = LogSeries(DIFF_NVARS, terms)
        oracle_tails[key] = FractionSeries(DIFF_NVARS, terms)
    terms = [(weight, (0, 1)), (ivec[0], (1,)), (ivec[1], (0, 0)), (1, ())]
    same(combine(tails, terms), fraction_combine(oracle_tails, terms))


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    terms=st.lists(
        st.tuples(WEIGHT, st.lists(st.integers(0, DIFF_NVARS - 1), max_size=4).map(tuple)),
        max_size=3,
    ),
)
def test_combine_matches_the_position_subset_oracle(data, terms):
    # each sub-multiset once with its multiplicity, against all 2**k
    # position subsets one at a time, up to order 4
    keys = {()} | {t for w, logs in terms if w for t, _ in position_splits(logs)}
    assert tails_read(terms) == sorted(keys, key=lambda key: (len(key), key))
    drawn = {key: data.draw(DIFF_TERMS) for key in sorted(keys)}
    tails = {key: LogSeries(DIFF_NVARS, t) for key, t in drawn.items()}
    oracle_tails = {key: FractionSeries(DIFF_NVARS, t) for key, t in drawn.items()}
    same(combine(tails, terms), fraction_combine(oracle_tails, terms))


def test_equality_across_exponent_scales():
    # cancelling the only half-integer exponent leaves D = 2 on one side, 1 on the other
    s = LogSeries(1, {((F(1, 2),), (0,)): 1, ((F(1),), (0,)): 2})
    whole = with_term_added(s, (F(1, 2),), (0,), -1)
    plain = LogSeries.monomial((1,), coeff=2)
    assert (whole.exp_den, plain.exp_den) == (2, 1)
    assert whole == plain and plain == whole
    assert whole + plain == plain.scale(2)
    assert to_text(whole) == to_text(plain) == "2 * lambda^(1) * log^(0)\n"
    assert whole != LogSeries.monomial((F(1, 2),), coeff=2)
    # the same integer terms over another coefficient denominator
    assert LogSeries.monomial((1,), coeff=F(1, 2)) != LogSeries.monomial((1,))


def test_coefficient_off_the_exponent_scale_is_zero():
    s = LogSeries(2, {((F(1, 2), F(1, 3)), (0, 1)): F(5, 7)})
    assert s.exp_den == 6 and s.coeff_den == 7
    assert s.coefficient((F(1, 2), F(1, 3)), (0, 1)) == F(5, 7)
    # 3/4 would land on the key of 1/2 if its denominator were not checked against D = 6
    for exponent in ((F(3, 4), F(1, 3)), (F(1, 2), F(1, 9)), (F(1, 5), 0)):
        assert s.coefficient(exponent, (0, 1)) == 0


def test_series_pipeline_hashes_no_fraction(monkeypatch, tmp_path):
    # solve --order 2 on the pyramid: the tails, their combinations, the box
    # checks and the text keep every term on integer keys
    from gkzlog import cli, logseries, operators

    phases = {
        "build_tails": logseries,
        "combine": logseries,
        "verify_box_operators": operators,
        "to_text": logseries,
    }
    calls, active = dict.fromkeys(phases, 0), []
    fraction_hash = F.__hash__

    def counted_hash(self):
        if active:
            calls[active[-1]] += 1
        return fraction_hash(self)

    def counted(name, fn):
        def run(*args):
            active.append(name)
            try:
                return fn(*args)
            finally:
                active.pop()

        return run

    for name, module in phases.items():  # cli imports each when solve runs
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    monkeypatch.setattr(F, "__hash__", counted_hash)
    argv = ["solve", str(FIXTURES / "square_pyramid.json"), "--order", "2", "--radius", "4"]
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    assert hash(F(1, 2)) == fraction_hash(F(1, 2)) and not active
    assert calls == dict.fromkeys(phases, 0)
