"""Acceptance suite: one test per criterion, one printed line per verdict.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every expected value
is computed by an independent oracle inside this module (plain factorial,
harmonic, and rising-product loops) or in ``tests/oracles.py`` (the
closed forms of the derivative chain), never by the code under test.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

from gkzlog import (
    BoxOp,
    LogSeries,
    NoPositiveFunctional,
    SupportBox,
    build_system,
    build_tails,
    combine,
    differentiate,
    f_coeffs,
    has_unique_interior_point,
    integrality_report,
    interior_lattice_points,
    kernel_basis,
    minkowski_hull,
    mirror_map,
    positive_grading,
    verify_box_operators,
    verify_euler_annihilation,
)
from gkzlog.ci_mirror import render_integrality_report
from gkzlog.cli import main
from tests.conftest import (
    FIXTURES,
    GAUSS_MATRIX,
    PYRAMID_BETA,
    PYRAMID_MATRIX,
    PYRAMID_V,
    QUADRILATERAL_SETS,
    TWO_TRIANGLES_SETS,
    box_points,
    gauss_beta,
    gauss_v,
    solution_terms,
    tails_of,
)
from tests.oracles import bracket, dlog, elem_sym_shifted, plus, scaled, with_term_added


@contextmanager
def criterion(number, description, limit=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({description}): FAIL", flush=True)
        raise
    elapsed = time.perf_counter() - start
    if limit is not None and elapsed >= limit:
        print(
            f"criterion {number} ({description}): FAIL "
            f"[{elapsed:.2f}s over the {limit}s limit]",
            flush=True,
        )
        raise AssertionError(f"runtime {elapsed:.2f}s exceeds {limit}s")
    print(f"criterion {number} ({description}): PASS [{elapsed:.2f}s]", flush=True)


# --- independent oracles ---------------------------------------------------


def fact(n):
    return math.factorial(n)


def rising(z, n):
    out = F(1)
    for m in range(n):
        out *= z + m
    return out


def harmonic(n):
    return sum(F(1, i) for i in range(1, n + 1))


# --- criteria ---------------------------------------------------------------


def test_criterion_1_gauss_example():
    with criterion(1, "Gauss series and logarithmic solution", limit=5.0):
        lattice = kernel_basis(GAUSS_MATRIX)
        radius = 10
        for a, b in ((F(1, 2), F(1, 3)), (F(2, 5), F(7, 3))):
            v = gauss_v(a, b)
            box = SupportBox(v, lattice, radius)
            series_f = build_tails(box, [()])[()]
            for depth in range(radius + 1):
                exponent = (-a - depth, -b - depth, F(depth), F(depth))
                want = rising(a, depth) * rising(b, depth) / F(fact(depth)) ** 2
                assert series_f.coefficient(exponent) == want

            terms = solution_terms((-1, -1, 1, 1))
            solution = combine(tails_of(box, terms), terms)
            for depth in range(radius + 1):
                exponent = (-a - depth, -b - depth, F(depth), F(depth))
                factor = sum(
                    1 / (a + m) + 1 / (b + m) - F(2, 1 + m) for m in range(depth)
                )
                want = rising(a, depth) * rising(b, depth) / F(fact(depth)) ** 2
                assert solution.coefficient(exponent) == want * factor
                for i, weight in enumerate((-1, -1, 1, 1)):
                    logdeg = tuple(1 if k == i else 0 for k in range(4))
                    assert solution.coefficient(exponent, logdeg) == weight * want

            beta = gauss_beta(a, b)
            for series in (series_f, solution):
                for report in verify_box_operators(series, [BoxOp(row) for row in lattice.basis]):
                    assert report.passed, report.violations
                report = verify_euler_annihilation(series, GAUSS_MATRIX, beta)
                assert report.passed, report.violations


def test_criterion_2_pyramid_example():
    with criterion(2, "second-order series of the pyramid system", limit=10.0):
        lattice = kernel_basis(PYRAMID_MATRIX)
        radius = 6
        v = PYRAMID_V

        def exponent(a, b):
            return (F(a), F(b), F(a), F(b), F(1 - 2 * a - 2 * b))

        box = SupportBox(v, lattice, radius)
        keys = [(), *((i,) for i in range(5)), (4, 4), *((i, 4) for i in range(4))]
        tails = build_tails(box, [*keys, (0, 2), (1, 3), (0, 1)])
        series_f = tails[()]
        assert series_f == LogSeries.monomial(v)
        for i in range(4):
            assert not tails[i,]

        series_g5 = tails[4,]
        for a in range(7):
            for b in range(7 - a):
                if (a, b) == (0, 0):
                    continue
                want = F(fact(2 * a + 2 * b - 2), fact(a) ** 2 * fact(b) ** 2)
                assert series_g5.coefficient(exponent(a, b)) == want

        h55 = tails[4, 4]
        for a in range(7):
            for b in range(7 - a):
                if (a, b) == (0, 0):
                    continue
                k = 2 * a + 2 * b
                want = 2 * F(fact(k - 2), fact(a) ** 2 * fact(b) ** 2) * (
                    1 - harmonic(k - 2)
                )
                assert h55.coefficient(exponent(a, b)) == want

        for i in (0, 2):
            series = tails[i, 4]
            for a in range(1, 7):
                for b in range(7 - a):
                    want = -F(fact(2 * a + 2 * b - 2), fact(a) ** 2 * fact(b) ** 2)
                    assert series.coefficient(exponent(a, b)) == want * harmonic(a)
        for i in (1, 3):
            series = tails[i, 4]
            for b in range(1, 7):
                for a in range(7 - b):
                    want = -F(fact(2 * a + 2 * b - 2), fact(a) ** 2 * fact(b) ** 2)
                    assert series.coefficient(exponent(a, b)) == want * harmonic(b)

        h13 = tails[0, 2]
        for a in range(-6, 0):
            for b in range(0, -a + 1):
                if abs(a) + b > 6:
                    continue
                want = F(fact(-a - 1) ** 2, fact(b) ** 2 * fact(-2 * a - 2 * b + 1))
                assert h13.coefficient(exponent(a, b)) == want
        h24 = tails[1, 3]
        for b in range(-6, 0):
            for a in range(0, -b + 1):
                if a + abs(b) > 6:
                    continue
                want = F(fact(-b - 1) ** 2, fact(a) ** 2 * fact(-2 * a - 2 * b + 1))
                assert h24.coefficient(exponent(a, b)) == want

        series_g = [tails[i,] for i in range(5)]
        l1, l2 = (-1, 0, -1, 0, 2), (0, 1, 0, 1, -2)
        terms = solution_terms(l1, l2)
        solution = combine(tails_of(box, terms), terms)
        expected = series_f.mul_log_linear(l1).mul_log_linear(l2)
        expected = expected + series_g[4].scale(2).mul_log_linear(l2)
        expected = expected + series_g[4].scale(-2).mul_log_linear(l1)
        tail = tails[4, 4].scale(-4)
        for i in range(4):
            tail = tail + tails[i, 4].scale(2)
        assert solution == expected + tail

        ops = [BoxOp(row) for row in lattice.basis]
        assert all(report.passed for report in verify_box_operators(solution, ops))
        assert verify_euler_annihilation(solution, PYRAMID_MATRIX, PYRAMID_BETA).passed
        # the second-order quasisolutions themselves satisfy the box operators
        for i, j in ((4, 4), (0, 4), (0, 2), (1, 3), (0, 1)):
            unit_i = tuple(1 if k == i else 0 for k in range(5))
            unit_j = tuple(1 if k == j else 0 for k in range(5))
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
            assert all(report.passed for report in verify_box_operators(quasi, ops))


def test_criterion_3_support_machinery():
    with criterion(3, "support sets and minimality verdicts of all examples"):
        from gkzlog import CISpec

        radius = 6
        box = range(-radius, radius + 1)

        # Gauss: minimal everywhere, every support set is the nonnegative ray
        lattice = kernel_basis(GAUSS_MATRIX)
        v = gauss_v(F(1, 2), F(1, 3))
        ray = [tuple(-l * x for x in (1, 1, -1, -1)) for l in range(radius + 1)]
        supports = SupportBox(v, lattice, radius)
        for excluded in [()] + [(i,) for i in range(4)]:
            assert supports.check_minimal(excluded).minimal
            assert sorted(supports.support_set(excluded)) == sorted(ray)

        # pyramid system: the stated sets, exactly
        lattice = kernel_basis(PYRAMID_MATRIX)
        v = PYRAMID_V
        supports = SupportBox(v, lattice, radius)
        assert supports.check_minimal(()).minimal
        origin_only = [(0, 0, 0, 0, 0)]
        point = lambda a, b: (a, b, a, b, -2 * a - 2 * b)
        for excluded in [()] + [(i,) for i in range(4)]:
            assert supports.support_set(excluded) == origin_only
        quadrant = {point(a, b) for a in box for b in box if a >= 0 and b >= 0}
        assert set(supports.support_set((4,))) == quadrant
        for i in range(4):
            assert set(supports.support_set((i, 4))) == quadrant
        assert set(supports.support_set((0, 2))) == {
            point(a, b) for a in box for b in box if -a >= b >= 0
        }
        assert set(supports.support_set((1, 3))) == {
            point(a, b) for a in box for b in box if -b >= a >= 0
        }
        for pair in ((0, 1), (0, 3), (1, 2), (2, 3)):
            assert supports.support_set(pair) == origin_only

        # first lifted example: every column gives the same nonnegative cone
        matrix, beta, v = build_system(CISpec.from_lists(TWO_TRIANGLES_SETS))
        lattice = kernel_basis(matrix)
        supports = SupportBox(v, lattice, radius)
        plain = set(supports.support_set(()))
        assert plain == {
            p for p in box_points(lattice, radius) if p[1] >= 0 and p[4] >= 0
        }
        for col in range(7):
            assert set(supports.support_set((col,))) == plain

        # second lifted example: the last column opens the negative direction
        matrix, beta, v = build_system(CISpec.from_lists(QUADRILATERAL_SETS))
        lattice = kernel_basis(matrix)
        supports = SupportBox(v, lattice, radius)
        plain = set(supports.support_set(()))
        assert plain == {
            p for p in box_points(lattice, radius) if p[1] >= 0 and p[4] >= 0
        }
        for col in range(4):
            assert set(supports.support_set((col,))) == plain
        opened = set(supports.support_set((4,)))
        assert opened == {
            p for p in box_points(lattice, radius) if p[1] >= 0 and p[2] >= 0
        }
        assert plain < opened


def test_criterion_4_pointed_cone_negative_control():
    with criterion(4, "combined support escapes every pointed cone"):
        lattice = kernel_basis(PYRAMID_MATRIX)
        v = PYRAMID_V
        radius = 5
        box = SupportBox(v, lattice, radius)
        l1 = (-1, 0, -1, 0, 2)
        terms = solution_terms(l1, l1)
        solution = combine(tails_of(box, terms), terms)
        points = set()
        for (exponent, _), _ in solution.items():
            delta = tuple(x - y for x, y in zip(exponent, v))
            coords = lattice.coords_of(delta)
            points.add(tuple(int(c) for c in coords))
        points.discard((0,) * lattice.rank)
        ambient = set(lattice.points_from_coords(points))
        assert any(p[0] > 0 and p[1] >= 0 for p in ambient)  # quadrant part
        assert any(p[0] < 0 and -p[0] >= p[1] >= 0 for p in ambient)  # opposite part
        with pytest.raises(NoPositiveFunctional):
            positive_grading(sorted(points))


def test_criterion_5_first_lifted_family():
    with criterion(5, "first lifted family: closed forms and integral mirror maps", limit=60.0):
        from gkzlog import CISpec

        spec = CISpec.from_lists(TWO_TRIANGLES_SETS)
        matrix, beta, v = build_system(spec)
        assert matrix.rows == (
            (0, 1, 0, -1, 0, 0, 0),
            (0, 0, 1, -1, 0, 0, 0),
            (0, 0, 0, 0, 1, 0, -1),
            (0, 0, 0, 0, 0, 1, -1),
            (1, 1, 1, 1, 1, 1, 1),
        )
        assert has_unique_interior_point(spec.point_sets, spec.delta)
        hull = minkowski_hull(spec.point_sets)
        assert interior_lattice_points(hull) == [(0, 0, 0, 0)]

        lattice = kernel_basis(matrix)
        radius = 6

        def point(l, m):
            return (-3 * l - 3 * m, l, l, l, m, m, m)

        def exponent(l, m):
            return tuple(a + d for a, d in zip(v, point(l, m)))

        def base(l, m):
            return F(fact(3 * l + 3 * m), fact(l) ** 3 * fact(m) ** 3)

        tails = build_tails(SupportBox(v, lattice, radius), [(), *((j,) for j in range(7))])
        series_f = tails[()]
        for l in range(7):
            for m in range(7 - l):
                assert series_f.coefficient(exponent(l, m)) == (-1) ** (l + m) * base(l, m)

        for j in range(7):
            series = tails[j,]
            for l in range(7):
                for m in range(7 - l):
                    if j == 0:
                        depth = 3 * l + 3 * m
                    elif j <= 3:
                        depth = l
                    else:
                        depth = m
                    want = -base(l, m) * harmonic(depth) * (-1) ** (l + m)
                    assert series.coefficient(exponent(l, m)) == want

        for j in range(7):
            q = mirror_map(spec, (0, j), 8, radius=4)
            assert q.coefficients[(0,) * 7] == 1
            assert integrality_report(q) == []


def test_criterion_6_second_lifted_family(tmp_path):
    with criterion(6, "second lifted family: closed forms and open-question report", limit=60.0):
        from gkzlog import CISpec

        spec = CISpec.from_lists(QUADRILATERAL_SETS)
        matrix, beta, v = build_system(spec)
        assert has_unique_interior_point(spec.point_sets, spec.delta)
        lattice = kernel_basis(matrix)
        radius = 6

        def point(l, m):
            return (-4 * l - 2 * m, l, 2 * l + m, l, m)

        def exponent(l, m):
            return tuple(a + d for a, d in zip(v, point(l, m)))

        def base(l, m):
            return F(fact(4 * l + 2 * m), fact(l) ** 2 * fact(m) * fact(2 * l + m))

        grade = lambda l, m: 3 * l + m  # the grading the pipeline finds

        tails = build_tails(SupportBox(v, lattice, radius), [(), *((j,) for j in range(5))])
        series_f = tails[()]
        for l in range(7):
            for m in range(7):
                if grade(l, m) <= 6:
                    assert series_f.coefficient(exponent(l, m)) == base(l, m)

        closed = {
            0: lambda l, m: -base(l, m) * harmonic(4 * l + 2 * m),
            1: lambda l, m: -base(l, m) * harmonic(l),
            2: lambda l, m: -base(l, m) * harmonic(2 * l + m),
            3: lambda l, m: -base(l, m) * harmonic(l),
        }
        for j, oracle in closed.items():
            series = tails[j,]
            for l in range(7):
                for m in range(7):
                    if (l, m) == (0, 0) or grade(l, m) > 6:
                        continue
                    assert series.coefficient(exponent(l, m)) == oracle(l, m)

        series_g4 = tails[4,]
        for l in range(7):
            for m in range(-2 * l, 7):
                if (l, m) == (0, 0) or grade(l, m) > 6 or abs(2 * l + m) > radius:
                    continue
                if m >= 1:
                    want = -base(l, m) * harmonic(m)
                elif m == 0:
                    want = F(0)
                else:
                    want = -F(
                        fact(4 * l + 2 * m) * (-1) ** (-m) * fact(-m - 1),
                        fact(l) ** 2 * fact(2 * l + m),
                    )
                assert series_g4.coefficient(exponent(l, m)) == want

        for j in range(4):
            q = mirror_map(spec, (0, j), 6, radius=4)
            assert integrality_report(q) == []

        # last column: open question, so only generate and archive the report
        q4 = mirror_map(spec, (0, 4), 6, radius=4)
        assert any(p[4] < 0 for p in q4.coefficients)
        report_text = render_integrality_report(q4, "acceptance")
        archive = tmp_path / "mirror_0_4.report"
        archive.write_text(report_text)
        assert archive.exists()
        assert report_text.startswith("# mirror map integrality report")


def test_criterion_7_property_suites():
    with criterion(7, "property suites: chains, identities, commutation, mutations"):
        # derivative-chain recurrence on the stated grid
        for m in (0, 1, 2):
            for z in (F(0), F(1), F(-5, 2), F(1, 3)):
                for k in range(-6, 7):
                    here = f_coeffs(z, k, m)
                    prev = f_coeffs(z, k - 1, m)
                    assert plus(scaled(here, z + k), dlog(here)) == prev

        # bracket and elementary-symmetric identities
        from gkzlog import UniLogPoly

        for z in (F(1, 2), F(-5, 2), F(7, 3), F(4)):
            for k in range(1, 7):
                assert bracket(z, k) * bracket(z + k, -k) == 1
            for i in range(1, 6):
                assert elem_sym_shifted(i, i, z) == bracket(z, -i)
                assert f_coeffs(z, -i, 0) == UniLogPoly.of([bracket(z, -i)])

        # partial derivatives commute on 100 random 10-term series
        rng = random.Random(1172)
        for _ in range(100):
            terms = {}
            while len(terms) < 10:
                key = (
                    tuple(F(rng.randint(-5, 5), rng.choice((1, 2, 3))) for _ in range(3)),
                    tuple(rng.randint(0, 2) for _ in range(3)),
                )
                terms[key] = F(rng.randint(-9, 9) or 1, rng.randint(1, 9))
            series = LogSeries(3, terms)
            j, k = rng.randrange(3), rng.randrange(3)
            assert differentiate(differentiate(series, j), k) == differentiate(
                differentiate(series, k), j
            )

        # mutation testing: every single-coefficient perturbation is caught
        cases = []
        lattice = kernel_basis(GAUSS_MATRIX)
        v = gauss_v(F(1, 2), F(1, 3))
        series_f, series_g = build_tails(SupportBox(v, lattice, 4), [(), (0,)]).values()
        cases.append((series_f.mul_log_linear((1, 0, 0, 0)) + series_g, lattice))
        lattice = kernel_basis(PYRAMID_MATRIX)
        series_f, series_g = build_tails(SupportBox(PYRAMID_V, lattice, 3), [(), (4,)]).values()
        cases.append((series_f.mul_log_linear((0, 0, 0, 0, 1)) + series_g, lattice))
        for series, lat in cases:
            ops = [BoxOp(row) for row in lat.basis]
            assert all(report.passed for report in verify_box_operators(series, ops))
            for (exponent, logdeg), _ in series.items():
                mutated = with_term_added(series, exponent, logdeg, 1)
                assert not all(
                    report.passed for report in verify_box_operators(mutated, ops)
                ), (exponent, logdeg)


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "byte-identical artifacts across repeated runs"):
        commands = {
            "gauss": ["solve", str(FIXTURES / "gauss.json"), "--order", "1"],
            "pyramid": [
                "combine",
                str(FIXTURES / "square_pyramid.json"),
                "--l",
                "(-1,0,-1,0,2)",
                "--l",
                "(0,1,0,1,-2)",
            ],
            "triangles": [
                "mirror",
                str(FIXTURES / "ci_two_triangles.json"),
                "--index",
                "0",
                "--grade",
                "8",
            ],
            "quadrilateral": [
                "mirror",
                str(FIXTURES / "ci_quadrilateral.json"),
                "--index",
                "4",
                "--grade",
                "6",
            ],
        }
        for name, argv in commands.items():
            trees = []
            for attempt in ("first", "second"):
                out = tmp_path / f"{name}_{attempt}"
                assert main(argv + ["--out", str(out)]) == 0
                trees.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
            assert trees[0] == trees[1], f"artifacts differ for {name}"
