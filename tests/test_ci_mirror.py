"""Lifted systems, gradings, graded arithmetic, mirror maps."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkzlog import (
    CISpec,
    InsufficientRadius,
    NoPositiveFunctional,
    build_F,
    build_G,
    build_system,
    integrality_report,
    kernel_basis,
    mirror_map,
    positive_grading,
)
from gkzlog.ci_mirror import (
    _cone_rays,
    _support_cone_rows,
    graded_exp,
    graded_log,
    graded_mul,
    graded_quotient,
    render_coefficients,
    render_integrality_report,
)
from gkzlog.cli import load_problem
from gkzlog.support import SupportBox, support_set
from tests.conftest import FIXTURES, HEXAGON_SETS


def fact(n):
    return math.factorial(n)


def harmonic(n):
    return sum(F(1, i) for i in range(1, n + 1))


class TestBuildSystem:
    def test_two_triangles_matrix(self, two_triangles_spec):
        matrix, beta, v = build_system(two_triangles_spec)
        assert matrix.rows == (
            (0, 1, 0, -1, 0, 0, 0),
            (0, 0, 1, -1, 0, 0, 0),
            (0, 0, 0, 0, 1, 0, -1),
            (0, 0, 0, 0, 0, 1, -1),
            (1, 1, 1, 1, 1, 1, 1),
        )
        assert beta == (F(0), F(0), F(0), F(0), F(-1))
        assert v == (F(-1),) + (F(0),) * 6
        assert matrix.mul_vec(v) == beta

    def test_quadrilateral_matrix(self, quadrilateral_spec):
        matrix, beta, v = build_system(quadrilateral_spec)
        assert matrix.rows == ((0, 1, -1, 1, 1), (0, 1, 0, -1, 0), (1, 1, 1, 1, 1))
        assert beta == (F(0), F(0), F(-1))
        assert v == (F(-1), F(0), F(0), F(0), F(0))

    def test_two_equation_toy(self):
        spec = CISpec.from_lists([[(0,), (1,)], [(0,), (2,)]])
        matrix, beta, v = build_system(spec)
        assert matrix.rows == ((0, 1, 0, 2), (1, 1, 0, 0), (0, 0, 1, 1))
        assert beta == (F(0), F(-1), F(-1))
        assert v == (F(-1), F(0), F(-1), F(0))
        assert spec.delta == (0,)
        assert spec.column_index(1, 1) == 3
        assert spec.column_of(2) == (1, 0)


class TestPositiveGrading:
    def test_two_triangles_generators(self):
        gens = [(-3, 1, 1, 1, 0, 0, 0), (-3, 0, 0, 0, 1, 1, 1)]
        c = positive_grading(gens)
        for gen in gens:
            assert sum(a * x for a, x in zip(c, gen)) >= 1

    def test_not_pointed(self):
        with pytest.raises(NoPositiveFunctional):
            positive_grading([(1, 0), (-1, 0)])

    def test_quadrilateral_generators(self):
        gens = [(-4, 1, 2, 1, 0), (-2, 0, 1, 0, 1), (0, 1, 0, 1, -2)]
        c = positive_grading(gens)
        for gen in gens:
            assert sum(a * x for a, x in zip(c, gen)) >= 1

    def test_no_points_needs_dimension(self):
        assert positive_grading([], ambient_dim=3) == (0, 0, 0)
        with pytest.raises(ValueError):
            positive_grading([])

    def test_searched_values_survive_the_lift(self):
        # the returned ambient functional takes exactly the searched values,
        # so grades are never rescaled by the lift
        gens = [(1, 0, 1), (0, 1, 1)]
        c = positive_grading(gens)
        assert [sum(a * x for a, x in zip(c, g)) for g in gens] == [1, 1]
        # points with a common factor still get the smallest integer values
        gens = [(2, 0), (0, 2)]
        c = positive_grading(gens)
        assert [sum(a * x for a, x in zip(c, g)) for g in gens] == [2, 2]


class TestGradedArithmetic:
    GRADING = (1, 1)
    ORIGIN = (0, 0)

    def _sample(self):
        return {
            (1, 0): F(3),
            (0, 1): F(-1, 2),
            (1, 1): F(5, 7),
            (2, 1): F(-2),
        }

    def test_inverse_identity(self):
        # the quotient of 1 is the inverse of 1 + f
        f = self._sample()
        inv = graded_quotient({self.ORIGIN: F(1)}, f, self.GRADING, 6)
        one_plus = dict(f)
        one_plus[self.ORIGIN] = F(1)
        product = graded_mul(one_plus, inv, self.GRADING, 6)
        assert product == {self.ORIGIN: F(1)}

    def test_quotient_rejects_bad_grades(self):
        with pytest.raises(ValueError):
            graded_quotient({self.ORIGIN: F(1)}, {self.ORIGIN: F(1)}, self.GRADING, 3)
        with pytest.raises(ValueError):
            graded_quotient({(-1, 0): F(1)}, self._sample(), self.GRADING, 3)

    def test_exp_log_roundtrip(self):
        h = self._sample()
        e = graded_exp(h, self.GRADING, 7, self.ORIGIN)
        assert e[self.ORIGIN] == 1
        back = graded_log(e, self.GRADING, 7, self.ORIGIN)
        assert back == h

    def test_grades_bounded(self):
        f = self._sample()
        e = graded_exp(f, self.GRADING, 5, self.ORIGIN)
        assert all(sum(p) <= 5 for p in e)

    def test_exp_rejects_grade_zero_terms(self):
        with pytest.raises(ValueError):
            graded_exp({self.ORIGIN: F(1)}, self.GRADING, 3, self.ORIGIN)


GRADED_POINT = st.tuples(st.integers(-2, 4), st.integers(0, 4))
GRADED_COEFF = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@settings(max_examples=150, deadline=None)
@given(
    f=st.dictionaries(GRADED_POINT, GRADED_COEFF, max_size=6),
    g=st.dictionaries(GRADED_POINT, GRADED_COEFF, max_size=6),
    bound=st.integers(0, 7),
)
def test_quotient_times_one_plus_f_is_g(f, g, bound):
    # grading (1, 2) is positive on the points of grade >= 1 drawn here
    grading = (1, 2)
    grade = lambda p: p[0] + 2 * p[1]
    f = {p: c for p, c in f.items() if grade(p) >= 1}
    g = {p: c for p, c in g.items() if grade(p) >= 0}
    quotient = graded_quotient(g, f, grading, bound)
    assert all(0 <= grade(p) <= bound and c for p, c in quotient.items())
    one_plus_f = dict(f)
    one_plus_f[(0, 0)] = F(1)
    want = {p: c for p, c in g.items() if grade(p) <= bound and c}
    assert graded_mul(one_plus_f, quotient, grading, bound) == want


class TestMirrorMap:
    def test_trivial_at_grade_zero(self, two_triangles_spec):
        q = mirror_map(two_triangles_spec, (0, 0), 0, radius=2)
        assert q.coefficients == {(0,) * 7: F(1)}

    def test_flat_index_accepted(self, two_triangles_spec):
        a = mirror_map(two_triangles_spec, 3, 2, radius=2)
        b = mirror_map(two_triangles_spec, (0, 3), 2, radius=2)
        assert a.coefficients == b.coefficients

    def test_two_triangles_low_grades(self, two_triangles_spec):
        q = mirror_map(two_triangles_spec, (0, 0), 2, radius=2)
        assert q.coefficients[(0,) * 7] == 1
        # grade-1 coefficients from the harmonic closed form, converted out
        # of the alternating-sign convention of the generating function
        want = -F(fact(3), fact(1) ** 3) * harmonic(3) * (-1) ** 1
        for point in ((-3, 1, 1, 1, 0, 0, 0), (-3, 0, 0, 0, 1, 1, 1)):
            assert q.grade_of(point) == 1
            assert q.coefficients[point] == want
        assert want == 11

    def test_grade_range_and_origin(self, quadrilateral_spec):
        q = mirror_map(quadrilateral_spec, (0, 4), 5, radius=3)
        grades = [q.grade_of(p) for p in q.coefficients]
        assert min(grades) == 0 and max(grades) <= 5
        assert q.coefficients[(0,) * 5] == 1

    def test_quadrilateral_negative_direction_support(self, quadrilateral_spec):
        # the last column's series draws on support points with a negative
        # entry in that column
        q = mirror_map(quadrilateral_spec, (0, 4), 4, radius=3)
        assert any(p[4] < 0 for p in q.coefficients)

    def test_integrality_smoke(self, two_triangles_spec):
        for j in range(7):
            q = mirror_map(two_triangles_spec, (0, j), 4, radius=2)
            assert integrality_report(q) == []

    def test_rank_one_family(self):
        # one-dimensional family; F has central-binomial coefficients
        spec = CISpec.from_lists([[(0,), (1,), (-1,)]])
        matrix, beta, v = build_system(spec)
        lattice = kernel_basis(matrix)
        assert lattice.basis == ((2, -1, -1),)
        series = build_F(v, lattice, 6)
        for k in range(7):
            want = F(fact(2 * k), fact(k) ** 2)
            assert series.coefficient((F(-1 - 2 * k), F(k), F(k))) == want
        q = mirror_map(spec, (0, 1), 6, radius=2)
        assert integrality_report(q) == []
        assert q.coefficients[(-2, 1, 1)] == -2

    def test_insufficient_radius(self, two_triangles_spec):
        with pytest.raises(InsufficientRadius):
            mirror_map(two_triangles_spec, (0, 0), 64, radius=2, radius_cap=4)

    def test_reconstruction_f_times_ratio_is_g(self, quadrilateral_spec):
        # multiply the computed ratio back by F and compare with G
        bound = 5
        q = mirror_map(quadrilateral_spec, (0, 4), bound, radius=3)
        matrix, beta, v = build_system(quadrilateral_spec)
        lattice = kernel_basis(matrix)
        radius = q.radius

        def as_points(series):
            out = {}
            for term in series.terms():
                point = tuple(int(e - b) for e, b in zip(term.exponent, v))
                if q.grade_of(point) <= bound:
                    out[point] = term.coeff
            return out

        f_mapping = as_points(build_F(v, lattice, radius))
        g_mapping = as_points(build_G(v, 4, lattice, radius))
        ratio = graded_log(q.coefficients, q.grading, bound, (0,) * 5)
        assert graded_mul(f_mapping, ratio, q.grading, bound) == g_mapping


class TestReports:
    def test_render_ok(self, two_triangles_spec):
        q = mirror_map(two_triangles_spec, (0, 0), 2, radius=2)
        text = render_integrality_report(q, "sha256:feedface")
        assert text.splitlines()[-1] == "OK"
        assert "# grade bound: 2" in text

    def test_render_violations(self):
        from gkzlog.ci_mirror import MirrorMap

        q = MirrorMap(
            index=(0, 1),
            coefficients={(0, 0): F(1), (1, 0): F(1, 2), (0, 1): F(3)},
            grading=(1, 1),
            grade_bound=2,
            radius=2,
        )
        assert integrality_report(q) == [((1, 0), F(1, 2))]
        text = render_integrality_report(q, "sha256:0")
        assert text.splitlines()[-1] == "1 | (1,0) | 1/2"
        coeffs = render_coefficients(q)
        assert coeffs.splitlines()[0] == "0 | (0,0) | 1"


@pytest.mark.parametrize("spec_name", ["two_triangles_spec", "quadrilateral_spec"])
def test_lifted_quasisolutions_box_verified(spec_name, request):
    # F and the first-order quasisolutions of both lifted systems pass the
    # certified box check for every basis operator
    from gkzlog import BoxOp, verify_box_annihilation

    spec = request.getfixturevalue(spec_name)
    matrix, beta, v = build_system(spec)
    lattice = kernel_basis(matrix)
    radius = 4
    series_f = build_F(v, lattice, radius)
    ops = [BoxOp(row) for row in lattice.basis]
    for op in ops:
        assert verify_box_annihilation(series_f, op).passed
    width = matrix.n_cols
    for col in (0, width - 1):
        unit = tuple(1 if k == col else 0 for k in range(width))
        quasi = series_f.mul_log_linear(unit) + build_G(v, col, lattice, radius)
        for op in ops:
            assert verify_box_annihilation(quasi, op).passed


def test_support_sets_match_sign_conditions(quadrilateral_spec):
    # the support sets of the lifted system are exactly the sign-condition
    # regions used for the cone analysis
    matrix, beta, v = build_system(quadrilateral_spec)
    lattice = kernel_basis(matrix)
    got = set(support_set(v, lattice, 3, (4,)))
    want = set()
    for c1 in range(-3, 4):
        for c2 in range(-3, 4):
            point = lattice.point_from_coords((c1, c2))
            if point[0] <= 0 and all(point[k] >= 0 for k in (1, 2, 3)):
                want.add(point)
    assert got == want


@pytest.mark.parametrize(
    "name", ["ci_two_triangles", "ci_quadrilateral", "quintic", "hexagon"]
)
def test_grading_from_rays_equals_grading_with_seed_points(name):
    # Seed support points lie in the cones the rays generate, so adding them
    # to the grading search changes nothing.
    if name == "hexagon":
        spec, radius = CISpec.from_lists(HEXAGON_SETS), 4
    else:
        problem = load_problem(str(FIXTURES / f"{name}.json"))
        spec, radius = problem.spec, problem.radius
    matrix, beta, v = build_system(spec)
    lattice = kernel_basis(matrix)
    width = lattice.ambient_dim
    rays = set()
    for column in range(width):
        rays.update(_cone_rays(_support_cone_rows(v, lattice.basis, column), lattice.rank))
    ray_points = [lattice.point_from_coords(r) for r in sorted(rays)]
    seed_box = SupportBox(v, lattice, min(radius, 3))
    seed_points = [
        point for column in range(width) for point in seed_box.support_set((column,)) if any(point)
    ]
    want = positive_grading(ray_points + seed_points, ambient_dim=width)
    for column in range(width):
        assert mirror_map(spec, column, 1, radius=radius).grading == want


def test_quintic_period_known_answer():
    # Candelas-de la Ossa-Green-Parkes: the F coefficients of the quintic
    # are (-1)^n (5n)!/(n!)^5 along the lattice ray n*(-5,1,1,1,1,1).
    problem = load_problem(str(FIXTURES / "quintic.json"))
    lattice = kernel_basis(problem.matrix)
    assert lattice.basis == ((5, -1, -1, -1, -1, -1),)
    series = build_F(problem.v, lattice, 10)
    assert len(series) == 11
    for n in range(11):
        exponent = tuple(x + n * d for x, d in zip(problem.v, (-5, 1, 1, 1, 1, 1)))
        assert series.coefficient(exponent) == (-1) ** n * fact(5 * n) // fact(n) ** 5
