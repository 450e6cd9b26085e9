"""The value-class contract of every frozen record, and the CLI's import footprint."""

import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from gkzlog import (
    BoxOp,
    CertifiedReport,
    CISpec,
    EulerOp,
    IntMatrix,
    MirrorMap,
    Polytope,
    ProblemFileError,
    RelationLattice,
    SupportBox,
    SupportVerdict,
    UniLogPoly,
)
from gkzlog.values import Value

SRC = Path(__file__).resolve().parent.parent / "src"
LATTICE = RelationLattice(3, ((1, -2, 1),))

# Each record as its constructor is called, with its repr text.
RECORDS = [
    (lambda: CISpec((((0, 0), (1, 0)),)), "CISpec(point_sets=(((0, 0), (1, 0)),))"),
    (
        lambda: MirrorMap((0, 1), {(0,): F(1)}, (1,), 4, 2),
        "MirrorMap(index=(0, 1), coefficients={(0,): Fraction(1, 1)}, grading=(1,), "
        "grade_bound=4, radius=2)",
    ),
    (
        lambda: UniLogPoly((F(1), F(1, 2))),
        "UniLogPoly(coeffs=(Fraction(1, 1), Fraction(1, 2)))",
    ),
    (lambda: IntMatrix(((1, 2), (3, 4))), "IntMatrix(rows=((1, 2), (3, 4)))"),
    (lambda: RelationLattice(3, ((1, -2, 1),)), "RelationLattice(ambient_dim=3, basis=((1, -2, 1),))"),
    (
        lambda: SupportBox((-1, "1/2", 0), LATTICE, 3, 50),
        "SupportBox(base=(Fraction(-1, 1), Fraction(1, 2), Fraction(0, 1)), "
        "lattice=RelationLattice(ambient_dim=3, basis=((1, -2, 1),)), radius=3, max_points=50)",
    ),
    (lambda: BoxOp((1, -2, 1)), "BoxOp(point=(1, -2, 1), plus=(1, 0, 1), minus=(0, 2, 0))"),
    (lambda: EulerOp((1, 1), F(-1)), "EulerOp(row=(1, 1), beta=Fraction(-1, 1))"),
    (
        lambda: CertifiedReport(3, ()),
        "CertifiedReport(checked_term_count=3, violations=(), certified_region=None)",
    ),
    (
        lambda: Polytope(1, ((0,), (1,)), (((1,), 1), ((-1,), 0))),
        "Polytope(dim=1, vertices=((0,), (1,)), facets=(((1,), 1), ((-1,), 0)))",
    ),
    (
        lambda: SupportVerdict(False, 2, (1, 0)),
        "SupportVerdict(minimal=False, radius=2, counterexample=(1, 0))",
    ),
]
IDS = [text.split("(", 1)[0] for _, text in RECORDS]


@pytest.mark.parametrize("make, text", RECORDS, ids=IDS)
def test_repr_names_every_field(make, text):
    assert repr(make()) == text


@pytest.mark.parametrize("make, text", RECORDS, ids=IDS)
def test_equal_fields_are_equal_with_one_hash(make, text):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    if isinstance(a, MirrorMap):  # its coefficients are a dict
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@pytest.mark.parametrize("make, text", RECORDS, ids=IDS)
def test_every_field_is_frozen(make, text):
    record = make()
    for name in vars(record):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert make() == record


def test_records_of_different_classes_are_unequal():
    records = [make() for make, _ in RECORDS]
    for i, a in enumerate(records):
        for b in records[i + 1 :]:
            assert a != b

    class One(Value):
        x: int

    class Other(Value):
        x: int

    assert One(1) == One(1) and One(1) != Other(1)
    assert One(1) != (1,)


def test_unequal_fields_are_unequal():
    assert SupportVerdict(True, 2) != SupportVerdict(True, 3)
    assert BoxOp((1, -1)) != BoxOp((-1, 1))
    assert EulerOp((1, 1), F(1)) != EulerOp((1, 1), F(2))


def test_constructors_take_keywords_and_defaults():
    assert SupportVerdict(minimal=True, radius=2) == SupportVerdict(True, 2, None)
    assert CertifiedReport(3, violations=()) == CertifiedReport(3, (), None)
    assert BoxOp(point=[1, 0, -1]).minus == (0, 0, 1)
    assert RelationLattice(basis=((1, 1),), ambient_dim=2).rank == 1
    with pytest.raises(TypeError):
        SupportVerdict(True)
    with pytest.raises(TypeError):
        SupportVerdict(True, 2, None, 4)
    with pytest.raises(TypeError):
        SupportVerdict(True, 2, radius=3)
    with pytest.raises(TypeError):
        SupportVerdict(True, 2, bound=3)
    with pytest.raises(TypeError):
        BoxOp((1,), plus=(1,))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: CISpec(()), "need at least one point set"),
        (lambda: CISpec(((),)), "point sets must be nonempty"),
        (lambda: CISpec((((),),)), "points need at least one coordinate"),
        (lambda: CISpec((((0,), (0, 0)),)), "inconsistent point dimension"),
        (lambda: IntMatrix(()), "matrix must have positive dimensions"),
        (lambda: IntMatrix(((),)), "matrix must have positive dimensions"),
        (lambda: IntMatrix(((1, 2), (3,))), "ragged matrix"),
    ],
)
def test_validation_raises_value_errors(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def test_box_operator_validates_and_derives_its_split():
    op = BoxOp([2, -1])
    assert (op.point, op.plus, op.minus) == ((2, -1), (2, 0), (0, 1))
    assert str(op) == "box(2, -1)"
    with pytest.raises(ProblemFileError, match="box operator entry"):
        BoxOp(("2",))
    with pytest.raises(ProblemFileError, match="box operator entry"):
        BoxOp((F(1, 2),))
    with pytest.raises(ProblemFileError, match="box operator entry"):
        BoxOp((True,))


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # -I -S: no environment and no site hooks, so only gkzlog's own imports
    # count; -B: -I drops PYTHONDONTWRITEBYTECODE, and no bytecode is written
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import gkzlog.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", code, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"
