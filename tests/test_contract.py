"""The package's arithmetic contract: exact ``Fraction``/``int``, standard library only.

A static scan of every module in ``src/gkzlog``: no float literal, no use of
the name ``float``, and no absolute import of a module outside the standard
library (the package's own modules import each other relatively).
"""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "gkzlog").glob("*.py"))


def contract_breaches(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno, f"float literal {node.value!r}"
        elif isinstance(node, ast.Name) and node.id == "float":
            yield node.lineno, "use of the name 'float'"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] not in sys.stdlib_module_names:
                    yield node.lineno, f"import of non-stdlib module {alias.name!r}"
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] not in sys.stdlib_module_names:
                yield node.lineno, f"import from non-stdlib module {node.module!r}"


def test_the_scan_sees_every_module():
    assert len(SOURCES) >= 10
    assert any(path.name == "linalg.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_keeps_the_exact_stdlib_contract(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert list(contract_breaches(tree)) == []


def test_the_scan_flags_each_kind_of_breach():
    source = "import numpy\nfrom scipy import linalg\nfrom . import x\nx = 0.5\ny = float(x)\n"
    found = sorted(line for line, _ in contract_breaches(ast.parse(source)))
    assert found == [1, 2, 4, 5]
