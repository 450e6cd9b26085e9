"""The package's arithmetic contract: exact ``Fraction``/``int``, standard library only.

A static scan of every module in ``src/gkzlog``: no float literal, no use of
the name ``float``, and no absolute import of a module outside the standard
library (the package's own modules import each other relatively).  The
README's "Library layout" table is held to the modules it describes: every
code name it lists in a module's row is an attribute of that module.  The
names the benchmark tracer (``bench/``, outside the test paths) wraps by
name are held to the package too.  A dead-code scan stands in for a linter:
every name a module imports is used in it, every private module-level
function or class is referenced somewhere in the package, every public
one is exported in ``gkzlog.__all__`` or referenced somewhere in the
package, and every public method of a package class is read somewhere in
the package, the tests or the benchmark.  Each export resolves to the
object of that name in the module ``gkzlog._HOME`` gives for it.
"""

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "gkzlog").glob("*.py"))
READERS = SOURCES + sorted((ROOT / "tests").glob("*.py"))
READERS += sorted((ROOT / "bench").glob("*.py"))


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


def layout_rows(readme_text):
    """``(module, [names])`` per row of the README "Library layout" table.

    A name is a backticked identifier, bare or called (``name(...)``); other
    backticked text, such as a formula, is not a code name.
    """
    section = readme_text.split("## Library layout", 1)[1]
    rows = []
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) != 2 or not cells[0].startswith("`"):
            if rows and not line.startswith("|"):
                break
            continue
        names = re.findall(r"`([A-Za-z_]\w*)(?:\([^`]*\))?`", cells[1])
        rows.append((cells[0].strip("`"), names))
    return rows


def test_the_layout_table_names_only_attributes_of_its_modules():
    rows = layout_rows((ROOT / "README.md").read_text())
    assert {module for module, _ in rows} == {
        path.stem for path in SOURCES if path.stem not in {"__init__", "errors", "rationals"}
    }
    missing = [
        f"{module}.{name}"
        for module, names in rows
        for name in names
        if not hasattr(importlib.import_module(f"gkzlog.{module}"), name)
    ]
    assert missing == []


def test_the_layout_scan_reads_bare_and_called_names():
    text = "## Library layout\n\n| m | c |\n| - | - |\n| `linalg` | `a`, `b(x, y)`, `G/(1+f)` |\n\nafter `z`\n"
    assert layout_rows(text) == [("linalg", ["a", "b"])]


def test_the_bench_tracer_finds_every_name_it_wraps():
    # bench/child.py wraps each METHODS entry through vars(class), and rebinds
    # f_coeffs wherever a module imported it by name
    spec = importlib.util.spec_from_file_location("bench_layers", ROOT / "bench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = [
        f"{layer}.{class_name}.{method}"
        for layer, classes in layers.METHODS.items()
        for class_name, methods in classes.items()
        for method in methods
        if method not in vars(getattr(importlib.import_module(f"gkzlog.{layer}"), class_name))
    ]
    assert missing == []
    from gkzlog import coefficients, logseries

    assert logseries.f_coeffs is coefficients.f_coeffs


def unused_imports(tree):
    """``(line, name)`` of each imported name the module never reads.

    A name is read where it appears as an expression (attribute roots
    included) or is listed in ``__all__``; ``__future__`` imports are exempt.
    """
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            read |= {elt.value for elt in node.value.elts}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    yield node.lineno, name


def unreferenced_defs(trees):
    """``(module, name)`` of each top-level function or class no other statement names.

    ``trees`` maps module names to parsed modules.  A reference is a name,
    an attribute or an imported name in any top-level statement of the
    package but the definition itself, so recursion does not count.
    Dunder names are exempt.
    """
    statements = [(module, stmt) for module, tree in trees.items() for stmt in tree.body]
    names = []
    for _, stmt in statements:
        found = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.add(node.name)
        names.append(found)
    for k, (module, stmt) in enumerate(statements):
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        if stmt.name.startswith("__"):
            continue
        if not any(stmt.name in found for j, found in enumerate(names) if j != k):
            yield module, stmt.name


def unreferenced_private_defs(trees):
    """``(module, name)`` of each private definition of ``unreferenced_defs``."""
    return [(module, name) for module, name in unreferenced_defs(trees) if name.startswith("_")]


def dead_public_defs(trees, exported):
    """``(module, name)`` of each public definition of ``unreferenced_defs`` not in ``exported``."""
    return [
        (module, name)
        for module, name in unreferenced_defs(trees)
        if not name.startswith("_") and name not in exported
    ]


def dead_methods(trees, readers):
    """``(module, "Class.method")`` of each public method no tree of ``readers`` reads.

    ``trees`` maps module names to parsed modules whose classes are
    scanned.  A method is read where its name is read as an attribute
    (``x.name``) or is a string constant, as the benchmark names the
    methods it wraps, in any of the parsed ``readers``.
    """
    read = set()
    for tree in readers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
                    if stmt.name not in read:
                        yield module, f"{cls.name}.{stmt.name}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_reads_every_name_it_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert list(unused_imports(tree)) == []


def package_trees():
    return {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}


def test_every_private_definition_is_referenced():
    assert unreferenced_private_defs(package_trees()) == []


def test_every_public_definition_is_exported_or_referenced():
    import gkzlog

    assert dead_public_defs(package_trees(), set(gkzlog.__all__)) == []


def test_every_public_method_is_read():
    readers = [ast.parse(path.read_text(), filename=str(path)) for path in READERS]
    assert list(dead_methods(package_trees(), readers)) == []


def test_every_export_is_the_object_of_its_home_module():
    import gkzlog

    homes = {
        name: getattr(importlib.import_module(f"gkzlog.{module}"), name)
        for name, module in gkzlog._HOME.items()
    }
    assert {name: getattr(gkzlog, name) for name in gkzlog.__all__} == homes
    assert gkzlog.__all__ == list(homes)


def test_the_dead_code_scan_flags_each_kind():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from .linalg import kernel_rows, solve_integer\n"
        "__all__ = ['solve_integer']\n"
        "def _dead(n):\n"
        "    return _dead(n - 1) if n else os.sep\n"
        "def _used():\n"
        "    pass\n"
        "class _Dead:\n"
        "    pass\n"
    )
    tree = ast.parse(source)
    assert sorted(unused_imports(tree)) == [(2, "sys"), (3, "kernel_rows")]
    other = ast.parse("from .m import _used\n")
    assert unreferenced_private_defs({"m": tree, "n": other}) == [("m", "_dead"), ("m", "_Dead")]


def test_the_public_dead_code_scan_flags_each_kind():
    source = (
        "def dead(n):\n"
        "    return dead(n - 1) if n else 0\n"
        "def exported():\n"
        "    pass\n"
        "def used():\n"
        "    pass\n"
        "def called():\n"
        "    pass\n"
        "class Dead:\n"
        "    pass\n"
        "class Named:\n"
        "    pass\n"
        "def __getattr__(name):\n"
        "    pass\n"
        "def _private():\n"
        "    pass\n"
    )
    other = ast.parse("from .m import used\nx = called() or m.Named\n")
    trees = {"m": ast.parse(source), "n": other}
    assert dead_public_defs(trees, {"exported"}) == [("m", "dead"), ("m", "Dead")]


def test_the_dead_method_scan_flags_each_kind():
    source = (
        "class Shape:\n"
        "    def read(self):\n"
        "        pass\n"
        "    def named(self):\n"
        "        pass\n"
        "    @property\n"
        "    def unread(self):\n"
        "        pass\n"
        "    def stored(self):\n"
        "        pass\n"
        "    def _private(self):\n"
        "        pass\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "    class Inner:\n"
        "        def lost(self):\n"
        "            pass\n"
        "def read():\n"
        "    pass\n"
    )
    tree = ast.parse(source)
    other = ast.parse("x = Shape().read() or 'named'\nx.stored = read()\n")
    assert list(dead_methods({"m": tree}, [tree, other])) == [
        ("m", "Shape.unread"),
        ("m", "Shape.stored"),
        ("m", "Inner.lost"),
    ]
