"""Every module-level import in the package is used.

The repository has no linter configured, so this test is the guard: it
parses each module of ``src/pastedlogic`` and fails on a name bound by a
module-level import that the module never reads.  ``__init__.py``
re-exports by design and ``from __future__`` imports bind nothing, so
both are exempt.  Likewise every private module-level function or class
is referred to somewhere in the package besides its own definition.

``_EXPORTS`` in ``__init__`` is the one list of public names, so no
other module names ``__all__``.

What a number is, and which numbers are exact, is decided in
``numeric`` alone: outside it no ``isinstance`` call names ``Fraction``
or lists ``float`` among other classes; the rest of the package asks
``numeric.is_number`` and ``numeric.is_exact``.  An ``isinstance`` test
against ``Mapping`` uses ``collections.abc.Mapping``, not the slower
``typing`` alias.

The benchmark's tracer wraps package functions by name, so every name it
lists must still exist: a rename in ``src`` would otherwise break only
``perfbench/run.py --trace 1``.  The benchmark's own self-test runs here
too, so a change that breaks its checkers or its tracer fails the suite.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "pastedlogic"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_the_package_has_modules():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = "from typing import Mapping, Sequence\nimport math\nx: Sequence = []\n"
    assert unused_imports(source) == ["line 1: Mapping", "line 2: math"]


def names_all(source: str) -> list[int]:
    """The lines of ``source`` that name ``__all__``."""
    tree = ast.parse(source)
    return [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id == "__all__"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_package_lists_public_names(path):
    assert names_all(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_a_module_list_of_names():
    source = '__all__ = ["f"]\n__all__ += ["g"]\nx: list = __all__\n'
    assert names_all(source) == [1, 2, 3]


def unreferenced_private(sources: list[str]) -> list[str]:
    """Module-level functions and classes named with one leading
    underscore that no module refers to outside their own definition."""
    defined, referenced = set(), set()
    for source in sources:
        for node in ast.parse(source).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = node.name
                if own.startswith("_") and not own.startswith("__"):
                    defined.add(own)
            names = {
                getattr(sub, "id", None) or getattr(sub, "attr", None) or sub.name
                for sub in ast.walk(node)
                if isinstance(sub, (ast.Name, ast.Attribute, ast.alias))
            }
            referenced |= names - {own}
    return sorted(defined - referenced)


def test_no_unreferenced_private_definitions():
    sources = [p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")]
    assert unreferenced_private(sources) == []


def test_the_check_sees_an_unused_private_helper():
    source = (
        "def _used():\n    pass\n\n"
        "def _unused():\n    return _unused()\n\n"
        "class _Dead:\n    pass\n\n"
        "def __getattr__(name):\n    pass\n\n"
        "x = _used()\n"
    )
    assert unreferenced_private([source]) == ["_Dead", "_unused"]
    assert unreferenced_private([source, "from m import _Dead\n"]) == ["_unused"]


def test_the_tracer_names_resolve(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{layer}.{name}"
        for layer, names in tracer.LAYER_FUNCTIONS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"pastedlogic.{layer}"), name, None))
    ]
    assert len(tracer.LAYER_FUNCTIONS) >= 10 and missing == []


def numeric_type_tests(source: str) -> list[str]:
    """``isinstance`` calls that name ``Fraction`` or ``bool``, that list
    ``float`` in a class tuple, or that name ``Mapping`` imported from
    ``typing``."""
    tree = ast.parse(source)
    typing_names = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "typing"
        for alias in node.names
    }
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"):
            continue
        classes = node.args[1]
        in_tuple = isinstance(classes, ast.Tuple)
        names = {getattr(c, "id", None) for c in (classes.elts if in_tuple else [classes])}
        numeric = names & {"Fraction", "bool"} or (in_tuple and "float" in names)
        if numeric or "Mapping" in names & typing_names:
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_numeric_decides_what_a_number_is(path):
    found = numeric_type_tests(path.read_text(encoding="utf-8"))
    if path.name == "numeric.py":
        found = [f for f in found if "Mapping" in f]
    assert found == []


def test_the_check_sees_numeric_type_tests():
    source = (
        "from typing import Mapping\n"
        "isinstance(x, Fraction)\n"
        "isinstance(x, (int, float))\n"
        "isinstance(x, float)\n"
        "isinstance(x, Mapping)\n"
        "isinstance(x, bool) or not isinstance(x, int)\n"
    )
    assert numeric_type_tests(source) == [
        "line 2: isinstance(x, Fraction)",
        "line 3: isinstance(x, (int, float))",
        "line 5: isinstance(x, Mapping)",
        "line 6: isinstance(x, bool)",
    ]
    assert numeric_type_tests("from collections.abc import Mapping\nisinstance(x, Mapping)\n") == []


def test_the_benchmark_selftest_passes():
    """``perfbench/selftest.py`` runs every workload at a tiny size, traced
    and untraced, plus its negative cases; it exits 0 when all hold."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")  # leave perfbench/ untouched
    run = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]
