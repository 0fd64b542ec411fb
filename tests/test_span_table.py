"""The benchmark's span table names functions that still exist, its
calibration hook still wraps the scan's per-fiber call, and nothing
else in the package is dead: no definition and no import goes unused.

perfbench/child.py wraps each `shabound.<module>.<name>` in its TRACED
table for the traced runs.  The table is read here with ast, so the
benchmark file is neither imported nor edited, and a renamed or deleted
function fails this test instead of breaking the traced runs.
"""

import ast
import importlib
import pathlib

from shabound import search

ROOT = pathlib.Path(__file__).resolve().parent.parent
CHILD = ROOT / "perfbench" / "child.py"
PACKAGE = ROOT / "src" / "shabound"


def _traced_table() -> dict:
    tree = ast.parse(CHILD.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {CHILD}")


def unreferenced_definitions(package: pathlib.Path) -> set[tuple[str, str]]:
    """(module, name) of each top-level def or class that no Name or Attribute in the package uses."""
    defined, used = set(), set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add((path.stem, node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return {(module, name) for module, name in defined if name not in used}


def unused_imports(package: pathlib.Path) -> set[tuple[str, str]]:
    """(module, name) of each module-level import that no Name in its own module uses."""
    unused = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused |= {(path.stem, name) for name in imported - used}
    return unused


def _traced() -> set[tuple[str, str]]:
    return {(module, name) for module, names in _traced_table().items() for name in names}


def test_every_traced_function_resolves_to_a_callable():
    table = _traced_table()
    assert table
    for module, names in table.items():
        mod = importlib.import_module(f"shabound.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"shabound.{module}.{name}"


def test_every_definition_is_used_in_the_package():
    # code that only tests call belongs in tests/ (as an oracle) or nowhere;
    # the benchmark's spans are the one other reader of the package
    assert unreferenced_definitions(PACKAGE) - _traced() == set()


def test_every_import_is_used_in_its_module(tmp_path):
    # a traced name may be imported only for the span table to find it
    assert unused_imports(PACKAGE) - _traced() == set()
    (tmp_path / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\nfrom functools import cached_property, lru_cache as cache\n"
        "from math import lcm\n\n@cache\ndef f():\n    return os.sep\n"
    )
    assert unused_imports(tmp_path) == {("mod", "cached_property"), ("mod", "lcm")}


def test_the_calibration_hook_wraps_the_per_fiber_global(monkeypatch):
    # perfbench/child.py's install_slices reassigns search._row_with_forcing
    # to tick its calibration slices once per fiber; a rename would fail
    # every untraced run, and a scan that stopped reading the module global
    # would silently skip the slices
    hooked = {
        target.attr
        for node in ast.walk(ast.parse(CHILD.read_text()))
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Attribute) and getattr(target.value, "id", None) == "search"
    }
    assert hooked == {"_row_with_forcing"}
    assert callable(getattr(search, "_row_with_forcing", None))
    row, seen = search._row_with_forcing, []

    def counted(args):
        seen.append(args[1])
        return row(args)

    monkeypatch.setattr(search, "_row_with_forcing", counted)
    c = search.SearchConstraints(5, scan_budget=6, parameter_box=10, verify_dual=False)
    result = search.scan(search.tate_family(5), c, jobs=1)
    assert seen == [1, -1, 2, -2, 3, -3]
    assert len(result["rows"]) + len(result["errors"]) + sum(result["skipped"].values()) == 6
