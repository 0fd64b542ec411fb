"""The benchmark's span table names functions that still exist, and
nothing else in the package is dead.

perfbench/child.py wraps each `shabound.<module>.<name>` in its TRACED
table for the traced runs.  The table is read here with ast, so the
benchmark file is neither imported nor edited, and a renamed or deleted
function fails this test instead of breaking the traced runs.
"""

import ast
import importlib
import pathlib

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
    traced = {(module, name) for module, names in _traced_table().items() for name in names}
    assert unreferenced_definitions(PACKAGE) - traced == set()
