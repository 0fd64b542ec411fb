"""The benchmark's span table names functions that still exist.

perfbench/child.py wraps each `shabound.<module>.<name>` in its TRACED
table for the traced runs.  The table is read here with ast, so the
benchmark file is neither imported nor edited, and a renamed or deleted
function fails this test instead of breaking the traced runs.
"""

import ast
import importlib
import pathlib

CHILD = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def _traced_table() -> dict:
    tree = ast.parse(CHILD.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {CHILD}")


def test_every_traced_function_resolves_to_a_callable():
    table = _traced_table()
    assert table
    for module, names in table.items():
        mod = importlib.import_module(f"shabound.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"shabound.{module}.{name}"
