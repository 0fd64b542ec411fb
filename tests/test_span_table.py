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
# records that report.dumps writes whole, every field through _asdict
WRITTEN_WHOLE = frozenset({"BoundReport", "DescentSets", "SandwichResult", "TheoremBudget"})


def _traced_table() -> dict:
    tree = ast.parse(CHILD.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED table in {CHILD}")


def _local_names(fn) -> set[str]:
    """The names a function binds in its own scope: arguments, assignment targets, nested defs."""
    a = fn.args
    names = {arg.arg for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if arg}
    stack = [fn.body] if isinstance(fn, ast.Lambda) else list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)  # its body is a scope of its own
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif not isinstance(node, ast.Lambda):
            stack.extend(ast.iter_child_nodes(node))
    return names


def _free_names(node, bound=frozenset()):
    """Each Name read in node that no enclosing function binds: a reference to a module global."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        bound = bound | _local_names(node)
    elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in bound:
        yield node.id
    for child in ast.iter_child_nodes(node):
        yield from _free_names(child, bound)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _name(node) -> str | None:
    """The name a Name or an Attribute ends in: namedtuple for collections.namedtuple."""
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _record_fields(node: ast.ClassDef) -> list[str]:
    """The fields of a record class, none for any other class.

    A subclass of a namedtuple(...) call has the fields that call lists,
    in one string or as a list of strings.  A dataclass (decorated by
    @dataclass or @dataclasses.dataclass, with or without arguments) and a
    typing.NamedTuple have their annotated names.
    """
    for base in node.bases:
        if isinstance(base, ast.Call) and _name(base.func) == "namedtuple":
            spec = ast.literal_eval(base.args[1])
            return spec.replace(",", " ").split() if isinstance(spec, str) else list(spec)
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    if any(_name(d) == "dataclass" for d in decorators) or any(_name(b) == "NamedTuple" for b in node.bases):
        return [
            item.target.id
            for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        ]
    return []


def unreferenced_definitions(package: pathlib.Path, written_whole=frozenset()) -> set[tuple[str, str]]:
    """(module, name) of each top-level def, class or assigned name, and (module,
    "Class.name") of each method, property and record field of a top-level
    class, that nothing in the package references.

    A top-level definition is referenced by a global Name in its own module
    (a nested def or local of the same name shadows it), by `from .m import
    name`, or by `m.name` for the module m; a method, property or field by
    any `.name` attribute in the package.  The fields of the records
    named in written_whole are all read, by the report writer's _asdict.
    Dunder methods are called implicitly, and dunder names such as
    `__all__` are read by the interpreter.
    """
    defined, used, attrs = set(), set(), set()
    for path in sorted(package.glob("*.py")):
        module, tree = path.stem, ast.parse(path.read_text())
        aliases = {}  # local name -> module of the package
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(
                    (module, n.id)
                    for target in targets
                    for n in ast.walk(target)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store) and not _is_dunder(n.id)
                )
            if isinstance(node, ast.ClassDef):
                defined.update(
                    (module, f"{node.name}.{item.name}")
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _is_dunder(item.name)
                )
                if node.name not in written_whole:
                    defined.update((module, f"{node.name}.{name}") for name in _record_fields(node))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    if node.module:
                        used.add((node.module, a.name))
                    else:
                        aliases[a.asname or a.name] = a.name
        used.update((module, name) for name in _free_names(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attrs.add(node.attr)
                if isinstance(node.value, ast.Name) and node.value.id in aliases:
                    used.add((aliases[node.value.id], node.attr))
    # "Class.name" is never in used: any attribute of that name references it
    return {(module, name) for module, name in defined - used if name.partition(".")[2] not in attrs}


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


def private_imports(package: pathlib.Path) -> set[tuple[str, str]]:
    """(module, name) of each underscore name a module takes from another
    module of the package, by `from .m import _name` or as `m._name`."""
    found = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = set()  # local names of package modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    found.update((path.stem, a.name) for a in node.names if a.name.startswith("_"))
                else:
                    aliases.update(a.asname or a.name for a in node.names)
        found.update(
            (path.stem, node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr.startswith("_") and not _is_dunder(node.attr)
            and isinstance(node.value, ast.Name) and node.value.id in aliases
        )
    return found


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
    # the benchmark's spans are the one other reader of the package.  Methods
    # and properties count too
    assert unreferenced_definitions(PACKAGE, WRITTEN_WHOLE) - _traced() == set()


def test_the_definition_guard_sees_methods_and_shadowed_names(tmp_path):
    (tmp_path / "m.py").write_text(
        "class C:\n    def __init__(self):\n        self.x = 1\n\n"
        "    def used(self):\n        return self.x\n\n"
        "    def unused(self):\n        return 0\n\n"
        "    @property\n    def prop(self):\n        return 1\n\n\n"
        "def f():\n    return 1\n\n\n"
        "def sub(a, b):\n    return a - b\n\n\n"
        "def g():\n    def sub(a, b):\n        return b - a\n\n    return f(), sub(1, 2)\n\n\n"
        "def k():\n    return 2\n\n\n"
        "def via_attr():\n    return 3\n\n\n"
        "def lonely():\n    return 4\n"
    )
    (tmp_path / "n.py").write_text(
        "from . import m\nfrom .m import k\n\n\n"
        "def run():\n    lonely = 1\n    return m.C().used(), k(), m.via_attr(), m.g(), lonely\n"
    )
    # sub is read only through g's nested def, lonely only through run's local
    assert unreferenced_definitions(tmp_path) == {
        ("m", "C.unused"), ("m", "C.prop"), ("m", "sub"), ("m", "lonely"), ("n", "run"),
    }


def test_the_definition_guard_sees_module_level_names(tmp_path):
    (tmp_path / "m.py").write_text(
        "__all__ = ['f']\n"
        "LIMIT = 10\n"
        "_only_str = frozenset((str,)).issuperset\n"
        "WIDTH: int = 4\n"
        "LOW, HIGH = 1, 2\n"
        "STEP = LIMIT // 2\n"
        "SHADOWED = 3\n"
        "EXPORTED = 5\n\n\n"
        "def f(SHADOWED=0):\n    return STEP + LOW + SHADOWED\n"
    )
    (tmp_path / "n.py").write_text(
        "from . import m\nfrom .m import f\n\n\n"
        "def g():\n    return m.EXPORTED + f()\n\n\nVALUE = g()\n"
    )
    # a constant left behind by a deletion is dead code like an unused def;
    # dunder names are read by the interpreter
    assert unreferenced_definitions(tmp_path) == {
        ("m", "_only_str"), ("m", "WIDTH"), ("m", "HIGH"), ("m", "SHADOWED"), ("n", "VALUE"),
    }


def test_the_definition_guard_sees_record_fields(tmp_path):
    (tmp_path / "m.py").write_text(
        "import collections\nimport dataclasses\nfrom collections import namedtuple\n"
        "from typing import NamedTuple\n\n\n"
        "class A(namedtuple('A', 'read unread, hidden', defaults=(0,))):\n    __slots__ = ()\n\n\n"
        "class B(collections.namedtuple('B', [\n    'alone',  # unread\n    'seen',\n])):\n"
        "    __slots__ = ()\n\n\n"
        "class Whole(namedtuple('Whole', 'written')):\n    __slots__ = ()\n\n\n"
        "class C(NamedTuple):\n    typed: int\n    seen_too: int = 0\n\n\n"
        "@dataclasses.dataclass(frozen=True)\nclass D:\n    old: int\n\n\n"
        "class Plain:\n    annotated: int\n\n\n"
        "print(A(1, 2).read, B(3, 4).seen, Whole(5), C(6).seen_too, D(7), Plain())\n"
    )
    # a field is read by any .name attribute, however the call lists it;
    # Whole is written whole, and Plain's annotation is no field
    assert unreferenced_definitions(tmp_path, {"Whole"}) == {
        ("m", "A.unread"), ("m", "A.hidden"), ("m", "B.alone"), ("m", "C.typed"), ("m", "D.old"),
    }


def test_the_package_builds_records_only_through_their_constructors():
    # _make and _replace skip a record's __new__, and with it the checks of
    # Factorization, FieldInvariants, SearchConstraints and ResidueCharacter;
    # only tests that forge a record may call them
    calls = {
        (path.stem, node.attr)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in ("_make", "_replace")
    }
    assert calls == set()


def test_every_import_is_used_in_its_module(tmp_path):
    # a traced name may be imported only for the span table to find it
    assert unused_imports(PACKAGE) - _traced() == set()
    (tmp_path / "mod.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\nfrom functools import cached_property, lru_cache as cache\n"
        "from math import lcm\n\n@cache\ndef f():\n    return os.sep\n"
    )
    assert unused_imports(tmp_path) == {("mod", "cached_property"), ("mod", "lcm")}


def test_no_module_takes_another_modules_private_names(tmp_path):
    # an underscore name is its module's own; a second module that needs it
    # needs a public name.  The one exception is ROADMAP item 1's: Velu's
    # hint filter in isogeny reads arith's trial-division limit
    assert private_imports(PACKAGE) == {("isogeny", "_TRIAL_LIMIT")}
    (tmp_path / "m.py").write_text("_LIMIT = 1\n\n\ndef _helper():\n    return _LIMIT\n")
    (tmp_path / "n.py").write_text(
        "from . import m\nfrom .m import _helper\n\n\n"
        "def f():\n    return m._LIMIT + _helper() + len(m.__name__)\n"
    )
    assert private_imports(tmp_path) == {("n", "_helper"), ("n", "_LIMIT")}


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
    result = search.scan(c, jobs=1)
    assert seen == [1, -1, 2, -2, 3, -3]
    assert len(result["rows"]) + len(result["errors"]) + sum(result["skipped"].values()) == 6
