"""Canonical report serialization.

All integers are rendered as decimal strings (arbitrary-precision safety
for downstream consumers), rationals as "num/den", keys are sorted, and
the layout is fixed, so parsing an emitted report and re-serializing it
is byte-identical.

``dumps`` is the one writer of the canonical form.  It takes the types a
report is built from, exactly: str, int, bool, None, Fraction, dicts with
str keys, lists, tuples, and the records of this package, named tuples
written as the dict of their fields; any other value, a subclass of one
of these included, raises TypeError.  The text view
renders the JSON that ``dumps`` wrote, parsed back.  The reference the
writer is tested against, the standard library's ``json.dumps`` of a
canonical copy, lives in ``tests/conftest.py``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote  # TypeError on a key that is no str

_PACKAGE = __package__ + "."


def dumps(obj) -> str:
    """The canonical JSON of obj: two-space indent, sorted keys, a final newline."""
    out: list[str] = []
    _write(obj, out, "\n")
    out.append("\n")
    return "".join(out)


def _write(obj, out: list[str], nl: str) -> None:
    """Append the canonical JSON of obj to out; nl is the newline and indent of its line."""
    t = type(obj)
    if t is str:
        out.append(_quote(obj))
    elif t is int:
        out.append(f'"{obj}"')
    elif t is dict:
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        comma = "," + inner
        sep = "{" + inner
        for k in sorted(obj):
            v = obj[k]
            if type(v) is int:  # most of a report's values: written here, without a call
                out.append(f'{sep}{_quote(k)}: "{v}"')
            else:
                out.append(f"{sep}{_quote(k)}: ")
                _write(v, out, inner)
            sep = comma
        out.append(nl + "}")
    elif t is list or t is tuple:
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        comma = "," + inner
        sep = "[" + inner
        for x in obj:
            if type(x) is int:
                out.append(f'{sep}"{x}"')
            else:
                out.append(sep)
                _write(x, out, inner)
            sep = comma
        out.append(nl + "]")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif obj is None:
        out.append("null")
    elif t is Fraction:
        out.append(f'"{obj.numerator}/{obj.denominator}"')
    elif issubclass(t, tuple) and t.__module__.startswith(_PACKAGE):  # a record of this package
        _write(obj._asdict(), out, nl)
    else:
        raise TypeError(f"cannot serialize {t.__name__} canonically")


def render_text(obj) -> str:
    """Human-readable view of the canonical JSON of obj."""
    lines: list[str] = []

    def walk(node, depth):
        p = "  " * depth
        if isinstance(node, dict):
            for k in sorted(node):
                v = node[k]
                if isinstance(v, (dict, list)) and v:
                    lines.append(f"{p}{k}:")
                    walk(v, depth + 1)
                else:
                    lines.append(f"{p}{k}: {_scalar(v)}")
        elif isinstance(node, list):
            if all(not isinstance(x, (dict, list)) for x in node):
                lines.append(f"{p}[{', '.join(_scalar(x) for x in node)}]")
            else:
                for x in node:
                    walk(x, depth)
                    lines.append(f"{p}-")
                if lines and lines[-1] == f"{p}-":
                    lines.pop()
        else:
            lines.append(f"{p}{_scalar(node)}")

    walk(json.loads(dumps(obj)), 0)
    return "\n".join(lines) + "\n"


def _scalar(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, list):
        return "[" + ", ".join(_scalar(x) for x in v) + "]"
    return str(v)
