"""Canonical report serialization.

All integers are rendered as decimal strings (arbitrary-precision safety
for downstream consumers), rationals as "num/den", keys are sorted, and
the layout is fixed, so parsing an emitted report and re-serializing it
is byte-identical.

``canonicalize`` defines the canonical form, and the text view renders
it.  ``dumps`` writes the JSON in one pass, without the canonical copy:
its output equals the standard library's ``json.dumps`` of
``canonicalize(x)`` with sorted keys and a two-space indent, plus a
newline, which stays the reference the tests compare it against.
"""

from __future__ import annotations

from dataclasses import asdict, is_dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

_only_str = frozenset((str,)).issuperset  # _only_str(map(type, d)): every key of d an exact str, checked in C


def canonicalize(obj):
    """Recursively convert a report payload to JSON-safe canonical form."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, str) or obj is None:
        return obj
    if is_dataclass(obj) and not isinstance(obj, type):
        return canonicalize(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): canonicalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonicalize(x) for x in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__} canonically")


def dumps(obj) -> str:
    """The canonical JSON of obj: two-space indent, sorted keys, a final newline."""
    out: list[str] = []
    try:
        _write(obj, out, "\n")
    except (TypeError, ValueError):
        # with two bad values the reference raises for the first in its own
        # walk order, which is the payload's order, not the sorted one
        canonicalize(obj)
        raise
    out.append("\n")
    return "".join(out)


def _write(obj, out: list[str], nl: str) -> None:
    """Append the canonical JSON of obj to out; nl is the newline and indent of its line."""
    t = type(obj)
    if t is str:
        out.append(_quote(obj))
    elif t is int:
        out.append(f'"{obj}"')
    elif t is dict and _only_str(map(type, obj)):
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
    else:
        # Fraction, dataclass, subclass of int, str, dict, list or tuple, a dict
        # with a key that is no str (str() of its keys may collide), or a value
        # with no canonical form
        obj = canonicalize(obj)
        if isinstance(obj, str):  # a str subclass comes back as itself
            out.append(_quote(obj))
        else:
            _write(obj, out, nl)


def render_text(obj) -> str:
    """Human-readable view of the same canonical data."""
    data = canonicalize(obj)
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

    walk(data, 0)
    return "\n".join(lines) + "\n"


def _scalar(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, list):
        return "[" + ", ".join(_scalar(x) for x in v) + "]"
    return str(v)
