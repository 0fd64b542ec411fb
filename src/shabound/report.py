"""Canonical report serialization.

All integers are rendered as decimal strings (arbitrary-precision safety
for downstream consumers), rationals as "num/den", keys are sorted, and
the layout is fixed, so parsing an emitted report and re-serializing it
is byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import asdict, is_dataclass
from fractions import Fraction


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
    return json.dumps(canonicalize(obj), sort_keys=True, indent=2) + "\n"


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
