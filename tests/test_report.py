"""Canonical JSON serialization."""

import json
import random
from collections import OrderedDict, namedtuple
from enum import IntEnum
from fractions import Fraction

import pytest
from conftest import oracle_dumps

from shabound import report
from shabound.bounds import theorem_budget
from shabound.cli import main
from shabound.descent import sandwich_from_sets
from shabound.search import SearchConstraints, scan


def test_integers_become_decimal_strings():
    assert report.dumps({"n": 2**200}) == f'{{\n  "n": "{2**200}"\n}}\n'
    assert json.loads(report.dumps([1, -3])) == ["1", "-3"]


def test_fractions_and_bools():
    assert report.dumps(Fraction(-9, 2)) == '"-9/2"\n'
    assert report.dumps([True, False]) == "[\n  true,\n  false\n]\n"  # bools are not integers here


def test_round_trip_byte_identical():
    payload = {"a": [1, 2, {"b": Fraction(1, 3), "flag": False}], "z": None}
    s = report.dumps(payload)
    assert report.dumps(json.loads(s)) == s


def test_keys_sorted():
    s = report.dumps({"b": 1, "a": 2})
    assert s.index('"a"') < s.index('"b"')


def test_unserializable_rejected():
    with pytest.raises(TypeError):
        report.dumps({"x": object()})


def test_render_text_same_data():
    txt = report.render_text({"rank": 2, "s1": [2, 3]})
    assert "rank: 2" in txt and "[2, 3]" in txt


def test_render_text_renders_the_parsed_json():
    obj = {"q": Fraction(-13), "budget": theorem_budget(5, 1, 3, 1), "t": (1, ("a", True), [])}
    assert report.render_text(obj) == report.render_text(json.loads(report.dumps(obj)))
    with pytest.raises(TypeError):  # no canonical JSON, no text
        report.render_text({"x": Tag("t")})


# --- the one-pass writer against the reference: json.dumps of the canonical copy

class Colour(IntEnum):
    RED = 3


class Tag(str):
    pass


Pair = namedtuple("Pair", "x y")


def _payload(rng, depth):
    """A random nested payload: dicts, lists and tuples (empty ones too) down to depth 0."""
    kind = rng.randrange(4) if depth else 3
    if kind == 0:
        return {
            rng.choice(["a", "b", "s1", "rows", "é", "", "0", "10", "9"]): _payload(rng, depth - 1)
            for _ in range(rng.randrange(4))
        }
    if kind == 1:
        return [_payload(rng, depth - 1) for _ in range(rng.randrange(4))]
    if kind == 2:
        return tuple(_payload(rng, depth - 1) for _ in range(rng.randrange(4)))
    return rng.choice([
        0, 7, -12, 3**90, -(2**70), "x", "ψ₅", "a\nb", True, False, None, Fraction(-9, 2), Fraction(4),
    ])


def test_dumps_equals_the_reference_on_random_payloads():
    rng = random.Random(19)
    payloads = [_payload(rng, rng.randrange(6)) for _ in range(400)]
    payloads += [{}, [], (), {"a": {}, "b": [], "c": ()}, [[], {}, ()]]
    for obj in payloads:
        assert report.dumps(obj) == oracle_dumps(obj), obj


# no report holds these: a dict key that is no str, and subclasses of the
# payload types.  The reference would write them through str() and
# isinstance; dumps takes exact types only and raises TypeError
NOT_CANONICAL = [
    {10: "ten", 9: "nine", -1: "minus"},
    {1: "a", "1": "b"}, {"1": "b", 1: "a"}, {(1, 2): 3, None: 4, True: 5},
    Colour.RED, [Colour.RED], {Colour.RED: Colour.RED},
    Tag("t"), {Tag("k"): [Tag("v")]}, OrderedDict(b=1, a=[2]), Pair(1, Pair("y", None)),
]


@pytest.mark.parametrize("obj", [
    "é", "ψ₅", "\u0000", '"', "\\", "a\nb", {"k\u0000\"": ["é", "\\"]},
    2**200, -(2**200), -1, [2**200, -7],
    Fraction(-9, 2), {"q": [Fraction(1, 3), Fraction(-4)]},
    [True, False, None, 1, True], None, True,
    *NOT_CANONICAL,
])
def test_dumps_equals_the_reference_on_edge_cases(obj):
    if any(obj is x for x in NOT_CANONICAL):
        with pytest.raises(TypeError):
            report.dumps(obj)
    else:
        assert report.dumps(obj) == oracle_dumps(obj)


def test_dumps_equals_the_reference_on_records():
    for obj in (
        theorem_budget(5, 1, 3, 1),
        sandwich_from_sets(5, (2, 3), (11, 31)),
        {"nested": [theorem_budget(7, 2, 1, 1)]},
    ):
        assert report.dumps(obj) == oracle_dumps(obj)


def _oracle_error(obj):
    with pytest.raises(Exception) as info:
        oracle_dumps(obj)
    return info.type


@pytest.mark.parametrize("bad", [1.5, {2, 3}, object()])
def test_dumps_raises_what_the_reference_raises(bad):
    for obj in (bad, [1, bad], {"a": [bad]}):
        with pytest.raises(_oracle_error(obj)):
            report.dumps(obj)


@pytest.mark.parametrize("argv", [
    ["analyze", "--curve", "[0,-1,1,0,0]", "--point", '["0/1","0/1"]', "--p", "5",
     "--second-kernel", '["0/1","-1/1","1/1"]'],
    ["matrix", "--p", "5", "--s1", "2,3", "--s2", "11,31"],
    ["sandwich", "--p", "5", "--s1", "2,3", "--s2", "11,31"],
    ["bounds", "--d", "4", "--cp", "1", "--s1", "6", "--s2", "2", "--m", "3", "--mhat", "1", "--sum", "9"],
    ["bounds", "--budget", "5,1,3,1"],
])
def test_cli_payloads_equal_the_reference(argv, monkeypatch, capsys):
    seen = []
    one_pass = report.dumps

    def recording(obj):
        seen.append(obj)
        return one_pass(obj)

    monkeypatch.setattr(report, "dumps", recording)
    assert main([*argv, "--json"]) == 0
    assert len(seen) == 1
    assert capsys.readouterr().out == oracle_dumps(seen[0])


def test_a_scan_report_equals_the_reference():
    rows = scan(SearchConstraints(p=5, scan_budget=60, verify_dual=True))
    assert report.dumps(rows) == oracle_dumps(rows)


def test_analyze_fractions_render_as_num_over_den(monkeypatch, capsys):
    payloads = []
    one_pass = report.dumps
    monkeypatch.setattr(report, "dumps", lambda obj: payloads.append(obj) or one_pass(obj))
    assert main([
        "analyze", "--curve", "[0,-1,1,0,0]", "--point", '["0/1","0/1"]', "--p", "5",
        "--second-kernel", '["0/1","-1/1","1/1"]', "--json",
    ]) == 0
    out = capsys.readouterr().out
    point = payloads[0]["kernel_point"]
    assert all(type(c) is Fraction for c in point)
    for c in point:
        assert f'"{c.numerator}/{c.denominator}"' in out
