"""Canonical JSON serialization."""

import json
from fractions import Fraction

import pytest

from shabound import report


def test_integers_become_decimal_strings():
    assert report.canonicalize({"n": 2**200}) == {"n": str(2**200)}
    assert report.canonicalize([1, -3]) == ["1", "-3"]


def test_fractions_and_bools():
    assert report.canonicalize(Fraction(-9, 2)) == "-9/2"
    assert report.canonicalize(True) is True  # bools are not integers here


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
