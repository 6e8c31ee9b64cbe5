"""Deterministic table serialization: frozen float format, stable layouts."""

import io
import json
import math

import pytest

from robinpsi import tabular
from robinpsi.tabular import FLOAT_FORMAT, rows_to_csv, rows_to_json


def _csv(fields, rows):
    out = io.StringIO()
    rows_to_csv(out, fields, rows)
    return out.getvalue()


def _json(fields, rows):
    out = io.StringIO()
    rows_to_json(out, fields, rows)
    return out.getvalue()


def test_float_format_is_frozen():
    assert FLOAT_FORMAT == "%.12g"
    rows = [(math.pi, 1e-9, 2.0)]
    assert _csv(("a", "b", "c"), rows) == "a,b,c\n3.14159265359,1e-09,2\n"
    assert _json(("a", "b", "c"), rows) == '[\n  {"a": 3.14159265359, "b": 1e-09, "c": 2}\n]\n'


def test_csv_basic_layout():
    rows = [(1, 0.5, "x"), (2, 1.0 / 3.0, "y")]
    text = _csv(("a", "b", "c"), rows)
    assert text == "a,b,c\n1,0.5,x\n2,0.333333333333,y\n"


def test_csv_quoting_and_specials():
    text = _csv(("a", "b", "c"), [("has,comma", True, None)])
    assert text == 'a,b,c\n"has,comma",true,\n'


def test_csv_empty():
    assert _csv(("a", "b"), []) == "a,b\n"


def test_json_layout_and_parse():
    text = _json(("a", "b", "c"), [(1, 2.5, "x")])
    parsed = json.loads(text)
    assert parsed == [{"a": 1, "b": 2.5, "c": "x"}]
    assert text.endswith("\n")
    # floats are emitted through the same frozen format as the CSV side
    assert '"b": 2.5' in text
    text = _json(("a", "b"), [(1, 'say "hi",\n'), (2, "y")])
    assert text == '[\n  {"a": 1, "b": "say \\"hi\\",\\n"},\n  {"a": 2, "b": "y"}\n]\n'
    assert json.loads(text)[0]["b"] == 'say "hi",\n'


def test_json_empty_and_specials():
    assert _json(("a",), []) == "[]\n"
    text = _json(("a", "b"), [(None, False)])
    assert json.loads(text) == [{"a": None, "b": False}]


def test_field_order_follows_argument():
    rows = [(1, 2)]
    assert _csv(("z", "a"), rows).splitlines()[0] == "z,a"
    assert list(json.loads(_json(("z", "a"), rows))[0]) == ["z", "a"]


@pytest.mark.parametrize(
    "write,render,seen_writes",
    [
        # the header is the first text of the CSV; JSON's closing text follows its rows
        (rows_to_csv, _csv, [0, 0, 0, 1, 1, 1, 1, 2, 2, 2]),
        (rows_to_json, _json, [0, 0, 0, 0, 1, 1, 1, 1, 2, 2]),
    ],
    ids=["csv", "json"],
)
def test_rows_are_written_as_they_are_read(monkeypatch, write, render, seen_writes):
    # rows reach the stream a chunk at a time, each chunk in one write call,
    # before the later rows are formed, so a table is never held as text
    monkeypatch.setattr(tabular, "_CHUNK_ROWS", 4)
    out = io.StringIO()
    writes = []
    monkeypatch.setattr(out, "write", lambda text, w=out.write: writes.append(text) or w(text))
    seen = []

    def rows():
        for n in range(10):
            seen.append(len(writes))
            yield (n, n / 2)

    write(out, ("n", "half"), rows())
    assert seen == seen_writes
    assert len(writes) == 3  # 11 texts
    assert out.getvalue() == render(("n", "half"), [(n, n / 2) for n in range(10)])
