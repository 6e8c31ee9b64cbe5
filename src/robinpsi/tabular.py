"""Deterministic CSV/JSON table emission, streamed in chunks of rows.

A table is a tuple of field names and an iterable of row tuples in field
order; each writer renders the rows as it reads them and writes them to a
text stream _CHUNK_ROWS at a time, so no table is held as text, and an
unbuffered stream (PYTHONUNBUFFERED) still takes one write per chunk, not
per row.  Both encodings render a cell through one function: floats take a
frozen 12-significant-digit format, so identical inputs always produce
byte-identical output.  They differ only in None ("" in CSV, null in JSON)
and in a str (quoted by the csv module, or by json.dumps).
"""

from __future__ import annotations

import csv
import json
from itertools import islice
from typing import Any, Callable, Iterable, Iterator, Sequence, TextIO

FLOAT_FORMAT = "%.12g"  # its output is a valid JSON number too
_CHUNK_ROWS = 4096


def _cell(v: Any, none: str, text: Callable[[str], str]) -> str:
    if isinstance(v, float):
        return FLOAT_FORMAT % (v,)
    if v is None:
        return none
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, str):
        return text(v)
    return str(v)


def _write(out: TextIO, lines: Iterable[str]) -> None:
    lines = iter(lines)
    while chunk := "".join(islice(lines, _CHUNK_ROWS)):
        out.write(chunk)


class _Echo:
    """A file whose write returns its text, so csv's writerow returns the line."""

    def write(self, text: str) -> str:
        return text


def _csv_lines(fields: Sequence[str], rows: Iterable[Sequence[Any]]) -> Iterator[str]:
    line = csv.writer(_Echo(), quoting=csv.QUOTE_MINIMAL, lineterminator="\n").writerow
    yield line(fields)
    for row in rows:
        yield line([_cell(v, "", str) for v in row])


def _json_lines(fields: Sequence[str], rows: Iterable[Sequence[Any]]) -> Iterator[str]:
    keys = [json.dumps(f) + ": " for f in fields]
    sep = "[\n  {"
    for row in rows:
        yield sep + ", ".join(k + _cell(v, "null", json.dumps) for k, v in zip(keys, row))
        sep = "},\n  {"
    yield "[]\n" if sep == "[\n  {" else "}\n]\n"


def rows_to_csv(out: TextIO, fields: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    """RFC-4180-style quoting, '\\n' line endings, header row first."""
    _write(out, _csv_lines(fields, rows))


def rows_to_json(out: TextIO, fields: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    """JSON array of flat objects, one to a line, with the same cells as the CSV."""
    _write(out, _json_lines(fields, rows))
