"""Byte-stable report serialization.

A JSON report is ``json.dumps`` of its ``canonical`` form: sorted keys and
floats rounded to 12 significant digits, so identical inputs serialize to
identical bytes regardless of thread count or platform.  A CSV report is
the columns its schema declares in ``_CSV_COLUMNS`` (else one key,value row
per leaf) of the same canonical form, each cell written by one rule.  Both
formats write a ``Table`` of rows column by column, one chunk of
``_TABLE_ROWS`` rows at a time: each column's distinct values are found and
written once, and a chunk's cells are gathered from those texts.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

import numpy as np

from .errors import InputError

__all__ = [
    "Table",
    "format_float",
    "canonical",
    "canonical_json",
    "report_csv",
]


class Table:
    """Report rows held as columns: equal-length 1-D numpy arrays of floats,
    integers or strings (``str``, or ASCII bytes, which read as ``str``),
    one per cell of a row.  It iterates, compares and takes ``len`` as the
    tuple of its row tuples, whose cells are Python scalars; the report
    writers write it column by column, and its JSON is the list of its rows
    as lists."""

    def __init__(self, *columns):
        self.columns = tuple(np.asarray(c) for c in columns)

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def __iter__(self):
        return zip(*map(_items, self.columns))

    def __eq__(self, other):
        if isinstance(other, Table):
            other = tuple(other)
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def to_json(self) -> list:
        return [list(row) for row in self]


def _items(c: np.ndarray) -> list:
    """The entries of a column as Python scalars, bytes read as ASCII ``str``."""
    return (c.astype(str) if c.dtype.kind == "S" else c).tolist()


def format_float(x: float) -> str:
    return f"{x:.12g}"


def _scalar(x) -> float | str:
    """The one float rule of every report: 12 significant digits, the strings
    ``"Infinity"`` and ``"-Infinity"`` for overflowed closed forms, and no NaN."""
    x = float(x)
    if math.isnan(x):
        raise InputError("reports must not contain NaN")
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return float(format_float(x))


def canonical(obj, _tables: bool = False):
    """Recursively normalize a report object for byte-stable serialization;
    with ``_tables``, as the writers call it, a ``Table`` stays as is, and
    a report whose ``rows`` are one hands it over (``to_json(table=True)``)."""
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _scalar(obj)
    if isinstance(obj, dict):
        return {str(k): canonical(v, _tables) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v, _tables) for v in obj]
    if isinstance(obj, np.ndarray):
        return [canonical(v, _tables) for v in obj.tolist()]
    if _tables and isinstance(obj, Table):
        return obj
    if hasattr(obj, "to_json"):
        table = _tables and isinstance(getattr(obj, "rows", None), Table)
        return canonical(obj.to_json(table=True) if table else obj.to_json(), _tables)
    raise InputError(f"cannot serialize object of type {type(obj)!r}")


def canonical_json(obj) -> str:
    """``json.dumps(canonical(obj), sort_keys=True, indent=2) + "\\n"``, with
    each ``Table`` written column by column.  ``json.dumps`` writes a table as
    a bare ``NaN``, which no canonical value gives; the text is then one
    ``"".join`` of the pieces of ``json.dumps``'s text around each ``NaN`` and
    the table's rows in its place, at the indentation of its line, joined
    ``_TABLE_ROWS`` rows to a piece."""
    tables = []

    def table(t: Table) -> float:
        # json.dumps calls this for each table in the order it writes them
        tables.append(t)
        return math.nan

    text = json.dumps(canonical(obj, True), sort_keys=True, indent=2, default=table)
    pieces, end = [], 0
    # strings are quoted and canonical floats finite: only a table ends a line in NaN
    for t, m in zip(tables, re.finditer(r"(?m)^( *).*(NaN)(?=,?$)", text)):
        pieces.append(text[end : m.start(2)])
        pieces.extend(_table_json(t, m[1]))
        end = m.end(2)
    pieces += [text[end:], "\n"]
    return "".join(pieces)


# rows of a table that the writers format, and join, at a time
_TABLE_ROWS = 4096


def _table_json(t: Table, indent: str):
    """The pieces of the JSON text of a table, as ``json.dumps`` indents it on
    a line that starts with ``indent``."""
    if not len(t):
        yield "[]"
        return
    row, cell = "\n" + indent + "  ", "\n" + indent + "    "
    between = row + "]," + row + "[" + cell
    yield "[" + row + "[" + cell
    for n, cells in enumerate(_table_chunks(t, _json_texts)):
        if n:
            yield between
        yield between.join(map(("," + cell).join, zip(*cells)))
    yield row + "]\n" + indent + "]"


def _table_chunks(t: Table, texts):
    """Per chunk of ``_TABLE_ROWS`` rows, one list of cell texts per column.
    ``texts`` maps a list of distinct canonical values to their texts; a
    column's distinct values are found, and written, once for the table.
    Floats are told apart by their bits, so -0.0 keeps its sign."""
    columns = []
    for c in t.columns:
        floats = c.dtype.kind == "f"
        keys, inverse = np.unique(np.asarray(c, np.float64).view(np.uint64) if floats else c, return_inverse=True)
        values = canonical(keys.view(np.float64).tolist()) if floats else _items(keys)
        # each row's index into the texts, at the least width that holds it
        columns.append((np.array(texts(values), dtype=object), inverse.astype(np.min_scalar_type(len(keys)))))
    for lo in range(0, len(t), _TABLE_ROWS):
        yield [cells[at[lo : lo + _TABLE_ROWS]].tolist() for cells, at in columns]


def _json_texts(values: list) -> list:
    # newline-separated: the JSON text of a scalar never holds a raw newline;
    # integers and strings are canonical once they are Python scalars
    return json.dumps(values, separators=("\n", ":"))[1:-1].split("\n")


# schema -> the keys of its CSV columns, one row per report, or per entry of
# its ``rows`` where it has them; ``params.m`` is key ``m`` of section
# ``params``, and a column's header is its key's last part
_CSV_COLUMNS = {
    "relmargin/bound-report/v1": (
        "family",
        "params.m",
        "params.delta",
        "params.alpha",
        "params.rho",
        "empirical_term",
        "complexity_term",
        "bound_value",
        "solver",
        "complexity_method",
        "vacuous",
        "clamped",
    ),
    "relmargin/complexity-estimate/v1": ("value", "method", "trials", "seed", "stderr"),
    "relmargin/tightness-report/v1": ("m", "rho", "emp", "beta", "beta_prime", "new_bound", "old_bound", "new_smaller"),
}
# validity rows are lists or a ``Table``, with these columns
_VALIDITY_SCHEMA = "relmargin/validity-report/v1"
_VALIDITY_HEADER = ("family", "trial", "emp", "complexity", "bound", "true_risk", "violated")


def _csv_cell(v) -> str:
    """The one CSV cell rule: a null is empty, a bool 0/1, a float
    ``format_float``, and a list its items joined by ``;``, where an item
    that is itself a list or a mapping is written as its ``str`` with every
    float in it ``format_float``'s."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return format_float(v)
    if isinstance(v, list):
        return ";".join(_nested_text(x) if isinstance(x, (list, dict)) else _csv_cell(x) for x in v)
    return str(v)


def _nested_text(v) -> str:
    """``str`` of a canonical list or mapping, with its floats as ``format_float`` writes them."""
    if isinstance(v, float):
        return format_float(v)
    if isinstance(v, list):
        return "[" + ", ".join(map(_nested_text, v)) + "]"
    if isinstance(v, dict):
        return "{" + ", ".join(f"{k!r}: {_nested_text(x)}" for k, x in v.items()) + "}"
    return repr(v)


def _write_rows(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    if not isinstance(rows, Table):
        for row in rows:
            writer.writerow([_csv_cell(v) for v in row])
        return buf.getvalue()
    # one piece of text per chunk of rows, so that no buffer holds, or copies, the whole text
    pieces = []
    for cells in _table_chunks(rows, lambda values: list(map(_csv_cell, values))):
        writer.writerows(zip(*cells))
        pieces.append(buf.getvalue())
        buf.seek(0)
        buf.truncate()
    pieces.append(buf.getvalue())
    return "".join(pieces)


def _leaves(value, prefix: str = ""):
    """The (dotted key, value) pairs of a canonical mapping's leaves, keys sorted."""
    if not isinstance(value, dict):
        yield prefix, value
        return
    for k in sorted(value):
        yield from _leaves(value[k], f"{prefix}.{k}" if prefix else k)


def report_csv(report) -> str:
    """CSV rendering of a report's ``canonical`` form, keyed by its schema
    tag: the declared columns of its schema, the validity rows, or else one
    key,value row per leaf.  Validity rows given as a ``Table``, or held as
    one by the report object, are written as one, column by column."""
    validity = isinstance(getattr(report, "rows", None), Table) or (
        isinstance(report, dict) and report.get("schema") == _VALIDITY_SCHEMA
    )
    data = canonical(report, validity)
    schema = data.get("schema")
    if schema in _CSV_COLUMNS:
        keys = _CSV_COLUMNS[schema]
        rows = ([dict(_leaves(r)).get(k) for k in keys] for r in data.get("rows", [data]))
        return _write_rows([k.split(".")[-1] for k in keys], rows)
    if schema == _VALIDITY_SCHEMA:
        return _write_rows(_VALIDITY_HEADER, data["rows"])
    return _write_rows(["key", "value"], _leaves(data))

