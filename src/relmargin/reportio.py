"""Byte-stable report serialization.

A JSON report is ``json.dumps`` of its ``canonical`` form: sorted keys,
floats rounded to 12 significant digits and each ``Table`` of rows written
column by column, so identical inputs serialize to identical bytes
regardless of thread count or platform.  A CSV report is the columns its
schema declares in ``_CSV_COLUMNS`` (else one key,value row per leaf) of
the same canonical form, each cell written by one rule.
"""

from __future__ import annotations

import csv
import io
import itertools
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
    integers or strings, one per cell of a row.  It iterates, compares and
    takes ``len`` as the tuple of its row tuples, whose cells are Python
    scalars; ``canonical_json`` writes it column by column, and its JSON is
    the list of its rows as lists."""

    def __init__(self, *columns):
        self.columns = tuple(np.asarray(c) for c in columns)

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def __iter__(self):
        return zip(*(c.tolist() for c in self.columns))

    def __eq__(self, other):
        if isinstance(other, Table):
            other = tuple(other)
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def to_json(self) -> list:
        return [list(row) for row in self]


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
    with ``_tables``, as ``canonical_json`` calls it, a ``Table`` stays as is."""
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
        return canonical(obj.to_json(), _tables)
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


# rows of a table joined to one piece of ``canonical_json``'s text
_TABLE_ROWS = 4096


def _table_json(t: Table, indent: str):
    """The pieces of the JSON text of a table, as ``json.dumps`` indents it on
    a line that starts with ``indent``."""
    if not len(t):
        yield "[]"
        return
    row, cell = "\n" + indent + "  ", "\n" + indent + "    "
    between = row + "]," + row + "[" + cell
    rows = map(("," + cell).join, zip(*map(_column_json, t.columns)))
    yield "[" + row + "[" + cell
    for n in range(0, len(t), _TABLE_ROWS):
        if n:
            yield between
        yield between.join(itertools.islice(rows, _TABLE_ROWS))
    yield row + "]\n" + indent + "]"


def _column_json(c: np.ndarray) -> list:
    """The JSON texts of a table column, each distinct value written once;
    floats are told apart by their bits, so -0.0 keeps its sign."""
    floats = c.dtype.kind == "f"
    keys, inverse = np.unique(c.astype(np.float64).view(np.uint64) if floats else c, return_inverse=True)
    # integers and strings are canonical once they are Python scalars
    values = canonical(keys.view(np.float64).tolist()) if floats else keys.tolist()
    # newline-separated: the JSON text of a scalar never holds a raw newline
    texts = json.dumps(values, separators=("\n", ":"))[1:-1].split("\n")
    return np.array(texts, dtype=object)[inverse].tolist()


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
# validity rows are lists, with these columns
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
    for row in rows:
        writer.writerow([_csv_cell(v) for v in row])
    return buf.getvalue()


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
    key,value row per leaf."""
    data = canonical(report)
    schema = data.get("schema")
    if schema in _CSV_COLUMNS:
        keys = _CSV_COLUMNS[schema]
        rows = ([dict(_leaves(r)).get(k) for k in keys] for r in data.get("rows", [data]))
        return _write_rows([k.split(".")[-1] for k in keys], rows)
    if schema == "relmargin/validity-report/v1":
        return _write_rows(_VALIDITY_HEADER, data["rows"])
    return _write_rows(["key", "value"], _leaves(data))

