"""Byte-stable report serialization.

A JSON report is ``json.dumps`` of its ``canonical`` form: sorted keys,
floats rounded to 12 significant digits and each ``Table`` of rows written
column by column, so identical inputs serialize to identical bytes
regardless of thread count or platform.  CSV emitters share the same float
formatting.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

import numpy as np

from .errors import InputError
from .hypotheses import Hypothesis, margins
from .samples import LabeledSample

__all__ = [
    "Table",
    "format_float",
    "canonical",
    "canonical_json",
    "report_csv",
    "export_margins_csv",
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
    a bare ``NaN``, which no canonical value gives, and the table's rows then
    take its place at the indentation of its line."""
    tables = []

    def table(t: Table) -> float:
        # json.dumps calls this for each table in the order it writes them
        tables.append(t)
        return math.nan

    text = json.dumps(canonical(obj, True), sort_keys=True, indent=2, default=table)
    if tables:
        # strings are quoted and canonical floats finite: only a table ends a line in NaN
        rest = iter(tables)
        text = re.sub(r"(?m)^( *)(.*)NaN(?=,?$)", lambda m: m[1] + m[2] + _table_json(next(rest), m[1]), text)
    return text + "\n"


def _table_json(t: Table, indent: str) -> str:
    """The JSON text of a table, as ``json.dumps`` indents it on a line that
    starts with ``indent``."""
    if not len(t):
        return "[]"
    row, cell = "\n" + indent + "  ", "\n" + indent + "    "
    rows = map(("," + cell).join, zip(*map(_column_json, t.columns)))
    return "[" + row + "[" + cell + (row + "]," + row + "[" + cell).join(rows) + row + "]\n" + indent + "]"


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


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return format_float(v)
    return str(v)


def _write_rows(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_cell(v) for v in row])
    return buf.getvalue()


def report_csv(data: dict) -> str:
    """CSV rendering of a serialized report, keyed by its schema tag."""
    schema = data.get("schema", "")
    if schema == "relmargin/bound-report/v1":
        p = data["params"]
        header = [
            "family",
            "m",
            "delta",
            "alpha",
            "rho",
            "empirical_term",
            "complexity_term",
            "bound_value",
            "solver",
            "complexity_method",
            "vacuous",
            "clamped",
        ]
        row = [
            data["family"],
            p["m"],
            p["delta"],
            *("" if p[k] is None else p[k] for k in ("alpha", "rho")),
            data["empirical_term"],
            data["complexity_term"],
            data["bound_value"],
            data["solver"],
            data["complexity_method"],
            data["vacuous"],
            data["clamped"],
        ]
        return _write_rows(header, [row])
    if schema == "relmargin/validity-report/v1":
        header = ["family", "trial", "emp", "complexity", "bound", "true_risk", "violated"]
        return _write_rows(header, data["rows"])
    if schema == "relmargin/tightness-report/v1":
        keys = ["m", "rho", "emp", "beta", "beta_prime", "new_bound", "old_bound", "new_smaller"]
        rows = [[r.get(k, "") for k in keys] for r in data["rows"]]
        return _write_rows(keys, rows)
    if schema == "relmargin/complexity-estimate/v1":
        header = ["value", "method", "trials", "seed", "stderr"]
        row = [
            data["value"],
            data["method"],
            ";".join(str(t) for t in data["trials"]),
            "" if data.get("seed") is None else data["seed"],
            "" if data.get("stderr") is None else data["stderr"],
        ]
        return _write_rows(header, [row])
    # generic fallback: flattened key/value rows
    rows = []

    def flatten(prefix, value):
        if isinstance(value, dict):
            for k in sorted(value):
                flatten(f"{prefix}.{k}" if prefix else str(k), value[k])
        elif isinstance(value, (list, tuple)):
            rows.append([prefix, ";".join(_csv_cell(canonical(v)) for v in value)])
        else:
            rows.append([prefix, _csv_cell(value)])

    flatten("", canonical(data))
    return _write_rows(["key", "value"], rows)


def export_margins_csv(h: Hypothesis, sample: LabeledSample, transform) -> str:
    """Per-example export with the fixed header ``index,margin,loss``."""
    u = margins(h, sample)
    losses = transform(u)
    rows = [[i, float(u[i]), float(losses[i])] for i in range(sample.m)]
    return _write_rows(["index", "margin", "loss"], rows)
