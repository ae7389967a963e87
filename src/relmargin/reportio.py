"""Byte-stable report serialization.

JSON artifacts use sorted keys and floats rounded to 12 significant
digits, so identical inputs serialize to identical bytes regardless of
thread count or platform.  CSV emitters share the same float formatting.
"""

from __future__ import annotations

import csv
import io
import math
from json.encoder import encode_basestring_ascii as _string

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


def canonical(obj):
    """Recursively normalize a report object for byte-stable serialization."""
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _scalar(obj)
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [canonical(v) for v in obj.tolist()]
    if hasattr(obj, "to_json"):
        return canonical(obj.to_json())
    raise InputError(f"cannot serialize object of type {type(obj)!r}")


def canonical_json(obj) -> str:
    """``json.dumps(canonical(obj), sort_keys=True, indent=2) + "\\n"``, written
    in one pass: each distinct float is formatted once, a list of scalars
    (a report row) is joined at once, and a ``Table`` is formatted column by
    column."""
    floats = {}
    parts = []
    put = parts.append

    def number(x: float) -> str:
        # -0.0 == 0.0 as dict keys, so zeros are keyed by their repr
        key = x if x else repr(x)
        text = floats.get(key)
        if text is None:
            value = _scalar(x)
            text = floats[key] = _string(value) if isinstance(value, str) else repr(value)
        return text

    def scalar(v) -> str | None:
        """The JSON text of a scalar, or None for anything else."""
        kind = type(v)
        if kind is float:
            return number(v)
        if kind is int:
            return repr(v)
        if kind is str:
            return _string(v)
        if v is None:
            return "null"
        if v is True:
            return "true"
        if v is False:
            return "false"
        if isinstance(v, str):
            return _string(v)
        if isinstance(v, (int, np.integer)):
            return repr(int(v))
        if isinstance(v, (float, np.floating)):
            return number(float(v))
        return None

    def column(c: np.ndarray) -> list:
        """The JSON texts of a table column, each distinct value formatted
        once; floats are told apart by their bits, so -0.0 keeps its sign."""
        floats = c.dtype.kind == "f"
        keys, inverse = np.unique(c.astype(np.float64).view(np.uint64) if floats else c, return_inverse=True)
        texts = [scalar(v) for v in (keys.view(np.float64) if floats else keys).tolist()]
        return np.array(texts, dtype=object)[inverse].tolist()

    def write(v, newline: str) -> None:
        inner = newline + "  "
        if isinstance(v, Table):
            if not len(v):
                put("[]")
                return
            cell = inner + "  "
            rows = map(("," + cell).join, zip(*map(column, v.columns)))
            put("[" + inner + "[" + cell + (inner + "]," + inner + "[" + cell).join(rows) + inner + "]" + newline + "]")
        elif isinstance(v, dict):
            if not v:
                put("{}")
                return
            named = {str(k): x for k, x in v.items()}
            put("{")
            sep = inner
            for k in sorted(named):
                put(sep + _string(k) + ": ")
                write(named[k], inner)
                sep = "," + inner
            put(newline + "}")
        elif isinstance(v, (list, tuple, np.ndarray)):
            items = v.tolist() if isinstance(v, np.ndarray) else v
            if not items:
                put("[]")
                return
            texts = []
            for x in items:
                text = scalar(x)
                if text is None:
                    break
                texts.append(text)
            else:
                put("[" + inner + ("," + inner).join(texts) + newline + "]")
                return
            put("[")
            sep = inner
            for i, x in enumerate(items):
                put(sep)
                if i < len(texts):
                    put(texts[i])
                else:
                    write(x, inner)
                sep = "," + inner
            put(newline + "]")
        else:
            text = scalar(v)
            if text is not None:
                put(text)
            elif hasattr(v, "to_json"):
                write(v.to_json(), newline)
            else:
                raise InputError(f"cannot serialize object of type {type(v)!r}")

    write(obj, "\n")
    put("\n")
    return "".join(parts)


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
