"""Loss matrices over finite hypothesis pools, and the peeling partition.

A LossMatrix holds per-example values for a pool of hypotheses (rows =
sample points, columns = pool members).  It is the substrate for covers,
dichotomy counts, Rademacher estimation, and peeling: column j lands in
shell k exactly when 2^k <= (sum_i values[i, j]) + 1 < 2^{k+1}.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InputError, _fields_from_json, _fields_json, _floats
from .hypotheses import margins
from .kernels import Rows

__all__ = [
    "LossMatrix",
    "peel",
    "shell_index",
    "count_dichotomies",
    "distinct_index",
    "transform_matrix",
    "outputs_matrix",
]

RANGE_TAGS = ("binary", "unit-interval", "real")
# entries that ``distinct_index`` keys, or compares, at a time
_KEY_BLOCK = 1 << 16
# rows whose keys order the columns before any tie is keyed further
_PREFIX_ROWS = 16


@dataclass(frozen=True)
class LossMatrix:
    values: np.ndarray
    range_tag: str = "real"

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        if vals.ndim != 2 or vals.shape[0] < 1 or vals.shape[1] < 1:
            raise InputError("loss matrix must be 2-d with at least one row and column")
        if self.range_tag not in RANGE_TAGS:
            raise InputError(f"unknown range tag {self.range_tag!r}")
        if self.range_tag == "binary" and not np.all(np.isin(vals, (0.0, 1.0))):
            raise InputError("binary matrix has entries outside {0, 1}")
        if self.range_tag == "unit-interval" and (vals.min() < 0.0 or vals.max() > 1.0):
            raise InputError("unit-interval matrix has entries outside [0, 1]")
        if not np.all(np.isfinite(vals)):
            raise InputError("loss matrix entries must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def pool_size(self) -> int:
        return self.values.shape[1]

    def to_json(self) -> dict:
        return {"schema": "relmargin/loss-matrix/v1", **_fields_json(self)}

    @classmethod
    def from_json(cls, data: dict) -> "LossMatrix":
        return cls(**_fields_from_json("matrix", cls, data, {"values": _floats}))

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["index"] + [f"c{j}" for j in range(self.pool_size)])
        for i in range(self.m):
            writer.writerow([i] + [repr(float(v)) for v in self.values[i]])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str, range_tag: str = "real") -> "LossMatrix":
        reader = csv.reader(io.StringIO(text))
        header = next(reader, None)
        if not header or header[0] != "index":
            raise InputError("loss matrix CSV must start with an 'index' header column")
        rows = [row[1:] for row in reader if row]
        if not rows:
            raise InputError("loss matrix CSV has no data rows")
        try:
            rows = [[float(v) for v in row] for row in rows]
        except ValueError as exc:
            raise InputError(f"loss matrix CSV entries must be numbers: {exc}") from None
        return cls(_floats("loss matrix CSV rows", rows), range_tag)


def transform_matrix(pool, sample, transform) -> LossMatrix:
    """phi(y_i h_j(x_i)) over the pool; binary-tagged for step transforms."""
    # filled a column at a time, so no second copy of the matrix is held
    out = np.empty((sample.m, len(pool)))
    for j, h in enumerate(pool):
        out[:, j] = transform(margins(h, sample))
    return LossMatrix(out, "binary" if transform.kind in ("step", "half-step") else "unit-interval")


def outputs_matrix(pool, points) -> LossMatrix:
    """Raw outputs h_j(x_i) over the pool (used for covers of the class itself)."""
    pts = np.asarray(points, dtype=np.float64)
    out = np.empty((pts.shape[0], len(pool)))
    for j, h in enumerate(pool):
        out[:, j] = h.predict(pts)
    return LossMatrix(out, "real")


def shell_index(column_sum: float) -> int:
    """The unique k with 2^k <= column_sum + 1 < 2^{k+1}."""
    return int(math.floor(math.log2(column_sum + 1.0)))


def peel(matrix: LossMatrix) -> dict:
    """Partition pool columns into shells by empirical loss magnitude:
    {k: tuple of the columns j in shell k}, for the nonempty shells."""
    vals = matrix.values
    if vals.min() < 0.0 or vals.max() > 1.0:
        raise InputError("peeling requires entries in [0, 1]")
    sums = vals.sum(axis=0)
    buckets: dict = {}
    for j, s in enumerate(sums):
        buckets.setdefault(shell_index(float(s)), []).append(j)
    return {k: tuple(cols) for k, cols in buckets.items()}


def count_dichotomies(matrix: LossMatrix) -> int:
    """Number of distinct column vectors of a binary matrix."""
    if matrix.range_tag != "binary":
        raise InputError("dichotomy counting requires a binary matrix")
    return len(distinct_index(matrix.values))


def _column_keys(columns: np.ndarray) -> np.ndarray:
    """``columns``, a fresh C-ordered array holding one column per row, made
    in place, a block at a time, into each entry's order-preserving unsigned
    key, in big-endian bytes."""
    columns += 0.0  # folds -0.0 into 0.0, which compares equal to it
    keys = columns.view(np.uint64)
    flat = keys.reshape(-1)
    for start in range(0, flat.size, _KEY_BLOCK):
        block = flat[start : start + _KEY_BLOCK]
        # negative entries map to ~bits, the others to bits | 1 << 63
        block ^= (block.view(np.int64) >> 63).view(np.uint64) | np.uint64(1 << 63)
        if sys.byteorder == "little":
            block.byteswap(inplace=True)
    return keys


def _byte_order(keys: np.ndarray) -> np.ndarray:
    """The stable order of the key rows as opaque byte strings."""
    # numpy orders unstructured void items by their bytes, first byte first
    return np.argsort(keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).reshape(-1), kind="stable")


def _run_starts(keys: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Per position of ``order``: whether its key row differs from the one
    before it.  The neighbours are compared a block of rows at a time."""
    starts = np.ones(len(order), dtype=bool)
    step = max(1, _KEY_BLOCK // keys.shape[1])
    for start in range(0, len(order) - 1, step):
        rows = keys[order[start : start + step + 1]]
        starts[start + 1 : start + len(rows)] = (rows[1:] != rows[:-1]).any(axis=1)
    return starts


def distinct_index(values) -> np.ndarray:
    """One column index per distinct column of a finite 2-d array, or of the
    columns of a ``kernels.Rows`` reader (the first of its equal columns),
    in the lexicographic order of the columns.

    Comparing the key bytes of two columns compares them entry by entry.
    The columns are sorted by the keys of their first _PREFIX_ROWS rows.
    Then, while some columns still tie, the prefix doubles, and only the
    tied columns are keyed on its new rows and sorted again within their
    runs: columns that differ in the prefix are already in place.  So no
    row past the first that tells every distinct column apart is read, and
    the keys held beside the matrix are the prefix's and one block's of the
    tied columns.  On the reference pool at m = 5000 (10^4 rows; seed 888,
    8 draws) that is after 16-32 rows; equal columns are read to the last
    row.
    """
    rows = Rows.of(values)
    m = rows.shape[0]
    if m == 0:  # all empty columns are one column
        return np.arange(min(rows.shape[1], 1))
    keys = _column_keys(rows.read(_PREFIX_ROWS).T[rows.columns])
    order = _byte_order(keys)
    new = _run_starts(keys, order)
    lo = _PREFIX_ROWS
    while lo < m:
        tied = ~new
        tied[:-1] |= ~new[1:]
        if not tied.any():
            break
        cols = order[tied]
        keys = _column_keys(rows.read(2 * lo)[lo:].T[rows.columns[cols]])
        # by the new rows' keys, then stably by run, so each run keeps its place
        run = np.cumsum(new)[tied]
        sub = _byte_order(keys)
        sub = sub[np.argsort(run[sub], kind="stable")]
        order[tied] = cols[sub]
        starts = _run_starts(keys, sub)
        starts[1:] |= run[sub[1:]] != run[sub[:-1]]
        new[tied] = starts
        lo *= 2
    return order[new]
