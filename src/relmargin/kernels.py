"""Hot numeric kernels, vectorized in numpy.

The inner loops that dominate runtime (exhaustive sign-vector enumeration,
Monte-Carlo sign correlations, pairwise column distances) live here, one
numpy implementation each.  Matrix products run on whatever BLAS numpy was
built with, in the calling process's BLAS threads.

Covers need only which columns lie within eps of each other, never the
distances: ``within`` decides that relation for both cover metrics by
pruning pairs over blocks of rows, with no copy of the matrix.  Nothing in
the package calls ``pairwise_linf``; it stays only because the benchmark's
tracer (``relbench/tracer.py``) and the test oracles name it.  Covers
read their matrix through ``Rows``, whose rows may be computed on demand,
so a relation settled by its first rows never computes the others.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError

__all__ = [
    "exact_mean_sup_signed_sum",
    "signed_sums",
    "sup_signed_sums",
    "pairwise_linf",
    "within",
    "Rows",
]


def _as_2d(values) -> np.ndarray:
    out = np.asarray(values, dtype=np.float64)
    if out.ndim != 2:
        raise InputError("expected a 2-d array of shape (m, pool)")
    return out


def _as_matrix(values) -> np.ndarray:
    return np.ascontiguousarray(_as_2d(values))


def exact_mean_sup_signed_sum(values) -> float:
    """Mean over all 2^m sign vectors of ``max_j sum_i sigma_i * values[i, j]``."""
    # Enumerates all 2^m sign vectors in chunked matrix products.
    values = _as_matrix(values)
    m = values.shape[0]
    n_states = 1 << m
    chunk = 1 << min(m, 13)
    bit_shift = np.arange(m, dtype=np.int64)
    total = 0.0
    for start in range(0, n_states, chunk):
        idx = np.arange(start, min(start + chunk, n_states), dtype=np.int64)
        signs = (((idx[:, None] >> bit_shift) & 1) * 2.0) - 1.0
        total += float((signs @ values).max(axis=1).sum())
    return total / n_states


def signed_sums(values, signs) -> np.ndarray:
    """Per sign vector and column: ``sum_i signs[t, i] * values[i, j]``."""
    return np.ascontiguousarray(signs, dtype=np.float64) @ _as_matrix(values)


def sup_signed_sums(values, signs) -> np.ndarray:
    """Per sign vector: ``max_j sum_i signs[t, i] * values[i, j]``."""
    return signed_sums(values, signs).max(axis=1)


def pairwise_linf(values) -> np.ndarray:
    """Column-to-column sup distances ``max_i |a_i - b_i|``."""
    # |a - b| and max round the same in either order, so the upper
    # triangle mirrored is exact; each column is one contiguous row here
    cols = np.ascontiguousarray(_as_2d(values).T)
    p = cols.shape[0]
    out = np.zeros((p, p))
    buf = np.empty_like(cols[1:])
    for j in range(p - 1):
        diff = np.subtract(cols[j + 1 :], cols[j], out=buf[: p - 1 - j])
        np.abs(diff, out=diff)
        diff.max(axis=1, out=out[j, j + 1 :])
    return np.maximum(out, out.T)


# a computed ``Rows`` computes blocks that start at multiples of this many
# rows.  A BLAS matrix-vector product may round a row by its place in a
# group of rows: OpenBLAS's gemv takes rows in fours, and from dim 8 on a
# row's bits depend on where its group starts, so a block that starts
# elsewhere than a multiple of four rows can differ from the whole product
# in the last bit.  numpy's product of a lone row takes a dot path that
# rounds otherwise again, so no block is one row unless the matrix is.
# Blocks of 64 rows, not 16, since a block's cost is mostly per call: on
# the reference pool one call of 50 members costs about as much on 128
# rows as on 16, and most draws settle within 64 rows
_ROW_GRANULE = 64


class Rows:
    """The rows of an (m, p) matrix, read as prefixes that only grow.

    ``read(stop)`` gives the first ``stop`` rows (all m when fewer) of the
    whole matrix, and ``columns`` the columns of those rows that this
    reader reads, so ``shape`` is (m, len(columns)).  ``take(index)`` reads
    the columns ``columns[index]`` of the same rows, with no copy.

    ``Rows.of(values)`` reads an array's rows in place (and gives a reader
    back as is).  ``Rows.computed(m, p, compute)`` calls ``compute(lo, hi)``
    for rows lo:hi only when a read first needs them, and keeps them: each
    block starts at a multiple of _ROW_GRANULE rows, holds at least as many
    rows as are already kept, and ends at such a multiple or at row m,
    never one row before it.  So the rows equal, bit for bit, those of
    ``compute(0, m)`` wherever that is a row-by-row product of a single
    BLAS call, and a reader that stops early computes a few blocks, not the
    matrix.
    """

    def __init__(self, read, m: int, columns: np.ndarray):
        self.read, self.columns = read, columns
        self.shape = (m, len(columns))

    @classmethod
    def of(cls, values) -> "Rows":
        if isinstance(values, Rows):
            return values
        values = _as_2d(values)
        return cls(lambda stop: values[:stop], values.shape[0], np.arange(values.shape[1]))

    @classmethod
    def computed(cls, m: int, p: int, compute) -> "Rows":
        # one array for all the rows, so that no block copies those before it
        held, n = np.empty((m, p)), 0

        def read(stop: int) -> np.ndarray:
            nonlocal n
            if n < min(stop, m):
                granules = -(-max(stop, 2 * n) // _ROW_GRANULE)
                hi = min(m, granules * _ROW_GRANULE)
                hi = m if m - hi == 1 else hi
                held[n:hi] = compute(n, hi)
                n = hi
            return held[:stop]

        return cls(read, m, np.arange(p))

    def take(self, index) -> "Rows":
        return Rows(self.read, self.shape[0], self.columns[index])


# rows in the first block of ``within``; each later block doubles, up to
# the size that keeps (live pairs x rows) within _WITHIN_BLOCK_ITEMS
_WITHIN_FIRST_ROWS = 8
_WITHIN_BLOCK_ITEMS = 1 << 16


def within(values, eps: float, metric: str = "linf") -> np.ndarray:
    """Boolean column-to-column relation ``distance(a, b) <= eps``, for the
    sup distance ``max_i |a_i - b_i|`` (``"linf"``) or the normalized
    euclidean distance ``sqrt(mean_i (a_i - b_i)^2)`` (``"l2"``), of the
    columns of an array or of a ``Rows`` reader.

    Every upper-triangle pair starts live; each block of rows drops the
    pairs it separates by more than eps, so far-apart columns cost a few
    rows, not all of them.  The blocks start small and grow geometrically,
    and no row is read once no pair is left: on the reference pool at
    m = 5000 (10^4 rows, 50 distinct columns; seed 888, 8 draws) the
    relation is settled after 24-120 rows.

    The relation is exact: equal to thresholding the full distance matrix.
    ``max`` and ``abs`` do not round.  The l2 sums of squares are added in
    row order, as ``np.mean`` sums the rows of a matrix of two or more
    columns (``np.add.accumulate``: a reduce of one column would sum it
    pairwise, to other bits); rounded partial sums of nonnegative terms
    never decrease, and ``/ m`` and ``sqrt`` are monotone, so a pair
    dropped early is farther than eps over all its rows too.
    """
    if metric not in ("linf", "l2"):
        raise InputError(f"unknown metric {metric!r}")
    values = Rows.of(values)
    m, p = values.shape
    # the live pairs: positions in the relation, and the columns they read
    pairs = np.stack(np.triu_indices(p, 1))
    cols = values.columns[pairs]
    sums = np.zeros(pairs.shape[1]) if metric == "l2" else None
    start, rows = 0, _WITHIN_FIRST_ROWS
    while start < m and pairs.size:
        rows = max(1, min(rows, _WITHIN_BLOCK_ITEMS // pairs.shape[1]))
        block = values.read(start + rows)[start:]
        diff = np.subtract(block[:, cols[0]], block[:, cols[1]])
        if sums is None:
            keep = (np.abs(diff, out=diff) <= eps).all(axis=0)
        else:
            np.square(diff, out=diff)
            diff[0] += sums
            sums = np.add.accumulate(diff, axis=0, out=diff)[-1]
            keep = np.sqrt(sums / m) <= eps
            sums = sums[keep]
        pairs, cols = pairs[:, keep], cols[:, keep]
        start, rows = start + rows, 2 * rows
    out = np.eye(p, dtype=bool)
    out[pairs[0], pairs[1]] = True
    out[pairs[1], pairs[0]] = True
    return out
