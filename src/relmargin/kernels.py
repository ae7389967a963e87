"""Hot numeric kernels, vectorized in numpy.

The inner loops that dominate runtime (exhaustive sign-vector enumeration,
Monte-Carlo sign correlations, pairwise column distances) live here, one
numpy implementation each.  Matrix products run on whatever BLAS numpy was
built with, in the calling process's BLAS threads.

Covers need only which columns lie within eps of each other, never the
distances: ``within`` decides that relation for both cover metrics by
pruning pairs over blocks of rows, with no copy of the matrix, while
``pairwise_linf`` stays for callers that want the sup distances.
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


# rows in the first block of ``within``; each later block doubles, up to
# the size that keeps (live pairs x rows) within _WITHIN_BLOCK_ITEMS
_WITHIN_FIRST_ROWS = 8
_WITHIN_BLOCK_ITEMS = 1 << 16


def within(values, eps: float, metric: str = "linf") -> np.ndarray:
    """Boolean column-to-column relation ``distance(a, b) <= eps``, for the
    sup distance ``max_i |a_i - b_i|`` (``"linf"``) or the normalized
    euclidean distance ``sqrt(mean_i (a_i - b_i)^2)`` (``"l2"``).

    Every upper-triangle pair starts live; each block of rows drops the
    pairs it separates by more than eps, so far-apart columns cost a few
    rows, not all of them.  The blocks start small and grow geometrically.

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
    values = _as_2d(values)
    m, p = values.shape
    a, b = np.triu_indices(p, 1)
    sums = np.zeros(a.size) if metric == "l2" else None
    start, rows = 0, _WITHIN_FIRST_ROWS
    while start < m and a.size:
        rows = max(1, min(rows, _WITHIN_BLOCK_ITEMS // a.size))
        block = values[start : start + rows]
        diff = np.subtract(block[:, a], block[:, b])
        if sums is None:
            keep = (np.abs(diff, out=diff) <= eps).all(axis=0)
        else:
            np.square(diff, out=diff)
            diff[0] += sums
            sums = np.add.accumulate(diff, axis=0, out=diff)[-1]
            keep = np.sqrt(sums / m) <= eps
            sums = sums[keep]
        a, b = a[keep], b[keep]
        start, rows = start + rows, 2 * rows
    out = np.eye(p, dtype=bool)
    out[a, b] = True
    out[b, a] = True
    return out
