"""Hot numeric kernels, vectorized in numpy.

The inner loops that dominate runtime (exhaustive sign-vector enumeration,
Monte-Carlo sign correlations, pairwise column distances) live here, one
numpy implementation each.  Matrix products run on whatever BLAS numpy was
built with, in the calling process's BLAS threads.

Covers need only which columns lie within eps of each other, never the
distances: ``linf_within`` decides that sup-distance relation by pruning
pairs, while ``pairwise_linf`` stays for callers that want the distances.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError

__all__ = [
    "exact_mean_sup_signed_sum",
    "signed_sums",
    "sup_signed_sums",
    "pairwise_linf",
    "linf_within",
    "pairwise_l2n",
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


# rows in the first block of ``linf_within``; each later block doubles, up
# to the size that keeps (live pairs x rows) within _WITHIN_BLOCK_ITEMS
_WITHIN_FIRST_ROWS = 8
_WITHIN_BLOCK_ITEMS = 1 << 16


def linf_within(values, eps: float) -> np.ndarray:
    """Boolean column-to-column relation ``max_i |a_i - b_i| <= eps``.

    Equal to ``pairwise_linf(values) <= eps``.  Every upper-triangle pair
    starts live; each block of rows drops the pairs it separates by more
    than eps, so far-apart columns cost a few rows, not all of them.  The
    blocks start small and grow geometrically.  ``max`` and ``abs`` do not
    round, so the relation is exact.
    """
    values = _as_2d(values)
    m, p = values.shape
    a, b = np.triu_indices(p, 1)
    start, rows = 0, _WITHIN_FIRST_ROWS
    while start < m and a.size:
        rows = max(1, min(rows, _WITHIN_BLOCK_ITEMS // a.size))
        block = values[start : start + rows]
        diff = np.subtract(block[:, a], block[:, b])
        keep = (np.abs(diff, out=diff) <= eps).all(axis=0)
        a, b = a[keep], b[keep]
        start, rows = start + rows, 2 * rows
    out = np.eye(p, dtype=bool)
    out[a, b] = True
    out[b, a] = True
    return out


def pairwise_l2n(values) -> np.ndarray:
    """Column-to-column normalized distances ``sqrt(mean_i (a_i - b_i)^2)``."""
    values = _as_matrix(values)
    p = values.shape[1]
    out = np.zeros((p, p))
    for j in range(p):
        out[j] = np.sqrt(np.mean((values - values[:, [j]]) ** 2, axis=0))
    return out
