"""Empirical covering numbers over a finite pool.

Covers are proper (internal): centers are drawn from the pool columns
themselves, and a column is covered when its distance to a chosen center
is <= eps (ties included).  Two metrics are supported: the sup distance
``max_i |a_i - b_i|`` and the normalized euclidean distance
``sqrt(mean_i (a_i - b_i)^2)``.  The search reads only which distinct
columns lie within eps of each other (``kernels.within``, one pruned loop
for both metrics), never the distances themselves.

Equal columns cover each other, so the search runs on one column per
distinct column (``lossmatrix.distinct_index``), in their lexicographic
order.  The matrix is read through a ``kernels.Rows`` reader, a
``LossMatrix``'s values in place or rows computed on demand, and both
dedup and the relation (built on the distinct columns of the reader's
rows, block by block, with no copy of the matrix) stop at the first rows
that settle them: later rows can only tell columns apart, never join
them.  On the reference pool at m = 5000 (seed 888, 8 draws), dedup
reads 16-32 of a draw's 10^4 rows and the relation 24-120.  The set-cover
search itself reads no rows.

The exact solver is a branch-and-bound set-cover search seeded with the
greedy solution; it is capped at ``exact_cap`` pool columns (default 25)
and rejects larger instances with a CapabilityError.  A column within eps
of no other counts 1 in both modes, without search.
"""

from __future__ import annotations

import math

import numpy as np

from . import kernels
from .errors import CapabilityError, InputError, _count
from .estimates import ComplexityEstimate
from .lossmatrix import LossMatrix, distinct_index

__all__ = ["covering_number_linf", "covering_number_l2", "covering_number"]

DEFAULT_EXACT_CAP = 25


def _coverage_masks(within: np.ndarray) -> list[int]:
    """Per column j, the bitmask of the columns i with within[j, i]."""
    packed = np.packbits(within, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _greedy_cover(masks: list[int], full: int) -> int:
    uncovered = full
    count = 0
    while uncovered:
        best_gain = -1
        best_mask = 0
        for mask in masks:
            gain = (mask & uncovered).bit_count()
            if gain > best_gain:
                best_gain = gain
                best_mask = mask
        uncovered &= ~best_mask
        count += 1
    return count


def _exact_cover(masks: list[int], full: int) -> int:
    best = _greedy_cover(masks, full)

    def dfs(uncovered: int, used: int):
        nonlocal best
        if uncovered == 0:
            if used < best:
                best = used
            return
        max_gain = 0
        for mask in masks:
            gain = (mask & uncovered).bit_count()
            if gain > max_gain:
                max_gain = gain
        if used + math.ceil(uncovered.bit_count() / max_gain) >= best:
            return
        # branch on the uncovered element with the fewest candidate centers
        pick = -1
        pick_count = len(masks) + 1
        u = uncovered
        while u:
            bit = u & -u
            cnt = sum(1 for mask in masks if mask & bit)
            if cnt < pick_count:
                pick_count = cnt
                pick = bit
            u &= u - 1
        cands = sorted(
            (mask for mask in masks if mask & pick),
            key=lambda mk: -(mk & uncovered).bit_count(),
        )
        for mask in cands:
            dfs(uncovered & ~mask, used + 1)

    dfs(full, 0)
    return best


def _cover_size(within: np.ndarray, exact: bool) -> int:
    """The least (exact) or greedily found number of columns covering every
    column, where column j covers the columns i with within[j, i], a
    symmetric and reflexive relation.

    A column linked to no other covers only itself and only itself covers
    it, so it counts 1 without search, and the rest are solved as one
    instance; the greedy count does not change, since the whole relation's
    greedy also spends exactly one pick on each such column."""
    rest = np.flatnonzero(np.count_nonzero(within, axis=1) > 1)
    size = len(within) - len(rest)
    if rest.size:
        masks = _coverage_masks(within[np.ix_(rest, rest)])
        size += (_exact_cover if exact else _greedy_cover)(masks, (1 << len(rest)) - 1)
    return size


def covering_number(
    matrix: LossMatrix | kernels.Rows,
    eps: float,
    metric: str = "linf",
    mode: str = "exact",
    exact_cap: int = DEFAULT_EXACT_CAP,
) -> ComplexityEstimate:
    """Minimum (exact) or greedily found (greedy) number of pool columns
    covering every column within eps, of a ``LossMatrix`` or of the columns
    of a ``kernels.Rows`` reader."""
    if not (eps >= 0):
        raise InputError("eps must be nonnegative")
    if mode not in ("exact", "greedy"):
        raise InputError(f"unknown cover mode {mode!r}")
    if metric not in ("linf", "l2"):
        raise InputError(f"unknown metric {metric!r}")
    _count("exact_cap", exact_cap, 1)
    rows = matrix if isinstance(matrix, kernels.Rows) else kernels.Rows.of(matrix.values)
    p = rows.shape[1]
    if mode == "exact" and p > exact_cap:
        raise CapabilityError(
            f"exact cover search is capped at {exact_cap} pool columns (got {p})"
        )
    # identical columns cover each other at distance zero; deduplicating
    # changes neither the exact nor the greedy value.  The relation is read
    # in the columns' lexicographic order, which fixes greedy's tie-breaks.
    index = distinct_index(rows)
    within = kernels.within(rows.take(index), eps, metric)
    return ComplexityEstimate(
        value=float(_cover_size(within, mode == "exact")),
        method="exact-enumeration" if mode == "exact" else "greedy-upper",
        details={"metric": metric, "eps": float(eps), "pool": p, "distinct": len(index)},
    )


def covering_number_linf(matrix, eps, mode="exact", exact_cap=DEFAULT_EXACT_CAP):
    """Empirical sup-distance covering number of the pool."""
    return covering_number(matrix, eps, "linf", mode, exact_cap)


def covering_number_l2(matrix, eps, mode="exact", exact_cap=DEFAULT_EXACT_CAP):
    """Empirical normalized-euclidean covering number of the pool."""
    return covering_number(matrix, eps, "l2", mode, exact_cap)
