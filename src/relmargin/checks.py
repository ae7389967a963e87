"""Numeric verification of the two supporting lemmas used by the bounds.

Both checks are exhaustive within their stated ranges and report the worst
case found, so a passing run is a concrete certificate for those ranges.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import binom

from .errors import InputError, _count
from .rng import substream

__all__ = ["deviation_ratio", "verify_binomial_lemma", "verify_monotone_ratio"]

MAX_BINOMIAL_M = 2000

# treats m*p within this slop of an integer as that integer when locating
# the tail threshold, so Pr[X >= E X] is not silently computed one term short
_INTEGER_SLOP = 1e-9


def verify_binomial_lemma(m_max: int, grid_size: int = 200) -> dict:
    """Check the exact binomial tail facts Pr[X >= m p] > 1/4 for p > 1/m and
    Pr[X <= m p] > 1/4 for p < 1 - 1/m, over all 2 <= m <= m_max and
    interior p grids (the boundary values are excluded: the facts are
    strict, and m = 1 has no interior p)."""
    if not (2 <= m_max <= MAX_BINOMIAL_M):
        raise InputError(f"m_max must lie in [2, {MAX_BINOMIAL_M}], got {m_max!r}")
    _count("grid_size", grid_size, 1)
    worst_ge = (math.inf, None, None)
    worst_le = (math.inf, None, None)
    checked = 0
    for m in range(2, int(m_max) + 1):
        ps = np.linspace(1.0 / m, 1.0, grid_size + 2)[1:-1]
        k_up = np.ceil(m * ps - _INTEGER_SLOP)
        tails = binom.sf(k_up - 1.0, m, ps)
        j = int(np.argmin(tails))
        if tails[j] < worst_ge[0]:
            worst_ge = (float(tails[j]), m, float(ps[j]))
        ps2 = np.linspace(0.0, 1.0 - 1.0 / m, grid_size + 2)[1:-1]
        k_dn = np.floor(m * ps2 + _INTEGER_SLOP)
        tails2 = binom.cdf(k_dn, m, ps2)
        j2 = int(np.argmin(tails2))
        if tails2[j2] < worst_le[0]:
            worst_le = (float(tails2[j2]), m, float(ps2[j2]))
        checked += len(ps) + len(ps2)
    passed = worst_ge[0] > 0.25 and worst_le[0] > 0.25
    return {
        "m_max": int(m_max),
        "grid_size": int(grid_size),
        "points_checked": checked,
        "min_upper_tail": worst_ge[0],
        "min_upper_tail_at": {"m": worst_ge[1], "p": worst_ge[2]},
        "min_lower_tail": worst_le[0],
        "min_lower_tail_at": {"m": worst_le[1], "p": worst_le[2]},
        "threshold": 0.25,
        "passed": bool(passed),
    }


def deviation_ratio(x, y, eta, alpha):
    """(x - y) / (x + y + eta)^{1/alpha}, the relative-deviation ratio."""
    return (x - y) / np.power(x + y + eta, 1.0 / np.asarray(alpha, dtype=np.float64))


def verify_monotone_ratio(n_points: int = 10000, delta: float = 1e-6, seed: int = 0) -> dict:
    """Check that the deviation ratio strictly increases in x and strictly
    decreases in y at n random (x, y, eta, alpha) points under a
    delta-perturbation."""
    if n_points < 1 or not 0 < delta < math.inf:
        raise InputError(f"need n_points >= 1 and a finite delta > 0, got delta {delta!r}")
    rng = substream(seed, "monotone")
    x = rng.uniform(0.01, 10.0, n_points)
    y = rng.uniform(0.01, 10.0, n_points)
    eta = rng.uniform(0.01, 5.0, n_points)
    alpha = rng.uniform(1.01, 2.0, n_points)
    base = deviation_ratio(x, y, eta, alpha)
    dx = deviation_ratio(x + delta, y, eta, alpha) - base
    dy = deviation_ratio(x, y + delta, eta, alpha) - base
    inc_failures = int(np.sum(dx <= 0))
    dec_failures = int(np.sum(dy >= 0))
    return {
        "n_points": int(n_points),
        "delta": float(delta),
        "seed": int(seed),
        "increasing_in_x_failures": inc_failures,
        "decreasing_in_y_failures": dec_failures,
        "min_x_gap": float(dx.min()),
        "max_y_gap": float(dy.max()),
        "passed": bool(inc_failures == 0 and dec_failures == 0),
    }
