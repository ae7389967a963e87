"""Scale-sensitive dimension formulas and a small exact shattering search.

The closed forms give fat-shattering caps for the standard classes
(norm-capped linear, convex ensembles over a VC base, l1-capped
feed-forward nets); ``fat_shattering_exact`` exhaustively certifies
shattering on desk-scale pools, with witnesses restricted to a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import CapabilityError, DomainError, InputError, _count, _real
from .lossmatrix import LossMatrix

__all__ = [
    "FatDimParams",
    "fat_dim_formula",
    "cover_log_bound_from_fat",
    "fat_shattering_exact",
    "FAT_COVER_CONSTANT",
]

# constant in the fat-shattering-to-cover conversion
FAT_COVER_CONSTANT = 17.0

FAT_KINDS = ("linear", "ensemble", "ffnn-fat", "ffnn-spectral")


@dataclass(frozen=True)
class FatDimParams:
    """Class parameters feeding the closed-form dimension bounds.

    linear:        radius R, margin rho
    ensemble:      base VC dimension vc_dim, margin rho, constant c
    ffnn-fat:      radius R, lipschitz mu, depth, margin rho, input_dim n, constant c
    ffnn-spectral: radius R, r21, depth, margin rho, lipschitz L
    """

    kind: str
    radius: float | None = None
    rho: float | None = None
    vc_dim: float | None = None
    constant: float = 1.0
    lipschitz: float | None = None
    depth: int | None = None
    input_dim: float | None = None
    r21: float | None = None

    def __post_init__(self):
        if self.kind not in FAT_KINDS:
            raise InputError(f"unknown class kind {self.kind!r}")
        if self.depth is not None:
            object.__setattr__(self, "depth", _count("depth", self.depth, 1))
        for name in ("radius", "rho", "vc_dim", "lipschitz", "input_dim", "r21", "constant"):
            if getattr(self, name) is not None:
                _real(name, getattr(self, name), "(0, inf)")


def fat_dim_formula(params: FatDimParams) -> float:
    """Closed-form fat-shattering cap; callers ceil when an integer is needed."""
    k = params.kind
    if k == "linear":
        if params.radius is None or params.rho is None:
            raise InputError("linear class needs radius and rho")
        return (params.radius / params.rho) ** 2
    if k == "ensemble":
        if params.vc_dim is None or params.rho is None:
            raise InputError("ensemble class needs vc_dim and rho")
        if params.rho >= 1.0:
            raise DomainError("ensemble formula needs rho < 1 (log(1/rho) must be positive)")
        return params.constant * (params.vc_dim / params.rho) ** 2 * math.log(1.0 / params.rho)
    if k == "ffnn-fat":
        if None in (params.radius, params.lipschitz, params.depth, params.rho, params.input_dim):
            raise InputError("ffnn-fat class needs radius, lipschitz, depth, rho, input_dim")
        if params.input_dim <= 1.0:
            raise DomainError("ffnn-fat formula needs input_dim > 1 (log n must be positive)")
        d = params.depth
        return (
            params.constant ** (d * d)
            * (params.radius * params.lipschitz) ** (d * (d + 1))
            / params.rho ** (2 * d)
            * math.log(params.input_dim)
        )
    raise CapabilityError(f"no fat-shattering formula for kind {k!r}")


def cover_log_bound_from_fat(d: float, m: int) -> float:
    """Cap on the log (base e) sup-distance cover: 1 + d log2(2 c^2 m) log2(2 c e m / d)
    with c = ``FAT_COVER_CONSTANT``."""
    d, m = _real("d", d, "[1, inf)"), _count("m", m, 1)
    c = FAT_COVER_CONSTANT
    arg = 2.0 * c * math.e * m / d
    if arg <= 1.0:
        raise DomainError("cover bound needs 2 c e m / d > 1")
    return 1.0 + d * math.log2(2.0 * c * c * m) * math.log2(arg)


MAX_SHATTER_M = 10
MAX_SHATTER_POOL = 50


def _midpoint_grid(row: np.ndarray) -> np.ndarray:
    uniq = np.unique(row)
    return (uniq[:-1] + uniq[1:]) / 2.0


def _point_splits(row: np.ndarray, gamma: float, grid) -> list[tuple[int, int]]:
    """Usable (above, below) hypothesis bitmask pairs for one point."""
    cands = _midpoint_grid(row) if grid is None else np.asarray(grid, dtype=np.float64)
    pairs = []
    for r in cands:
        above = 0
        below = 0
        for j, v in enumerate(row):
            if v >= r + gamma:
                above |= 1 << j
            elif v <= r - gamma:
                below |= 1 << j
        if above and below:
            pairs.append((above, below))
    # drop pairs dominated by another candidate witness
    kept = []
    for p in pairs:
        dominated = any(
            q != p and (p[0] & q[0]) == p[0] and (p[1] & q[1]) == p[1] for q in pairs
        )
        if not dominated and p not in kept:
            kept.append(p)
    return kept


def _gamma_shatters(sub: np.ndarray, gamma: float, grid) -> bool:
    splits = [_point_splits(row, gamma, grid) for row in sub]
    if any(not s for s in splits):
        return False
    order = sorted(range(len(splits)), key=lambda i: len(splits[i]))
    splits = [splits[i] for i in order]
    full = (1 << sub.shape[1]) - 1

    def dfs(t: int, masks: list[int]) -> bool:
        if t == len(splits):
            return True
        for above, below in splits[t]:
            nxt = []
            ok = True
            for msk in masks:
                a = msk & above
                b = msk & below
                if not a or not b:
                    ok = False
                    break
                nxt.append(b)
                nxt.append(a)
            if ok and dfs(t + 1, nxt):
                return True
        return False

    return dfs(0, [full])


def fat_shattering_exact(matrix: LossMatrix, gamma: float, witness_grid=None) -> int:
    """Size of the largest point subset gamma-shattered by the pool, with
    witnesses restricted to the grid (defaults to midpoints of each point's
    distinct outputs).  A lower bound on the true dimension; exact when the
    relevant witnesses lie on the grid.
    """
    _real("gamma", gamma, "(0, inf)")
    if matrix.m > MAX_SHATTER_M or matrix.pool_size > MAX_SHATTER_POOL:
        raise CapabilityError(
            f"exact shattering search is capped at m = {MAX_SHATTER_M}, pool = {MAX_SHATTER_POOL}"
        )
    vals = matrix.values
    for size in range(matrix.m, 0, -1):
        for subset in combinations(range(matrix.m), size):
            if _gamma_shatters(vals[list(subset)], gamma, witness_grid):
                return size
    return 0
