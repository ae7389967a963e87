"""Rademacher complexity: exact enumeration, Monte Carlo, and the
peeling-based complexity with its upper bounds.

The central quantity for a pool matrix is ``E_sigma max_j (1/m) sum_i
sigma_i values[i, j]``.  The peeling-based complexity of a class sampled
from a distribution is

    sup_k log E_z [ exp( m^2 * Rhat(shell_k(z))^2 / 2^{k+5} ) ],

estimated by an outer Monte-Carlo over fresh samples with a stable
log-mean-exp, and an inner Rademacher value per shell (exact enumeration
when m <= 20, Monte Carlo otherwise).  Empty shells contribute zero.

Monte-Carlo sign vectors are the numbers ``rng.integers(0, 2, size=(n, m))
* 2 - 1`` would draw, as ``rng.sign_rows`` decodes them, and a binary
matrix multiplies them in float32 row blocks, where its sums are exact.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import logsumexp

from . import kernels
from .errors import CapabilityError, DomainError, InputError, _count
from .estimates import ComplexityEstimate
from .lossmatrix import LossMatrix, count_dichotomies, distinct_index, peel, shell_index
from .covers import DEFAULT_EXACT_CAP, covering_number_l2
from .rng import child_seed, sign_rows, substream

__all__ = [
    "rademacher_exact",
    "rademacher_mc",
    "peeling_complexity",
    "peeling_complexity_for_matrices",
    "peeling_exponents",
    "rm_upper_dichotomy",
    "rm_upper_dudley",
    "rm_upper_smooth",
    "worst_case_rademacher",
]

EXACT_ENUMERATION_MAX_M = 20
# Monte-Carlo sign vectors drawn when a caller gives no count
DEFAULT_N_SIGMA = 1024

# sign rows drawn and multiplied at a time: at least SIGN_BLOCK_ROWS, and
# about _SIGN_BLOCK_SIGNS signs a block; even, so that no block but the last
# leaves a buffered 32-bit half, which would send the next block to the
# slower ``integers`` call
SIGN_BLOCK_ROWS = 64
_SIGN_BLOCK_SIGNS = 2**16
# float32 holds every integer up to 2^24 exactly
_FLOAT32_EXACT_M = 1 << 24


def _drawn_sums(matrix: LossMatrix, n_sigma: int, rng) -> np.ndarray:
    """Per sign row and column, ``sum_i sigma_i * values[i, j]`` in float64,
    over the rows ``sign_rows(rng, n_sigma, m)``.

    A binary matrix with m < 2^24 takes float32 products of
    max(SIGN_BLOCK_ROWS, about 2^16 / m) rows at a time: each sum is an
    integer of size at most m, so float32 is exact.  Any other matrix takes
    one float64 product of all rows, because BLAS may round a block of rows
    differently from the whole product.
    """
    n, m = int(n_sigma), matrix.m
    if matrix.range_tag != "binary" or m >= _FLOAT32_EXACT_M:
        return kernels.signed_sums(matrix.values, sign_rows(rng, n, m))
    values = matrix.values.astype(np.float32)
    sums = np.empty((n, matrix.pool_size))
    block = max(SIGN_BLOCK_ROWS, (_SIGN_BLOCK_SIGNS // m) & ~1)
    for start in range(0, n, block):
        stop = min(start + block, n)
        sums[start:stop] = sign_rows(rng, stop - start, m) @ values
    return sums


def rademacher_exact(matrix: LossMatrix) -> ComplexityEstimate:
    """Exact E over all 2^m sign vectors of the max column correlation / m."""
    if matrix.m > EXACT_ENUMERATION_MAX_M:
        raise CapabilityError(
            f"exact enumeration is capped at m = {EXACT_ENUMERATION_MAX_M} (got {matrix.m})"
        )
    value = kernels.exact_mean_sup_signed_sum(matrix.values) / matrix.m
    return ComplexityEstimate(value=value, method="exact-enumeration", details={"m": matrix.m})


def rademacher_mc(matrix: LossMatrix, n_sigma: int, seed: int) -> ComplexityEstimate:
    """Monte-Carlo estimate with standard error over n_sigma sign draws."""
    n_sigma = _count("n_sigma", n_sigma, 2)
    sups = _drawn_sums(matrix, n_sigma, substream(seed, "sigma")).max(axis=1) / matrix.m
    value = float(sups.mean())
    stderr = float(sups.std(ddof=1) / math.sqrt(n_sigma))
    return ComplexityEstimate(
        value=value,
        method="monte-carlo",
        trials=(n_sigma,),
        seed=int(seed),
        stderr=stderr,
        details={"m": matrix.m},
    )


def _inner(m: int) -> str:
    """The inner Rademacher estimator for samples of size m: exact
    enumeration up to EXACT_ENUMERATION_MAX_M, Monte Carlo above it."""
    return "exact" if m <= EXACT_ENUMERATION_MAX_M else "mc"


def _shell_rademacher_values(matrix: LossMatrix, n_sigma: int, rng) -> np.ndarray:
    """Rhat for every shell k of one sample matrix (0 for empty shells)."""
    shells = peel(matrix)
    m = matrix.m
    # column sums lie in [0, m], so k ranges over 0 .. shell_index(m)
    out = np.zeros(shell_index(m) + 1)
    exact = _inner(m) == "exact"
    if not exact:
        if rng is None:
            raise InputError("monte-carlo inner estimation needs a generator")
        # one set of sums over the whole pool; each shell takes its columns' sups
        sums = _drawn_sums(matrix, n_sigma, rng)
    for k, cols in shells.items():
        if exact:
            out[k] = kernels.exact_mean_sup_signed_sum(matrix.values[:, cols]) / m
        else:
            out[k] = float(sums[:, cols].max(axis=1).mean()) / m
    return out


def peeling_exponents(matrix: LossMatrix, n_sigma: int = DEFAULT_N_SIGMA, rng=None) -> np.ndarray:
    """Per-shell exponents m^2 * Rhat_k^2 / 2^{k+5} for one sample matrix."""
    rhat = _shell_rademacher_values(matrix, n_sigma, rng)
    ks = np.arange(rhat.shape[0])
    return (matrix.m**2) * rhat**2 / np.exp2(ks + 5)


def peeling_complexity_for_matrices(
    matrices, n_sigma: int = DEFAULT_N_SIGMA, seed: int = 0
) -> ComplexityEstimate:
    """Peeling complexity treating the given matrices as the outer sample set.

    ``matrices`` may be any iterable; each matrix is used as it arrives and
    then dropped, so a generator keeps one sample matrix alive at a time."""
    n_sigma = _count("n_sigma", n_sigma, 1)
    rows = []
    m = None
    for t, mat in enumerate(matrices):
        if m is None:
            m = mat.m
        elif mat.m != m:
            raise InputError("all sample matrices must share the same m")
        rows.append(peeling_exponents(mat, n_sigma=n_sigma, rng=substream(seed, "inner", t)))
        del mat  # before the iterable builds the next one
    if not rows:
        raise InputError("need at least one sample matrix")
    exponents = np.stack(rows, axis=0)  # (trials, shells)
    inner = _inner(m)
    n = exponents.shape[0]
    per_k = logsumexp(exponents, axis=0) - math.log(n)
    k_star = int(np.argmax(per_k))
    value = float(per_k[k_star])
    # delta-method stderr of log-mean-exp at the reported shell
    e = exponents[:, k_star]
    w = np.exp(e - e.max())
    wbar = float(w.mean())
    stderr = float(w.std(ddof=1) / (wbar * math.sqrt(n))) if n > 1 else 0.0
    return ComplexityEstimate(
        value=value,
        method="monte-carlo",
        trials=(n, n_sigma) if inner == "mc" else (n,),
        seed=int(seed),
        stderr=stderr,
        details={
            "per_shell": {int(k): float(v) for k, v in enumerate(per_k)},
            "arg_shell": k_star,
            "inner": inner,
            "m": m,
        },
    )


def peeling_complexity(
    class_sampler,
    outer_trials: int,
    n_sigma: int = DEFAULT_N_SIGMA,
    seed: int = 0,
) -> ComplexityEstimate:
    """Estimate the peeling-based complexity by outer Monte Carlo over samples.

    ``class_sampler(sample_seed)`` must return the pool's LossMatrix on a
    fresh size-m sample; the samples are drawn one at a time, as the
    estimate uses them.  The result is a plug-in estimate and is always
    flagged monte-carlo, never certified.
    """
    outer_trials = _count("outer_trials", outer_trials, 2)
    samples = (class_sampler(child_seed(seed, "outer", t)) for t in range(outer_trials))
    return peeling_complexity_for_matrices(samples, n_sigma=n_sigma, seed=seed)


def rm_upper_dichotomy(class_sampler, trials: int, seed: int = 0) -> ComplexityEstimate:
    """(1/8) log of the Monte-Carlo mean dichotomy count of a binary class."""
    trials = _count("trials", trials, 1)
    counts = []
    for t in range(trials):
        mat = class_sampler(child_seed(seed, "outer", t))
        if mat.range_tag != "binary":
            raise InputError("dichotomy bound requires binary-valued classes")
        counts.append(count_dichotomies(mat))
    counts = np.asarray(counts, dtype=np.float64)
    mean = float(counts.mean())
    value = math.log(mean) / 8.0
    stderr = float(counts.std(ddof=1) / (mean * math.sqrt(len(counts))) / 8.0) if len(counts) > 1 else 0.0
    return ComplexityEstimate(
        value=value,
        method="monte-carlo",
        trials=(trials,),
        seed=int(seed),
        stderr=stderr,
        details={"mean_dichotomies": mean},
    )


def rm_upper_dudley(
    matrix: LossMatrix,
    k: int,
    eps_grid,
    exact_cap: int = DEFAULT_EXACT_CAP,
) -> float:
    """Entropy-integral cap on one shell's exponent term:
    (1/16) (1 + integral of log N2(shell, sqrt(2^k/m) * eps) d eps).

    The integral is a trapezoid over the supplied grid, which must be
    increasing inside [1/sqrt(m), 1].  Shells of at most ``exact_cap``
    columns are covered exactly, larger ones greedily.  An empty shell
    contributes 1/16.
    """
    _count("k", k, 0)
    grid = np.asarray(eps_grid, dtype=np.float64)
    m = matrix.m
    if not np.isfinite(grid).all():
        raise InputError(f"eps_grid must hold finite numbers, got {grid.tolist()}")
    if grid.size < 2 or np.any(np.diff(grid) <= 0):
        raise InputError("eps_grid must be increasing with at least two points")
    lo = 1.0 / math.sqrt(m)
    if grid[0] < lo - 1e-12 or grid[-1] > 1.0 + 1e-12:
        raise InputError("eps_grid must lie within [1/sqrt(m), 1]")
    cols = peel(matrix).get(int(k), ())
    if not cols:
        return 1.0 / 16.0
    # the shell's size picks the mode; its distinct columns, in the
    # lexicographic order every cover reads them in, give the same covers
    shell = matrix.values[:, cols]
    sub = LossMatrix(shell[:, distinct_index(shell)], "real")
    mode = "exact" if len(cols) <= exact_cap else "greedy"
    scale = math.sqrt((2.0**k) / m)
    log_n = np.array(
        [
            math.log(covering_number_l2(sub, scale * float(e), mode=mode, exact_cap=exact_cap).value)
            for e in grid
        ]
    )
    integral = float(np.trapezoid(log_n, grid))
    return (1.0 + integral) / 16.0


def rm_upper_smooth(rho: float, m: int, rmax: float) -> float:
    """Smoothed-loss cap on the peeling complexity:
    (16 pi^2 m / rho^2) * rmax^2 * (2 log^{3/2}(m/rmax) - log^{3/2}(2 pi m / (rho rmax)))^2.
    """
    if not (0 < rmax < m):
        raise InputError("requires 0 < rmax < m")
    if not (rho > 0):
        raise InputError("rho must be positive")
    a = m / rmax
    b = 2.0 * math.pi * m / (rho * rmax)
    if a <= 1.0 or b <= 1.0:
        raise DomainError("smoothed-loss cap needs both log arguments above 1")
    bracket = 2.0 * math.log(a) ** 1.5 - math.log(b) ** 1.5
    return (16.0 * math.pi**2 * m / rho**2) * rmax**2 * bracket**2


def worst_case_rademacher(params, m: int) -> float:
    """Closed-form cap on the worst-case (sup over samples) Rademacher value.

    Supported kinds: linear (radius R) -> R / sqrt(m); ffnn-spectral ->
    depth^{3/2} R R21 (R L)^depth / (rho^depth sqrt(m)), with all suppressed
    constants set to one.
    """
    if m < 1:
        raise InputError("m must be at least 1")
    kind = getattr(params, "kind", None)
    if kind == "linear":
        if not (params.radius and params.radius > 0):
            raise InputError("linear class needs a positive radius")
        return params.radius / math.sqrt(m)
    if kind == "ffnn-spectral":
        d = params.depth
        if not (d and d >= 1 and params.radius > 0 and params.r21 > 0 and params.rho > 0 and params.lipschitz > 0):
            raise InputError("ffnn-spectral needs depth >= 1 and positive radius, r21, rho, lipschitz")
        return (
            d**1.5
            * params.radius
            * params.r21
            * (params.radius * params.lipschitz) ** d
            / (params.rho**d * math.sqrt(m))
        )
    raise CapabilityError(f"no worst-case Rademacher formula for kind {kind!r}")
