"""Monte-Carlo validation of bound coverage on synthetic problems.

A campaign draws fresh samples, evaluates a bound family for every member
of a fixed hypothesis pool, and counts trials where any member's true risk
exceeds its bound (the uniform event a uniform-convergence guarantee
protects against).  It judges the families whose ``bounds.FAMILIES``
record has an array formula, and estimates each complexity input once,
from its own substreams; families that share an input share its value.
The members' true risks are computed once, for the whole pool.

A family's bound depends on a trial only through its margin count k, the
number of its m points with margin below rho, and its array formula is
elementwise, so each family is one ``family_bound_values`` call on the
m + 1 terms k/m, made before any trial is drawn.  A campaign derives the
keys of all its trial substreams in one ``substreams`` key pass and runs
its trials in blocks of max(1, 2**15 // max(m, pool)), each drawn, counted
and judged in one call: one ``sample_many`` call, whose labels come from
the streams' raw words, margin-count products over chunks of
max(1, 2**11 // m) whole trials, and for each family each trial's first
worst member, read from the family's table by count and written to the
block's rows of the report's columns.  Every trial takes its numbers from
its own stream as a lone draw would, and blocks write disjoint rows, so
the blocks run on threads and the report is the same at any thread count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import beta as beta_dist

from . import __version__ as _pkg_version
from .bounds import FAMILIES, BoundParams, check_cov_alpha2, check_peeling_m, cov_fat_dimension
from .errors import InputError, _choice, _count, _dataclass_keys, _mapping
from .estimates import ComplexityEstimate
from .fatdim import FatDimParams
from .hypotheses import LinearHypothesis, truncate
from .kernels import Rows
from .lossmatrix import LossMatrix, outputs_matrix, transform_matrix
from .covers import DEFAULT_EXACT_CAP, covering_number_linf
from .rademacher import DEFAULT_N_SIGMA, peeling_complexity
from .reportio import Table
from .rng import child_seed, substream, substreams
from .samples import DISTRIBUTIONS, LabeledSample, analytic_risk, make_distribution
from .transforms import holdout_error_rate, step

__all__ = ["ExperimentConfig", "ValidityReport", "validate_bounds", "exact_binomial_ci"]

# complexity option -> default; the integer ones also have a least value
_COMPLEXITY_DEFAULTS = {
    "cover_draws": 64,
    "peel_draws": 64,
    "n_sigma": DEFAULT_N_SIGMA,
    "exact_cap": DEFAULT_EXACT_CAP,
    "cover_mode": "exact",
}
_COMPLEXITY_LEAST = {"cover_draws": 1, "peel_draws": 2, "n_sigma": 1, "exact_cap": 1}
# holdout size when risk.n is not given
_RISK_N = 10**6
# points per block of trials: a block holds max(1, _BLOCK_ROWS // max(m, pool))
# trials, so neither its points nor its (trial, member) pairs pass it.  In 8
# alternating relbench rounds, 2**15 took campaign-large-m's median op from
# 0.465 s at 2**13 to 0.443 s; campaign-trial-heavy's stayed within noise
_BLOCK_ROWS = 2**15
# points per margin-count product: it covers max(1, _COUNT_POINTS // m) whole
# trials; one trial is always one product, since splitting a 5000-point
# trial measured 5-15 % slower
_COUNT_POINTS = 2**11


@dataclass(frozen=True)
class ExperimentConfig:
    """A coverage campaign.  Construction checks every section, builds the
    distribution and fills in every default, so the campaign reads only
    checked values: a wrong key, type or value raises ``InputError`` naming
    the key."""

    distribution: object
    pool: dict
    params: BoundParams
    families: tuple
    trials: int
    seed: int
    complexity: dict = field(default_factory=dict)
    risk: dict = field(default_factory=dict)

    def __post_init__(self):
        def put(name, value):
            object.__setattr__(self, name, value)

        if not isinstance(self.distribution, tuple(DISTRIBUTIONS.values())):
            put("distribution", make_distribution(self.distribution))
        pool = {"kind": "linear", **_mapping("pool", self.pool, ("kind", "size"), ("size",))}
        _choice("pool.kind", pool["kind"], ("linear",))
        pool["size"] = _count("pool.size", pool["size"], 1)
        put("pool", pool)
        if not isinstance(self.params, BoundParams):
            put("params", BoundParams(**_mapping("params", self.params, *_dataclass_keys(BoundParams))))
        if not isinstance(self.families, (list, tuple)) or not self.families:
            raise InputError("families must be a nonempty list of bound families")
        judged = ", ".join(SUPPORTED_FAMILIES)
        unknown = [f for f in self.families if not (isinstance(f, str) and f in FAMILIES)]
        if unknown:
            raise InputError(f"unknown bound families {unknown}; campaign families: {judged}")
        unjudged = [f for f in self.families if f not in SUPPORTED_FAMILIES]
        if unjudged:
            raise InputError(f"bound families {unjudged} have no campaign formula; campaign families: {judged}")
        repeated = sorted({f for f in self.families if self.families.count(f) > 1})
        if repeated:
            raise InputError(f"families lists {repeated} more than once; name each bound family once")
        put("families", tuple(self.families))
        if "cov-alpha2" in self.families:
            check_cov_alpha2(self.params)
        if "rad" in self.families:
            check_peeling_m(self.params.m)
        put("trials", _count("trials", self.trials, 1))
        put("seed", _count("seed", self.seed, 0))
        complexity = {**_COMPLEXITY_DEFAULTS, **_mapping("complexity", self.complexity, _COMPLEXITY_DEFAULTS)}
        for key, least in _COMPLEXITY_LEAST.items():
            complexity[key] = _count(f"complexity.{key}", complexity[key], least)
        _choice("complexity.cover_mode", complexity["cover_mode"], ("exact", "greedy"))
        put("complexity", complexity)
        given = _mapping("risk", self.risk, ("mode", "n"))
        risk = {"mode": "analytic", "n": _RISK_N, **given}
        _choice("risk.mode", risk["mode"], ("analytic", "holdout"))
        risk["n"] = _count("risk.n", risk["n"], 1)
        if risk["mode"] == "analytic" and "n" in given:
            raise InputError("risk.n is the holdout size, and risk.mode 'analytic' draws no holdout; use 'holdout'")
        if risk["mode"] == "analytic" and not self.distribution.analytic_risk_available:
            raise InputError(
                f"risk.mode 'analytic' needs a closed-form risk, and {self.distribution.kind} has none; use 'holdout'"
            )
        put("risk", risk)

    @classmethod
    def from_json(cls, data: dict) -> "ExperimentConfig":
        return cls(**_mapping("config", data, *_dataclass_keys(cls)))


@dataclass(frozen=True)
class ValidityReport:
    families: dict
    rows: Table
    environment: dict

    def to_json(self, table: bool = False) -> dict:
        # not ``_fields_json``, which would copy the rows cell by cell.  The
        # rows are lists, or with ``table`` the ``Table`` itself, which the
        # report writers ask for and write column by column
        return {
            "schema": "relmargin/validity-report/v1",
            "families": dict(self.families),
            "rows": self.rows if table else self.rows.to_json(),
            "environment": dict(self.environment),
        }


def exact_binomial_ci(k: int, n: int) -> tuple[float, float]:
    """95% Clopper-Pearson interval for a binomial proportion."""
    k, n = _count("k", k, 0), _count("n", n, 1)
    if k > n:
        raise InputError(f"k must be <= n, got k = {k!r} with n = {n!r}")
    tail = (1.0 - 0.95) / 2.0
    lo = 0.0 if k == 0 else float(beta_dist.ppf(tail, k, n - k + 1))
    hi = 1.0 if k == n else float(beta_dist.ppf(1.0 - tail, k + 1, n - k))
    return lo, hi


def _build_pool(cfg: ExperimentConfig, dist):
    rng = substream(cfg.seed, "pool")
    ws = rng.standard_normal((cfg.pool["size"], dist.dim))
    ws /= np.maximum(np.linalg.norm(ws, axis=1, keepdims=True), 1e-12)
    return [LinearHypothesis(w) for w in ws]


def _estimate_log_cover(cfg, dist, pool) -> ComplexityEstimate:
    """log of the Monte-Carlo mean sup-distance cover of the truncated pool
    at radius rho/2 over fresh double samples.

    Each draw's pool outputs are read as ``kernels.Rows`` computed on
    demand, by ``outputs_matrix`` on blocks of the draw's points, so a cover
    computes only the blocks that settle its dedup and relation: on the
    reference pool at m = 5000, 64 or 128 of the 10^4 rows a draw."""
    p = cfg.params
    draws = cfg.complexity["cover_draws"]
    cap = cfg.complexity["exact_cap"]
    mode = cfg.complexity["cover_mode"]
    truncated = [truncate(h, p.rho) for h in pool]
    counts = np.empty(draws)
    for t in range(draws):
        rng = substream(cfg.seed, "cover", t)
        x, _ = dist.sample(2 * p.m, rng)
        rows = Rows.computed(2 * p.m, len(truncated), lambda lo, hi: outputs_matrix(truncated, x[lo:hi]).values)
        counts[t] = covering_number_linf(rows, p.rho / 2.0, mode=mode, exact_cap=cap).value
        del rows  # this draw's rows, freed before the next draw allocates its own
    mean = float(counts.mean())
    stderr = float(counts.std(ddof=1) / (mean * math.sqrt(draws))) if draws > 1 else 0.0
    return ComplexityEstimate(
        value=float(math.log(mean)),
        method="monte-carlo",
        trials=(draws,),
        seed=cfg.seed,
        stderr=stderr,
        details={"mean_cover": mean, "radius": p.rho / 2.0, "metric": "linf", "mode": mode},
    )


def _estimate_peeling(cfg, dist, pool) -> ComplexityEstimate:
    p = cfg.params
    transform = step(p.rho)

    def sampler(sample_seed: int) -> LossMatrix:
        rng = substream(sample_seed, "peel-sample")
        x, y = dist.sample(p.m, rng)
        sample = LabeledSample(points=x, labels=y, seed=sample_seed, generator_id=dist.generator_id)
        return transform_matrix(pool, sample, transform)

    return peeling_complexity(
        sampler,
        outer_trials=cfg.complexity["peel_draws"],
        n_sigma=cfg.complexity["n_sigma"],
        seed=child_seed(cfg.seed, "peel"),
    )


def _estimate_fat_dimension(cfg, dist, pool) -> ComplexityEstimate:
    radius = float(getattr(dist, "radius"))
    d = cov_fat_dimension(FatDimParams(kind="linear", radius=radius, rho=cfg.params.rho))
    return ComplexityEstimate(value=d, method="formula", details={"class": "linear", "radius": radius})


# complexity input (the ``Family.complexity`` of a campaign family) -> its estimator
_ESTIMATORS = {"logN": _estimate_log_cover, "rm": _estimate_peeling, "fat_d": _estimate_fat_dimension}
# the families with an array formula, which is what a campaign judges
SUPPORTED_FAMILIES = tuple(name for name, record in FAMILIES.items() if record.value is not None)


def family_bound_values(family: str, emp: np.ndarray, complexity_value: float, p: BoundParams) -> np.ndarray:
    """Vectorized bound values for a family: the per-report formula applied
    to an array of empirical terms, clamped at 1 like the reports."""
    if family not in SUPPORTED_FAMILIES:
        raise InputError(f"unsupported family {family!r}")
    raw, _ = FAMILIES[family].value(np.asarray(emp, dtype=np.float64), complexity_value, p)
    return np.minimum(raw, 1.0)


def _margin_counts(w_stack: np.ndarray, x: np.ndarray, y: np.ndarray, rho: float) -> np.ndarray:
    """For each sample of the block (x is n x m x dim, y is n x m) and each
    pool member (row of ``w_stack``), the number of points with margin
    y w.x < rho; n x pool.  One product, pool x (k m), covers each chunk of
    k = max(1, _COUNT_POINTS // m) whole samples, so each count runs along a
    contiguous stretch of a row that stays in cache."""
    n, m, dim = x.shape
    counts = np.empty((n, len(w_stack)), dtype=np.int32)
    step = max(1, _COUNT_POINTS // m)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        below = w_stack @ (x[lo:hi] * y[lo:hi, :, None]).reshape((hi - lo) * m, dim).T < rho
        counts[lo:hi] = below.reshape(len(w_stack), hi - lo, m).sum(axis=2, dtype=np.int32).T
    return counts


def validate_bounds(cfg: ExperimentConfig, threads: int = 1) -> ValidityReport:
    """Run the campaign and report per-family violation rates with exact
    binomial 95% confidence intervals."""
    threads = _count("threads", threads, 1)
    dist = cfg.distribution
    pool = _build_pool(cfg, dist)
    p = cfg.params
    # families that share a complexity input share its estimate
    inputs = dict.fromkeys(FAMILIES[fam].complexity for fam in cfg.families)
    estimates = {name: _ESTIMATORS[name](cfg, dist, pool) for name in inputs}

    w_stack = np.stack([h.w for h in pool], axis=0)
    # the true zero-one risk of each member: the closed form, or a holdout
    # of risk.n points scored by the whole pool at once
    if cfg.risk["mode"] == "analytic":
        risks = np.array([analytic_risk(h, dist) for h in pool])
    else:
        risks = holdout_error_rate(lambda x: x @ w_stack.T, dist, cfg.risk["n"], substream(cfg.seed, "risk"))
    trials = cfg.trials
    emp_grid = np.arange(p.m + 1) / p.m
    complexities = [estimates[FAMILIES[fam].complexity] for fam in cfg.families]
    # each family's bound at each count k, read by count in every block
    tables = [family_bound_values(fam, emp_grid, c.value, p) for fam, c in zip(cfg.families, complexities)]
    streams = substreams(cfg.seed, "trial", indices=range(trials))
    # the report's columns, family after family
    size = len(cfg.families) * trials
    emps, values, bnds, rsks = (np.empty(size) for _ in range(4))
    violated = np.empty(size, dtype=np.uint8)
    block = max(1, _BLOCK_ROWS // max(p.m, len(pool)))

    def draw(lo: int) -> None:
        hi = min(lo + block, trials)
        x, y = dist.sample_many(p.m, streams[lo:hi])
        counts = _margin_counts(w_stack, x, y, p.rho)
        for f, table in enumerate(tables):
            # each trial reports its member with the first largest gap
            member = (risks - table[counts]).argmax(axis=1)
            k = counts[np.arange(hi - lo), member]
            at = slice(f * trials + lo, f * trials + hi)
            emps[at], bnds[at], rsks[at] = emp_grid[k], table[k], risks[member]

    jobs = range(0, trials, block)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool_exec:
            list(pool_exec.map(draw, jobs))
    else:
        list(map(draw, jobs))

    families_out = {}
    for f, (fam, complexity) in enumerate(zip(cfg.families, complexities)):
        at = slice(f * trials, (f + 1) * trials)
        values[at] = complexity.value
        gaps = rsks[at] - bnds[at]
        violated[at] = gaps > 0
        violations = int(np.count_nonzero(violated[at]))
        families_out[fam] = {
            "trials": trials,
            "violations": violations,
            "violation_rate": violations / trials,
            "ci95": list(exact_binomial_ci(violations, trials)),
            "worst_violation_margin": float(gaps.max()),
            "event": "uniform-over-pool",
            "complexity": complexity.to_json(),
        }
    environment = {
        "seed": cfg.seed,
        "package_version": _pkg_version,
        "delta": p.delta,
    }
    # each column at its least width: family names are ASCII
    family = np.repeat(np.array(cfg.families, dtype=np.bytes_), trials)
    trial_column = np.tile(np.arange(trials, dtype=np.min_scalar_type(trials - 1)), len(cfg.families))
    rows = Table(family, trial_column, emps, values, bnds, rsks, violated)
    return ValidityReport(families=families_out, rows=rows, environment=environment)
