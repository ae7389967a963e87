"""Relative-deviation margin bound families.

Every family turns (empirical term, complexity term, parameters) into a
high-probability upper bound on the true risk (or true loss).  Implicit
inequalities of the shape ``x <= b + C x^{1/alpha}`` are resolved to their
largest fixed point, which is the sound direction for an upper bound; the
looser closed form ``z + 2y z^{1/alpha} + (2y)^{alpha/(alpha-1)}`` is also
available for transparency.

Logs are natural throughout except where a formula is explicitly base-2
(the fat-shattering cover bound and the uniform-margin log-log addend).
Zero-one families clamp reported values at 1 with an explicit flag;
values at or above 1 are additionally flagged vacuous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ApplicabilityError, DataError, DomainError, InputError
from .estimates import ComplexityEstimate
from .fatdim import cover_log_bound_from_fat
from .rademacher import rm_upper_smooth

__all__ = [
    "BoundParams",
    "BoundReport",
    "solve_relative",
    "explicit_lemma_d1",
    "gamma_factor",
    "bound_cov_alpha",
    "bound_cov_alpha2",
    "bound_cov_fat",
    "bound_cov_uniform_rho",
    "bound_rad",
    "bound_rad_all_alpha",
    "bound_rad_smooth",
    "bound_unbounded",
    "bound_unbounded_uniform_rho",
    "FAMILIES",
]

FAMILIES = (
    "cov-alpha",
    "cov-alpha2",
    "cov-fat",
    "cov-uniform-rho",
    "rad",
    "rad-all-alpha",
    "rad-smooth",
    "unbounded",
    "unbounded-uniform-rho",
)


@dataclass(frozen=True)
class BoundParams:
    """Shared bound parameters.

    delta in (0, 1) is the guarantee regime; larger finite values are
    accepted and evaluated literally (no guarantee), since
    degenerate-confidence cases are useful for bookkeeping checks.
    """

    m: int
    delta: float
    alpha: float = 2.0
    rho: float = 1.0
    tau: float = 0.0
    r: float | None = None

    def __post_init__(self):
        if self.m < 1:
            raise InputError("m must be at least 1")
        if not (0 < self.delta < math.inf):
            raise InputError(f"delta must be finite and positive, got {self.delta!r}")
        if not (1.0 < self.alpha <= 2.0):
            raise InputError("alpha must lie in (1, 2]")
        if not (0 < self.rho < math.inf):
            raise InputError(f"rho must be finite and positive, got {self.rho!r}")
        if not (0 <= self.tau < math.inf):
            raise InputError(f"tau must be finite and nonnegative, got {self.tau!r}")
        if self.r is not None and not (0 < self.r < math.inf):
            raise InputError(f"r must be finite and positive when provided, got {self.r!r}")

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "delta": self.delta,
            "alpha": self.alpha,
            "rho": self.rho,
            "tau": self.tau,
            "r": self.r,
        }


@dataclass(frozen=True)
class BoundReport:
    family: str
    params: dict
    empirical_term: float
    complexity_term: float
    bound_value: float
    solver: str
    complexity_method: str = "given"
    breakdown: dict = field(default_factory=dict)
    vacuous: bool = False
    clamped: bool = False

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InputError(f"unknown bound family {self.family!r}")
        if self.bound_value < self.empirical_term - 1e-12:
            raise InputError("bound_value fell below the empirical term; refusing to report")

    def to_json(self) -> dict:
        return {
            "schema": "relmargin/bound-report/v1",
            "family": self.family,
            "params": dict(self.params),
            "empirical_term": self.empirical_term,
            "complexity_term": self.complexity_term,
            "bound_value": self.bound_value,
            "solver": self.solver,
            "complexity_method": self.complexity_method,
            "breakdown": dict(self.breakdown),
            "vacuous": self.vacuous,
            "clamped": self.clamped,
        }


def _empirical_input(emp, name: str = "emp", zero_one: bool = True) -> float:
    """The empirical term as a float; rejects NaN, infinite and negative
    values, and values above 1 for zero-one families."""
    value = float(emp)
    if not (math.isfinite(value) and 0.0 <= value <= (1.0 if zero_one else math.inf)):
        expected = "a finite number in [0, 1]" if zero_one else "finite and nonnegative"
        raise DataError(f"{name} must be {expected}, got {emp!r}")
    return value


def _complexity_input(x, name: str) -> tuple[float, str]:
    """The complexity term as a float with its method; rejects NaN, infinite
    and negative values."""
    value, method = (x.value, x.method) if isinstance(x, ComplexityEstimate) else (x, "given")
    value = float(value)
    if not (math.isfinite(value) and value >= 0.0):
        raise DataError(f"{name} must be finite and nonnegative, got {value!r}")
    return value, method


def _finalize_zero_one(family, params, emp, complexity, raw, solver, method, breakdown):
    vacuous = raw >= 1.0
    clamped = raw > 1.0
    value = min(raw, 1.0)
    breakdown = dict(breakdown)
    breakdown["raw_bound_value"] = raw
    return BoundReport(
        family=family,
        params=params.to_json(),
        empirical_term=float(emp),
        complexity_term=float(complexity),
        bound_value=float(value),
        solver=solver,
        complexity_method=method,
        breakdown=breakdown,
        vacuous=vacuous,
        clamped=clamped,
    )


def solve_relative(b, c: float, alpha: float):
    """Largest fixed point of x = b + c * x^{1/alpha}, elementwise in ``b``.

    Any x satisfying x <= b + c x^{1/alpha} is at most this value, so it is
    the sound explicit resolution of the implicit inequality.  At alpha = 2
    it is the closed form x = ((c + sqrt(c^2 + 4b)) / 2)^2; otherwise Newton
    steps in u = x^{1/alpha} down to a relative step of 1e-12 (see
    ``_newton_relative``).  A scalar ``b`` gives a float and an array of any
    shape gives an array of that shape; fixed points above 1e300 are inf.
    """
    scalar = np.ndim(b) == 0
    x = np.array(b, dtype=np.float64, ndmin=1).ravel()
    if not (np.all(x >= 0) and c >= 0):
        raise InputError("b and c must be nonnegative (NaN is rejected)")
    if not (1.0 < alpha <= 2.0):
        raise InputError("alpha must lie in (1, 2]")
    if c == 0.0:
        return float(b) if scalar else x.reshape(np.shape(b))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if alpha == 2.0:
            root = 0.5 * (c + np.sqrt(c * c + 4.0 * x))
            x = root * root
        else:
            x = _newton_relative(x, c, alpha)
    return float(x[0]) if scalar else x.reshape(np.shape(b))


def _newton_relative(b: np.ndarray, c: float, alpha: float) -> np.ndarray:
    """u^alpha for the largest root u* of the convex f(u) = u^alpha - c u - b.

    Newton starts where f >= 0 and f' > 0: the smaller of max((2b)^{1/alpha},
    (2c)^{1/(alpha-1)}) and the zero of the tangent at u_c = c^{1/(alpha-1)},
    capped at ``top`` (x = 1e300; a larger root is inf).  By convexity every
    iterate stays at or above u*, a sound bound; so is inf for an element
    still moving after 100 steps."""
    inv = 1.0 / alpha
    top = 1e300**inv
    out = np.full(b.shape, math.inf)
    fits = (top**alpha - c * top - b >= 0.0).nonzero()[0]
    b = b[fits]
    u_c = np.power(c, 1.0 / (alpha - 1.0))
    tangent = u_c + b / (alpha - 1.0) / c
    doubled = np.maximum((2.0 * b) ** inv, np.power(2.0 * c, 1.0 / (alpha - 1.0)))
    u = np.minimum(np.minimum(tangent, doubled), top)
    for _ in range(100):
        if fits.size == 0:
            break
        ua = u**alpha
        step = (ua - c * u - b) / (alpha * ua / u - c)
        # the last step is tiny; one that does not descend is rounding at the
        # root, a NaN one a root that underflowed to u = 0: keep the iterate
        done = ~(step > 1e-12 * u)
        if np.count_nonzero(done):
            out[fits[done]] = (u[done] - np.fmax(step[done], 0.0)) ** alpha
            keep = ~done
            fits, u, b, step = fits[keep], u[keep], b[keep], step[keep]
        u = u - step
    return out


def explicit_lemma_d1(z: float, y: float, alpha: float) -> float:
    """Explicit majorant of the implicit inequality x - y x^{1/alpha} <= z:
    z + 2 y z^{1/alpha} + (2 y)^{alpha/(alpha-1)}.
    """
    if z < 0 or y < 0:
        raise InputError("z and y must be nonnegative")
    if not (1.0 < alpha <= 2.0):
        raise InputError("alpha must lie in (1, 2]")
    try:
        return z + 2.0 * y * z ** (1.0 / alpha) + (2.0 * y) ** (alpha / (alpha - 1.0))
    except OverflowError:
        return math.inf


def gamma_factor(alpha: float, eps: float, tau: float = 0.0) -> float:
    """Moment-deviation factor

    (a-1)/a (1+tau)^{1/a}
      + (1/a) q (1 + ((a-1)/a)^a tau^{1/a})^{1/a} (1 + log(1/eps)/q)^{(a-1)/a}

    with q = (a/(a-1))^{a-1}; decreasing in eps, equal to 1.5 at (2, 1, 0).
    """
    if not (1.0 < alpha <= 2.0):
        raise InputError("alpha must lie in (1, 2]")
    if not (0.0 < eps <= 1.0):
        raise InputError("eps must lie in (0, 1]")
    if tau < 0:
        raise InputError("tau must be nonnegative")
    q = (alpha / (alpha - 1.0)) ** (alpha - 1.0)
    first = (alpha - 1.0) / alpha * (1.0 + tau) ** (1.0 / alpha)
    inner = (1.0 + ((alpha - 1.0) / alpha) ** alpha * tau ** (1.0 / alpha)) ** (1.0 / alpha)
    bracket = (1.0 + math.log(1.0 / eps) / q) ** ((alpha - 1.0) / alpha)
    return first + (1.0 / alpha) * q * inner * bracket


# ---------------------------------------------------------------------------
# covering-number families
#
# The ``*_value`` functions hold each campaign family's formula once: they
# take an array (or scalar) of empirical terms plus a scalar complexity and
# return the raw, unclamped bound with the terms the reports break down.


def _confidence_numerator(log_n: float, params: BoundParams, addend: float = 0.0) -> float:
    total = log_n + math.log(1.0 / params.delta) + addend
    if total < 0:
        raise DomainError("complexity + confidence numerator is negative")
    return total


def cov_alpha_value(emp, log_n: float, params: BoundParams, addend: float = 0.0):
    """Largest fixed point of x = emp + C x^{1/alpha} with
    C = 2^{(alpha+2)/(2 alpha)} sqrt((logN + log(1/delta) + addend) / m^{2(alpha-1)/alpha})."""
    a = params.alpha
    numerator = _confidence_numerator(log_n, params, addend)
    scale = params.m ** (2.0 * (a - 1.0) / a)
    coeff = 2.0 ** ((a + 2.0) / (2.0 * a)) * math.sqrt(numerator / scale)
    return solve_relative(emp, coeff, a), {"coefficient": coeff, "numerator": numerator}


def _cov_alpha_report(family, emp, log_n, params, solver, addend=0.0, **extra) -> BoundReport:
    """Shared body of the cov-alpha and cov-uniform-rho reports: both the
    fixed point and the explicit conversion, with ``solver`` picking one."""
    if solver not in ("root-find", "lemma-D1"):
        raise InputError("solver must be 'root-find' or 'lemma-D1'")
    emp = _empirical_input(emp)
    log_n_value, method = _complexity_input(log_n, "logN")
    solved, terms = cov_alpha_value(emp, log_n_value, params, addend)
    converted = explicit_lemma_d1(emp, terms["coefficient"], params.alpha)
    raw = solved if solver == "root-find" else converted
    breakdown = dict(terms, **extra, fixed_point_value=solved, explicit_conversion_value=converted)
    return _finalize_zero_one(family, params, emp, log_n_value, raw, solver, method, breakdown)


def bound_cov_alpha(emp: float, log_n, params: BoundParams, solver: str = "root-find") -> BoundReport:
    """General-moment cover bound: resolve x <= emp + C x^{1/alpha} (see
    ``cov_alpha_value`` for C).

    The default solver is the largest fixed point; "lemma-D1" selects the
    looser explicit conversion instead.  Both values appear in the breakdown.
    """
    return _cov_alpha_report("cov-alpha", emp, log_n, params, solver)


def cov_alpha2_value(emp, log_n: float, params: BoundParams):
    """emp + 2 sqrt(emp c) + 4 c with c = (logN + log(1/delta)) / m."""
    c = _confidence_numerator(log_n, params) / params.m
    return emp + 2.0 * np.sqrt(emp * c) + 4.0 * c, {"c": c}


def bound_cov_alpha2(emp: float, log_n, params: BoundParams) -> BoundReport:
    """Second-moment cover bound in closed form (see ``cov_alpha2_value``)."""
    if params.alpha != 2.0:
        raise InputError("this family is the alpha = 2 specialization")
    emp = _empirical_input(emp)
    log_n_value, method = _complexity_input(log_n, "logN")
    raw, terms = cov_alpha2_value(emp, log_n_value, params)
    return _finalize_zero_one(
        "cov-alpha2", params, emp, log_n_value, float(raw), "closed-form", method, terms
    )


def cov_fat_value(emp, d: float, params: BoundParams):
    """emp + 2 sqrt(emp term) + term with term = (1 + d log2(2 c^2 m)
    log2(2 c e m / d) + log(1/delta)) / m."""
    term = _confidence_numerator(cover_log_bound_from_fat(d, params.m), params) / params.m
    return emp + 2.0 * np.sqrt(emp * term) + term, {"term": term, "fat_dimension": d}


def bound_cov_fat(emp: float, d: float, params: BoundParams) -> BoundReport:
    """Fat-shattering cover bound (see ``cov_fat_value``)."""
    emp = _empirical_input(emp)
    d, _ = _complexity_input(d, "fat_d")
    raw, terms = cov_fat_value(emp, d, params)
    return _finalize_zero_one(
        "cov-fat",
        params,
        emp,
        cover_log_bound_from_fat(d, params.m),
        float(raw),
        "closed-form",
        "formula",
        terms,
    )


def _uniform_rho_addend(r, rho: float) -> float:
    """log(log2(2r/rho)), the confidence addend of the uniform-over-rho
    families: 0 at rho = r and growing as rho falls, so >= 0 on (0, r]."""
    if r is None:
        raise InputError("uniform-rho bounds need the range cap r")
    if not (0 < rho <= r):
        raise InputError(f"rho must lie in (0, r], got rho = {rho!r} with r = {r!r}")
    return math.log(math.log2(2.0 * r / rho))


def bound_cov_uniform_rho(
    emp: float, log_n_at, params: BoundParams, solver: str = "root-find"
) -> BoundReport:
    """Uniform-margin cover bound: cover radius rho/4 and a log(log2(2r/rho))
    confidence addend, valid simultaneously for all rho in (0, r]."""
    addend = _uniform_rho_addend(params.r, params.rho)
    log_n = log_n_at(params.rho / 4.0) if callable(log_n_at) else log_n_at
    return _cov_alpha_report(
        "cov-uniform-rho", emp, log_n, params, solver, addend, loglog_addend=addend
    )


# ---------------------------------------------------------------------------
# peeling-complexity families


def rad_budget(rm_value: float, params: BoundParams) -> float:
    """B = (rm + log log m + log(16/delta)) / m; needs m >= 3."""
    if params.m < 3:
        raise InputError("peeling families need m >= 3 so that log log m is defined")
    if rm_value < 0:
        raise InputError("the complexity value must be nonnegative")
    return (rm_value + math.log(math.log(params.m)) + math.log(16.0 / params.delta)) / params.m


def rad_value(emp, rm: float, params: BoundParams):
    """emp + 32 emp^{1/alpha} B^{1-1/alpha} + 2 * 32^{alpha/(alpha-1)} B with
    the budget B of ``rad_budget``.

    The closed form caps the deviation from emp, so the risk bound adds emp back.
    """
    budget = rad_budget(rm, params)
    alpha = params.alpha
    inv = 1.0 / alpha
    deviation = 32.0 * np.power(emp, inv) * np.power(budget, 1.0 - inv) + (
        2.0 * 32.0 ** (alpha / (alpha - 1.0))
    ) * budget
    return emp + deviation, {"budget": budget}


def bound_rad(emp: float, rm, params: BoundParams) -> BoundReport:
    """Peeling-complexity bound, explicit form (see ``rad_value``), plus the
    implicit-form value (coefficient 16 sqrt(2) on the true-risk root)
    resolved by fixed point."""
    emp = _empirical_input(emp)
    rm_value, method = _complexity_input(rm, "rm")
    raw, terms = rad_value(emp, rm_value, params)
    implicit_coeff = 16.0 * math.sqrt(2.0) * terms["budget"] ** (1.0 - 1.0 / params.alpha)
    implicit_solved = solve_relative(emp, implicit_coeff, params.alpha)
    return _finalize_zero_one(
        "rad",
        params,
        emp,
        rm_value,
        float(raw),
        "closed-form",
        method,
        {
            **terms,
            "implicit_coefficient": implicit_coeff,
            "implicit_solved_value": implicit_solved,
        },
    )


def bound_rad_all_alpha(emp: float, rm, params: BoundParams, alpha_grid) -> BoundReport:
    """Simultaneous-alpha version (coefficient 32 sqrt(2)); evaluates the
    implicit bound on the supplied alpha grid and reports the minimum."""
    grid = [float(a) for a in alpha_grid]
    if not grid:
        raise InputError("alpha grid must be nonempty")
    if any(not (1.0 < a <= 2.0) for a in grid):
        raise InputError("alpha grid entries must lie in (1, 2]")
    emp = _empirical_input(emp)
    rm_value, method = _complexity_input(rm, "rm")
    budget = rad_budget(rm_value, params)
    per_alpha = {}
    for a in grid:
        coeff = 32.0 * math.sqrt(2.0) * budget ** (1.0 - 1.0 / a)
        per_alpha[a] = solve_relative(emp, coeff, a)
    best_alpha = min(per_alpha, key=per_alpha.get)
    raw = per_alpha[best_alpha]
    return _finalize_zero_one(
        "rad-all-alpha",
        params,
        emp,
        rm_value,
        raw,
        "root-find",
        method,
        {
            "budget": budget,
            "per_alpha": {str(a): v for a, v in per_alpha.items()},
            "best_alpha": best_alpha,
        },
    )


def bound_rad_smooth(emp: float, rmax: float, params: BoundParams) -> BoundReport:
    """Smoothed-loss bound: beta = smooth-cap/m + (log log m + log(16/delta))/m,
    value = emp + 32 sqrt(2) emp^{1/alpha} beta^{1-1/alpha} + 2 * 32^{alpha/(alpha-1)} beta."""
    if params.m < 3:
        raise InputError("needs m >= 3 so that log log m is defined")
    emp = _empirical_input(emp)
    cap = rm_upper_smooth(params.rho, params.m, rmax)
    complexity_part = cap / params.m
    confidence_part = (math.log(math.log(params.m)) + math.log(16.0 / params.delta)) / params.m
    beta = complexity_part + confidence_part
    inv = 1.0 / params.alpha
    raw = emp + (
        32.0 * math.sqrt(2.0) * emp**inv * beta ** (1.0 - inv)
        + 2.0 * 32.0 ** (params.alpha / (params.alpha - 1.0)) * beta
    )
    return _finalize_zero_one(
        "rad-smooth",
        params,
        emp,
        cap,
        raw,
        "closed-form",
        "formula",
        {
            "beta": beta,
            "beta_complexity_part": complexity_part,
            "beta_confidence_part": confidence_part,
            "rmax": rmax,
        },
    )


# ---------------------------------------------------------------------------
# unbounded-loss families


def _unbounded_single(emp_loss, moment, log_n_value, params, addend=0.0):
    a = params.alpha
    numerator = _confidence_numerator(log_n_value, params, addend)
    eps_hat = math.sqrt(numerator / params.m ** (2.0 * (a - 1.0) / a))
    if eps_hat > 1.0:
        raise ApplicabilityError(
            f"deviation scale {eps_hat:.6g} exceeds 1; the bound is vacuous in this regime"
        )
    if eps_hat == 0.0:
        # degenerate zero-deviation edge; the factor multiplies zero
        return 0.0, None, emp_loss + params.rho
    gamma = gamma_factor(a, eps_hat, 0.0)
    deviation = gamma * moment ** (1.0 / a) * eps_hat
    return eps_hat, gamma, emp_loss + deviation + params.rho


def bound_unbounded(emp_loss: float, moment: float, log_n_loss, params: BoundParams) -> BoundReport:
    """Finite-moment bound for unbounded losses: emp + Gamma_0(alpha, e) *
    moment^{1/alpha} * e + rho, where e is the covering deviation scale."""
    if not (moment >= 0 and math.isfinite(moment)):
        raise InputError("the loss moment must be finite and nonnegative")
    emp_loss = _empirical_input(emp_loss, "emp_loss", zero_one=False)
    log_n_value, method = _complexity_input(log_n_loss, "logN")
    eps_hat, gamma, value = _unbounded_single(emp_loss, moment, log_n_value, params)
    return BoundReport(
        family="unbounded",
        params=params.to_json(),
        empirical_term=float(emp_loss),
        complexity_term=log_n_value,
        bound_value=float(value),
        solver="closed-form",
        complexity_method=method,
        breakdown={"eps_hat": eps_hat, "gamma": gamma, "moment": moment, "rho_term": params.rho},
    )


def bound_unbounded_uniform_rho(
    emp_loss: float, moment: float, log_n_at, rho_grid, params: BoundParams
) -> BoundReport:
    """Minimum over a rho grid of the finite-moment bound with the uniform-rho
    log(log2(2r/rho)) addend (>= 0, so never below ``bound_unbounded`` at the
    same rho); the cover callable is evaluated at radius rho/2."""
    grid = [float(rho) for rho in rho_grid]
    if not grid:
        raise InputError("rho grid must be nonempty")
    addends = {rho: _uniform_rho_addend(params.r, rho) for rho in grid}
    if not (moment >= 0 and math.isfinite(moment)):
        raise InputError("the loss moment must be finite and nonnegative")
    emp_loss = _empirical_input(emp_loss, "emp_loss", zero_one=False)
    per_rho = {}
    methods = {}
    failures = {}
    for rho in grid:
        p_rho = replace(params, rho=rho)
        addend = addends[rho]
        log_n = log_n_at(rho / 2.0) if callable(log_n_at) else log_n_at
        log_n_value, methods[rho] = _complexity_input(log_n, "logN")
        try:
            eps_hat, gamma, value = _unbounded_single(emp_loss, moment, log_n_value, p_rho, addend)
        except (ApplicabilityError, DomainError) as exc:
            failures[rho] = str(exc)
            continue
        per_rho[rho] = {
            "bound_value": value,
            "eps_hat": eps_hat,
            "gamma": gamma,
            "log_n": log_n_value,
            "loglog_addend": addend,
        }
    if not per_rho:
        raise ApplicabilityError(f"no grid rho is in the applicable regime: {failures}")
    best_rho = min(per_rho, key=lambda rho: per_rho[rho]["bound_value"])
    best = per_rho[best_rho]
    return BoundReport(
        family="unbounded-uniform-rho",
        params=params.to_json(),
        empirical_term=float(emp_loss),
        complexity_term=best["log_n"],
        bound_value=float(best["bound_value"]),
        solver="closed-form",
        complexity_method=methods[best_rho],
        breakdown={
            "best_rho": best_rho,
            "per_rho": {str(k): v for k, v in per_rho.items()},
            "inapplicable_rho": {str(k): v for k, v in failures.items()},
            "moment": moment,
        },
    )
