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
values at or above 1 are additionally flagged vacuous.  Each family is one
``Family`` record in ``FAMILIES``, from which the CLI takes its flags and
the campaigns take their formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import ApplicabilityError, DataError, DomainError, InputError, _fields_json
from .estimates import ComplexityEstimate
from .fatdim import FatDimParams, cover_log_bound_from_fat, fat_dim_formula
from .rademacher import rm_upper_smooth

__all__ = [
    "Family",
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
        if self.r is not None and not (0 < self.r < math.inf):
            raise InputError(f"r must be finite and positive when provided, got {self.r!r}")


@dataclass(frozen=True)
class BoundReport:
    family: str
    params: BoundParams
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
        """The report, with the params its family does not read as None."""
        data = _fields_json(self)
        reads = ("m", "delta", *FAMILIES[self.family].reads)
        data["params"] = {k: v if k in reads else None for k, v in data["params"].items()}
        return {"schema": "relmargin/bound-report/v1", **data}


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
    raw = float(raw)
    return BoundReport(
        family, params, float(emp), float(complexity), min(raw, 1.0), solver, method,
        {**breakdown, "raw_bound_value": raw}, vacuous=raw >= 1.0, clamped=raw > 1.0,
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


def gamma_factor(alpha: float, eps: float) -> float:
    """Moment-deviation factor at tau = 0,

    (a-1)/a + (1/a) q (1 + log(1/eps)/q)^{(a-1)/a}

    with q = (a/(a-1))^{a-1}; decreasing in eps, equal to 1.5 at (2, 1).
    """
    if not (1.0 < alpha <= 2.0):
        raise InputError("alpha must lie in (1, 2]")
    if not (0.0 < eps <= 1.0):
        raise InputError("eps must lie in (0, 1]")
    q = (alpha / (alpha - 1.0)) ** (alpha - 1.0)
    bracket = (1.0 + math.log(1.0 / eps) / q) ** ((alpha - 1.0) / alpha)
    return (alpha - 1.0) / alpha + (1.0 / alpha) * q * bracket


# ---------------------------------------------------------------------------
# covering-number families
#
# The ``*_value`` functions hold each family's formula once, for the report
# builders, the campaigns and ``compare``: they take an array (or scalar) of
# empirical terms plus a scalar complexity and return the raw, unclamped
# bound with the terms the reports break down.


def _confidence_numerator(log_n: float, params: BoundParams, addend: float = 0.0) -> float:
    total = log_n + math.log(1.0 / params.delta) + addend
    if total < 0:
        raise DomainError("complexity + confidence numerator is negative")
    return total


def _deviation_scale(log_n: float, params: BoundParams, addend: float) -> tuple[float, float]:
    """The covering deviation scale of cov-alpha and the unbounded families,
    sqrt((logN + log(1/delta) + addend) / m^{2(alpha-1)/alpha}), and its numerator."""
    a = params.alpha
    numerator = _confidence_numerator(log_n, params, addend)
    return math.sqrt(numerator / params.m ** (2.0 * (a - 1.0) / a)), numerator


def cov_alpha_value(emp, log_n: float, params: BoundParams, addend: float = 0.0):
    """Largest fixed point of x = emp + C x^{1/alpha} with
    C = 2^{(alpha+2)/(2 alpha)} times the ``_deviation_scale``."""
    a = params.alpha
    scale, numerator = _deviation_scale(log_n, params, addend)
    coeff = 2.0 ** ((a + 2.0) / (2.0 * a)) * scale
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


def bound_cov_alpha(emp: float, logN, params: BoundParams, solver: str = "root-find") -> BoundReport:
    """General-moment cover bound: resolve x <= emp + C x^{1/alpha} (see
    ``cov_alpha_value`` for C).

    The default solver is the largest fixed point; "lemma-D1" selects the
    looser explicit conversion instead.  Both values appear in the breakdown.
    """
    return _cov_alpha_report("cov-alpha", emp, logN, params, solver)


def cov_alpha2_value(emp, log_n: float, params: BoundParams):
    """emp + 2 sqrt(emp c) + 4 c with c = (logN + log(1/delta)) / m."""
    c = _confidence_numerator(log_n, params) / params.m
    return emp + 2.0 * np.sqrt(emp * c) + 4.0 * c, {"c": c}


def check_cov_alpha2(params: BoundParams) -> None:
    """cov-alpha2 is the alpha = 2 specialization: any other alpha is an InputError."""
    if params.alpha != 2.0:
        raise InputError(f"cov-alpha2 is the alpha = 2 specialization; alpha must be 2, got {params.alpha!r}")


def bound_cov_alpha2(emp: float, logN, params: BoundParams) -> BoundReport:
    """Second-moment cover bound in closed form (see ``cov_alpha2_value``)."""
    check_cov_alpha2(params)
    emp = _empirical_input(emp)
    log_n_value, method = _complexity_input(logN, "logN")
    raw, terms = cov_alpha2_value(emp, log_n_value, params)
    return _finalize_zero_one("cov-alpha2", params, emp, log_n_value, raw, "closed-form", method, terms)


def loss_factored_value(emp, beta):
    """emp + 2 sqrt(emp beta) + beta: the cov-fat closed form with its cover
    term beta, and the new form that ``compare`` tabulates."""
    return emp + 2.0 * np.sqrt(emp * beta) + beta


def cov_fat_value(emp, d: float, params: BoundParams):
    """``loss_factored_value`` with term = (1 + d log2(2 c^2 m)
    log2(2 c e m / d) + log(1/delta)) / m."""
    term = _confidence_numerator(cover_log_bound_from_fat(d, params.m), params) / params.m
    return loss_factored_value(emp, term), {"term": term, "fat_dimension": d}


def cov_fat_dimension(class_params: FatDimParams) -> float:
    """The dimension cov-fat uses for a class: its closed-form fat-shattering
    cap, at least 1."""
    return max(1.0, fat_dim_formula(class_params))


def cov_fat_class_value(emp, class_params: FatDimParams, m: int, delta: float):
    """``cov_fat_value`` at the class's dimension and margin rho."""
    return cov_fat_value(emp, cov_fat_dimension(class_params), BoundParams(m=m, delta=delta))


def bound_cov_fat(emp: float, fat_d: float, params: BoundParams) -> BoundReport:
    """Fat-shattering cover bound (see ``cov_fat_value``)."""
    emp = _empirical_input(emp)
    d, _ = _complexity_input(fat_d, "fat_d")
    raw, terms = cov_fat_value(emp, d, params)
    log_n = cover_log_bound_from_fat(d, params.m)
    return _finalize_zero_one("cov-fat", params, emp, log_n, raw, "closed-form", "formula", terms)


def _uniform_rho_addend(r, rho: float) -> float:
    """log(log2(2r/rho)), the confidence addend of the uniform-over-rho
    families: 0 at rho = r and growing as rho falls, so >= 0 on (0, r]."""
    if r is None:
        raise InputError("uniform-rho bounds need the range cap r")
    if not (0 < rho <= r):
        raise InputError(f"rho must lie in (0, r], got rho = {rho!r} with r = {r!r}")
    return math.log(math.log2(2.0 * r / rho))


def bound_cov_uniform_rho(emp: float, logN, params: BoundParams, solver: str = "root-find") -> BoundReport:
    """Uniform-margin cover bound: cover radius rho/4 and a log(log2(2r/rho))
    confidence addend, valid simultaneously for all rho in (0, r]."""
    addend = _uniform_rho_addend(params.r, params.rho)
    log_n = logN(params.rho / 4.0) if callable(logN) else logN
    return _cov_alpha_report("cov-uniform-rho", emp, log_n, params, solver, addend, loglog_addend=addend)


# ---------------------------------------------------------------------------
# peeling-complexity families


def check_peeling_m(name: str, m: int) -> None:
    """The peeling families' confidence term log log m needs m >= 3; ``name``
    is what the caller's input calls m."""
    if m < 3:
        raise InputError(f"peeling families need {name} >= 3 so that log log m is defined")


def _peeling_confidence(params: BoundParams) -> tuple[float, float]:
    """log log m and log(16/delta), the confidence terms of the peeling
    families; needs m >= 3."""
    check_peeling_m("m", params.m)
    return math.log(math.log(params.m)), math.log(16.0 / params.delta)


def _nonnegative_budget(name: str, value: float) -> float:
    """A peeling budget, which the closed form raises to 1 - 1/alpha; a
    large delta makes log(16/delta), and with it the budget, negative."""
    if value < 0:
        raise DomainError(f"the peeling budget {name} = {value!r} is negative: delta is too large")
    return value


def rad_budget(rm_value: float, params: BoundParams) -> float:
    """B = (rm + log log m + log(16/delta)) / m; needs m >= 3."""
    loglog, confidence = _peeling_confidence(params)
    if rm_value < 0:
        raise InputError("the complexity value must be nonnegative")
    return _nonnegative_budget("B = (rm + log log m + log(16/delta)) / m", (rm_value + loglog + confidence) / params.m)


def _peeling_closed_form(emp, budget: float, alpha: float, lead: float, power):
    """emp + lead emp^{1/alpha} B^{1-1/alpha} + 2 * 32^{alpha/(alpha-1)} B.

    The constant overflows a float for alpha below about 1.0049; it is then
    inf, and so is the value.  ``power`` is the family's own power function
    (see ``_libm_power``)."""
    inv = 1.0 / alpha
    try:
        tail = 2.0 * 32.0 ** (alpha / (alpha - 1.0))
    except OverflowError:
        tail = math.inf
    deviation = lead * power(emp, inv) * power(budget, 1.0 - inv) + tail * budget
    return emp + deviation


# libm's pow, element by element.  rad-smooth's reports have always used it;
# numpy's ``np.power``, which rad's have used, can differ from it in the last
# bit, so each family keeps its own and its bytes do not move.
_libm_power = np.vectorize(math.pow, otypes=[np.float64])


def rad_value(emp, rm: float, params: BoundParams):
    """emp + 32 emp^{1/alpha} B^{1-1/alpha} + 2 * 32^{alpha/(alpha-1)} B with
    the budget B of ``rad_budget``.

    The closed form caps the deviation from emp, so the risk bound adds emp back.
    """
    budget = rad_budget(rm, params)
    return _peeling_closed_form(emp, budget, params.alpha, 32.0, np.power), {"budget": budget}


def _rad_implicit(emp, budget: float, alpha: float, lead: float):
    """The largest fixed point of x = emp + C x^{1/alpha} with the implicit
    coefficient C = lead B^{1-1/alpha}, and C."""
    coeff = lead * budget ** (1.0 - 1.0 / alpha)
    return solve_relative(emp, coeff, alpha), coeff


def bound_rad(emp: float, rm, params: BoundParams) -> BoundReport:
    """Peeling-complexity bound, explicit form (see ``rad_value``), plus the
    implicit-form value (coefficient 16 sqrt(2) on the true-risk root)
    resolved by fixed point."""
    emp = _empirical_input(emp)
    rm_value, method = _complexity_input(rm, "rm")
    raw, terms = rad_value(emp, rm_value, params)
    solved, coeff = _rad_implicit(emp, terms["budget"], params.alpha, 16.0 * math.sqrt(2.0))
    terms.update(implicit_coefficient=coeff, implicit_solved_value=solved)
    return _finalize_zero_one("rad", params, emp, rm_value, raw, "closed-form", method, terms)


def rad_all_alpha_value(emp, rm: float, params: BoundParams, alpha_grid):
    """The least over the alpha grid of the implicit bound with coefficient
    32 sqrt(2) B^{1-1/alpha} (simultaneous in alpha); ``params.alpha`` is
    not used."""
    grid = [float(a) for a in alpha_grid]
    if not grid:
        raise InputError("alpha grid must be nonempty")
    if any(not (1.0 < a <= 2.0) for a in grid):
        raise InputError("alpha grid entries must lie in (1, 2]")
    budget = rad_budget(rm, params)
    per_alpha = {a: _rad_implicit(emp, budget, a, 32.0 * math.sqrt(2.0))[0] for a in grid}
    return np.minimum.reduce(list(per_alpha.values())), {"budget": budget, "per_alpha": per_alpha}


def bound_rad_all_alpha(emp: float, rm, params: BoundParams, alpha_grid) -> BoundReport:
    """Simultaneous-alpha version (see ``rad_all_alpha_value``); reports the
    value at every grid alpha and the one that attains the minimum."""
    emp = _empirical_input(emp)
    rm_value, method = _complexity_input(rm, "rm")
    raw, terms = rad_all_alpha_value(emp, rm_value, params, alpha_grid)
    per_alpha = terms["per_alpha"]
    terms.update(per_alpha={str(a): v for a, v in per_alpha.items()}, best_alpha=min(per_alpha, key=per_alpha.get))
    return _finalize_zero_one("rad-all-alpha", params, emp, rm_value, raw, "root-find", method, terms)


def rad_smooth_value(emp, rmax: float, params: BoundParams):
    """rad's closed form with lead coefficient 32 sqrt(2) and beta =
    smooth-cap/m + (log log m + log(16/delta))/m in place of B."""
    loglog, confidence = _peeling_confidence(params)
    cap = rm_upper_smooth(params.rho, params.m, rmax)
    complexity_part = cap / params.m
    confidence_part = (loglog + confidence) / params.m
    beta = _nonnegative_budget("beta = cap/m + (log log m + log(16/delta))/m", complexity_part + confidence_part)
    value = _peeling_closed_form(emp, beta, params.alpha, 32.0 * math.sqrt(2.0), _libm_power)
    return value, {
        "beta": beta,
        "beta_complexity_part": complexity_part,
        "beta_confidence_part": confidence_part,
        "cap": cap,
    }


def bound_rad_smooth(emp: float, rmax: float, params: BoundParams) -> BoundReport:
    """Smoothed-loss bound (see ``rad_smooth_value``)."""
    emp = _empirical_input(emp)
    raw, terms = rad_smooth_value(emp, rmax, params)
    cap = terms.pop("cap")
    return _finalize_zero_one("rad-smooth", params, emp, cap, raw, "closed-form", "formula", {**terms, "rmax": rmax})


# ---------------------------------------------------------------------------
# unbounded-loss families


def unbounded_value(emp_loss, log_n: float, params: BoundParams, moment: float, addend: float = 0.0):
    """emp + Gamma_0(alpha, e) moment^{1/alpha} e + rho, affine in emp, with
    e the ``_deviation_scale``; raises ApplicabilityError when e > 1."""
    if not (moment >= 0 and math.isfinite(moment)):
        raise InputError("the loss moment must be finite and nonnegative")
    a = params.alpha
    eps_hat, _ = _deviation_scale(log_n, params, addend)
    if eps_hat > 1.0:
        raise ApplicabilityError(
            f"deviation scale {eps_hat:.6g} exceeds 1; the bound is vacuous in this regime"
        )
    if eps_hat == 0.0:
        # degenerate zero-deviation edge; the factor multiplies zero
        return emp_loss + params.rho, {"eps_hat": 0.0, "gamma": None}
    gamma = gamma_factor(a, eps_hat)
    deviation = gamma * moment ** (1.0 / a) * eps_hat
    return emp_loss + deviation + params.rho, {"eps_hat": eps_hat, "gamma": gamma}


def bound_unbounded(emp_loss: float, moment: float, logN, params: BoundParams) -> BoundReport:
    """Finite-moment bound for unbounded losses (see ``unbounded_value``)."""
    emp_loss = _empirical_input(emp_loss, "emp_loss", zero_one=False)
    log_n_value, method = _complexity_input(logN, "logN")
    value, terms = unbounded_value(emp_loss, log_n_value, params, moment)
    breakdown = {**terms, "moment": moment, "rho_term": params.rho}
    return BoundReport("unbounded", params, emp_loss, log_n_value, value, "closed-form", method, breakdown)


def bound_unbounded_uniform_rho(
    emp_loss: float, moment: float, logN, rho_grid, params: BoundParams
) -> BoundReport:
    """Minimum over a rho grid of the finite-moment bound with the uniform-rho
    log(log2(2r/rho)) addend (>= 0, so never below ``bound_unbounded`` at the
    same rho); the cover callable is evaluated at radius rho/2."""
    grid = [float(rho) for rho in rho_grid]
    if not grid:
        raise InputError("rho grid must be nonempty")
    addends = {rho: _uniform_rho_addend(params.r, rho) for rho in grid}
    emp_loss = _empirical_input(emp_loss, "emp_loss", zero_one=False)
    per_rho, methods, failures = {}, {}, {}
    for rho in grid:
        log_n = logN(rho / 2.0) if callable(logN) else logN
        log_n_value, methods[rho] = _complexity_input(log_n, "logN")
        try:
            value, terms = unbounded_value(emp_loss, log_n_value, replace(params, rho=rho), moment, addends[rho])
        except (ApplicabilityError, DomainError) as exc:
            failures[rho] = str(exc)
            continue
        per_rho[rho] = {"bound_value": value, **terms, "log_n": log_n_value, "loglog_addend": addends[rho]}
    if not per_rho:
        raise ApplicabilityError(f"no grid rho is in the applicable regime: {failures}")
    best_rho = min(per_rho, key=lambda rho: per_rho[rho]["bound_value"])
    best = per_rho[best_rho]
    breakdown = {
        "best_rho": best_rho,
        "per_rho": {str(k): v for k, v in per_rho.items()},
        "inapplicable_rho": {str(k): v for k, v in failures.items()},
        "moment": moment,
    }
    return BoundReport(
        "unbounded-uniform-rho", params, emp_loss, best["log_n"], best["bound_value"],
        "closed-form", methods[best_rho], breakdown,
    )


# ---------------------------------------------------------------------------
# the family registry


@dataclass(frozen=True)
class Family:
    """A bound family: its report builder, the BoundParams fields beyond m
    and delta its formula reads (its reports null the rest) and, if campaigns
    judge it, its array formula and the builder parameter of its complexity."""

    build: Callable[..., BoundReport]
    reads: tuple = ()
    value: Callable | None = None
    complexity: str | None = None


FAMILIES = {
    "cov-alpha": Family(bound_cov_alpha, ("alpha",), cov_alpha_value, "logN"),
    "cov-alpha2": Family(bound_cov_alpha2, ("alpha",), cov_alpha2_value, "logN"),
    "cov-fat": Family(bound_cov_fat, (), cov_fat_value, "fat_d"),
    "cov-uniform-rho": Family(bound_cov_uniform_rho, ("alpha", "rho", "r")),
    "rad": Family(bound_rad, ("alpha",), rad_value, "rm"),
    "rad-all-alpha": Family(bound_rad_all_alpha),
    "rad-smooth": Family(bound_rad_smooth, ("alpha", "rho")),
    "unbounded": Family(bound_unbounded, ("alpha", "rho")),
    "unbounded-uniform-rho": Family(bound_unbounded_uniform_rho, ("alpha", "r")),
}
