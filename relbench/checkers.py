"""Checks of relmargin outputs, computed apart from the package.

Every checker takes a parsed report plus the inputs the benchmark generated,
and returns a list of error strings (empty when the output is correct).
The reference values come from the paper's closed forms, brute-force
enumeration or properties the method must have; nothing here imports
relmargin.  Reports store floats rounded to 12 significant digits, so
comparisons use a relative tolerance of 1e-9.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

REL_TOL = 1e-9
CI_TAIL = 0.025  # each tail of the 95% Clopper-Pearson interval


def _close(a, b, rel=REL_TOL, abs_tol=1e-12):
    return np.abs(np.asarray(a) - np.asarray(b)) <= rel * np.maximum(np.abs(b), 1.0) + abs_tol


def _bad(mask) -> int:
    return int(np.count_nonzero(~np.asarray(mask, dtype=bool)))


# ---------------------------------------------------------------------------
# bound formulas (the paper's closed forms)


def cov_alpha2_raw(emp, log_n, m, delta):
    c = (log_n + math.log(1.0 / delta)) / m
    return emp + 2.0 * np.sqrt(emp * c) + 4.0 * c


def rad_raw(emp, rm, m, delta, alpha):
    budget = (rm + math.log(math.log(m)) + math.log(16.0 / delta)) / m
    return (
        emp
        + 32.0 * np.power(emp, 1.0 / alpha) * budget ** (1.0 - 1.0 / alpha)
        + 2.0 * 32.0 ** (alpha / (alpha - 1.0)) * budget
    )


def cov_alpha_coefficient(log_n, m, delta, alpha):
    scale = m ** (2.0 * (alpha - 1.0) / alpha)
    return 2.0 ** ((alpha + 2.0) / (2.0 * alpha)) * math.sqrt((log_n + math.log(1.0 / delta)) / scale)


def fixed_point_errors(emp, bound, coeff, alpha, what) -> list[str]:
    """bound = min(x, 1) where x is the largest fixed point of x = emp + C x^{1/alpha}.

    Below 1, x must solve the equation and the concave residual must be
    negative just above it (so x is the largest root).  At 1 the fixed point
    must be at least 1, i.e. the residual at 1 is nonnegative."""
    emp = np.asarray(emp, dtype=np.float64)
    bound = np.asarray(bound, dtype=np.float64)
    inv = 1.0 / alpha
    errors = []
    clamped = bound >= 1.0 - 1e-12
    x = bound[~clamped]
    e = emp[~clamped]
    residual = e + coeff * np.power(x, inv) - x
    n_off = _bad(np.abs(residual) <= 1e-8 * np.maximum(x, 1e-12) + 1e-15)
    if n_off:
        errors.append(f"{what}: {n_off} values off the fixed point x = emp + C x^(1/alpha)")
    above = x * (1.0 + 1e-6) + 1e-12
    n_small = _bad(e + coeff * np.power(above, inv) - above < 0.0)
    if n_small:
        errors.append(f"{what}: {n_small} values below the largest fixed point")
    n_clamp = _bad(emp[clamped] + coeff >= 1.0 - 1e-9)
    if n_clamp:
        errors.append(f"{what}: {n_clamp} values clamped at 1 with a fixed point below 1")
    return errors


def gamma_factor(alpha, eps):
    """Moment-deviation factor at tau = 0:
    (a-1)/a + (1/a) q (1 + log(1/eps)/q)^{(a-1)/a}, q = (a/(a-1))^{a-1}."""
    q = (alpha / (alpha - 1.0)) ** (alpha - 1.0)
    return (alpha - 1.0) / alpha + q / alpha * (1.0 + math.log(1.0 / eps) / q) ** ((alpha - 1.0) / alpha)


def clopper_pearson_errors(k, n, lo, hi, what) -> list[str]:
    """The 95% interval's ends must put 2.5% binomial mass beyond k."""
    from scipy.special import betainc  # imported at check time, so set-up does not pay for it

    errors = []
    if k == 0:
        if lo != 0.0:
            errors.append(f"{what}: lower CI end {lo} is not 0 at k = 0")
    elif not math.isclose(float(betainc(k, n - k + 1, lo)), CI_TAIL, rel_tol=1e-6):
        errors.append(f"{what}: lower CI end {lo} does not leave 2.5% above k = {k}")
    if k == n:
        if hi != 1.0:
            errors.append(f"{what}: upper CI end {hi} is not 1 at k = n")
    elif not math.isclose(1.0 - float(betainc(k + 1, n - k, hi)), CI_TAIL, rel_tol=1e-6):
        errors.append(f"{what}: upper CI end {hi} does not leave 2.5% below k = {k}")
    return errors


# ---------------------------------------------------------------------------
# validate


def check_validity_report(report: dict, cfg: dict) -> list[str]:
    """A coverage-campaign report against the config that produced it."""
    if report.get("schema") != "relmargin/validity-report/v1":
        return [f"validate: schema is {report.get('schema')!r}"]
    missing = {"families", "rows", "environment"} - set(report)
    if missing:
        return [f"validate: report lacks {sorted(missing)}"]
    p = cfg["params"]
    m, delta, alpha = p["m"], p["delta"], p.get("alpha", 2.0)
    trials, families = cfg["trials"], list(cfg["families"])
    pool = cfg["pool"]["size"]
    errors = []
    if sorted(report["families"]) != sorted(families):
        errors.append(f"validate: families {sorted(report['families'])} != {sorted(families)}")
    rows = report["rows"]
    if len(rows) != trials * len(families):
        return errors + [f"validate: {len(rows)} rows, expected trials x families = {trials * len(families)}"]
    if any(len(r) != 7 for r in rows):
        return errors + ["validate: a row does not have 7 fields"]
    if report["environment"].get("delta") != delta:
        errors.append("validate: environment.delta differs from the config")
    for i, fam in enumerate(families):
        block = rows[i * trials:(i + 1) * trials]
        what = f"validate[{fam}]"
        if any(r[0] != fam for r in block) or [r[1] for r in block] != list(range(trials)):
            errors.append(f"{what}: rows are not trials 0..{trials - 1} in order")
            continue
        emp, cx, bound, risk, viol = (np.array([r[j] for r in block], dtype=np.float64) for j in range(2, 7))
        summary = report["families"].get(fam)
        if summary is None:
            continue
        complexity = summary["complexity"]["value"]
        if _bad(_close(cx, complexity)):
            errors.append(f"{what}: row complexity differs from the family estimate")
        if _bad((emp >= 0) & (emp <= 1) & _close(emp * m, np.round(emp * m), abs_tol=1e-6)):
            errors.append(f"{what}: empirical terms are not multiples of 1/m in [0, 1]")
        n_order = _bad((emp <= bound + 1e-12) & (bound <= 1.0 + 1e-12))
        if n_order:
            errors.append(f"{what}: {n_order} rows break emp <= bound <= 1")
        if _bad((risk >= 0) & (risk <= 1)):
            errors.append(f"{what}: true risks outside [0, 1]")
        if fam == "cov-alpha2":
            n_off = _bad(_close(bound, np.minimum(cov_alpha2_raw(emp, complexity, m, delta), 1.0)))
            if n_off:
                errors.append(f"{what}: {n_off} bounds off the closed form emp + 2 sqrt(emp c) + 4c")
        elif fam == "rad":
            n_off = _bad(_close(bound, np.minimum(rad_raw(emp, complexity, m, delta, alpha), 1.0)))
            if n_off:
                errors.append(f"{what}: {n_off} bounds off the peeling closed form")
        elif fam == "cov-alpha":
            coeff = cov_alpha_coefficient(complexity, m, delta, alpha)
            errors += fixed_point_errors(emp, bound, coeff, alpha, what)
        clear = np.abs(risk - bound) > 1e-10  # rounding cannot flip these
        n_flag = _bad(((viol == 1) == (risk > bound))[clear] & np.isin(viol, (0, 1))[clear])
        if n_flag:
            errors.append(f"{what}: {n_flag} rows where violated != (true risk > bound)")
        k = int(viol.sum())
        if summary["trials"] != trials or summary["violations"] != k:
            errors.append(f"{what}: {summary['violations']} violations reported, rows show {k}")
        rate = summary["violation_rate"]
        if not math.isclose(rate, k / trials, rel_tol=REL_TOL, abs_tol=1e-15):
            errors.append(f"{what}: violation_rate {rate} != {k}/{trials}")
        lo, hi = summary["ci95"]
        if not lo <= rate <= hi:
            errors.append(f"{what}: CI [{lo}, {hi}] does not contain the rate {rate}")
        if lo > delta:
            errors.append(f"{what}: CI lower end {lo} exceeds delta = {delta}")
        errors += clopper_pearson_errors(k, trials, lo, hi, what)
        if fam in ("cov-alpha", "cov-alpha2") and not 0.0 <= complexity <= math.log(pool) * (1.0 + REL_TOL):
            errors.append(f"{what}: log cover {complexity} outside [0, log(pool) = {math.log(pool):.6g}]")
        if fam == "rad" and complexity < 0.0:
            errors.append(f"{what}: peeling complexity {complexity} is negative")
    return errors


# ---------------------------------------------------------------------------
# bound


def check_bound_report(report: dict, family: str, inputs: dict) -> list[str]:
    """A ``relmargin bound`` report against its command-line inputs."""
    what = f"bound[{family}]"
    if report.get("schema") != "relmargin/bound-report/v1" or report.get("family") != family:
        return [f"{what}: schema/family is {report.get('schema')!r}/{report.get('family')!r}"]
    m, delta = inputs["m"], inputs["delta"]
    alpha = inputs.get("alpha", 2.0)
    value = report["bound_value"]
    errors = []
    if family == "unbounded":
        emp_loss = inputs["emp_loss"]
        eps = math.sqrt((inputs["logN"] + math.log(1.0 / delta)) / m ** (2.0 * (alpha - 1.0) / alpha))
        expect = emp_loss + gamma_factor(alpha, eps) * inputs["moment"] ** (1.0 / alpha) * eps + inputs["rho"]
        if not math.isclose(value, expect, rel_tol=REL_TOL):
            errors.append(f"{what}: {value} != emp + Gamma moment^(1/a) eps + rho = {expect}")
        return errors
    emp = inputs["emp"]
    if not emp - 1e-12 <= value <= 1.0 + 1e-12:
        errors.append(f"{what}: bound {value} breaks emp = {emp} <= bound <= 1")
    if family == "cov-alpha2":
        raw = float(cov_alpha2_raw(emp, inputs["logN"], m, delta))
    elif family == "rad":
        raw = float(rad_raw(emp, inputs["rm"], m, delta, alpha))
    elif family == "cov-alpha":
        raw = report["breakdown"]["fixed_point_value"]
        coeff = cov_alpha_coefficient(inputs["logN"], m, delta, alpha)
        residual = emp + coeff * raw ** (1.0 / alpha) - raw
        if abs(residual) > 1e-8 * max(raw, 1e-12):
            errors.append(f"{what}: fixed point {raw} leaves residual {residual}")
    else:
        raise ValueError(f"no checker for family {family!r}")
    if not math.isclose(value, min(raw, 1.0), rel_tol=REL_TOL):
        errors.append(f"{what}: bound {value} != min(closed form {raw}, 1)")
    if report["vacuous"] != (raw >= 1.0):
        errors.append(f"{what}: vacuous flag {report['vacuous']} with raw value {raw}")
    return errors


# ---------------------------------------------------------------------------
# complexity


def brute_min_cover(values: np.ndarray, eps: float) -> int:
    """Smallest set of columns whose sup-distance eps-balls hold every column."""
    p = values.shape[1]
    dist = np.abs(values[:, :, None] - values[:, None, :]).max(axis=0)
    balls = [frozenset(np.flatnonzero(dist[j] <= eps)) for j in range(p)]
    everything = frozenset(range(p))
    for size in range(1, p + 1):
        for centers in itertools.combinations(range(p), size):
            if frozenset().union(*(balls[j] for j in centers)) == everything:
                return size
    return p


def check_cover_report(report: dict, values: np.ndarray, eps: float) -> list[str]:
    pool = values.shape[1]
    got = report.get("value")
    if report.get("schema") != "relmargin/complexity-estimate/v1":
        return [f"cover-linf: schema is {report.get('schema')!r}"]
    errors = []
    if not 1 <= got <= pool:
        errors.append(f"cover-linf: cover {got} outside [1, pool = {pool}]")
    expect = brute_min_cover(values, eps)
    if got != expect:
        errors.append(f"cover-linf: exact cover {got} != brute-force minimum {expect}")
    return errors


def brute_peeling_value(matrices) -> float:
    """sup_k log mean_z exp(m^2 Rhat_k(z)^2 / 2^{k+5}), with Rhat_k enumerated
    over all 2^m sign vectors for the columns of shell k."""
    m = matrices[0].shape[0]
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=m)))
    n_shells = int(math.floor(math.log2(m + 1))) + 1
    exps = np.zeros((len(matrices), n_shells))
    for t, values in enumerate(matrices):
        shells = np.floor(np.log2(values.sum(axis=0) + 1.0)).astype(int)
        for k in range(n_shells):
            cols = values[:, shells == k]
            if cols.shape[1]:
                rhat = (signs @ cols).max(axis=1).mean() / m
                exps[t, k] = m * m * rhat * rhat / 2.0 ** (k + 5)
    top = exps.max(axis=0)
    per_k = top + np.log(np.exp(exps - top).mean(axis=0))
    return float(per_k.max())


def check_peeling_report(report: dict, matrices) -> list[str]:
    value = report.get("value")
    if report.get("schema") != "relmargin/complexity-estimate/v1":
        return [f"rm-peeling: schema is {report.get('schema')!r}"]
    errors = []
    if value < 0.0:
        errors.append(f"rm-peeling: value {value} is negative")
    expect = brute_peeling_value(matrices)
    if not _close(value, expect):
        errors.append(f"rm-peeling: {value} != brute-force peeling value {expect}")
    return errors


# ---------------------------------------------------------------------------
# compare, verify, train


def check_compare_report(report: dict, emp_grid, beta_grid) -> list[str]:
    rows = report.get("rows", [])
    if report.get("schema") != "relmargin/tightness-report/v1":
        return [f"compare: schema is {report.get('schema')!r}"]
    if len(rows) != len(emp_grid) * len(beta_grid):
        return [f"compare: {len(rows)} rows for a {len(emp_grid)} x {len(beta_grid)} grid"]
    errors = []
    for row, (e, b) in zip(rows, itertools.product(emp_grid, beta_grid)):
        new, old = e + 2.0 * math.sqrt(e * b) + b, math.sqrt(b)
        if not (_close(row["new_bound"], new) and _close(row["old_bound"], old)):
            errors.append(f"compare: row (emp {e}, beta {b}) off the two closed forms")
        if row["new_smaller"] != (row["new_bound"] < row["old_bound"]):
            errors.append(f"compare: new_smaller flag wrong at (emp {e}, beta {b})")
        if e == 0.0 and b <= 1.0 and row["new_bound"] > row["old_bound"]:
            errors.append(f"compare: new > old at emp = 0, beta = {b} <= 1")
    if report.get("new_wins") != sum(r["new_smaller"] for r in rows):
        errors.append("compare: new_wins does not count the rows")
    return errors


def _binomial_tail(m: int, p: float, k_lo: int, k_hi: int) -> float:
    return math.fsum(math.comb(m, k) * p**k * (1.0 - p) ** (m - k) for k in range(k_lo, k_hi + 1))


def check_verify_report(report: dict, m_max: int) -> list[str]:
    if report.get("schema") != "relmargin/verify-report/v1" or report.get("target") != "binomial":
        return [f"verify: schema/target is {report.get('schema')!r}/{report.get('target')!r}"]
    errors = []
    if report.get("passed") is not True:
        errors.append("verify: report does not have passed = true")
    if report.get("m_max") != m_max:
        errors.append(f"verify: m_max {report.get('m_max')} != {m_max}")
    at = report["min_upper_tail_at"]
    m, p = at["m"], at["p"]
    upper = _binomial_tail(m, p, math.ceil(m * p - 1e-9), m)
    if not math.isclose(upper, report["min_upper_tail"], rel_tol=1e-7):
        errors.append(f"verify: Pr[X >= mp] at (m {m}, p {p}) is {upper}, report says {report['min_upper_tail']}")
    at = report["min_lower_tail_at"]
    m, p = at["m"], at["p"]
    lower = _binomial_tail(m, p, 0, math.floor(m * p + 1e-9))
    if not math.isclose(lower, report["min_lower_tail"], rel_tol=1e-7):
        errors.append(f"verify: Pr[X <= mp] at (m {m}, p {p}) is {lower}, report says {report['min_lower_tail']}")
    if min(upper, lower) <= 0.25:
        errors.append("verify: a minimal tail is not above 1/4")
    return errors


def ramp_objective(points, labels, w, rho, lam) -> float:
    margins = labels * (points @ w)
    r = float(np.clip(1.0 - margins / rho, 0.0, 1.0).mean())
    return r + lam / rho * math.sqrt(r)


def check_train_report(report: dict, points, labels, rho_grid, lam) -> list[str]:
    if report.get("schema") != "relmargin/training-report/v1" or report.get("method") != "bound-min":
        return [f"train: schema/method is {report.get('schema')!r}/{report.get('method')!r}"]
    w = np.asarray(report["hypothesis"]["w"], dtype=np.float64)
    rho = report["rho"]
    errors = []
    if np.linalg.norm(w) > 1.0 + 1e-9:
        errors.append(f"train: ||w|| = {np.linalg.norm(w)} > 1")
    if not any(math.isclose(rho, g, rel_tol=1e-12) for g in rho_grid):
        errors.append(f"train: rho {rho} is not in the grid {rho_grid}")
    else:
        expect = ramp_objective(points, labels, w, rho, lam)
        if not math.isclose(report["objective"], expect, rel_tol=1e-8, abs_tol=1e-10):
            errors.append(f"train: objective {report['objective']} != ramp objective {expect} of the returned w")
    return errors
