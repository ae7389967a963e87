"""Independent brute-force oracles used to freeze expected values.

Everything here enumerates or derives directly from definitions, without
touching the package's own computation paths.
"""

from decimal import Decimal
from itertools import combinations, product
import decimal
import math


def brute_rademacher(columns) -> float:
    """E over all 2^m sign vectors of max-column correlation, divided by m.

    ``columns`` is a list of per-hypothesis value lists, each of length m.
    """
    m = len(columns[0])
    total = 0.0
    for signs in product((-1.0, 1.0), repeat=m):
        total += max(sum(s * v for s, v in zip(signs, col)) for col in columns)
    return total / (2**m) / m


def brute_min_cover(dist_rows, eps: float) -> int:
    """Exhaustive minimum internal cover: try all center subsets by size."""
    p = len(dist_rows)
    cover_sets = [
        {i for i in range(p) if dist_rows[j][i] <= eps} for j in range(p)
    ]
    everything = set(range(p))
    for size in range(1, p + 1):
        for centers in combinations(range(p), size):
            covered = set()
            for j in centers:
                covered |= cover_sets[j]
            if covered == everything:
                return size
    return p


def greedy_cover_oracle(within) -> int:
    """Greedy cover of the whole relation at once, as first written: pick the
    first column that covers the most uncovered columns, until none is left
    (column j covers the columns i with within[j][i])."""
    p = len(within)
    masks = [sum(1 << i for i in range(p) if within[j][i]) for j in range(p)]
    uncovered = (1 << p) - 1
    count = 0
    while uncovered:
        best = max(masks, key=lambda mask: (mask & uncovered).bit_count())
        uncovered &= ~best
        count += 1
    return count


def pairwise_l2n(values):
    """Column-to-column normalized distances ``sqrt(mean_i (a_i - b_i)^2)``,
    the full matrix built one column at a time."""
    import numpy as np

    values = np.ascontiguousarray(values, dtype=np.float64)
    p = values.shape[1]
    out = np.zeros((p, p))
    for j in range(p):
        out[j] = np.sqrt(np.mean((values - values[:, [j]]) ** 2, axis=0))
    return out


def distinct_columns(values):
    """The distinct columns of a finite 2-d array, one per row, in
    lexicographic order (the rows of ``np.unique(values.T, axis=0)``):
    ``values.T[distinct_index(values)] + 0.0``, made in the one copy it
    returns."""
    import numpy as np

    from relmargin.lossmatrix import distinct_index

    vals = np.asarray(values, dtype=np.float64)
    out = vals.T[distinct_index(vals)]
    out += 0.0
    return out


def dedup_first_cover_oracle(matrix, eps: float, metric: str = "linf", mode: str = "exact", exact_cap: int = 25):
    """``covers.covering_number`` as first written: the distinct columns
    are copied out first, one per row in lexicographic order (the rows of
    ``np.unique(values.T + 0.0, axis=0)``, which the first
    ``distinct_columns`` was held to), and the relation is the full
    distance matrix (``pairwise_linf`` or ``pairwise_l2n``) thresholded
    at eps."""
    import numpy as np

    from relmargin import CapabilityError, ComplexityEstimate
    from relmargin.covers import _cover_size
    from relmargin.kernels import pairwise_linf

    p = matrix.pool_size
    if mode == "exact" and p > exact_cap:
        raise CapabilityError(f"exact cover search is capped at {exact_cap} pool columns (got {p})")
    distance = {"linf": pairwise_linf, "l2": pairwise_l2n}[metric]
    within = distance(np.unique(matrix.values.T + 0.0, axis=0).T) <= eps
    q = within.shape[0]
    return ComplexityEstimate(
        value=float(_cover_size(within, mode == "exact")),
        method="exact-enumeration" if mode == "exact" else "greedy-upper",
        details={"metric": metric, "eps": float(eps), "pool": p, "distinct": q},
    )


def brute_peeling_value(matrices) -> float:
    """Peeling complexity for a fixed outer sample set, everything enumerated."""
    m = len(matrices[0])
    n_shells = int(math.floor(math.log2(m + 1))) + 1
    per_trial = []
    for mat in matrices:  # mat: list of rows, each of length pool
        pool = len(mat[0])
        colsums = [sum(mat[i][j] for i in range(m)) for j in range(pool)]
        exps = [0.0] * n_shells
        for k in range(n_shells):
            cols = [
                [mat[i][j] for i in range(m)]
                for j in range(pool)
                if 2**k <= colsums[j] + 1 < 2 ** (k + 1)
            ]
            if cols:
                r = brute_rademacher(cols)
                exps[k] = m * m * r * r / 2 ** (k + 5)
        per_trial.append(exps)
    n = len(per_trial)
    best = -math.inf
    for k in range(n_shells):
        mean_exp = sum(math.exp(row[k]) for row in per_trial) / n
        best = max(best, math.log(mean_exp))
    return best


def shell_rademacher_mc(values, n_sigma: int, rng) -> list:
    """Monte-Carlo Rhat per peeling shell, one product per shell.

    Draws the signs as the peeling estimator does, then gathers each
    shell's columns (2^k <= column sum + 1 < 2^{k+1}) and averages
    ``kernels.sup_signed_sums`` over the sign vectors; empty shells are 0.
    """
    from relmargin import kernels

    m, pool = values.shape
    signs = rng.integers(0, 2, size=(n_sigma, m)) * 2.0 - 1.0
    colsums = values.sum(axis=0)
    out = []
    for k in range(int(math.floor(math.log2(m + 1))) + 1):
        cols = [j for j in range(pool) if 2**k <= colsums[j] + 1 < 2 ** (k + 1)]
        out.append(float(kernels.sup_signed_sums(values[:, cols], signs).mean()) / m if cols else 0.0)
    return out


def shell_rademacher_exact(values) -> list:
    """Rhat per peeling shell over all 2^m sign vectors, one product per
    shell; empty shells are 0."""
    import numpy as np

    m, pool = values.shape
    signs = np.array(list(product((-1.0, 1.0), repeat=m)))
    colsums = values.sum(axis=0)
    out = []
    for k in range(int(math.floor(math.log2(m + 1))) + 1):
        cols = [j for j in range(pool) if 2**k <= colsums[j] + 1 < 2 ** (k + 1)]
        out.append(float((signs @ values[:, cols]).max(axis=1).mean()) / m if cols else 0.0)
    return out


def packing_lower_bound(dist_rows, eps: float) -> int:
    """Greedy count of columns pairwise farther than 2*eps (covers need >= this)."""
    chosen = []
    for j in range(len(dist_rows)):
        if all(dist_rows[j][i] > 2 * eps for i in chosen):
            chosen.append(j)
    return len(chosen)


def _float_bisect_relative(b: float, c: float, alpha: float) -> float:
    """Float bisection for the largest fixed point of x = b + c x^{1/alpha}
    (inf once the bracket passes 1e300); near alpha = 1 the float residual
    is nearly flat, so this can stop ~1e-11 relative off the root."""
    inv = 1.0 / alpha

    def residual(x: float) -> float:
        return b + c * x**inv - x

    lo = b
    hi = max(b, 1.0)
    while residual(hi) >= 0.0:
        hi *= 2.0
        if hi > 1e300:
            return math.inf
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if residual(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(hi, 1e-300):
            break
    return 0.5 * (lo + hi)


def bisect_relative(b: float, c: float, alpha: float, rel_tol: float = 1e-17) -> float:
    """Largest fixed point of x = b + c x^{1/alpha}, rounded to a float.

    The float bisection's estimate is widened until residuals in 40-digit
    decimal arithmetic bracket the root, then bisected in decimal to
    relative width ``rel_tol``.  The residual is concave and >= 0 at b, so
    the bracket holds the largest root; inf once that passes 1e300.
    """
    if c == 0.0:
        return float(b)
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        b_, c_, inv = Decimal(b), Decimal(c), 1 / Decimal(alpha)
        top = Decimal("1e300")

        def residual(x: Decimal) -> Decimal:
            return b_ + c_ * (inv * x.ln()).exp() - x if x > 0 else b_

        if residual(top) >= 0:
            return math.inf
        guess = min(Decimal(_float_bisect_relative(b, c, alpha)), top)
        width = guess * Decimal("1e-11") + Decimal("1e-300")
        lo, hi = max(b_, guess - width), guess + width
        while residual(lo) < 0:
            width *= 10
            lo = max(b_, lo - width)
        while residual(hi) >= 0:
            width *= 10
            hi += width
        while hi - lo > Decimal(rel_tol) * max(hi, Decimal("1e-300")):
            mid = (lo + hi) / 2
            if residual(mid) >= 0:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


def per_trial_campaign(cfg):
    """``validate_bounds`` judged one trial and one family at a time.

    The draws, complexity estimates and bound formulas are the package's
    own (on the same substreams).  The true risks (closed form, or a holdout
    on the same substreams) and the judge are done here, per trial:
    the uniform event over the pool, the member with the first largest gap
    as the reported row, and the largest gap over all trials.  Returns the
    report's (families, rows).
    """
    import numpy as np

    from relmargin import validation
    from relmargin.bounds import FAMILIES
    from relmargin.rng import substream
    from relmargin.transforms import holdout_error_rate

    dist = cfg.distribution
    pool = validation._build_pool(cfg, dist)
    p = cfg.params
    complexities = {fam: validation._ESTIMATORS[FAMILIES[fam].complexity](cfg, dist, pool) for fam in cfg.families}

    def judge(emp, risks):
        out = {}
        for fam in cfg.families:
            bounds = validation.family_bound_values(fam, emp, complexities[fam].value, p)
            gaps = risks - bounds
            j = int(np.argmax(gaps))
            out[fam] = (bool(np.any(gaps > 0)), float(gaps.max()), float(emp[j]), float(bounds[j]), float(risks[j]))
        return out

    w_stack = np.stack([h.w for h in pool], axis=0)
    if cfg.risk.get("mode", "analytic") == "analytic":
        risks = np.array([dist.analytic_risk(h) for h in pool])
    else:
        n = int(cfg.risk.get("n", 10**6))
        risks = holdout_error_rate(lambda x: x @ w_stack.T, dist, n, substream(cfg.seed, "risk"))
    results = []
    for t in range(cfg.trials):
        x, y = dist.sample(p.m, substream(cfg.seed, "trial", t))
        results.append(judge((y[:, None] * (x @ w_stack.T) < p.rho).mean(axis=0), risks))

    families, rows = {}, []
    for fam in cfg.families:
        violations = sum(int(r[fam][0]) for r in results)
        lo, hi = validation.exact_binomial_ci(violations, cfg.trials)
        families[fam] = {
            "trials": cfg.trials,
            "violations": violations,
            "violation_rate": violations / cfg.trials,
            "ci95": [lo, hi],
            "worst_violation_margin": max(r[fam][1] for r in results),
            "event": "uniform-over-pool",
            "complexity": complexities[fam].to_json(),
        }
        for t, r in enumerate(results):
            violated, _, emp, bound, risk = r[fam]
            rows.append((fam, t, emp, complexities[fam].value, bound, risk, int(violated)))
    return families, rows


def canonical_json_oracle(obj) -> str:
    """The report writer in two passes: the package's ``canonical`` normal
    form, then the standard library's sorted and indented ``json.dumps``."""
    import json

    from relmargin.reportio import canonical

    return json.dumps(canonical(obj), sort_keys=True, indent=2) + "\n"


def _csv_cell_oracle(v) -> str:
    from relmargin.reportio import format_float

    class Formatted(float):
        def __repr__(self):
            return format_float(self)

    def formatted(x):
        if isinstance(x, float):
            return Formatted(x)
        if isinstance(x, list):
            return [formatted(y) for y in x]
        if isinstance(x, dict):
            return {k: formatted(y) for k, y in x.items()}
        return x

    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return format_float(v)
    # a list or mapping is its str, with every float in it format_float's
    return str(formatted(v))


def _write_rows_oracle(header, rows) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_cell_oracle(v) for v in row])
    return buf.getvalue()


def report_csv_oracle(data: dict) -> str:
    """The CSV writer as first written, one hand-built branch per schema
    and a key,value fallback, each with its own cell rules; ``data`` is a
    canonical report.  One rule has changed since: a float inside a nested
    list item is written as ``format_float`` writes it, not by ``repr``."""
    from relmargin.reportio import canonical

    _csv_cell, _write_rows = _csv_cell_oracle, _write_rows_oracle
    schema = data.get("schema", "")
    if schema == "relmargin/bound-report/v1":
        p = data["params"]
        header = [
            "family",
            "m",
            "delta",
            "alpha",
            "rho",
            "empirical_term",
            "complexity_term",
            "bound_value",
            "solver",
            "complexity_method",
            "vacuous",
            "clamped",
        ]
        row = [
            data["family"],
            p["m"],
            p["delta"],
            *("" if p[k] is None else p[k] for k in ("alpha", "rho")),
            data["empirical_term"],
            data["complexity_term"],
            data["bound_value"],
            data["solver"],
            data["complexity_method"],
            data["vacuous"],
            data["clamped"],
        ]
        return _write_rows(header, [row])
    if schema == "relmargin/validity-report/v1":
        header = ["family", "trial", "emp", "complexity", "bound", "true_risk", "violated"]
        return _write_rows(header, data["rows"])
    if schema == "relmargin/tightness-report/v1":
        keys = ["m", "rho", "emp", "beta", "beta_prime", "new_bound", "old_bound", "new_smaller"]
        rows = [[r.get(k, "") for k in keys] for r in data["rows"]]
        return _write_rows(keys, rows)
    if schema == "relmargin/complexity-estimate/v1":
        header = ["value", "method", "trials", "seed", "stderr"]
        row = [
            data["value"],
            data["method"],
            ";".join(str(t) for t in data["trials"]),
            "" if data.get("seed") is None else data["seed"],
            "" if data.get("stderr") is None else data["stderr"],
        ]
        return _write_rows(header, [row])
    # generic fallback: flattened key/value rows
    rows = []

    def flatten(prefix, value):
        if isinstance(value, dict):
            for k in sorted(value):
                flatten(f"{prefix}.{k}" if prefix else str(k), value[k])
        elif isinstance(value, (list, tuple)):
            rows.append([prefix, ";".join(_csv_cell(canonical(v)) for v in value)])
        else:
            rows.append([prefix, _csv_cell(value)])

    flatten("", canonical(data))
    return _write_rows(["key", "value"], rows)


def clip_to_ball_oracle(x, radius: float):
    """Each row scaled by radius / norm where its norm exceeds radius, and by
    1.0 elsewhere, with no shortcut."""
    import numpy as np

    norms = np.linalg.norm(x, axis=1)
    scale = np.where(norms > radius, radius / np.maximum(norms, 1e-300), 1.0)
    return x * scale[:, None]


def two_gaussian_sample_oracle(dist, m: int, rng):
    """``TwoGaussianMixture.sample`` as first written: labels, then the
    scaled and shifted normals, then the clip of every row."""
    y = rng.integers(0, 2, size=m) * 2.0 - 1.0
    x = rng.standard_normal((m, dist.dim)) * dist.sigma
    x[:, 0] += y * dist.separation
    return clip_to_ball_oracle(x, dist.radius), y


def margin_separable_sample_oracle(dist, m: int, rng):
    """``MarginSeparable.sample`` as first written: every pass draws
    max(2 (m - got), 16) whole rows, clips them all, then keeps those with
    |x1| >= gap."""
    import numpy as np

    rows, got = [], 0
    while got < m:
        batch = clip_to_ball_oracle(rng.standard_normal((max(2 * (m - got), 16), dist.dim)) * dist.sigma, dist.radius)
        batch = batch[np.abs(batch[:, 0]) >= dist.gap]
        rows.append(batch)
        got += batch.shape[0]
    x = np.concatenate(rows, axis=0)[:m]
    y = np.where(x[:, 0] >= 0, 1.0, -1.0)
    if dist.noise_rate > 0:
        y = np.where(rng.random(m) < dist.noise_rate, -y, y)
    return x, y


# ---------------------------------------------------------------------------
# bound formulas as the report builders once wrote them inline, each family
# on its own; ``relmargin.bounds`` now holds one ``*_value`` per family, and
# these copies hold it to the same floats.  ``solve`` is the fixed-point
# solver the builders called (``relmargin.solve_relative``).


def rad_oracle(emp: float, rm: float, m: int, delta: float, alpha: float):
    """rad's explicit value and budget."""
    import numpy as np

    budget = (rm + math.log(math.log(m)) + math.log(16.0 / delta)) / m
    inv = 1.0 / alpha
    deviation = 32.0 * np.power(emp, inv) * np.power(budget, 1.0 - inv) + (
        2.0 * 32.0 ** (alpha / (alpha - 1.0))
    ) * budget
    return emp + deviation, budget


def rad_implicit_oracle(emp: float, rm: float, m: int, delta: float, alpha: float, solve):
    """rad's implicit value (coefficient 16 sqrt(2)) and its coefficient."""
    budget = (rm + math.log(math.log(m)) + math.log(16.0 / delta)) / m
    coeff = 16.0 * math.sqrt(2.0) * budget ** (1.0 - 1.0 / alpha)
    return solve(emp, coeff, alpha), coeff


def rad_all_alpha_oracle(emp: float, rm: float, m: int, delta: float, grid, solve):
    """rad-all-alpha's per-alpha values (coefficient 32 sqrt(2)), best alpha
    and value."""
    budget = (rm + math.log(math.log(m)) + math.log(16.0 / delta)) / m
    per_alpha = {}
    for a in grid:
        coeff = 32.0 * math.sqrt(2.0) * budget ** (1.0 - 1.0 / a)
        per_alpha[a] = solve(emp, coeff, a)
    best_alpha = min(per_alpha, key=per_alpha.get)
    return per_alpha, best_alpha, per_alpha[best_alpha]


def rad_smooth_oracle(emp: float, cap: float, m: int, delta: float, alpha: float):
    """rad-smooth's value and beta, for the smoothed-loss cap ``cap``."""
    complexity_part = cap / m
    confidence_part = (math.log(math.log(m)) + math.log(16.0 / delta)) / m
    beta = complexity_part + confidence_part
    inv = 1.0 / alpha
    raw = emp + (
        32.0 * math.sqrt(2.0) * emp**inv * beta ** (1.0 - inv)
        + 2.0 * 32.0 ** (alpha / (alpha - 1.0)) * beta
    )
    return raw, beta


def gamma_tau_oracle(alpha: float, eps: float, tau: float) -> float:
    """The moment-deviation factor Gamma_tau for any tau >= 0,

    (a-1)/a (1+tau)^{1/a}
      + (1/a) q (1 + ((a-1)/a)^a tau^{1/a})^{1/a} (1 + log(1/eps)/q)^{(a-1)/a}

    with q = (a/(a-1))^{a-1}.  The bounds use tau = 0, where the factors in
    tau are exactly 1.0 and ``relmargin.gamma_factor`` equals this to the bit."""
    q = (alpha / (alpha - 1.0)) ** (alpha - 1.0)
    first = (alpha - 1.0) / alpha * (1.0 + tau) ** (1.0 / alpha)
    inner = (1.0 + ((alpha - 1.0) / alpha) ** alpha * tau ** (1.0 / alpha)) ** (1.0 / alpha)
    bracket = (1.0 + math.log(1.0 / eps) / q) ** ((alpha - 1.0) / alpha)
    return first + (1.0 / alpha) * q * inner * bracket


def unbounded_oracle(emp_loss, moment, log_n, m, delta, alpha, rho, addend=0.0):
    """(eps_hat, gamma, value) of the finite-moment bound, or None where
    eps_hat > 1 (the bound does not apply)."""
    numerator = log_n + math.log(1.0 / delta) + addend
    eps_hat = math.sqrt(numerator / m ** (2.0 * (alpha - 1.0) / alpha))
    if eps_hat > 1.0:
        return None
    if eps_hat == 0.0:
        return 0.0, None, emp_loss + rho
    gamma = gamma_tau_oracle(alpha, eps_hat, 0.0)
    deviation = gamma * moment ** (1.0 / alpha) * eps_hat
    return eps_hat, gamma, emp_loss + deviation + rho


def compare_tightness_row_oracle(class_params, m: int, rho: float, emp: float, delta: float, c_prime: float):
    """One class-mode ``compare`` row: the cov-fat dimension and cover term
    beta = beta', the new form emp + 2 sqrt(emp beta) + beta and the old
    form c' sqrt(beta)."""
    from dataclasses import replace

    from relmargin.fatdim import cover_log_bound_from_fat, fat_dim_formula

    d = max(1.0, fat_dim_formula(replace(class_params, rho=rho)))
    beta = (cover_log_bound_from_fat(d, m) + math.log(1.0 / delta)) / m
    new_bound = emp + 2.0 * math.sqrt(emp * beta) + beta
    old_bound = c_prime * math.sqrt(beta)
    return {
        "emp": emp,
        "beta": beta,
        "beta_prime": beta,
        "new_bound": new_bound,
        "old_bound": old_bound,
        "new_smaller": new_bound < old_bound,
        "m": m,
        "rho": rho,
        "fat_dimension": d,
    }


def hypothesis_to_json_oracle(h) -> dict:
    """A hypothesis's JSON written key by key, one body per kind."""
    if h.kind == "linear":
        return {"kind": h.kind, "w": h.w.tolist(), "norm_cap": h.norm_cap}
    if h.kind == "stump":
        return {"kind": h.kind, "feature": h.feature, "threshold": h.threshold, "polarity": h.polarity}
    if h.kind == "ensemble":
        return {
            "kind": h.kind,
            "weights": h.weights.tolist(),
            "stumps": [hypothesis_to_json_oracle(s) for s in h.stumps],
        }
    if h.kind == "ffnn":
        return {
            "kind": h.kind,
            "layers": [m.tolist() for m in h.layers],
            "activation": h.activation,
            "row_cap": h.row_cap,
        }
    if h.kind == "table":
        return {"kind": h.kind, "values": {str(k): v for k, v in h.values.items()}}
    if h.kind == "truncated":
        return {"kind": h.kind, "rho": h.rho, "base": hypothesis_to_json_oracle(h.base)}
    raise ValueError(f"no oracle for hypothesis kind {h.kind!r}")


def report_to_json_oracle(obj) -> dict:
    """The JSON of a loss matrix, sample, complexity estimate or bound
    report, written key by key."""
    from dataclasses import asdict

    from relmargin import BoundReport, ComplexityEstimate, LabeledSample, LossMatrix
    from relmargin.bounds import FAMILIES

    if isinstance(obj, LossMatrix):
        return {"schema": "relmargin/loss-matrix/v1", "range_tag": obj.range_tag, "values": obj.values.tolist()}
    if isinstance(obj, LabeledSample):
        return {
            "schema": "relmargin/sample/v1",
            "points": obj.points.tolist(),
            "labels": obj.labels.astype(int).tolist(),
            "seed": obj.seed,
            "generator_id": obj.generator_id,
        }
    if isinstance(obj, ComplexityEstimate):
        return {
            "schema": "relmargin/complexity-estimate/v1",
            "value": obj.value,
            "method": obj.method,
            "trials": list(obj.trials),
            "seed": obj.seed,
            "stderr": obj.stderr,
            "details": dict(obj.details),
        }
    if isinstance(obj, BoundReport):
        data = asdict(obj)
        reads = ("m", "delta", *FAMILIES[obj.family].reads)
        data["params"] = {k: v if k in reads else None for k, v in data["params"].items()}
        return {"schema": "relmargin/bound-report/v1", **data}
    raise ValueError(f"no oracle for {type(obj).__name__}")


# ---------------------------------------------------------------------------
# the linear trainers as first written: the hinge trainer and the bound-min
# trainer each ran its own projected-subgradient loop, scoring every iterate
# with a second product; ``relmargin.training`` now runs one loop for both,
# and these copies hold it to the same floats.


def hinge_linear_oracle(sample, steps: int = 2000, seed: int = 0, step0: float = 1.0):
    """``train_hinge_linear`` as first written."""
    import numpy as np

    from relmargin import LinearHypothesis
    from relmargin.rng import substream

    signed = sample.labels[:, None] * sample.points
    m, n = signed.shape
    rng = substream(seed, "hinge-init")
    w = rng.standard_normal(n)
    w /= max(np.linalg.norm(w), 1e-12)
    best_w = w.copy()
    best_err = float(np.mean(signed @ w <= 0.0))
    for t in range(1, int(steps) + 1):
        margins = signed @ w
        active = margins < 1.0
        grad = -signed[active].sum(axis=0) / m
        w = w - (step0 / np.sqrt(t)) * grad
        nrm = np.linalg.norm(w)
        if nrm > 1.0:
            w = w / nrm
        err = float(np.mean(signed @ w <= 0.0))
        if err < best_err:
            best_err = err
            best_w = w.copy()
    return LinearHypothesis(best_w)


def _ramp_objective_oracle(signed_x, w, rho, lam):
    import numpy as np

    margins = signed_x @ w
    r = float(np.clip(1.0 - margins / rho, 0.0, 1.0).mean())
    return r + (lam / rho) * np.sqrt(r)


def ramp_descent_oracle(signed_x, w0, rho, lam, steps):
    """``kernels.ramp_descent`` as first written: projected subgradient
    descent on the ramp-loss + scaled-sqrt objective from w0 projected onto
    the unit ball; returns the best-so-far point and its objective."""
    import numpy as np

    signed_x = np.ascontiguousarray(signed_x, dtype=np.float64)
    rho, lam = float(rho), float(lam)
    m = signed_x.shape[0]
    w = np.array(w0, dtype=np.float64)
    nrm = np.sqrt(w @ w)
    if nrm > 1.0:
        w /= nrm
    best_w = w.copy()
    best_obj = _ramp_objective_oracle(signed_x, w, rho, lam)
    for t in range(1, int(steps) + 1):
        margins = signed_x @ w
        ramp = np.clip(1.0 - margins / rho, 0.0, 1.0)
        r = float(ramp.mean())
        active = (margins > 0.0) & (margins < rho)
        grad = -signed_x[active].sum(axis=0) / (m * rho)
        if r > 0.0:
            grad = grad * (1.0 + lam / (rho * 2.0 * np.sqrt(r)))
        w = w - (1.0 / np.sqrt(t)) * grad
        nrm = np.sqrt(w @ w)
        if nrm > 1.0:
            w /= nrm
        obj = _ramp_objective_oracle(signed_x, w, rho, lam)
        if obj < best_obj:
            best_obj = obj
            best_w = w.copy()
    return best_w, float(best_obj)


def bound_min_oracle(sample, lam, rho_grid, restarts: int = 4, seed: int = 0, steps: int = 1500):
    """``train_bound_min`` as first written, on the two loops above."""
    import numpy as np

    from relmargin import LinearHypothesis
    from relmargin.rng import substream

    signed = sample.labels[:, None] * sample.points
    n = signed.shape[1]
    warm = hinge_linear_oracle(sample, steps=min(steps, 800), seed=seed).w
    best = None
    record = []
    for ri, rho in enumerate(float(r) for r in rho_grid):
        for s in range(int(restarts)):
            if s == 0:
                w0 = warm.copy()
            else:
                rng = substream(seed, "restart", ri, s)
                w0 = rng.standard_normal(n)
                w0 /= max(np.linalg.norm(w0), 1e-12)
            init_obj = float(_ramp_objective_oracle(signed, w0, rho, lam))
            w_best, obj_best = ramp_descent_oracle(signed, w0, rho, lam, steps)
            record.append({"rho": rho, "restart": s, "initial_objective": init_obj, "objective": obj_best})
            if best is None or obj_best < best[0]:
                best = (obj_best, w_best, rho)
    objective, w, rho = best
    return LinearHypothesis(w), rho, {"objective": objective, "rho": rho, "restarts": record, "norm": float(np.linalg.norm(w))}
