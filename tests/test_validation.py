import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from relmargin import (
    BoundParams,
    ExperimentConfig,
    InputError,
    TwoGaussianMixture,
    bound_cov_alpha2,
    bound_rad,
    exact_binomial_ci,
    validate_bounds,
)
from relmargin import validation
from relmargin.cli import main
from relmargin.rng import _Substreams
from relmargin.reportio import canonical_json
from relmargin.bounds import FAMILIES
from relmargin.validation import SUPPORTED_FAMILIES, family_bound_values

from oracles import exact_violation_bracket, per_trial_campaign

REFERENCE_CAMPAIGN = Path(__file__).parent.parent / "configs/reference-campaign.json"


def _config(trials=40, families=("cov-alpha2",), m=60, pool=8, **kw):
    data = {
        "distribution": {"kind": "two-gaussian-mixture", "dim": 3, "separation": 1.0, "sigma": 1.0},
        "pool": {"kind": "linear", "size": pool},
        "params": {"m": m, "delta": 0.05, "alpha": 2.0, "rho": 0.2},
        "families": list(families),
        "trials": trials,
        "seed": 99,
        "complexity": {"cover_draws": 8, "peel_draws": 8, "n_sigma": 128},
    }
    data.update(kw)
    return ExperimentConfig.from_json(data)


def test_exact_binomial_ci():
    lo, hi = exact_binomial_ci(0, 100)
    assert lo == 0.0 and 0.03 < hi < 0.05
    lo2, hi2 = exact_binomial_ci(100, 100)
    assert hi2 == 1.0 and lo2 > 0.95
    lo3, hi3 = exact_binomial_ci(5, 100)
    assert lo3 < 0.05 < hi3


def test_config_rejects_unknown_keys():
    with pytest.raises(InputError):
        ExperimentConfig.from_json({"bogus": 1})
    with pytest.raises(InputError):
        _config(complexity={"mystery": 2})
    with pytest.raises(InputError):
        _config(families=("pac-bayes",))
    with pytest.raises(InputError):
        _config(params={"m": 60, "delta": 0.05, "shape": 1})
    # tau is not a bound parameter: no bound formula reads it
    with pytest.raises(InputError, match="tau"):
        _config(params={"m": 60, "delta": 0.05, "tau": 0.5})


def test_cov_alpha2_rejects_another_alpha_in_a_campaign_and_a_report():
    params = {"m": 60, "delta": 0.05, "alpha": 1.5, "rho": 0.2}
    # the config is refused when it is built, before any draw
    with pytest.raises(InputError, match="cov-alpha2 is the alpha = 2 specialization; alpha must be 2, got 1.5"):
        _config(families=("rad", "cov-alpha2"), params=params)
    with pytest.raises(InputError, match="alpha must be 2, got 1.5"):
        bound_cov_alpha2(0.1, 3.0, BoundParams(**params))
    assert _config(families=("cov-alpha", "rad"), params=params).params.alpha == 1.5


def test_rad_rejects_m_below_3_in_a_campaign_and_a_report():
    params = {"m": 2, "delta": 0.05, "alpha": 2.0, "rho": 0.2}
    # the config is refused when it is built, before any draw
    with pytest.raises(InputError, match="peeling families need params.m >= 3"):
        _config(families=("cov-alpha2", "rad"), params=params)
    with pytest.raises(InputError, match="peeling families need params.m >= 3"):
        bound_rad(0.1, 1.0, BoundParams(**params))
    assert _config(families=("cov-alpha2",), params=params).params.m == 2
    assert _config(families=("rad",), m=3).params.m == 3


def test_campaign_runs_and_rates_are_small():
    report = validate_bounds(_config(families=("cov-alpha2", "rad")))
    for fam in ("cov-alpha2", "rad"):
        rec = report.families[fam]
        assert rec["trials"] == 40
        assert 0.0 <= rec["violation_rate"] <= 1.0
        assert rec["violation_rate"] <= 0.05  # conservative bounds: expect no violations
        assert rec["ci95"][0] <= rec["violation_rate"] <= rec["ci95"][1]
        assert rec["event"] == "uniform-over-pool"
    assert len(report.rows) == 2 * 40


def test_campaign_reports_match_bound_functions():
    # the campaign families are the records with an array formula, and each
    # judges exactly what its record's builder reports
    assert SUPPORTED_FAMILIES == ("cov-alpha", "cov-alpha2", "cov-fat", "rad")
    emp = np.append(np.linspace(0.0, 1.0, 301), 0.13)
    for alpha in (2.0, 1.37):
        families = [fam for fam in SUPPORTED_FAMILIES if alpha == 2.0 or fam != "cov-alpha2"]
        cfg = _config(trials=6, families=families, params={"m": 60, "delta": 0.05, "alpha": alpha, "rho": 0.2})
        report = validate_bounds(cfg)
        for fam in families:
            complexity = report.families[fam]["complexity"]["value"]
            vec = family_bound_values(fam, emp, complexity, cfg.params)
            for e, v in zip(emp, vec):
                built = FAMILIES[fam].build(float(e), complexity, cfg.params)
                assert built.family == fam
                assert built.bound_value == v, (fam, alpha, e)


def test_campaign_deterministic_and_thread_invariant():
    # blocks of 136 trials at m = 60 (one block), of 40 at m = 200 (40, 40
    # and 20) and of one at m = 5000
    for trials, m in ((12, 60), (100, 200), (5, 5000)):
        cfg = _config(trials=trials, m=m)
        a = validate_bounds(cfg, threads=1)
        b = validate_bounds(cfg, threads=4)
        assert canonical_json(a.to_json()) == canonical_json(b.to_json())
        c = validate_bounds(_config(trials=trials, m=m, seed=100))
        assert canonical_json(a.to_json()) != canonical_json(c.to_json())


def test_campaign_environment_does_not_leak_thread_count():
    cfg = _config(trials=3)
    report = validate_bounds(cfg, threads=3)
    assert "threads" not in report.environment


def test_holdout_risk_mode():
    cfg = _config(trials=4, risk={"mode": "holdout", "n": 20000})
    report = validate_bounds(cfg)
    assert report.families["cov-alpha2"]["violations"] == 0


def test_rows_csv_schema_shape():
    report = validate_bounds(_config(trials=3))
    for row in report.rows:
        fam, trial, emp, complexity, bound, risk, violated = row
        assert fam == "cov-alpha2"
        assert 0 <= trial < 3
        assert 0.0 <= emp <= 1.0
        assert 0.0 <= bound <= 1.0
        assert 0.0 <= risk <= 1.0
        assert violated in (0, 1)


def test_shared_cover_estimate_runs_once_and_keeps_bytes(monkeypatch):
    from relmargin import validation

    calls = []
    real = validation.covering_number_linf

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(validation, "covering_number_linf", counting)
    both = validate_bounds(_config(trials=5, families=("cov-alpha", "cov-alpha2"))).to_json()
    assert len(calls) == 8  # cover_draws, not 2 x cover_draws
    for fam in ("cov-alpha", "cov-alpha2"):
        alone = validate_bounds(_config(trials=5, families=(fam,))).to_json()
        assert canonical_json(both["families"][fam]) == canonical_json(alone["families"][fam])
        rows = [r for r in both["rows"] if r[0] == fam]
        assert canonical_json(rows) == canonical_json(alone["rows"])
    assert set(both["environment"]) == {"seed", "package_version", "delta"}


_HOLDOUT = {"mode": "holdout", "n": 5000}


@pytest.mark.parametrize("alpha", [2.0, 1.5])
@pytest.mark.parametrize(
    "extra",
    [
        {},
        # holdout risks, on the mixture and on data with no closed-form risk
        {"risk": _HOLDOUT},
        {"risk": _HOLDOUT, "distribution": {"kind": "margin-separable-with-noise", "dim": 3}},
        # at the default block size, blocks of 163 trials and 37, and of 6
        # trials and one
        {"trials": 200, "m": 200},
        {"trials": 7, "m": 5000},
    ],
    ids=[f"uniform-pool-extra{i}" for i in range(5)],
)
def test_campaign_judge_matches_per_trial_oracle(monkeypatch, extra, alpha):
    # m = 3000 puts most bounds below 1 at both alphas
    families = ("cov-alpha", "cov-alpha2", "rad") if alpha == 2.0 else ("cov-alpha", "rad")
    extra = dict(extra)
    m = extra.pop("m", 3000)
    cfg = _config(
        trials=extra.pop("trials", 24),
        families=families,
        m=m,
        params={"m": m, "delta": 0.05, "alpha": alpha, "rho": 0.2},
        complexity={"cover_draws": 2, "peel_draws": 2, "n_sigma": 64},
        **extra,
    )
    # a block of trials holds _BLOCK_ROWS // width of them
    width = max(m, cfg.pool["size"])
    # the default blocks, and blocks of one trial, of 7 trials and of about
    # half the trials, which split every shape here unevenly
    block_rows = (validation._BLOCK_ROWS, width, 7 * width, (cfg.trials // 2 + 1) * width)

    def judged_as_the_oracle():
        families_out, rows = per_trial_campaign(cfg)
        for points in block_rows:
            monkeypatch.setattr(validation, "_BLOCK_ROWS", points)
            for threads in (1, 2):
                report = validate_bounds(cfg, threads=threads)
                assert report.families == families_out
                assert report.rows == tuple(rows)
        return report, rows

    report, rows = judged_as_the_oracle()
    if (m, alpha) == (200, 1.5):
        # every bound is clamped at 1 there, so the judge's rows are all
        # alike and no shift of the bounds can split the trials
        return
    assert any(row[4] < 1.0 for row in rows if row[0] == "cov-alpha")

    # lowered just past the worst cov-alpha margin, bounds fail in some trials
    shift = 0.01 - report.families["cov-alpha"]["worst_violation_margin"]
    real = validation.family_bound_values
    monkeypatch.setattr(validation, "family_bound_values", lambda *args: real(*args) - shift)
    report, _ = judged_as_the_oracle()
    assert 0 < report.families["cov-alpha"]["violations"] < cfg.trials


@pytest.mark.parametrize("alpha", [1.5, 2.0])
@pytest.mark.parametrize("m", [1, 3, 200, 5001])
@pytest.mark.parametrize("family", SUPPORTED_FAMILIES)
def test_count_table_is_the_formula_on_the_count_matrix(family, m, alpha):
    # the judge reads a member's bound at index k of the family's formula on
    # the m + 1 terms k / m; that is exact only because each formula is
    # elementwise in emp and never raises for emp in [0, 1]
    params = {"m": m, "delta": 0.05, "alpha": alpha, "rho": 0.2}
    try:
        cfg = _config(families=(family,), m=m, params=params)
    except InputError:
        # cov-alpha2 at alpha != 2 and rad at m < 3: no campaign judges these
        assert (family, alpha) == ("cov-alpha2", 1.5) or (family, m) == ("rad", 1)
        return
    rng = np.random.default_rng(m)
    counts = rng.integers(0, m + 1, size=(37, 11), dtype=np.int32)
    counts[0, :2] = 0, m
    values = {"logN": (0.0, np.log(50.0), 25.0), "rm": (0.0, 0.0734, 2.5), "fat_d": (1.0, 6.25)}
    for value in values[FAMILIES[family].complexity]:
        table = family_bound_values(family, np.arange(m + 1) / m, value, cfg.params)
        direct = family_bound_values(family, counts / m, value, cfg.params)
        assert table.shape == (m + 1,) and np.all(np.isfinite(table))
        assert np.array_equal(table[counts].view(np.uint64), direct.view(np.uint64)), value


def test_campaign_memory_grows_with_the_report_not_with_trials_times_pool():
    import tracemalloc

    def peak(trials):
        cfg = _config(
            trials=trials,
            pool=50,
            m=200,
            params={"m": 200, "delta": 0.05, "alpha": 2.0, "rho": 0.2},
            complexity={"cover_draws": 2, "peel_draws": 2, "n_sigma": 64, "exact_cap": 50},
        )
        tracemalloc.start()
        try:
            report = validate_bounds(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(report.rows) == trials
        return peak

    # a report row of one family is 45 bytes; one trials x pool int32 count
    # matrix alone would add 200 bytes a trial
    grown = (peak(40_000) - peak(10_000)) / 30_000
    assert grown < 60, grown


def _count_trial_draws(monkeypatch, cls):
    """A list that gets one entry per ``sample_many`` call of ``cls`` on a
    block of trial substreams: the number of trials drawn."""
    calls = []
    real = cls.sample_many

    def counted(self, m, rngs):
        if isinstance(rngs, _Substreams):
            calls.append(len(rngs))
        return real(self, m, rngs)

    monkeypatch.setattr(cls, "sample_many", counted)
    return calls


def test_a_failing_family_table_draws_no_trial(monkeypatch, capsys):
    calls = _count_trial_draws(monkeypatch, TwoGaussianMixture)
    argv = ["validate", "--config", str(REFERENCE_CAMPAIGN), "--set", "params.delta=1000000"]
    assert main([*argv, "--set", "complexity.cover_draws=2", "--set", "complexity.peel_draws=2"]) == 2
    assert capsys.readouterr().err == "input error: complexity + confidence numerator is negative\n"
    assert calls == []


def test_a_block_holds_at_most_block_rows_points_and_pairs(monkeypatch):
    # at m = 3 with 40 members, the pool sets the block: 10 trials of 400
    calls = _count_trial_draws(monkeypatch, TwoGaussianMixture)
    monkeypatch.setattr(validation, "_BLOCK_ROWS", 400)
    validate_bounds(_config(trials=35, m=3, pool=40, complexity={"cover_draws": 1, "cover_mode": "greedy"}))
    assert calls == [10, 10, 10, 5]
    calls.clear()
    validate_bounds(_config(trials=35, m=60, pool=40, complexity={"cover_draws": 1, "cover_mode": "greedy"}))
    assert calls == [6] * 5 + [5]


def test_margin_counts_match_the_m_by_pool_count():
    # dyadic points, weights and rho make every margin exact, so some equal rho
    rng = np.random.default_rng(21)
    rho = 0.25
    for m, pool, dim in ((1, 1, 1), (9, 4, 2), (64, 50, 4), (201, 7, 3), (2100, 3, 2)):
        x = rng.integers(-8, 9, size=(m, dim)) / 8.0
        y = np.where(rng.random(m) < 0.5, -1.0, 1.0)
        w_stack = rng.integers(-4, 5, size=(pool, dim)) / 4.0
        w_stack[0] = 0.0
        w_stack[0, 0] = 2.0
        x[0] = 0.0
        x[0, 0] = y[0] * 0.125  # margin of member 0 on point 0 is exactly rho
        margins = (y[:, None] * x) @ w_stack.T
        assert margins[0, 0] == rho
        want = np.count_nonzero(margins < rho, axis=0)
        assert np.array_equal(validation._margin_counts(w_stack, x[None], y[None], rho), want[None])
        # the same sample in blocks of several trials, next to other samples;
        # the blocks end just before, at and past a chunk of whole trials
        step = max(1, validation._COUNT_POINTS // m)
        for n, at in ((2, 0), (3, 1), (5, 4), (step + 1, step), (2 * step + 1, step - 1), (step, step - 1)):
            xs = rng.integers(-8, 9, size=(n, m, dim)) / 8.0
            ys = np.where(rng.random((n, m)) < 0.5, -1.0, 1.0)
            xs[at], ys[at] = x, y
            counts = validation._margin_counts(w_stack, xs, ys, rho)
            assert counts.shape == (n, pool) and np.array_equal(counts[at], want)
            for b in range(n):
                margins = (ys[b][:, None] * xs[b]) @ w_stack.T
                assert np.array_equal(counts[b], np.count_nonzero(margins < rho, axis=0))


# the families of the weakened-bound harness, as the package defines them
_UNWEAKENED = {fam: FAMILIES[fam] for fam in ("cov-alpha", "cov-alpha2", "rad")}


def _weakened_campaigns(monkeypatch, scales, threads):
    """{s: the report} of the reference pool's campaign at m = 1000, rho =
    0.01, separation 4 and sigma 1 (300 trials, 4 + 4 draws), with each
    family's deviation from emp scaled by s before the clamp: its value is
    emp + s (raw - emp).  Each report's families also carry the exact
    violation bracket of the family's table under ``"bracket"``."""
    data = json.loads(REFERENCE_CAMPAIGN.read_text())
    data["distribution"]["separation"] = 4.0
    data["params"].update(m=1000, rho=0.01)
    data["complexity"].update(cover_draws=4, peel_draws=4)
    cfg = ExperimentConfig.from_json({**data, "families": list(_UNWEAKENED), "trials": 300})
    p, dist = cfg.params, cfg.distribution
    ws = np.stack([h.w for h in validation._build_pool(cfg, dist)])

    def weakened(record, s):
        def value(emp, complexity, params):
            raw, terms = record.value(emp, complexity, params)
            return emp + s * (raw - emp), terms

        return dataclasses.replace(record, value=value)

    reports = {}
    for s in scales:
        for fam, record in _UNWEAKENED.items():
            monkeypatch.setitem(FAMILIES, fam, weakened(record, s))
        report = validate_bounds(cfg, threads=threads)
        for fam, out in report.families.items():
            table = family_bound_values(fam, np.arange(p.m + 1) / p.m, out["complexity"]["value"], p)
            out["bracket"] = exact_violation_bracket(table, ws, p.m, p.rho, dist.separation, dist.sigma, dist.radius)
        reports[s] = report
    return reports


@pytest.mark.parametrize("threads", [1, 2])
def test_a_campaign_catches_a_family_weakened_by_a_fixed_scale(monkeypatch, threads):
    """A family whose deviation is scaled down by a fixed s must be caught:
    cov-alpha and cov-alpha2 at s = 0.25, with a violation CI above delta.
    rad is caught only at s = 0.001 of the grid, about 10^3 times looser
    than a failure needs; a change to rad that moves this updates the
    assertion.  Every Monte-Carlo CI meets the exact violation bracket.

    cov-fat stays out: at rho = 0.01 its table raises DomainError (2 c e m /
    d <= 1), and at every shape tried it reads 1 on every row, so no scale
    can be caught there."""
    rad_grid = (0.1, 0.03, 0.01, 0.003, 0.001)
    reports = _weakened_campaigns(monkeypatch, (1, 0.25, *rad_grid), threads)
    violations = {s: {fam: out["violations"] for fam, out in r.families.items()} for s, r in reports.items()}
    assert violations[1] == {"cov-alpha": 0, "cov-alpha2": 0, "rad": 0}
    assert violations[0.25] == {"cov-alpha": 102, "cov-alpha2": 60, "rad": 0}
    assert violations[0.1] == {"cov-alpha": 288, "cov-alpha2": 271, "rad": 0}
    delta = reports[0.25].environment["delta"]
    assert reports[0.25].families["cov-alpha"]["ci95"][0] > delta
    assert reports[0.25].families["cov-alpha2"]["ci95"][0] > delta
    assert max(s for s in rad_grid if violations[s]["rad"]) == 0.001
    assert (violations[0.003]["rad"], violations[0.001]["rad"]) == (0, 164)
    for report in reports.values():
        for out in report.families.values():
            (lo, hi), (ci_lo, ci_hi) = out["bracket"], out["ci95"]
            assert ci_lo <= hi and lo <= ci_hi


def test_the_exact_bracket_of_the_weakened_families(monkeypatch):
    reports = _weakened_campaigns(monkeypatch, (1, 0.25, 0.1), threads=1)
    want = {
        1: {"cov-alpha": (2.7e-10, 2.2e-9), "cov-alpha2": (2.7e-13, 1.8e-12)},
        0.25: {"cov-alpha": (0.0335, 0.565), "cov-alpha2": (0.0171, 0.269)},
        0.1: {"cov-alpha": (0.208, 1.0), "cov-alpha2": (0.169, 1.0)},
    }
    for s, brackets in want.items():
        for fam, bracket in brackets.items():
            assert reports[s].families[fam]["bracket"] == pytest.approx(bracket, rel=0.02)
    # the clip widens rad's empty bracket to m P(||x|| > radius) = 5.0e-20
    assert reports[1].families["rad"]["bracket"] == pytest.approx((0.0, 5.0e-20), rel=0.01)
