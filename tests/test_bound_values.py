"""Each family's ``*_value`` against the formula its report builder once wrote
inline (``oracles``), array calls against scalar calls, and the peeling
closed form where its constant overflows."""

import json
import math

import numpy as np
import pytest
from oracles import (
    compare_tightness_row_oracle,
    rad_all_alpha_oracle,
    rad_implicit_oracle,
    rad_oracle,
    rad_smooth_oracle,
    unbounded_oracle,
)

from relmargin import (
    ApplicabilityError,
    BoundParams,
    FatDimParams,
    bound_rad,
    bound_rad_all_alpha,
    bound_rad_smooth,
    bound_unbounded,
    bound_unbounded_uniform_rho,
    compare_tightness,
    solve_relative,
)
from relmargin.bounds import (
    cov_alpha2_value,
    cov_alpha_value,
    cov_fat_class_value,
    cov_fat_value,
    loss_factored_value,
    rad_all_alpha_value,
    rad_smooth_value,
    rad_value,
    unbounded_value,
)
from relmargin.cli import main
from relmargin.rademacher import rm_upper_smooth

def _cases(seed, n=300):
    """n seeded (emp, m, delta, alpha) cases: emp = 0 and 1 among them, alpha
    in [1.01, 2] with 2 itself, m from 3 to 10^7."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        emp = (0.0, 1.0, float(rng.random()), float(rng.random() ** 6))[i % 4]
        m = 3 if i % 23 == 0 else int(10 ** rng.uniform(0.5, 7))
        delta = float(10 ** rng.uniform(-6, -0.01))
        alpha = 2.0 if i % 5 == 0 else float(rng.uniform(1.01, 2.0))
        yield rng, emp, max(m, 3), delta, alpha


def test_rad_matches_its_inline_formulas():
    for rng, emp, m, delta, alpha in _cases(1, 3000):
        rm = 0.0 if rng.random() < 0.2 else float(rng.uniform(0, 30))
        rep = bound_rad(emp, rm, BoundParams(m=m, delta=delta, alpha=alpha))
        raw, budget = rad_oracle(emp, rm, m, delta, alpha)
        solved, coeff = rad_implicit_oracle(emp, rm, m, delta, alpha, solve_relative)
        b = rep.breakdown
        assert (b["raw_bound_value"], b["budget"]) == (raw, budget)
        assert (b["implicit_solved_value"], b["implicit_coefficient"]) == (solved, coeff)


def test_rad_all_alpha_matches_its_inline_formula():
    for rng, emp, m, delta, _ in _cases(2):
        rm = float(rng.uniform(0, 30))
        grid = [float(a) for a in rng.uniform(1.01, 2.0, size=int(rng.integers(1, 6)))]
        rep = bound_rad_all_alpha(emp, rm, BoundParams(m=m, delta=delta), grid)
        per_alpha, best_alpha, raw = rad_all_alpha_oracle(emp, rm, m, delta, grid, solve_relative)
        assert rep.breakdown["per_alpha"] == {str(a): v for a, v in per_alpha.items()}
        assert (rep.breakdown["best_alpha"], rep.breakdown["raw_bound_value"]) == (best_alpha, raw)


def test_rad_smooth_matches_its_inline_formula():
    for i, (rng, emp, m, delta, alpha) in enumerate(_cases(3, 3000)):
        rho = float(10 ** rng.uniform(-2, 0.5))
        # most caps are small: at beta below ~0.01 the emp^{1/alpha} term is
        # not lost in the sum, so its power function shows in the last bit
        top = math.log10(m) - 0.1 if i % 5 == 0 else min(-2.0, math.log10(m) - 0.1)
        rmax = float(10 ** rng.uniform(-7, top))
        rep = bound_rad_smooth(emp, rmax, BoundParams(m=m, delta=delta, alpha=alpha, rho=rho))
        cap = rm_upper_smooth(rho, m, rmax)
        raw, beta = rad_smooth_oracle(emp, cap, m, delta, alpha)
        assert (rep.breakdown["raw_bound_value"], rep.breakdown["beta"], rep.complexity_term) == (raw, beta, cap)


def test_unbounded_matches_its_inline_formula():
    for i, (rng, _, m, delta, alpha) in enumerate(_cases(4)):
        emp_loss = float(rng.uniform(0, 5))
        moment = 0.0 if i % 7 == 0 else float(rng.uniform(0, 10))
        log_n = float(rng.uniform(0, 30))
        rho = float(10 ** rng.uniform(-2, 0.5))
        if i % 11 == 0:  # the eps_hat = 0 edge: a zero numerator
            log_n, delta = 0.0, 1.0
        params = BoundParams(m=m, delta=delta, alpha=alpha, rho=rho)
        expected = unbounded_oracle(emp_loss, moment, log_n, m, delta, alpha, rho)
        if expected is None:
            with pytest.raises(ApplicabilityError):
                bound_unbounded(emp_loss, moment, log_n, params)
            continue
        rep = bound_unbounded(emp_loss, moment, log_n, params)
        eps_hat, gamma, value = expected
        assert (rep.breakdown["eps_hat"], rep.breakdown["gamma"], rep.bound_value) == (eps_hat, gamma, value)
    assert unbounded_value(0.25, 0.0, BoundParams(m=100, delta=1.0, rho=0.5), 3.0) == (
        0.75,
        {"eps_hat": 0.0, "gamma": None},
    )


def test_unbounded_uniform_rho_matches_its_inline_formula():
    for rng, _, m, delta, alpha in _cases(5):
        emp_loss, moment, log_n = (float(v) for v in rng.uniform(0, 5, size=3))
        r = float(rng.uniform(0.5, 5))
        grid = sorted({float(v) for v in r * rng.uniform(0.01, 1.0, size=int(rng.integers(1, 6)))})
        params = BoundParams(m=m, delta=delta, alpha=alpha, r=r)
        expected = {}
        for rho in grid:
            addend = math.log(math.log2(2.0 * r / rho))
            got = unbounded_oracle(emp_loss, moment, log_n, m, delta, alpha, rho, addend)
            if got is not None:
                expected[str(rho)] = got
        if not expected:
            with pytest.raises(ApplicabilityError):
                bound_unbounded_uniform_rho(emp_loss, moment, log_n, grid, params)
            continue
        rep = bound_unbounded_uniform_rho(emp_loss, moment, log_n, grid, params)
        per_rho = rep.breakdown["per_rho"]
        assert {k: (v["eps_hat"], v["gamma"], v["bound_value"]) for k, v in per_rho.items()} == expected


@pytest.mark.parametrize(
    "class_params",
    [
        FatDimParams(kind="linear", radius=1.0),
        FatDimParams(kind="linear", radius=4.0),
        FatDimParams(kind="ensemble", vc_dim=3.0),
    ],
)
def test_compare_rows_match_their_inline_formula(class_params):
    rng = np.random.default_rng(6)
    m_grid = [int(v) for v in 10 ** rng.uniform(2, 7, size=4)]
    rho_grid = [float(v) for v in rng.uniform(0.05, 0.95, size=3)]
    emp_grid = [0.0, 1.0] + [float(v) for v in rng.random(4) ** 2]
    delta, c_prime = 0.01, 1.5
    rows = compare_tightness(class_params, m_grid, rho_grid, emp_grid, delta=delta, c_prime=c_prime)["rows"]
    expected = [
        compare_tightness_row_oracle(class_params, m, rho, emp, delta, c_prime)
        for m in m_grid
        for rho in rho_grid
        for emp in emp_grid
    ]
    assert rows == expected


# ---------------------------------------------------------------------------
# array calls equal scalar calls, element for element

_P = BoundParams(m=5000, delta=0.05, alpha=1.37, rho=0.3, r=2.0)
_VALUE_CALLS = {
    "cov-alpha": lambda emp: cov_alpha_value(emp, 7.5, _P, 0.4),
    "cov-alpha2": lambda emp: cov_alpha2_value(emp, 7.5, BoundParams(m=5000, delta=0.05)),
    "cov-fat": lambda emp: cov_fat_value(emp, 40.0, _P),
    "cov-fat-class": lambda emp: cov_fat_class_value(emp, FatDimParams(kind="linear", radius=2.0, rho=0.3), 5000, 0.05),
    "loss-factored": lambda emp: (loss_factored_value(emp, 0.013), {}),
    "rad": lambda emp: rad_value(emp, 3.2, _P),
    "rad-all-alpha": lambda emp: rad_all_alpha_value(emp, 3.2, _P, [1.1, 1.5, 2.0]),
    "rad-smooth": lambda emp: rad_smooth_value(emp, 40.0, _P),
    "unbounded": lambda emp: unbounded_value(emp, 7.5, BoundParams(m=10**6, delta=0.05, alpha=1.37), 2.0, 0.4),
}


@pytest.mark.parametrize("name", sorted(_VALUE_CALLS))
def test_value_functions_take_arrays(name):
    emp = np.concatenate([[0.0, 1.0], np.random.default_rng(7).random(200) ** 3]).reshape(2, 101)
    values, terms = _VALUE_CALLS[name](emp)
    assert np.shape(values) == emp.shape
    for e, v in zip(emp.ravel().tolist(), np.ravel(values).tolist()):
        scalar, scalar_terms = _VALUE_CALLS[name](e)
        assert float(scalar) == v
        if name != "rad-all-alpha":  # its terms hold a value per alpha
            assert scalar_terms == terms


# ---------------------------------------------------------------------------
# the peeling constant 32^{alpha/(alpha-1)} overflows below alpha ~ 1.0049


@pytest.mark.parametrize("alpha", [1.001, 1.0049])
def test_peeling_closed_form_overflow_is_inf_and_vacuous(alpha):
    params = BoundParams(m=1000, delta=0.05, alpha=alpha, rho=0.5)
    for rep in (bound_rad(0.1, 1.0, params), bound_rad_smooth(0.1, 10.0, params)):
        assert rep.breakdown["raw_bound_value"] == math.inf
        assert (rep.bound_value, rep.vacuous, rep.clamped) == (1.0, True, True)
    values, _ = rad_value(np.array([0.0, 0.5]), 1.0, params)
    assert np.all(values == math.inf)


@pytest.mark.parametrize("family,flags", [("rad", ["--rm", "1.0"]), ("rad-smooth", ["--rmax", "10"])])
def test_cli_peeling_bound_at_alpha_near_1(capsys, family, flags):
    argv = ["bound", "--family", family, "--emp", "0.1", "--m", "1000", "--delta", "0.05", "--alpha", "1.001"]
    assert main(argv + flags + ["--explain"]) == 0
    out, err = capsys.readouterr()
    data = json.loads(out)
    assert (data["bound_value"], data["vacuous"], data["clamped"]) == (1.0, True, True)
    assert data["breakdown"]["raw_bound_value"] == "Infinity"
    assert "raw_bound_value = inf" in err and "nan" not in out + err


def test_campaign_with_rad_at_alpha_near_1(tmp_path, capsys):
    cfg = {
        "distribution": {"kind": "two-gaussian-mixture", "dim": 3},
        "pool": {"kind": "linear", "size": 6},
        "params": {"m": 50, "delta": 0.05, "alpha": 1.001, "rho": 0.2},
        "families": ["rad"],
        "trials": 8,
        "seed": 5,
        "complexity": {"peel_draws": 2, "n_sigma": 64},
    }
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate", "--config", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["families"]["rad"]["violations"] == 0
    assert {row[4] for row in report["rows"]} == {1.0}
