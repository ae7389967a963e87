import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import bisect_relative, gamma_tau_oracle

from relmargin import (
    ApplicabilityError,
    BoundParams,
    DataError,
    DomainError,
    InputError,
    bound_cov_alpha,
    bound_cov_alpha2,
    bound_cov_fat,
    bound_cov_uniform_rho,
    bound_rad,
    bound_rad_all_alpha,
    bound_rad_smooth,
    bound_unbounded,
    bound_unbounded_uniform_rho,
    explicit_lemma_d1,
    gamma_factor,
    solve_relative,
)
from relmargin.bounds import cov_alpha2_value, cov_alpha_value, cov_fat_value, rad_value
from relmargin.estimates import ComplexityEstimate
from relmargin.fatdim import FAT_COVER_CONSTANT


def P(m=1000, delta=0.05, alpha=2.0, rho=1.0, r=None):
    return BoundParams(m=m, delta=delta, alpha=alpha, rho=rho, r=r)


# ---------------------------------------------------------------------------
# solver and explicit conversion


def test_solve_relative_examples():
    assert solve_relative(0.3, 0.0, 2.0) == 0.3
    # quadratic oracle: sqrt(x) = (C + sqrt(C^2 + 4 b)) / 2
    s = (0.2 + math.sqrt(0.2**2 + 4 * 0.1)) / 2.0
    assert solve_relative(0.1, 0.2, 2.0) == pytest.approx(s * s, rel=1e-10)
    assert solve_relative(0.0, 1.0, 2.0) == pytest.approx(1.0, rel=1e-10)


def test_solve_relative_fixed_point_residual():
    rng = np.random.default_rng(0)
    for _ in range(500):
        b = float(rng.uniform(0, 2))
        c = float(rng.uniform(0, 3))
        alpha = float(rng.uniform(1.01, 2.0))
        x = solve_relative(b, c, alpha)
        assert abs(x - (b + c * x ** (1 / alpha))) <= 1e-10 * max(1.0, x)


@given(
    b=st.floats(0, 5, allow_nan=False),
    c=st.floats(0, 5, allow_nan=False),
    alpha=st.floats(1.01, 2.0, allow_nan=False),
)
@settings(max_examples=300, deadline=None)
def test_solve_relative_dominates_feasible_points(b, c, alpha):
    x_star = solve_relative(b, c, alpha)
    assert explicit_lemma_d1(b, c, alpha) >= x_star - 1e-9
    # every x on [0, x*] bracket satisfying the inequality stays below x*
    for x in (0.0, b, 0.5 * x_star):
        if x <= b + c * x ** (1 / alpha):
            assert x <= x_star + 1e-9


def test_solve_relative_array_matches_scalar_bisection():
    rng = np.random.default_rng(11)
    b = np.concatenate([[0.0, 5.0], rng.uniform(0.0, 5.0, 60)])
    alphas = np.concatenate([[2.0], rng.uniform(1.0, 2.0, 11)])
    for alpha in alphas:
        alpha = float(max(alpha, 1.001))
        for c in np.concatenate([[5.0], rng.uniform(0.0, 5.0, 4)]):
            c = float(c)
            got = solve_relative(b, c, alpha)
            assert isinstance(got, np.ndarray) and got.shape == b.shape
            for bi, gi in zip(b, got):
                assert gi == pytest.approx(bisect_relative(float(bi), c, alpha), rel=1e-11)
                assert solve_relative(float(bi), c, alpha) == gi


def test_solve_relative_keeps_any_shape():
    b = np.array([[0.0, 0.1, 2.5], [1e-9, 4.0, 1e300]])
    for alpha in (1.2, 1.5, 1.9):
        for shaped in (b, b.reshape(3, 1, 2)):
            got = solve_relative(shaped, 1.0, alpha)
            assert got.shape == shaped.shape
            for bi, gi in zip(shaped.ravel(), got.ravel()):
                assert solve_relative(float(bi), 1.0, alpha) == gi


def test_solve_relative_zero_coefficient_returns_b():
    b = np.array([[0.0, 0.25], [1.5, 4.0]])
    for alpha in (1.3, 2.0):
        assert np.array_equal(solve_relative(b, 0.0, alpha), b)
        assert solve_relative(0.37, 0.0, alpha) == 0.37


def test_solve_relative_overflow_is_inf():
    assert solve_relative(0.5, 1e200, 2.0) == math.inf
    assert solve_relative(0.5, 1e20, 1.05) == math.inf == bisect_relative(0.5, 1e20, 1.05)
    mixed = solve_relative(np.array([0.5, 1e300]), 1.0, 1.5)
    assert mixed[0] == pytest.approx(bisect_relative(0.5, 1.0, 1.5), rel=1e-11)
    assert mixed[1] == math.inf == bisect_relative(1e300, 1.0, 1.5)


def test_solve_relative_rejects_negative_or_nan_inputs():
    for b, c in ((-0.1, 1.0), (np.array([0.1, math.nan]), 1.0), (0.1, -1.0), (0.1, math.nan)):
        with pytest.raises(InputError, match="must be finite and >= 0"):
            solve_relative(b, c, 1.5)


def test_solve_relative_scalar_input_returns_float():
    for b, c, alpha in ((0.1, 0.2, 2.0), (0.1, 0.2, 1.5), (0.1, 0.0, 1.5), (np.float64(0.3), 1.0, 2.0)):
        assert type(solve_relative(b, c, alpha)) is float
    assert type(solve_relative(0.5, 1e20, 1.05)) is float


def test_lemma_d1_examples():
    assert explicit_lemma_d1(1.0, 0.0, 2.0) == 1.0
    assert explicit_lemma_d1(1.0, 1.0, 2.0) == 7.0
    expected = 0.1 + 0.4 * math.sqrt(0.1) + 0.16
    assert explicit_lemma_d1(0.1, 0.2, 2.0) == pytest.approx(expected, rel=1e-12)
    assert explicit_lemma_d1(0.1, 0.2, 2.0) >= solve_relative(0.1, 0.2, 2.0)


def test_gamma_factor_values():
    assert gamma_factor(2.0, 1.0) == 1.5
    assert gamma_factor(2.0, math.exp(-2.0)) == pytest.approx(0.5 + math.sqrt(2.0), rel=1e-12)
    with pytest.raises(InputError):
        gamma_factor(2.0, 1.5)


def test_gamma_factor_monotonicity_and_tau_limit():
    eps = np.linspace(0.01, 1.0, 50)
    vals = [gamma_factor(1.7, float(e)) for e in eps]
    assert all(a >= b for a, b in zip(vals, vals[1:]))  # decreasing in eps
    # the general Gamma_tau tends to the factor the bounds use as tau -> 0
    for tau in (1e-9, 1e-6, 1e-3):
        drift = abs(gamma_tau_oracle(1.5, 0.3, tau) - gamma_factor(1.5, 0.3))
        assert drift <= 5.0 * tau ** (1.0 / 1.5) + 1e-12


def test_gamma_factor_is_gamma_tau_at_zero_to_the_bit():
    # the tau-free formula drops factors that are exactly 1.0 at tau = 0
    for alpha in (1.0001, 1.01, 1.2, 1.5, 1.7, 1.9, 1.999, 2.0):
        for eps in (1e-300, 1e-12, 1e-6, 0.01, 0.1, 0.3, 0.5, 0.77, 0.999, 1.0):
            assert gamma_factor(alpha, eps) == gamma_tau_oracle(alpha, eps, 0.0)


# ---------------------------------------------------------------------------
# covering-number families


def test_cov_alpha_degenerate_confidence():
    rep = bound_cov_alpha(0.3, 0.0, P(delta=1.0))
    assert rep.bound_value == pytest.approx(0.3)


def test_cov_alpha_zero_empirical_closed_form():
    # emp = 0: x = C sqrt(x) has largest root C^2, with C = 2 sqrt(c)
    rep = bound_cov_alpha(0.0, 0.0, P(m=100, delta=math.exp(-1.0)))
    c = 1.0 / 100.0
    assert rep.bound_value == pytest.approx(4.0 * c, rel=1e-9)
    assert rep.solver == "root-find"


def test_cov_alpha_solver_selection():
    p = P(m=2000, delta=0.05)
    fixed = bound_cov_alpha(0.1, 3.0, p)
    loose = bound_cov_alpha(0.1, 3.0, p, solver="lemma-D1")
    assert fixed.solver == "root-find" and loose.solver == "lemma-D1"
    assert loose.breakdown["raw_bound_value"] >= fixed.breakdown["raw_bound_value"]
    assert fixed.breakdown["explicit_conversion_value"] == loose.breakdown["raw_bound_value"]
    with pytest.raises(InputError):
        bound_cov_alpha(0.1, 3.0, p, solver="newton")


def test_cov_alpha_m_exponent():
    # the sample-size exponent 2(alpha-1)/alpha: 1 at alpha=2, 2/3 at alpha=1.5
    for alpha, expo in ((2.0, 1.0), (1.5, 2.0 / 3.0)):
        rep = bound_cov_alpha(0.0, 3.0, P(m=500, alpha=alpha))
        expected_c = 2 ** ((alpha + 2) / (2 * alpha)) * math.sqrt(
            (3.0 + math.log(1 / 0.05)) / 500**expo
        )
        assert rep.breakdown["coefficient"] == pytest.approx(expected_c, rel=1e-12)


def test_cov_alpha2_examples():
    rep = bound_cov_alpha2(0.0, 0.0, P(m=100, delta=math.exp(-1.0)))  # c = 0.01
    assert rep.bound_value == pytest.approx(0.04)
    rep2 = bound_cov_alpha2(0.25, 0.0, P(m=100, delta=math.exp(-1.0)))
    assert rep2.bound_value == pytest.approx(0.39)
    rep3 = bound_cov_alpha2(0.17, 0.0, P(delta=1.0))  # c = 0
    assert rep3.bound_value == pytest.approx(0.17)
    with pytest.raises(InputError):
        bound_cov_alpha2(0.1, 1.0, P(alpha=1.5))


def test_cov_alpha2_dominates_solved_alpha2():
    rng = np.random.default_rng(1)
    for _ in range(200):
        emp = float(rng.uniform(0, 0.9))
        log_n = float(rng.uniform(0, 30))
        p = P(m=int(rng.integers(10, 5000)), delta=float(rng.uniform(0.01, 0.5)))
        closed = bound_cov_alpha2(emp, log_n, p).breakdown["raw_bound_value"]
        solved = bound_cov_alpha(emp, log_n, p).breakdown["raw_bound_value"]
        assert closed >= solved - 1e-9


def test_cov_fat_frozen_pipeline_value():
    # linear class radius 1, margin 0.5 -> dimension 4; m=1000, delta=0.05
    rep = bound_cov_fat(0.0, 4.0, P(m=1000, delta=0.05))
    assert rep.bound_value == 1.0  # clamped: the raw value is vacuous at this size
    assert rep.vacuous and rep.clamped
    assert rep.breakdown["raw_bound_value"] == pytest.approx(1.1138462311355955, rel=1e-12)
    assert rep.breakdown["term"] == pytest.approx(1.1138462311355955, rel=1e-12)
    assert rep.complexity_term == pytest.approx(1110.8504988620415, rel=1e-12)


def test_cov_fat_zero_emp_equals_term():
    rep = bound_cov_fat(0.0, 2.0, P(m=10**6, delta=0.1))
    assert rep.bound_value == pytest.approx(rep.breakdown["term"], rel=1e-12)
    assert not rep.vacuous


def test_cov_fat_term_decreasing_in_m():
    terms = [
        bound_cov_fat(0.0, 4.0, P(m=m, delta=0.05)).breakdown["term"]
        for m in (10**3, 10**4, 10**5, 10**6, 10**7)
    ]
    assert all(a > b for a, b in zip(terms, terms[1:]))


def test_cov_uniform_rho_addend():
    p1 = P(m=10**5, rho=0.5, r=0.5)
    rep1 = bound_cov_uniform_rho(0.1, lambda rad: 5.0, p1)
    assert rep1.breakdown["loglog_addend"] == pytest.approx(0.0, abs=1e-15)  # rho = r
    p2 = P(m=10**5, rho=0.25, r=0.5)
    rep2 = bound_cov_uniform_rho(0.1, lambda rad: 5.0, p2)
    assert rep2.breakdown["loglog_addend"] == pytest.approx(math.log(2.0), rel=1e-12)
    # smaller rho never decreases the addend
    addends = [
        bound_cov_uniform_rho(0.1, lambda rad: 5.0, P(m=10**5, rho=rho, r=0.5)).breakdown[
            "loglog_addend"
        ]
        for rho in (0.5, 0.4, 0.2, 0.1, 0.01)
    ]
    assert all(a <= b for a, b in zip(addends, addends[1:]))


def test_cov_uniform_rho_radius_argument_and_errors():
    seen = []

    def log_n(radius):
        seen.append(radius)
        return 1.0

    bound_cov_uniform_rho(0.0, log_n, P(m=100, rho=0.2, r=1.0))
    assert seen == [0.05]  # rho / 4
    with pytest.raises(InputError):
        bound_cov_uniform_rho(0.0, log_n, P(m=100, rho=2.0, r=1.0))
    with pytest.raises(InputError):
        bound_cov_uniform_rho(0.0, log_n, P(m=100, rho=0.2, r=None))


# ---------------------------------------------------------------------------
# peeling families


def test_rad_budget_assembly():
    # delta = 16/e makes log(16/delta) = 1
    rep = bound_rad(0.0, 0.0, P(m=100, delta=16.0 / math.e))
    expected_b = (0.0 + math.log(math.log(100.0)) + 1.0) / 100.0
    assert rep.breakdown["budget"] == pytest.approx(expected_b, rel=1e-12)


def test_rad_zero_emp_closed_form():
    rep = bound_rad(0.0, 0.5, P(m=10**6, delta=0.05))
    b = rep.breakdown["budget"]
    assert rep.bound_value == pytest.approx(2.0 * 32.0**2 * b, rel=1e-12)


def test_rad_budget_halves_when_m_doubles():
    # holding the log terms fixed by back-computing them
    p1, p2 = P(m=1000), P(m=2000)
    r1 = bound_rad(0.0, 3.0, p1).breakdown["budget"] * 1000
    r2 = bound_rad(0.0, 3.0, p2).breakdown["budget"] * 2000
    # numerators differ only through log log m
    assert r2 - r1 == pytest.approx(math.log(math.log(2000)) - math.log(math.log(1000)), rel=1e-9)


def test_rad_bound_is_emp_plus_deviation():
    p = P(m=10**5, delta=0.05)
    rep = bound_rad(0.3, 0.4, p)
    b = rep.breakdown["budget"]
    expected = 0.3 + 32.0 * math.sqrt(0.3) * math.sqrt(b) + 2.0 * 32.0**2 * b
    assert rep.breakdown["raw_bound_value"] == pytest.approx(expected, rel=1e-12)
    assert rep.bound_value >= 0.3


def test_rad_smooth_bound_is_emp_plus_deviation():
    p = P(m=4096, rho=0.5, delta=0.05)
    rep0 = bound_rad_smooth(0.0, 1.0 / 64.0, p)
    rep = bound_rad_smooth(0.25, 1.0 / 64.0, p)
    beta = rep.breakdown["beta"]
    gap = rep.breakdown["raw_bound_value"] - rep0.breakdown["raw_bound_value"]
    assert gap == pytest.approx(0.25 + 32.0 * math.sqrt(2.0) * math.sqrt(0.25 * beta), rel=1e-9)


def test_rad_requires_m_at_least_3():
    with pytest.raises(InputError):
        bound_rad(0.0, 1.0, P(m=2))


def test_rad_reports_implicit_form():
    rep = bound_rad(0.1, 1.0, P(m=10**5))
    assert "implicit_solved_value" in rep.breakdown
    x = rep.breakdown["implicit_solved_value"]
    coeff = rep.breakdown["implicit_coefficient"]
    assert x == pytest.approx(0.1 + coeff * x**0.5, rel=1e-9)


def test_rad_accepts_complexity_estimate():
    est = ComplexityEstimate(value=0.8, method="monte-carlo", trials=(32,), seed=1, stderr=0.01)
    rep = bound_rad(0.0, est, P(m=10**5))
    assert rep.complexity_method == "monte-carlo"
    assert rep.complexity_term == 0.8


def test_rad_all_alpha():
    p = P(m=10**6, delta=0.05)
    single = bound_rad_all_alpha(0.05, 0.2, p, [2.0])
    # with one grid point this is just the implicit 32 sqrt(2) bound at alpha 2
    b = single.breakdown["budget"]
    coeff = 32.0 * math.sqrt(2.0) * b**0.5
    assert single.bound_value == pytest.approx(solve_relative(0.05, coeff, 2.0), rel=1e-10)
    grid = [1.2, 1.5, 1.8, 2.0]
    rep = bound_rad_all_alpha(0.05, 0.2, p, grid)
    per = rep.breakdown["per_alpha"]
    assert rep.bound_value <= min(float(v) for v in per.values()) + 1e-12
    with pytest.raises(InputError):
        bound_rad_all_alpha(0.05, 0.2, p, [])


def test_budget_power_crossover():
    # B^{1-1/alpha}: the smaller alpha gives the smaller factor exactly when B > 1
    for b_val, smaller_wins in ((2.0, True), (0.5, False)):
        f15 = b_val ** (1 - 1 / 1.5)
        f20 = b_val ** (1 - 1 / 2.0)
        assert (f15 < f20) == smaller_wins


def test_rad_smooth_pipeline_frozen():
    # linear class radius 1: rmax = 1/sqrt(m); m=4096, rho=0.5, delta=0.05, alpha=2
    rep = bound_rad_smooth(0.0, 1.0 / 64.0, P(m=4096, rho=0.5, delta=0.05))
    assert rep.complexity_term == pytest.approx(568544.4099681513, rel=1e-12)
    assert rep.breakdown["beta"] == pytest.approx(138.80671305734284, rel=1e-12)
    assert rep.breakdown["raw_bound_value"] == pytest.approx(284276.14834143815, rel=1e-12)
    assert rep.vacuous and rep.bound_value == 1.0
    # beta decomposes into complexity and confidence parts
    assert rep.breakdown["beta"] == pytest.approx(
        rep.breakdown["beta_complexity_part"] + rep.breakdown["beta_confidence_part"], rel=1e-15
    )


def test_rad_smooth_zero_emp_shape():
    rep = bound_rad_smooth(0.0, 0.01, P(m=4096, rho=0.5, alpha=1.5))
    beta = rep.breakdown["beta"]
    assert rep.breakdown["raw_bound_value"] == pytest.approx(
        2.0 * 32.0 ** (1.5 / 0.5) * beta, rel=1e-12
    )


# ---------------------------------------------------------------------------
# unbounded families


def test_unbounded_frozen_realistic_config():
    rep = bound_unbounded(0.5, 4.0, 20.0, P(m=10**4, delta=0.05, rho=0.1))
    assert rep.breakdown["eps_hat"] == pytest.approx(0.047953865614311, rel=1e-12)
    assert rep.breakdown["gamma"] == pytest.approx(2.0870595236622286, rel=1e-12)
    assert rep.bound_value == pytest.approx(0.8001651438535329, rel=1e-12)


def test_unbounded_zero_deviation_edge():
    rep = bound_unbounded(0.3, 2.0, 0.0, P(m=100, delta=1.0, rho=0.25))
    assert rep.bound_value == pytest.approx(0.55)
    assert rep.breakdown["gamma"] is None


def test_unbounded_unit_scale_composition():
    # eps_hat = 1 exactly: logN + log(1/delta) = m at alpha = 2
    p = P(m=10, delta=1.0, rho=0.0001)
    rep = bound_unbounded(0.0, 1.0, 10.0, p)
    assert rep.breakdown["eps_hat"] == pytest.approx(1.0)
    assert rep.breakdown["gamma"] == pytest.approx(1.5)
    assert rep.bound_value == pytest.approx(0.0001 + 1.5, rel=1e-9)


def test_unbounded_vacuous_regime_rejected():
    with pytest.raises(ApplicabilityError):
        bound_unbounded(0.0, 1.0, 100.0, P(m=10, delta=0.05))


def test_unbounded_uniform_rho_single_grid_and_monotone():
    p = P(m=10**4, delta=0.05, r=1.0)
    log_n = lambda radius: 2.0 / radius**2
    one = bound_unbounded_uniform_rho(0.0, 1.0, log_n, [0.5], p)
    more = bound_unbounded_uniform_rho(0.0, 1.0, log_n, [0.25, 0.5, 0.75], p)
    assert more.bound_value <= one.bound_value + 1e-12
    assert one.breakdown["best_rho"] == 0.5


@pytest.mark.parametrize("alpha", [1.5, 2.0])
def test_unbounded_uniform_rho_never_below_fixed_rho_bound(alpha):
    # the uniform-over-rho addend log(log2(2r/rho)) is >= 0 on (0, r]; the
    # natural-log form went negative above rho = 2r/e
    for rho in np.linspace(0.05, 1.0, 20):
        p = P(m=10**6, delta=0.05, alpha=alpha, rho=float(rho), r=1.0)
        fixed = bound_unbounded(0.1, 1.0, 5.0, p)
        uniform = bound_unbounded_uniform_rho(0.1, 1.0, 5.0, [float(rho)], p)
        assert uniform.bound_value >= fixed.bound_value


def test_unbounded_uniform_rho_reports_estimate_method():
    est = ComplexityEstimate(value=5.0, method="formula")
    rep = bound_unbounded_uniform_rho(0.1, 1.0, lambda _radius: est, [0.5, 1.0], P(m=10**6, r=1.0))
    assert rep.complexity_method == "formula"


def test_unbounded_uniform_rho_interior_argmin():
    p = P(m=10**4, delta=0.05, r=1.0)
    log_n = lambda radius: 2.0 / radius**2
    grid = [0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.6, 1.0]
    rep = bound_unbounded_uniform_rho(0.0, 1.0, log_n, grid, p)
    best = rep.breakdown["best_rho"]
    assert best not in (grid[0], grid[-1])
    per = {float(k): v["bound_value"] for k, v in rep.breakdown["per_rho"].items()}
    assert rep.bound_value <= min(per.values()) + 1e-15
    with pytest.raises(InputError):
        bound_unbounded_uniform_rho(0.0, 1.0, log_n, [], p)


# ---------------------------------------------------------------------------
# cross-family invariants


def test_monotonicity_invariants():
    rng = np.random.default_rng(9)
    for _ in range(50):
        emp = float(rng.uniform(0, 0.5))
        log_n = float(rng.uniform(0, 10))
        m = int(rng.integers(100, 10**5))
        delta = float(rng.uniform(0.01, 0.5))
        base = bound_cov_alpha2(emp, log_n, P(m=m, delta=delta)).breakdown["raw_bound_value"]
        assert bound_cov_alpha2(emp, log_n + 1.0, P(m=m, delta=delta)).breakdown[
            "raw_bound_value"
        ] >= base - 1e-12
        assert bound_cov_alpha2(emp, log_n, P(m=2 * m, delta=delta)).breakdown[
            "raw_bound_value"
        ] <= base + 1e-12
        assert bound_cov_alpha2(emp, log_n, P(m=m, delta=min(0.9, 2 * delta))).breakdown[
            "raw_bound_value"
        ] <= base + 1e-12
        rad_base = bound_rad(emp, log_n, P(m=m, delta=delta)).breakdown["raw_bound_value"]
        assert bound_rad(emp, log_n + 1.0, P(m=m, delta=delta)).breakdown[
            "raw_bound_value"
        ] >= rad_base - 1e-12
        assert bound_rad(emp, log_n, P(m=2 * m, delta=delta)).breakdown[
            "raw_bound_value"
        ] <= rad_base + 1e-12
        assert bound_rad(emp, log_n, P(m=m, delta=min(0.9, 2 * delta))).breakdown[
            "raw_bound_value"
        ] <= rad_base + 1e-12


def test_bound_never_below_empirical_term():
    rng = np.random.default_rng(11)
    for _ in range(30):
        emp = float(rng.uniform(0, 1))
        p = P(m=int(rng.integers(10, 1000)))
        for rep in (
            bound_cov_alpha(emp, 2.0, p),
            bound_cov_alpha2(emp, 2.0, p),
            bound_rad(emp, 0.3, p),
        ):
            assert rep.bound_value >= min(emp, 1.0) - 1e-12


def test_tightness_identity_small_beta():
    # with emp = 0 and beta <= 1 the factored form beta is at most sqrt(beta)
    for beta in (1e-6, 1e-3, 0.1, 0.5, 1.0):
        assert 0.0 + 2 * math.sqrt(0.0 * beta) + beta <= math.sqrt(beta) + 1e-15


# ---------------------------------------------------------------------------
# input validation at the report builders

_ZERO_ONE_BUILDERS = {
    "cov-alpha": lambda emp: bound_cov_alpha(emp, 3.0, P()),
    "cov-alpha2": lambda emp: bound_cov_alpha2(emp, 3.0, P()),
    "cov-fat": lambda emp: bound_cov_fat(emp, 4.0, P()),
    "cov-uniform-rho": lambda emp: bound_cov_uniform_rho(emp, 3.0, P(rho=0.5, r=1.0)),
    "rad": lambda emp: bound_rad(emp, 0.5, P()),
    "rad-all-alpha": lambda emp: bound_rad_all_alpha(emp, 0.5, P(), [1.5, 2.0]),
    "rad-smooth": lambda emp: bound_rad_smooth(emp, 1.0, P(rho=0.5)),
}


@pytest.mark.parametrize("family", sorted(_ZERO_ONE_BUILDERS))
@pytest.mark.parametrize("emp", [math.nan, math.inf, -math.inf, -0.1, 1.5])
def test_zero_one_builders_reject_bad_empirical_term(family, emp):
    with pytest.raises(DataError, match="emp must be"):
        _ZERO_ONE_BUILDERS[family](emp)


# family -> (builder called with a complexity term, the field its error names)
_COMPLEXITY_BUILDERS = {
    "cov-alpha": (lambda x: bound_cov_alpha(0.1, x, P()), "logN"),
    "cov-alpha2": (lambda x: bound_cov_alpha2(0.1, x, P()), "logN"),
    "cov-fat": (lambda x: bound_cov_fat(0.1, x, P()), "fat_d"),
    "cov-uniform-rho": (
        lambda x: bound_cov_uniform_rho(0.1, lambda _r: x, P(rho=0.5, r=1.0)), "logN"
    ),
    "rad": (lambda x: bound_rad(0.1, x, P()), "rm"),
    "rad-all-alpha": (lambda x: bound_rad_all_alpha(0.1, x, P(), [1.5, 2.0]), "rm"),
    "unbounded": (lambda x: bound_unbounded(0.1, 1.0, x, P(m=10**6, rho=0.5)), "logN"),
    "unbounded-uniform-rho": (
        lambda x: bound_unbounded_uniform_rho(0.1, 1.0, lambda _r: x, [1.0], P(m=10**6, r=4.0)),
        "logN",
    ),
}


@pytest.mark.parametrize("family", sorted(_COMPLEXITY_BUILDERS))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0])
def test_builders_reject_bad_complexity_term(family, value):
    build, name = _COMPLEXITY_BUILDERS[family]
    with pytest.raises(DataError, match=f"{name} must be"):
        build(value)
    with pytest.raises(DataError, match=f"{name} must be"):
        build(ComplexityEstimate(value=value, method="formula"))


@pytest.mark.parametrize("family", sorted(_ZERO_ONE_BUILDERS))
def test_zero_one_builders_accept_empirical_range_ends(family):
    for emp in (0.0, 1.0):
        assert _ZERO_ONE_BUILDERS[family](emp).bound_value <= 1.0


@pytest.mark.parametrize("emp_loss", [math.nan, math.inf, -0.5])
def test_unbounded_builders_reject_bad_empirical_loss(emp_loss):
    p = P(m=10**6, alpha=2.0, rho=0.5, r=4.0)
    with pytest.raises(DataError, match="emp_loss must be"):
        bound_unbounded(emp_loss, 1.0, 5.0, p)
    with pytest.raises(DataError, match="emp_loss must be"):
        bound_unbounded_uniform_rho(emp_loss, 1.0, 5.0, [0.5, 1.0], p)
    assert bound_unbounded(2.5, 1.0, 5.0, p).bound_value > 2.5  # above 1 is fine


@pytest.mark.parametrize(
    "field,value",
    [("delta", math.inf), ("delta", math.nan), ("rho", math.inf), ("r", math.inf)],
)
def test_params_require_finite_values(field, value):
    with pytest.raises(InputError, match=field):
        BoundParams(**{"m": 100, "delta": 0.05, "rho": 0.5, "r": 1.0, field: value})


# ---------------------------------------------------------------------------
# properties of the campaign formulas (the ``*_value`` functions)
#
# family -> (value function, scalar builder reporting the same raw value,
# range of its complexity term)
_CAMPAIGN_FORMULAS = {
    "cov-alpha": (cov_alpha_value, bound_cov_alpha, (0.0, 50.0)),
    "cov-alpha2": (cov_alpha2_value, bound_cov_alpha2, (0.0, 50.0)),
    "cov-fat": (cov_fat_value, bound_cov_fat, (1.0, 3000.0)),
    "rad": (rad_value, bound_rad, (0.0, 50.0)),
}


def _formula_params(family, m, delta, alpha):
    return P(m=m, delta=delta, alpha=2.0 if family == "cov-alpha2" else alpha)


def _complexity(family, frac):
    lo, hi = _CAMPAIGN_FORMULAS[family][2]
    return lo + frac * (hi - lo)


def _raw(family, emp, complexity, m, delta, alpha):
    value_fn = _CAMPAIGN_FORMULAS[family][0]
    return float(value_fn(emp, complexity, _formula_params(family, m, delta, alpha))[0])


def _assume_fat_in_range(family, d, m):
    # The fat-shattering term d log2(2 c^2 m) log2(2 c e m / d) is not monotone
    # right at its domain edge 2 c e m / d > 1: on a geometric 400-point m grid
    # over [1, 10^6] with d in {1, 5, 30, 300, 3000} it rises with m in 37 of
    # 1611 steps, all with 2 c e m / d < 3 (see the grid test below).  With
    # that argument >= 4 it is monotone in m and in d.
    assume(family != "cov-fat" or _fat_edge_argument(d, m) >= 4.0)


def _fat_edge_argument(d, m):
    return 2.0 * FAT_COVER_CONSTANT * math.e * m / d


def _assert_not_above(lower, upper):
    assert lower <= upper + 1e-12 * max(1.0, abs(upper))


_FAMILY = st.sampled_from(sorted(_CAMPAIGN_FORMULAS))
_UNIT = st.floats(0.0, 1.0)
_M = st.integers(3, 10**7)
_DELTA = st.floats(1e-6, 0.99)
_ALPHA = st.sampled_from([1.2, 1.5, 1.9, 2.0])


@given(family=_FAMILY, emp=_UNIT, emp2=_UNIT, frac=_UNIT, m=_M, delta=_DELTA, alpha=_ALPHA)
@settings(max_examples=300, deadline=None)
def test_campaign_formulas_non_decreasing_in_emp(family, emp, emp2, frac, m, delta, alpha):
    c = _complexity(family, frac)
    _assume_fat_in_range(family, c, m)
    small, large = sorted((emp, emp2))
    lower = _raw(family, small, c, m, delta, alpha)
    _assert_not_above(lower, _raw(family, large, c, m, delta, alpha))


@given(family=_FAMILY, emp=_UNIT, frac=_UNIT, frac2=_UNIT, m=_M, delta=_DELTA, alpha=_ALPHA)
@settings(max_examples=300, deadline=None)
def test_campaign_formulas_non_decreasing_in_complexity(family, emp, frac, frac2, m, delta, alpha):
    small, large = sorted((_complexity(family, frac), _complexity(family, frac2)))
    _assume_fat_in_range(family, large, m)
    lower = _raw(family, emp, small, m, delta, alpha)
    _assert_not_above(lower, _raw(family, emp, large, m, delta, alpha))


@given(family=_FAMILY, emp=_UNIT, frac=_UNIT, m=_M, delta=_DELTA, delta2=_DELTA, alpha=_ALPHA)
@settings(max_examples=300, deadline=None)
def test_campaign_formulas_non_increasing_in_delta(family, emp, frac, m, delta, delta2, alpha):
    c = _complexity(family, frac)
    _assume_fat_in_range(family, c, m)
    small, large = sorted((delta, delta2))
    lower = _raw(family, emp, c, m, large, alpha)
    _assert_not_above(lower, _raw(family, emp, c, m, small, alpha))


@given(family=_FAMILY, emp=_UNIT, frac=_UNIT, m=_M, m2=_M, delta=_DELTA, alpha=_ALPHA)
@settings(max_examples=300, deadline=None)
def test_campaign_formulas_non_increasing_in_m(family, emp, frac, m, m2, delta, alpha):
    c = _complexity(family, frac)
    small, large = sorted((m, m2))
    _assume_fat_in_range(family, c, small)
    lower = _raw(family, emp, c, large, delta, alpha)
    _assert_not_above(lower, _raw(family, emp, c, small, delta, alpha))


@given(
    family=_FAMILY,
    emp=st.lists(_UNIT, min_size=1, max_size=20),
    frac=_UNIT,
    m=_M,
    delta=_DELTA,
    alpha=_ALPHA,
)
@settings(max_examples=200, deadline=None)
def test_campaign_formulas_array_matches_scalar_builder(family, emp, frac, m, delta, alpha):
    value_fn, builder, _ = _CAMPAIGN_FORMULAS[family]
    c = _complexity(family, frac)
    _assume_fat_in_range(family, c, m)
    p = _formula_params(family, m, delta, alpha)
    values, _ = value_fn(np.array(emp), c, p)
    assert values.shape == (len(emp),)
    for e, v in zip(emp, values):
        assert v == builder(e, c, p).breakdown["raw_bound_value"]


def test_cov_fat_m_monotone_only_away_from_domain_edge():
    ms = np.unique(np.geomspace(1, 10**6, 400).astype(int))
    rises_near_edge = 0
    for d in (1.0, 5.0, 30.0, 300.0, 3000.0):
        grid = [int(m) for m in ms if _fat_edge_argument(d, m) > 1.0]
        values = [_raw("cov-fat", 0.3, d, m, 0.05, 2.0) for m in grid]
        for m, v, v_next in zip(grid, values, values[1:]):
            if v_next > v:
                assert _fat_edge_argument(d, m) < 3.0
                rises_near_edge += 1
    assert rises_near_edge > 0  # the exemption in the property tests is needed
