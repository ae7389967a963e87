"""One boundary rule over the public API: every number that a callable
exported from ``relmargin`` takes is checked where it enters.

Each numeric argument is tried at NaN, +inf, -inf, -1 and ``True``, and
also at 1.5 where it is a zero-one term and, where it is a count, at 2.5
and at 10**400, an int beyond the float range.  A call must raise a
``RelmarginError`` or return a finite result that ``VALID`` names; a NaN or
infinite result, a RuntimeWarning or a bare ``TypeError``, ``ValueError``,
``AttributeError`` or ``OverflowError`` fails.  A grid argument whose
entries the callable checks one by one is tried as a one-entry grid; arrays
keep their own checks and are not tried.
"""

import dataclasses
import inspect
import math

import numpy as np
import pytest

import relmargin
from relmargin import (
    BoundParams,
    DecisionStump,
    ExperimentConfig,
    FatDimParams,
    FFNNHypothesis,
    LabeledSample,
    LinearHypothesis,
    LossMatrix,
    MarginSeparable,
    MarginTransform,
    RelmarginError,
    TwoGaussianMixture,
    bound_cov_alpha,
    bound_cov_alpha2,
    bound_cov_fat,
    bound_cov_uniform_rho,
    bound_rad,
    bound_rad_all_alpha,
    bound_rad_smooth,
    bound_unbounded,
    bound_unbounded_uniform_rho,
    compare_tightness,
    compare_tightness_direct,
    cover_log_bound_from_fat,
    covering_number_l2,
    covering_number_linf,
    exact_binomial_ci,
    explicit_lemma_d1,
    fat_shattering_exact,
    gamma_factor,
    generate,
    half_step,
    loss_moment,
    make_distribution,
    margin,
    peeling_complexity,
    peeling_complexity_for_matrices,
    rademacher_mc,
    ramp,
    rm_upper_dichotomy,
    rm_upper_dudley,
    rm_upper_smooth,
    smooth_cos,
    solve_relative,
    step,
    substream,
    tightness_row,
    train,
    train_boost_stumps,
    train_bound_min,
    train_hinge_linear,
    train_tiny_mlp,
    true_risk,
    truncate,
    validate_bounds,
    verify_binomial_lemma,
    verify_monotone_ratio,
    worst_case_rademacher,
)

REAL, ZERO_ONE, COUNT = "real", "zero-one", "count"
BAD = {
    REAL: (math.nan, math.inf, -math.inf, -1, True),
    ZERO_ONE: (math.nan, math.inf, -math.inf, -1, True, 1.5),
    COUNT: (math.nan, math.inf, -math.inf, -1, True, 2.5, 10**400),
}

SAMPLE = LabeledSample(
    points=np.array([[1.0, 0.5], [-1.0, 0.2], [0.5, -1.0], [-0.3, 0.4]]), labels=np.array([1, -1, 1, -1])
)
H = LinearHypothesis(np.array([1.0, 0.0]))
DIST = TwoGaussianMixture()
MATRIX = LossMatrix(np.array([[0, 1, 1], [1, 0, 1], [0, 0, 1], [1, 1, 0]], dtype=float), "binary")
PARAMS = BoundParams(m=1000, delta=0.05)
RHO_R = BoundParams(m=1000, delta=0.05, rho=0.5, r=1.0)
CLASS = FatDimParams("linear", radius=1.0, rho=0.5)
GAUSSIAN = {"kind": "two-gaussian-mixture", "dim": 2, "separation": 1.0}


def _config(m=20, delta=0.05, size=3, trials=2, seed=0, cover_draws=2, n=10):
    return ExperimentConfig(
        distribution=GAUSSIAN,
        pool={"size": size},
        params={"m": m, "delta": delta, "rho": 0.2},
        families=("cov-alpha2",),
        trials=trials,
        seed=seed,
        complexity={"cover_draws": cover_draws, "cover_mode": "greedy"},
        risk={"mode": "holdout", "n": n},
    )


CONFIG = _config()

# export -> (a call whose keyword defaults are valid, {numeric argument: kind})
CASES = {
    "BoundParams": (
        lambda m=1000, delta=0.05, alpha=2.0, rho=1.0, r=1.0: BoundParams(m, delta, alpha, rho, r),
        {"m": COUNT, "delta": REAL, "alpha": REAL, "rho": REAL, "r": REAL},
    ),
    "bound_cov_alpha": (lambda emp=0.1, logN=5.0: bound_cov_alpha(emp, logN, PARAMS), {"emp": ZERO_ONE, "logN": REAL}),
    "bound_cov_alpha2": (lambda emp=0.1, logN=5.0: bound_cov_alpha2(emp, logN, PARAMS), {"emp": ZERO_ONE, "logN": REAL}),
    "bound_cov_fat": (lambda emp=0.1, fat_d=2.0: bound_cov_fat(emp, fat_d, PARAMS), {"emp": ZERO_ONE, "fat_d": REAL}),
    "bound_cov_uniform_rho": (
        lambda emp=0.1, logN=5.0: bound_cov_uniform_rho(emp, logN, RHO_R),
        {"emp": ZERO_ONE, "logN": REAL},
    ),
    "bound_rad": (lambda emp=0.1, rm=1.0: bound_rad(emp, rm, PARAMS), {"emp": ZERO_ONE, "rm": REAL}),
    "bound_rad_all_alpha": (
        lambda emp=0.1, rm=1.0, alpha=2.0: bound_rad_all_alpha(emp, rm, PARAMS, [alpha]),
        {"emp": ZERO_ONE, "rm": REAL, "alpha": REAL},
    ),
    "bound_rad_smooth": (
        lambda emp=0.1, rmax=1.0: bound_rad_smooth(emp, rmax, RHO_R),
        {"emp": ZERO_ONE, "rmax": REAL},
    ),
    "bound_unbounded": (
        lambda emp_loss=0.1, moment=1.0, logN=5.0: bound_unbounded(emp_loss, moment, logN, PARAMS),
        {"emp_loss": REAL, "moment": REAL, "logN": REAL},
    ),
    "bound_unbounded_uniform_rho": (
        lambda emp_loss=0.1, moment=1.0, logN=5.0, rho=0.5: bound_unbounded_uniform_rho(
            emp_loss, moment, logN, [rho], RHO_R
        ),
        {"emp_loss": REAL, "moment": REAL, "logN": REAL, "rho": REAL},
    ),
    "explicit_lemma_d1": (
        lambda z=0.1, y=0.1, alpha=2.0: explicit_lemma_d1(z, y, alpha),
        {"z": REAL, "y": REAL, "alpha": REAL},
    ),
    "gamma_factor": (lambda alpha=2.0, eps=0.5: gamma_factor(alpha, eps), {"alpha": REAL, "eps": ZERO_ONE}),
    "solve_relative": (
        lambda b=0.1, c=0.5, alpha=2.0: solve_relative(b, c, alpha),
        {"b": REAL, "c": REAL, "alpha": REAL},
    ),
    "verify_binomial_lemma": (
        lambda m_max=3, grid_size=2: verify_binomial_lemma(m_max, grid_size),
        {"m_max": COUNT, "grid_size": COUNT},
    ),
    "verify_monotone_ratio": (
        lambda n_points=10, delta=1e-6, seed=0: verify_monotone_ratio(n_points, delta, seed),
        {"n_points": COUNT, "delta": REAL, "seed": COUNT},
    ),
    "compare_tightness": (
        lambda m=100, rho=0.5, emp=0.1, delta=0.05, c_prime=1.0: compare_tightness(
            CLASS, [m], [rho], [emp], delta=delta, c_prime=c_prime
        ),
        {"m": COUNT, "rho": REAL, "emp": ZERO_ONE, "delta": REAL, "c_prime": REAL},
    ),
    "compare_tightness_direct": (
        lambda emp=0.1, beta=0.1, c_prime=1.0: compare_tightness_direct([emp], [beta], c_prime),
        {"emp": ZERO_ONE, "beta": REAL, "c_prime": REAL},
    ),
    "tightness_row": (
        lambda emp=0.1, beta=0.1, c_prime=1.0: tightness_row(emp, beta, c_prime=c_prime),
        {"emp": ZERO_ONE, "beta": REAL, "c_prime": REAL},
    ),
    "covering_number_linf": (
        lambda eps=0.5, exact_cap=25: covering_number_linf(MATRIX, eps, exact_cap=exact_cap),
        {"eps": REAL, "exact_cap": COUNT},
    ),
    "covering_number_l2": (
        lambda eps=0.5, exact_cap=25: covering_number_l2(MATRIX, eps, exact_cap=exact_cap),
        {"eps": REAL, "exact_cap": COUNT},
    ),
    "FatDimParams": (
        lambda radius=1.0, rho=0.5, vc_dim=2.0, constant=1.0, lipschitz=1.0, depth=2, input_dim=3.0, r21=1.0: (
            FatDimParams("linear", radius, rho, vc_dim, constant, lipschitz, depth, input_dim, r21)
        ),
        {
            "radius": REAL, "rho": REAL, "vc_dim": REAL, "constant": REAL,
            "lipschitz": REAL, "depth": COUNT, "input_dim": REAL, "r21": REAL,
        },
    ),
    "cover_log_bound_from_fat": (lambda d=2.0, m=100: cover_log_bound_from_fat(d, m), {"d": REAL, "m": COUNT}),
    "fat_shattering_exact": (lambda gamma=0.1: fat_shattering_exact(MATRIX, gamma), {"gamma": REAL}),
    "DecisionStump": (
        lambda feature=0, threshold=0.0, polarity=1: DecisionStump(feature, threshold, polarity),
        {"feature": COUNT, "threshold": REAL, "polarity": REAL},
    ),
    "FFNNHypothesis": (
        lambda row_cap=10.0: FFNNHypothesis((np.ones((1, 3)),), row_cap=row_cap),
        {"row_cap": REAL},
    ),
    "LinearHypothesis": (lambda norm_cap=1.0: LinearHypothesis(np.ones(2), norm_cap), {"norm_cap": REAL}),
    "margin": (lambda label=1: margin(H, [1.0, 0.0], label), {"label": REAL}),
    "truncate": (lambda rho=1.0: truncate(H, rho), {"rho": REAL}),
    "LabeledSample": (
        lambda seed=0: LabeledSample(SAMPLE.points, SAMPLE.labels, seed),
        {"seed": COUNT},
    ),
    "rademacher_mc": (
        lambda n_sigma=4, seed=0: rademacher_mc(MATRIX, n_sigma, seed),
        {"n_sigma": COUNT, "seed": COUNT},
    ),
    "peeling_complexity": (
        lambda outer_trials=2, n_sigma=4, seed=0: peeling_complexity(lambda s: MATRIX, outer_trials, n_sigma, seed),
        {"outer_trials": COUNT, "n_sigma": COUNT, "seed": COUNT},
    ),
    "peeling_complexity_for_matrices": (
        lambda n_sigma=4, seed=0: peeling_complexity_for_matrices([MATRIX], n_sigma, seed),
        {"n_sigma": COUNT, "seed": COUNT},
    ),
    "rm_upper_dichotomy": (
        lambda trials=2, seed=0: rm_upper_dichotomy(lambda s: MATRIX, trials, seed),
        {"trials": COUNT, "seed": COUNT},
    ),
    "rm_upper_dudley": (
        lambda k=0, exact_cap=25: rm_upper_dudley(MATRIX, k, [0.5, 1.0], exact_cap),
        {"k": COUNT, "exact_cap": COUNT},
    ),
    "rm_upper_smooth": (
        lambda rho=0.5, m=1000, rmax=1.0: rm_upper_smooth(rho, m, rmax),
        {"rho": REAL, "m": COUNT, "rmax": REAL},
    ),
    "worst_case_rademacher": (
        lambda m=100: worst_case_rademacher(FatDimParams("linear", radius=1.0), m),
        {"m": COUNT},
    ),
    "substream": (lambda seed=0: substream(seed, "x"), {"seed": COUNT}),
    "TwoGaussianMixture": (
        lambda dim=2, separation=1.0, sigma=1.0, radius=5.0: TwoGaussianMixture(dim, separation, sigma, radius),
        {"dim": COUNT, "separation": REAL, "sigma": REAL, "radius": REAL},
    ),
    "MarginSeparable": (
        lambda dim=2, gap=0.3, noise_rate=0.1, sigma=1.0, radius=5.0: MarginSeparable(dim, gap, noise_rate, sigma, radius),
        {"dim": COUNT, "gap": REAL, "noise_rate": ZERO_ONE, "sigma": REAL, "radius": REAL},
    ),
    "generate": (lambda m=5, seed=0: generate(DIST, m, seed), {"m": COUNT, "seed": COUNT}),
    "make_distribution": (
        lambda dim=2, separation=1.0, sigma=1.0, radius=5.0: make_distribution(
            {**GAUSSIAN, "dim": dim, "separation": separation, "sigma": sigma, "radius": radius}
        ),
        {"dim": COUNT, "separation": REAL, "sigma": REAL, "radius": REAL},
    ),
    "train_hinge_linear": (
        lambda steps=2, seed=0, step0=1.0: train_hinge_linear(SAMPLE, steps, seed, step0),
        {"steps": COUNT, "seed": COUNT, "step0": REAL},
    ),
    "train_boost_stumps": (
        lambda rounds=2, seed=0: train_boost_stumps(SAMPLE, rounds, seed),
        {"rounds": COUNT, "seed": COUNT},
    ),
    "train_tiny_mlp": (
        lambda width=2, steps=2, seed=0, lr=0.5: train_tiny_mlp(SAMPLE, width, steps, seed, lr),
        {"width": COUNT, "steps": COUNT, "seed": COUNT, "lr": REAL},
    ),
    "train_bound_min": (
        lambda lam=0.1, rho=0.5, restarts=1, seed=0, steps=2: train_bound_min(SAMPLE, lam, [rho], restarts, seed, steps),
        {"lam": REAL, "rho": REAL, "restarts": COUNT, "seed": COUNT, "steps": COUNT},
    ),
    "train": (
        lambda steps=2, seed=0, step0=1.0: train(
            "hinge-subgradient-linear", SAMPLE, {"steps": steps, "seed": seed, "step0": step0}
        ),
        {"steps": COUNT, "seed": COUNT, "step0": REAL},
    ),
    "MarginTransform": (lambda rho=0.5: MarginTransform("ramp", rho), {"rho": REAL}),
    "step": (lambda rho=0.5: step(rho), {"rho": REAL}),
    "half_step": (lambda rho=0.5: half_step(rho), {"rho": REAL}),
    "ramp": (lambda rho=0.5: ramp(rho), {"rho": REAL}),
    "smooth_cos": (lambda rho=0.5: smooth_cos(rho), {"rho": REAL}),
    "loss_moment": (lambda alpha=2.0: loss_moment([1.0, 2.0], alpha), {"alpha": REAL}),
    "true_risk": (lambda n=10, seed=0: true_risk(H, DIST, "holdout", n, seed), {"n": COUNT, "seed": COUNT}),
    "ExperimentConfig": (
        _config,
        {"m": COUNT, "delta": REAL, "size": COUNT, "trials": COUNT, "seed": COUNT, "cover_draws": COUNT, "n": COUNT},
    ),
    "validate_bounds": (lambda threads=1: validate_bounds(CONFIG, threads), {"threads": COUNT}),
    "exact_binomial_ci": (lambda k=1, n=10: exact_binomial_ci(k, n), {"k": COUNT, "n": COUNT}),
}

# exports that take no number of their own, with the reason
NO_NUMBERS = {
    "BoundReport": "a record the bound builders fill from checked inputs",
    "ComplexityEstimate": "a record; the bound builders check the value they read from it",
    "ValidityReport": "a record that validate_bounds fills",
    "Hypothesis": "the abstract base, with no fields",
    "EnsembleHypothesis": "its weights are an array",
    "TableHypothesis": "its values are a table",
    "LossMatrix": "its values are an array",
    "count_dichotomies": "takes a LossMatrix",
    "empirical_margin_loss": "takes a hypothesis, a sample and a transform",
    "empirical_risk": "takes a hypothesis and a sample",
    "fat_dim_formula": "takes a FatDimParams",
    "hypothesis_from_json": "takes JSON, read through the hypothesis constructors",
    "hypothesis_losses": "takes a hypothesis, a sample and a loss kind",
    "margins": "takes a hypothesis and a sample",
    "outputs_matrix": "takes a pool and an array of points",
    "peel": "takes a LossMatrix",
    "rademacher_exact": "takes a LossMatrix",
    "transform_matrix": "takes a pool, a sample and a transform",
}

# (export, argument, repr of the value) whose call returns a valid result
VALID = {
    ("DecisionStump", "threshold", "-1"),
    ("DecisionStump", "polarity", "-1"),
    ("margin", "label", "-1"),
}


def _finite(result) -> bool:
    """Whether every number in ``result`` is finite."""
    if result is None or isinstance(result, (bool, str, np.random.Generator)):
        return True
    if isinstance(result, (int, float, np.number)):
        return math.isfinite(result)
    if isinstance(result, np.ndarray):
        return result.dtype.kind not in "fc" or bool(np.isfinite(result).all())
    if isinstance(result, dict):
        return all(map(_finite, result.values()))
    if isinstance(result, (list, tuple)):
        return all(map(_finite, result))
    if hasattr(result, "to_json"):
        return _finite(result.to_json())
    if dataclasses.is_dataclass(result):
        return all(_finite(getattr(result, f.name)) for f in dataclasses.fields(result))
    raise AssertionError(f"no finiteness rule for a {type(result).__name__}")


TRIES = [
    pytest.param(case, arg, value, id=f"{case}-{arg}-{'10**400' if value == 10**400 else repr(value)}")
    for case, (_, args) in CASES.items()
    for arg, kind in args.items()
    for value in BAD[kind]
]


def test_every_exported_callable_is_tried_or_named_as_taking_no_number():
    exported = {
        name
        for name, obj in vars(relmargin).items()
        if not name.startswith("_")
        and callable(obj)
        and not inspect.ismodule(obj)
        and not (isinstance(obj, type) and issubclass(obj, BaseException))
    }
    assert exported == set(CASES) | set(NO_NUMBERS)
    assert not set(CASES) & set(NO_NUMBERS)


@pytest.mark.parametrize("case", CASES)
def test_the_valid_call_of_each_case_returns_a_finite_result(case):
    assert _finite(CASES[case][0]())


@pytest.mark.parametrize("case,arg,value", TRIES)
def test_a_bad_number_is_rejected_where_it_enters(case, arg, value):
    call = CASES[case][0]
    try:
        result = call(**{arg: value})
    except RelmarginError:
        return
    assert (case, arg, repr(value)) in VALID, f"{case}({arg}={value!r}) returned {result!r}"
    assert _finite(result)


@pytest.mark.parametrize("cover", [covering_number_linf, covering_number_l2])
@pytest.mark.parametrize("matrix", [np.eye(3), [[0.0, 1.0]], None])
def test_a_cover_names_a_matrix_that_is_not_a_loss_matrix(cover, matrix):
    with pytest.raises(relmargin.InputError, match="matrix must be a LossMatrix or a kernels.Rows, got a "):
        cover(matrix, 0.25)
