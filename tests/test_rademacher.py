import math

import numpy as np
import pytest

from oracles import brute_peeling_value, brute_rademacher, shell_rademacher_exact, shell_rademacher_mc
from relmargin import (
    CapabilityError,
    DomainError,
    InputError,
    LossMatrix,
    peeling_complexity,
    peeling_complexity_for_matrices,
    rademacher_exact,
    rademacher_mc,
    rm_upper_dichotomy,
    rm_upper_dudley,
    rm_upper_smooth,
    worst_case_rademacher,
)
from relmargin import kernels, rademacher
from relmargin.covers import covering_number_l2
from relmargin.fatdim import FatDimParams
from relmargin.lossmatrix import peel
from relmargin.rademacher import (
    EXACT_ENUMERATION_MAX_M, SIGN_BLOCK_ROWS, _drawn_sums, _shell_rademacher_values,
)
from relmargin.rng import sign_rows, substream


def _mat(cols, tag="binary"):
    return LossMatrix(np.array(cols, dtype=float).T, tag)


def test_exact_trivial_columns():
    assert rademacher_exact(_mat([[0.0] * 5])).value == 0.0
    assert rademacher_exact(_mat([[1.0] * 6])).value == 0.0  # E sum sigma = 0 on a singleton
    est = rademacher_exact(_mat([[0.0, 0.0], [1.0, 1.0]]))
    assert est.value == pytest.approx(0.25)
    assert est.method == "exact-enumeration"
    assert est.stderr is None


def test_exact_matches_brute_force():
    rng = np.random.default_rng(10)
    for _ in range(15):
        m = int(rng.integers(1, 9))
        p = int(rng.integers(1, 6))
        vals = rng.random((m, p))
        est = rademacher_exact(LossMatrix(vals, "unit-interval"))
        assert est.value == pytest.approx(brute_rademacher(vals.T.tolist()), rel=1e-10)


def test_exact_capability_cap():
    with pytest.raises(CapabilityError):
        rademacher_exact(LossMatrix(np.zeros((21, 2)), "binary"))


def test_exact_invariant_under_duplicate_columns():
    rng = np.random.default_rng(2)
    vals = rng.random((8, 4))
    doubled = np.hstack([vals, vals[:, [1]]])
    a = rademacher_exact(LossMatrix(vals, "unit-interval")).value
    b = rademacher_exact(LossMatrix(doubled, "unit-interval")).value
    assert a == pytest.approx(b, rel=1e-12)


def test_exact_nonnegative_with_zero_column():
    rng = np.random.default_rng(3)
    for _ in range(10):
        vals = rng.random((7, 3))
        vals[:, 0] = 0.0
        assert rademacher_exact(LossMatrix(vals, "unit-interval")).value >= 0.0


def test_mc_agrees_with_exact():
    rng = np.random.default_rng(123)
    for trial in range(20):
        m = int(rng.integers(2, 13))
        p = int(rng.integers(1, 8))
        vals = (rng.random((m, p)) < 0.5).astype(float)
        mat = LossMatrix(vals, "binary")
        exact = rademacher_exact(mat).value
        mc = rademacher_mc(mat, 20_000, seed=1000 + trial)
        tol = 3.0 * mc.stderr + 1e-12
        assert abs(mc.value - exact) <= tol


def test_mc_zero_matrix_and_precondition():
    mc = rademacher_mc(LossMatrix(np.zeros((4, 3)), "binary"), 100, seed=0)
    assert mc.value == 0.0 and mc.stderr == 0.0
    with pytest.raises(InputError):
        rademacher_mc(LossMatrix(np.zeros((4, 3)), "binary"), 1, seed=0)


@pytest.mark.parametrize("n_sigma", [2.5, float("inf"), float("nan"), True, "64"])
def test_mc_sign_draw_count_is_an_integer_of_at_least_two(n_sigma):
    # 2.5 would draw 2 sign rows but divide the stderr by sqrt(2.5); inf
    # would escape as an OverflowError
    binary = LossMatrix((np.arange(150).reshape(30, 5) % 3 == 0).astype(float), "binary")
    with pytest.raises(InputError, match=r"n_sigma must be an integer >= 2"):
        rademacher_mc(binary, n_sigma, seed=1)
    two = rademacher_mc(binary, 2, seed=1)
    assert rademacher_mc(binary, 2.0, seed=1) == rademacher_mc(binary, np.int64(2), seed=1) == two
    assert two.trials == (2,)


def test_outer_and_dichotomy_trial_counts_are_integers():
    # 2.5 outer draws would run 2, and 1.5 dichotomy trials 1, unreported
    def sampler(seed):
        return LossMatrix((np.random.default_rng(seed).random((6, 3)) < 0.5).astype(float), "binary")

    for outer in (1, 2.5, float("inf")):
        with pytest.raises(InputError, match=r"outer_trials must be an integer >= 2"):
            peeling_complexity(sampler, outer_trials=outer, n_sigma=8, seed=5)
    for trials in (0, 1.5, float("nan")):
        with pytest.raises(InputError, match=r"trials must be an integer >= 1"):
            rm_upper_dichotomy(sampler, trials=trials, seed=5)
    assert peeling_complexity(sampler, outer_trials=2.0, seed=5) == peeling_complexity(sampler, outer_trials=2, seed=5)
    assert rm_upper_dichotomy(sampler, trials=3.0, seed=5) == rm_upper_dichotomy(sampler, trials=3, seed=5)


def test_mc_is_reproducible_per_seed():
    mat = LossMatrix((np.random.default_rng(5).random((10, 4)) < 0.4).astype(float), "binary")
    a = rademacher_mc(mat, 500, seed=9)
    b = rademacher_mc(mat, 500, seed=9)
    assert a.value == b.value and a.stderr == b.stderr


# ---------------------------------------------------------------------------
# peeling


def test_signed_sums_max_is_sup_signed_sums():
    rng = np.random.default_rng(4)
    values = rng.random((30, 7))
    signs = rng.integers(0, 2, size=(50, 30)) * 2.0 - 1.0
    sums = kernels.signed_sums(values, signs)
    assert sums.shape == (50, 7)
    assert sums[3, 5] == pytest.approx(float(signs[3] @ values[:, 5]), rel=1e-12)
    assert np.array_equal(sums.max(axis=1), kernels.sup_signed_sums(values, signs))


def test_drawn_sums_equal_the_float64_product():
    rng = np.random.default_rng(21)
    for m, p in ((5000, 50), (201, 7), (3, 1), (1, 4)):
        binary = (rng.random((m, p)) < 0.3).astype(float)
        unit = rng.random((m, p))
        for values, tag in ((binary, "binary"), (unit, "unit-interval"), (binary, "real")):
            for n in (1024, 1001, 2):
                got = _drawn_sums(LossMatrix(values, tag), n, substream(n, "sigma"))
                signs = substream(n, "sigma").integers(0, 2, size=(n, m)) * 2.0 - 1.0
                assert got.dtype == np.float64
                assert np.array_equal(got, kernels.signed_sums(values, signs)), (m, p, tag, n)


@pytest.mark.parametrize("m", [3, 200, 201])
def test_drawn_sums_in_sign_blocks_are_one_product(m):
    # a block holds at least SIGN_BLOCK_ROWS rows and about 2^16 signs; the
    # sign counts cover one block, several whole blocks and a partial last one
    values = (np.random.default_rng(m).random((m, 6)) < 0.4).astype(float)
    block = max(SIGN_BLOCK_ROWS, (rademacher._SIGN_BLOCK_SIGNS // m) & ~1)
    assert block % 2 == 0 and block * m <= rademacher._SIGN_BLOCK_SIGNS
    for n in (block - 1, 2 * block, 2 * block + 7):
        blocked, whole = substream(m, "sigma", n), substream(m, "sigma", n)
        got = _drawn_sums(LossMatrix(values, "binary"), n, blocked)
        assert np.array_equal(got, sign_rows(whole, n, m) @ values.astype(np.float32))
        # the generator is left where one draw leaves it, buffered half included
        assert blocked.integers(0, 2, size=9).tolist() == whole.integers(0, 2, size=9).tolist()
        assert blocked.random() == whole.random()


def test_mc_shell_values_match_per_shell_oracle():
    rng = np.random.default_rng(17)
    for trial in range(8):
        m = int(rng.integers(2, 200))
        p = int(rng.integers(1, 40))
        # per-column densities spread the columns over many shells
        binary = (rng.random((m, p)) < rng.random(p) ** 3).astype(float)
        real = rng.random((m, p)) * rng.random(p) ** 3
        for values, tag in ((binary, "binary"), (real, "unit-interval")):
            seed = 1000 + trial
            got = _shell_rademacher_values(LossMatrix(values, tag), 64, np.random.default_rng(seed))
            exact = m <= EXACT_ENUMERATION_MAX_M  # small samples enumerate every sign vector
            if exact:
                want = shell_rademacher_exact(values)
            else:
                want = shell_rademacher_mc(values, 64, np.random.default_rng(seed))
            if tag == "binary":  # integer sums: the one product is exact
                assert got.tolist() == want
            else:
                # an exact mean near zero keeps the rounding of its 2^m terms
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15 if exact else 0.0)


def test_mc_shell_values_from_philox_match_per_shell_oracle():
    # the substreams campaigns use take the raw-word sign draw
    rng = np.random.default_rng(18)
    for m, p in ((300, 20), (2000, 9)):
        binary = (rng.random((m, p)) < rng.random(p) ** 3).astype(float)
        got = _shell_rademacher_values(LossMatrix(binary, "binary"), 130, substream(m, "inner", 0))
        assert got.tolist() == shell_rademacher_mc(binary, 130, substream(m, "inner", 0))


def test_peeling_singleton_zero_class_is_exactly_zero():
    mats = [LossMatrix(np.zeros((8, 1)), "binary") for _ in range(3)]
    est = peeling_complexity_for_matrices(mats)
    assert est.value == 0.0


def test_peeling_matches_brute_force_on_fixed_outer_sample():
    rng = np.random.default_rng(77)
    for m in (4, 7, 12):
        mats = []
        for _ in range(3):
            vals = (rng.random((m, 5)) < 0.5).astype(float)
            mats.append(LossMatrix(vals, "binary"))
        est = peeling_complexity_for_matrices(mats)
        expected = brute_peeling_value([mat.values.tolist() for mat in mats])
        assert est.value == pytest.approx(expected, rel=1e-10)


def test_peeling_invariant_under_duplicated_pool_column():
    rng = np.random.default_rng(8)
    vals = (rng.random((9, 4)) < 0.5).astype(float)
    mats1 = [LossMatrix(vals, "binary")]
    mats2 = [LossMatrix(np.hstack([vals, vals[:, [2]]]), "binary")]
    a = peeling_complexity_for_matrices(mats1).value
    b = peeling_complexity_for_matrices(mats2).value
    assert a == pytest.approx(b, rel=1e-12)


def test_peeling_complexity_sampler_interface():
    rng_cols = np.random.default_rng(4).random((6, 3))

    def sampler(seed):
        local = np.random.default_rng(seed)
        return LossMatrix((rng_cols + 0 * local.random()) < 0.5, "binary")

    est = peeling_complexity(sampler, outer_trials=4, n_sigma=64, seed=5)
    assert est.method == "monte-carlo"
    assert est.stderr is not None
    assert set(est.details) >= {"per_shell", "arg_shell", "inner"}
    with pytest.raises(InputError):
        peeling_complexity(sampler, outer_trials=1, n_sigma=64, seed=5)


def test_peeling_takes_one_sample_at_a_time():
    """The campaign's peeling estimate holds one sample matrix at a time, so
    its tracemalloc peak with 8 outer draws stays near that with 2."""
    import json
    import tracemalloc
    from pathlib import Path

    from relmargin.validation import ExperimentConfig, _build_pool, _estimate_peeling

    data = json.loads((Path(__file__).parent.parent / "configs/reference-campaign.json").read_text())
    data["params"]["m"] = 2000
    peaks = []
    for draws in (2, 8):
        data["complexity"].update(peel_draws=draws, n_sigma=64)
        cfg = ExperimentConfig.from_json(data)
        pool = _build_pool(cfg, cfg.distribution)
        tracemalloc.start()
        try:
            _estimate_peeling(cfg, cfg.distribution, pool)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


def test_peeling_for_matrices_takes_any_iterable():
    rng = np.random.default_rng(9)
    mats = [LossMatrix(rng.random((30, 5)) < 0.3, "binary") for _ in range(3)]
    listed = peeling_complexity_for_matrices(mats, n_sigma=64, seed=2)
    assert peeling_complexity_for_matrices(iter(mats), n_sigma=64, seed=2) == listed
    assert listed.details["inner"] == "mc" and listed.trials == (3, 64)
    with pytest.raises(InputError, match="share the same m"):
        peeling_complexity_for_matrices(mats + [LossMatrix(np.zeros((31, 5)), "binary")], n_sigma=64)
    with pytest.raises(InputError, match="at least one"):
        peeling_complexity_for_matrices(iter(()))


@pytest.mark.parametrize("m,inner", [(EXACT_ENUMERATION_MAX_M, "exact"), (EXACT_ENUMERATION_MAX_M + 1, "mc")])
def test_peeling_inner_estimator_switches_above_the_enumeration_cap(m, inner):
    rng = np.random.default_rng(m)
    mats = [LossMatrix(rng.random((m, 3)) < 0.4, "binary") for _ in range(2)]
    est = peeling_complexity_for_matrices(mats, n_sigma=32, seed=1)
    assert est.details["inner"] == inner
    assert est.trials == ((2,) if inner == "exact" else (2, 32))


# ---------------------------------------------------------------------------
# upper bounds


def test_dichotomy_bound_examples():
    constant = lambda seed: LossMatrix(np.ones((6, 4)), "binary")
    est = rm_upper_dichotomy(constant, trials=5, seed=0)
    assert est.value == 0.0

    two = lambda seed: LossMatrix(np.array([[0.0, 1.0]] * 6), "binary")
    est2 = rm_upper_dichotomy(two, trials=5, seed=0)
    assert est2.value == pytest.approx(math.log(2) / 8.0)

    nonbinary = lambda seed: LossMatrix(np.full((4, 2), 0.5), "unit-interval")
    with pytest.raises(InputError):
        rm_upper_dichotomy(nonbinary, trials=2, seed=0)


def test_dichotomy_bound_dominates_peeling_on_binary_classes():
    rng = np.random.default_rng(2024)
    for trial in range(8):
        m = int(rng.integers(4, 13))
        p = int(rng.integers(2, 7))
        base = rng.random((m, p))
        thresh = rng.uniform(0.3, 0.7)

        def sampler(seed, base=base, thresh=thresh, m=m, p=p):
            local = np.random.default_rng(seed)
            return LossMatrix(((base + 0.1 * local.random((m, p))) < thresh).astype(float), "binary")

        upper = rm_upper_dichotomy(sampler, trials=6, seed=trial)
        lower = peeling_complexity(sampler, outer_trials=6, n_sigma=1, seed=trial)
        assert upper.value >= lower.value - 1e-10


def test_dudley_empty_and_singleton_buckets():
    # one column with sum 2.2 lands in shell k=1; shell 0 is empty
    col = np.full((4, 1), 0.55)
    mat = LossMatrix(col, "unit-interval")
    grid = [0.5, 0.75, 1.0]
    assert rm_upper_dudley(mat, 0, grid) == pytest.approx(1.0 / 16.0)
    assert rm_upper_dudley(mat, 1, grid) == pytest.approx(1.0 / 16.0)  # single column: N2 = 1


def test_dudley_hand_computed_trapezoid():
    # two far columns in shell k=1: log N2 = log 2 on the whole grid
    mat = _mat([[1, 1, 0, 0], [0, 0, 1, 1]], "unit-interval")
    value = rm_upper_dudley(mat, 1, [0.5, 0.75, 1.0])
    assert value == pytest.approx((1.0 + 0.5 * math.log(2)) / 16.0, rel=1e-12)


def test_dudley_grid_validation():
    mat = _mat([[1, 1, 0, 0]], "unit-interval")
    with pytest.raises(InputError):
        rm_upper_dudley(mat, 0, [0.9, 0.5])
    with pytest.raises(InputError):
        rm_upper_dudley(mat, 0, [0.1, 0.5])  # below 1/sqrt(m)


def _duplicate_heavy(rng, m, n, patterns):
    """A binary m x n matrix whose columns repeat ``patterns`` random
    columns, of densities spread so that they fall in several shells."""
    density = rng.uniform(0.01, 0.6, size=patterns)
    base = (rng.random((m, patterns)) < density).astype(float)
    return LossMatrix(base[:, rng.integers(patterns, size=n)], "binary")


@pytest.mark.parametrize("m, n, patterns", [(60, 24, 6), (400, 300, 40), (1000, 200, 12)])
@pytest.mark.parametrize("exact_cap", [25, 5])
def test_dudley_covers_the_distinct_columns_as_the_raw_shell(m, n, patterns, exact_cap):
    # every grid eps covered on the raw shell, the mode picked by its size
    mat = _duplicate_heavy(np.random.default_rng(m + n), m, n, patterns)
    grid = np.linspace(1.0 / math.sqrt(m), 1.0, 6)
    shells = peel(mat)
    assert max(len(cols) for cols in shells.values()) > 2 * exact_cap or m == 60
    for k, cols in shells.items():
        shell = LossMatrix(mat.values[:, cols], "real")
        mode = "exact" if len(cols) <= exact_cap else "greedy"
        scale = math.sqrt(2.0**k / m)
        log_n = [math.log(covering_number_l2(shell, scale * e, mode, exact_cap).value) for e in grid]
        want = (1.0 + float(np.trapezoid(log_n, grid))) / 16.0
        assert rm_upper_dudley(mat, k, grid, exact_cap=exact_cap) == want, (k, mode)


def test_dudley_refinement_approaches_step_integral():
    # distance 0.4 between the two shell-1 columns: N2 drops to 1 at
    # eps* = 0.4 / sqrt(2^1 / 4)
    mat = _mat([[0.95, 0.95, 0.15, 0.15], [0.15, 0.15, 0.95, 0.95]], "unit-interval")
    scale = math.sqrt(2.0 / 4.0)
    eps_star = 0.4 / scale
    analytic = (1.0 + math.log(2) * (eps_star - 0.5)) / 16.0
    errors = []
    for n in (5, 9, 17, 33):
        grid = np.linspace(0.5, 1.0, n)
        errors.append(abs(rm_upper_dudley(mat, 1, grid) - analytic))
    for coarse, fine in zip(errors, errors[1:]):
        assert fine <= coarse + 1e-12


def test_smooth_cap_frozen_value():
    assert rm_upper_smooth(0.5, 1024, 1.0) == pytest.approx(35325620.01636638, rel=1e-12)


def test_smooth_cap_bracket_cancellation():
    m = 1024
    rho = 2.0 * math.pi * m ** (1.0 - 2.0 ** (2.0 / 3.0))
    assert rm_upper_smooth(rho, m, 1.0) == pytest.approx(0.0, abs=1e-8)


def test_smooth_cap_leading_factor_quarters_when_rho_doubles():
    m, rmax = 512, 0.5

    def bracket(rho):
        return 2.0 * math.log(m / rmax) ** 1.5 - math.log(2 * math.pi * m / (rho * rmax)) ** 1.5

    v1 = rm_upper_smooth(0.25, m, rmax) / bracket(0.25) ** 2
    v2 = rm_upper_smooth(0.5, m, rmax) / bracket(0.5) ** 2
    assert v1 == pytest.approx(4.0 * v2, rel=1e-12)


def test_smooth_cap_domain_errors():
    with pytest.raises(InputError):
        rm_upper_smooth(0.5, 10, 10.0)  # rmax >= m
    with pytest.raises(DomainError):
        rm_upper_smooth(1000.0, 4, 3.9)  # second log argument <= 1


def test_worst_case_examples():
    lin = FatDimParams(kind="linear", radius=1.0)
    assert worst_case_rademacher(lin, 100) == pytest.approx(0.1)
    assert worst_case_rademacher(FatDimParams(kind="linear", radius=2.0), 400) == pytest.approx(0.1)
    spec1 = FatDimParams(kind="ffnn-spectral", radius=1.0, r21=1.0, depth=1, rho=1.0, lipschitz=1.0)
    assert worst_case_rademacher(spec1, 100) == pytest.approx(0.1)
    spec2 = FatDimParams(kind="ffnn-spectral", radius=1.5, r21=0.8, depth=2, rho=0.3, lipschitz=1.2)
    assert worst_case_rademacher(spec2, 256) == pytest.approx(7.636753236814713, rel=1e-12)
    with pytest.raises(CapabilityError):
        worst_case_rademacher(FatDimParams(kind="ensemble", vc_dim=3.0, rho=0.5), 100)
