import numpy as np
import pytest

from oracles import brute_min_cover, packing_lower_bound
from relmargin import CapabilityError, InputError, LossMatrix, covering_number_l2, covering_number_linf
from relmargin.kernels import pairwise_l2n, pairwise_linf


def _mat(cols):
    return LossMatrix(np.array(cols, dtype=float).T, "real")


def test_linf_two_constant_columns():
    m = _mat([[0.0] * 4, [1.0] * 4])
    assert covering_number_linf(m, 0.4).value == 2
    assert covering_number_linf(m, 1.0).value == 1


def test_singleton_pool():
    m = _mat([[0.3, 0.7]])
    for eps in (0.0, 0.1, 5.0):
        assert covering_number_linf(m, eps).value == 1


def test_l2_identical_columns():
    m = _mat([[0.2, 0.4], [0.2, 0.4], [0.2, 0.4]])
    assert covering_number_l2(m, 0.0).value == 1


def test_l2_two_far_columns():
    m = _mat([[0.0] * 6, [1.0] * 6])
    assert covering_number_l2(m, 0.5).value == 2
    assert covering_number_l2(m, 1.0).value == 1


def test_l2_orthogonal_columns_threshold():
    # columns e1 and e2 in R^4: normalized distance sqrt(2/4)
    cols = [[1.0, 0, 0, 0], [0, 1.0, 0, 0]]
    d = np.sqrt(2.0 / 4.0)
    m = _mat(cols)
    assert covering_number_l2(m, d + 1e-9).value == 1
    assert covering_number_l2(m, d - 1e-9).value == 2


def test_exact_cap_is_enforced():
    vals = np.random.default_rng(0).random((3, 30))
    with pytest.raises(CapabilityError):
        covering_number_linf(LossMatrix(vals), 0.1)
    # but the cap is a parameter
    est = covering_number_linf(LossMatrix(vals), 0.1, exact_cap=30)
    assert est.method == "exact-enumeration"


def test_greedy_mode_has_no_cap():
    vals = np.random.default_rng(0).random((3, 40))
    est = covering_number_linf(LossMatrix(vals), 0.2, mode="greedy")
    assert est.method == "greedy-upper"
    assert 1 <= est.value <= 40


def test_bad_mode_and_eps():
    m = _mat([[0.0, 1.0]])
    with pytest.raises(InputError):
        covering_number_linf(m, -0.1)
    with pytest.raises(InputError):
        covering_number_linf(m, 0.1, mode="both")


def test_pairwise_linf_matches_double_loop():
    rng = np.random.default_rng(12)
    for trial in range(40):
        m = int(rng.integers(1, 12))
        p = int(rng.integers(1, 10))
        values = rng.normal(size=(m, p)) if trial % 2 else rng.choice([-1.0, -0.0, 0.0, 0.3, 1.0], size=(m, p))
        if trial % 4 == 1:  # a column-major view, as covers pass it
            values = np.ascontiguousarray(values.T).T
        got = pairwise_linf(values)
        want = [[max(abs(values[i, a] - values[i, b]) for i in range(m)) for b in range(p)] for a in range(p)]
        assert (got == np.array(want)).all()
        assert (got == got.T).all()
        assert (np.diag(got) == 0.0).all()


@pytest.mark.parametrize("metric,pairwise", [("linf", pairwise_linf), ("l2", pairwise_l2n)])
def test_exact_matches_exhaustive_and_greedy_dominates(metric, pairwise):
    rng = np.random.default_rng(42)
    fn = covering_number_linf if metric == "linf" else covering_number_l2
    for trial in range(60):
        p = int(rng.integers(1, 9))
        mvals = rng.random((int(rng.integers(2, 7)), p))
        if trial % 3 == 0:  # force duplicates sometimes
            mvals[:, 0] = mvals[:, -1]
        mat = LossMatrix(mvals)
        eps = float(rng.uniform(0.05, 0.8))
        dist = pairwise(mvals)
        expected = brute_min_cover(dist.tolist(), eps)
        exact = fn(mat, eps).value
        greedy = fn(mat, eps, mode="greedy").value
        assert exact == expected
        assert greedy >= exact
        assert exact >= packing_lower_bound(dist.tolist(), eps)
        assert exact <= p


def test_cover_monotone_in_eps():
    rng = np.random.default_rng(3)
    mat = LossMatrix(rng.random((5, 8)))
    for fn in (covering_number_linf, covering_number_l2):
        values = [fn(mat, eps).value for eps in np.linspace(0.01, 1.2, 12)]
        assert all(a >= b for a, b in zip(values, values[1:]))
