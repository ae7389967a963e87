import json

import numpy as np
import pytest

from oracles import (
    brute_min_cover,
    dedup_first_cover_oracle,
    distinct_columns,
    greedy_cover_oracle,
    packing_lower_bound,
    pairwise_l2n,
)
from relmargin import CapabilityError, InputError, LinearHypothesis, LossMatrix, covering_number_l2, covering_number_linf
from relmargin.cli import main
from relmargin.covers import _cover_size, _coverage_masks, covering_number
from relmargin.hypotheses import truncate
from relmargin import kernels
from relmargin.kernels import Rows, pairwise_linf, within
from relmargin.lossmatrix import outputs_matrix


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


def _quarter_grid(rng, m, p):
    """Entries in {0, 0.25, ..., 1} with a signed zero, two duplicate
    columns and one column one quarter from another everywhere: many
    distances are exactly a quarter multiple."""
    values = rng.integers(0, 5, size=(m, p)) / 4.0
    if p > 3:
        values[:, 1] = values[:, p - 1]
        values[:, 2] = np.clip(values[:, 0] + 0.25, 0.0, 1.0)
        values[:, 3] = np.where(values[:, 0] == 0.0, -0.0, values[:, 0])
    return values


_DISTANCES = {"linf": pairwise_linf, "l2": pairwise_l2n}


@pytest.mark.parametrize("metric", ["linf", "l2"])
def test_within_matches_the_distance_matrix_on_quarter_grids(metric):
    rng = np.random.default_rng(8)
    shapes = [(1, 1), (1, 7), (9, 1), (2, 2), (5, 6), (40, 12), (300, 9), (3000, 5)]
    for m, p in shapes:
        values = _quarter_grid(rng, m, p)
        for view in (values, np.ascontiguousarray(values.T).T):
            dist = _DISTANCES[metric](view)
            for eps in (0.0, 0.25, 0.5, 0.75, 1.0, 2.0):
                got = within(view, eps, metric)
                assert got.dtype == bool and got.shape == (p, p)
                assert np.array_equal(got, dist <= eps), (m, p, eps)


@pytest.mark.parametrize("metric", ["linf", "l2"])
def test_within_matches_the_distance_matrix_at_each_exact_distance(metric):
    # non-dyadic entries, so the l2 sums round; eps at each distance the
    # oracle computes, and one float below it, decides the relation by the
    # last bit of that distance
    rng = np.random.default_rng(11)
    for m, p in [(1, 3), (7, 4), (9, 2), (33, 3), (200, 5), (700, 4)]:
        values = np.round(rng.normal(scale=0.3, size=(m, p)), 3)
        values[:, -1] = values[:, 0] + 0.1 * (rng.random(m) < 0.5)
        for view in (values, np.ascontiguousarray(values.T).T):
            dist = _DISTANCES[metric](view)
            for d in np.unique(dist):
                for eps in (d, np.nextafter(d, 0.0)):
                    assert np.array_equal(within(view, eps, metric), dist <= eps), (m, p, d)


def test_l2_within_sums_one_live_pair_in_row_order():
    # two columns: one live pair, whose later blocks hold 16, 32, ... rows.
    # numpy sums a lone column pairwise, to other bits than the row-order
    # sums of the oracle, which at eps equal to the distance, or one float
    # below it, flips the relation of some of these matrices
    rng = np.random.default_rng(13)
    for trial in range(60):
        m = int(rng.integers(9, 400))
        values = rng.random((m, 2)) * np.array([1.0, 1.0 + 1e-3])
        d = pairwise_l2n(values)[0, 1]
        for eps in (d, np.nextafter(d, 0.0)):
            assert np.array_equal(within(values, eps, "l2"), pairwise_l2n(values) <= eps), (trial, m)


def test_within_on_one_row_and_one_column_and_an_unknown_metric(monkeypatch):
    for metric in ("linf", "l2"):
        assert within(np.array([[0.3]]), 0.0, metric).tolist() == [[True]]
        assert within(np.array([[0.0, -0.0, 0.5]]), 0.0, metric).tolist() == [
            [True, True, False], [True, True, False], [False, False, True]]
    with pytest.raises(InputError, match="unknown metric 'l1'"):
        within(np.zeros((2, 2)), 0.1, "l1")
    # the cover rejects the metric before it deduplicates the pool
    monkeypatch.setattr("relmargin.covers.distinct_index", None)
    with pytest.raises(InputError, match="unknown metric 'l1'"):
        covering_number(_mat([[0.0, 1.0]]), 0.1, "l1")


def test_linf_within_prunes_near_columns_over_growing_blocks():
    # columns that stay within eps of each other for all 5000 rows keep
    # their pairs alive through every block, and 400 columns start with
    # more pairs than one block holds
    rng = np.random.default_rng(9)
    near = 0.5 + rng.integers(-2, 3, size=(5000, 6)) / 64.0
    near[4321, 5] = 0.75  # separated by one late row only
    for values, eps in ((near, 1.0 / 16.0), (near, 3.0 / 64.0), (_quarter_grid(rng, 6, 400), 0.5)):
        assert np.array_equal(within(values, eps), pairwise_linf(values) <= eps)


def test_coverage_masks_match_bit_by_bit_loop():
    rng = np.random.default_rng(10)
    for p in (1, 7, 8, 9, 64, 70):
        within = rng.random((p, p)) < 0.3
        want = [sum(1 << i for i in range(p) if within[j, i]) for j in range(p)]
        assert _coverage_masks(within) == want


def test_cli_cover_linf_values_unchanged(tmp_path, capsys):
    # exact and greedy values on a quarter grid where greedy is not optimal
    values = np.random.default_rng(2).integers(0, 5, size=(3, 20)) / 4.0
    values[:, 5] = values[:, 17]
    path = tmp_path / "quarter.json"
    path.write_text(json.dumps({"values": values.tolist()}))
    want = {(0.0, "exact"): 17, (0.0, "greedy"): 17, (0.25, "exact"): 7, (0.25, "greedy"): 9,
            (0.5, "exact"): 2, (0.5, "greedy"): 2}
    for (eps, mode), value in want.items():
        argv = ["complexity", "--op", "cover-linf", "--matrix", str(path), "--eps", str(eps), "--mode", mode]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["value"] == value and report["details"]["distinct"] == 17



def test_wide_pool_with_few_distinct_columns_builds_the_relation_on_those_only(monkeypatch):
    # 20000 columns over 10 binary rows hold at most 1024 distinct ones; the
    # pair relation must be built on those, not on 2e8 pool pairs
    values = np.random.default_rng(12).integers(0, 2, size=(10, 20000)).astype(float)
    calls = []

    def spy(values, eps, metric):
        calls.append(values.shape)
        assert values.shape[1] <= 1024, "relation built on the whole pool"
        return within(values, eps, metric)

    monkeypatch.setattr("relmargin.kernels.within", spy)
    est = covering_number_linf(LossMatrix(values, "binary"), 0.0, mode="greedy")
    q = len(distinct_columns(values))
    assert q <= 1024 and calls == [(10, q)]
    assert est.value == q and est.details["distinct"] == q and est.details["pool"] == 20000


def _relation_with_components(rng, p, k):
    """A random symmetric, reflexive relation on p columns whose links form
    exactly k connected components: a random path through each of k
    nonempty groups, plus random links inside the groups."""
    order = rng.permutation(p)
    cuts = np.sort(rng.choice(np.arange(1, p), size=k - 1, replace=False))
    within = np.eye(p, dtype=bool)
    for group in np.split(order, cuts):
        for a, b in zip(group, group[1:]):
            within[a, b] = within[b, a] = True
        extra = rng.random((len(group), len(group))) < 0.3
        within[np.ix_(group, group)] |= extra | extra.T
    return within


def test_cover_with_lone_columns_is_the_minimum_and_the_whole_greedy():
    # k components on p columns, many of them single columns when k is near p
    rng = np.random.default_rng(14)
    for trial in range(120):
        k = 1 + trial % 6
        p = int(rng.integers(k, 13))
        within = _relation_with_components(rng, p, k)
        dist = np.where(within, 0.0, 1.0).tolist()
        assert _cover_size(within, exact=True) == brute_min_cover(dist, 0.5)
        assert _cover_size(within, exact=False) == greedy_cover_oracle(within.tolist())
    # every column alone: the cover is the pool in both modes
    assert _cover_size(np.eye(50, dtype=bool), exact=True) == _cover_size(np.eye(50, dtype=bool), exact=False) == 50


def _dedup_cases():
    """Matrices whose distinct columns are told apart past the first 16 rows,
    or not at all, and the smallest shapes."""
    rng = np.random.default_rng(31)
    # clipped outputs: 12 columns clip to rho on their first 24 rows, so
    # they tie past the prefix; column 13 duplicates one of them
    clipped = np.clip(rng.normal(scale=0.3, size=(40, 20)), -0.2, 0.2)
    clipped[:24, :12] = 0.2
    clipped[:, 13] = clipped[:, 3]
    # pairs of columns that are duplicates, or equal on all but the last row
    last_row = rng.integers(0, 5, size=(30, 18)) / 4.0
    last_row[:, 1::2] = last_row[:, 0::2]
    last_row[-1, 1::4] += 0.25
    # columns 8-15 are columns 0-7 with every 0.0 and -0.0 swapped
    signed = rng.choice([-0.25, -0.0, 0.0, 0.25], size=(20, 16))
    signed[:, 8:] = signed[:, :8]
    signed[:, 8:][signed[:, 8:] == 0.0] *= -1.0
    # a grid where greedy is not optimal, after 20 rows all columns share
    quarter = np.random.default_rng(2).integers(0, 5, size=(3, 20)) / 4.0
    quarter[:, 5] = quarter[:, 17]
    # its 17 distinct columns in reverse order, so none is copied: the
    # relation is built on the matrix itself, then permuted
    reversed_grid = np.unique(quarter.T, axis=0)[::-1].T
    short = rng.integers(0, 3, size=(5, 12)) / 2.0
    short[:, 7] = short[:, 2]
    return {
        "clipped-tied-past-prefix": clipped,
        "equal-but-the-last-row": last_row,
        "signed-zeros": signed,
        "quarter-grid-past-a-shared-prefix": np.vstack([np.full((20, 20), 0.5), quarter]),
        "distinct-quarter-grid-reversed": np.vstack([np.full((20, 17), 0.5), reversed_grid]),
        "m-below-16": short,
        "m-1": rng.choice([-0.0, 0.0, 0.5, 1.0], size=(1, 10)),
        "p-1": rng.normal(size=(30, 1)),
    }


@pytest.mark.parametrize("case", sorted(_dedup_cases()))
@pytest.mark.parametrize("mode", ["exact", "greedy"])
@pytest.mark.parametrize("metric", ["linf", "l2"])
def test_cover_is_the_dedup_first_cover_bit_for_bit(metric, mode, case):
    values = _dedup_cases()[case]
    mat = LossMatrix(values)
    fn = covering_number_linf if metric == "linf" else covering_number_l2
    for eps in (0.0, 0.1, 0.25, 0.5):
        got = fn(mat, eps, mode=mode)
        want = dedup_first_cover_oracle(mat, eps, metric, mode)
        assert (got.value, got.method, got.details) == (want.value, want.method, want.details), eps
        assert type(got.value) is float and got.details["pool"] == values.shape[1]


def test_cover_keeps_greedy_tie_breaks_past_a_shared_prefix():
    # the quarter grid of test_cli_cover_linf_values_unchanged, behind 20
    # rows every column shares: its columns are ordered by full keys only.
    # Its distinct columns in reverse order give greedy 7, not 9, unless
    # the relation is read in lexicographic order.
    cases = _dedup_cases()
    for case in ("quarter-grid-past-a-shared-prefix", "distinct-quarter-grid-reversed"):
        mat = LossMatrix(cases[case])
        assert covering_number_linf(mat, 0.25).value == 7
        assert covering_number_linf(mat, 0.25, mode="greedy").value == 9
        assert covering_number_linf(mat, 0.25).details["distinct"] == 17


@pytest.mark.parametrize("metric", ["linf", "l2"])
def test_all_distinct_cover_allocates_less_than_one_matrix_copy(metric):
    import tracemalloc

    values = np.clip(np.random.default_rng(6).normal(scale=0.3, size=(10000, 50)), -0.2, 0.2)
    mat = LossMatrix(values)
    tracemalloc.start()
    try:
        est = covering_number(mat, 0.1, metric, mode="greedy")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.details["distinct"] == est.details["pool"] == 50
    assert est.value == dedup_first_cover_oracle(mat, 0.1, metric, "greedy").value
    assert peak < mat.values.nbytes


def _truncated_pool(rng, dim, size, rho=0.2):
    return [truncate(LinearHypothesis(w), rho) for w in rng.normal(size=(size, dim))]


def _computed(pool, x, blocks, memo=None):
    """A reader of the pool's outputs on x, computed on demand; ``blocks``
    collects the (lo, hi) of each computed block, and ``memo``, when given,
    keeps each block's outputs for later readers."""

    def compute(lo, hi):
        blocks.append((lo, hi))
        if memo is None:
            return outputs_matrix(pool, x[lo:hi]).values
        if (lo, hi) not in memo:
            memo[lo, hi] = outputs_matrix(pool, x[lo:hi]).values
        return memo[lo, hi]

    return Rows.computed(len(x), len(pool), compute)


@pytest.mark.parametrize("dim", [4, 8])
def test_computed_rows_are_the_whole_product_bit_for_bit(dim):
    # every first read and every second read after it, over odd row counts
    # whose last block granule holds one or three rows.  From dim 8 on, a
    # BLAS product of rows that start off a multiple of four rounds
    # otherwise, and so does a lone row at any dim: no block may be either
    rng = np.random.default_rng(dim)
    pool = _truncated_pool(rng, dim, 7, rho=1.5)
    granule = kernels._ROW_GRANULE
    for n in (1, 3, granule + 1, 2 * granule + 1, 3 * granule + 3):
        x = rng.normal(size=(n, dim))
        want = outputs_matrix(pool, x).values
        memo = {}
        for first in range(1, n + 1):
            for second in range(first, n + 2):
                blocks = []
                rows = _computed(pool, x, blocks, memo)
                assert rows.shape == (n, 7) and rows.columns.tolist() == list(range(7))
                assert np.array_equal(rows.read(first), want[:first])
                assert np.array_equal(rows.read(second), want[:second]), (n, first, second)
                assert all(hi - lo >= 2 or n == 1 for lo, hi in blocks), blocks
                assert all(lo % granule == 0 for lo, hi in blocks), blocks
                assert [lo for lo, hi in blocks[1:]] == [hi for lo, hi in blocks[:-1]]
        # a view of some columns reads the same rows
        view = _computed(pool, x, []).take(np.array([5, 1, 1]))
        assert view.shape == (n, 3) and view.columns.tolist() == [5, 1, 1]
        assert np.array_equal(view.read(n)[:, view.columns], want[:, [5, 1, 1]])


def _reader_cover_cases():
    """(matrix, a function making a fresh reader of it that computes its
    rows on demand) pairs: clipped pools whose members all tie on their
    first 20 rows, with exact duplicate columns and columns told apart by
    the last row only, over an odd number of rows; and the dedup cases."""
    rng = np.random.default_rng(41)
    cases = []
    for n in (21, 41, 201):
        ws = rng.normal(size=(12, 4))
        ws[:, 0] = rng.uniform(0.2, 1.0, size=12)
        ws[:, 3] = 0.0
        ws[7] = ws[2]  # an exact duplicate
        ws[9] = ws[4] + np.array([0.0, 0.0, 0.0, 0.5])  # differs in the last coordinate only
        x = rng.normal(size=(n, 4))
        x[:20] = [50.0, 0.0, 0.0, 0.0]  # every member clips to rho on these
        x[:, 3] = 0.0
        x[-1] = [0.0, 0.0, 0.0, 0.1]
        pool = [truncate(LinearHypothesis(w), 0.2) for w in ws]
        cases.append((outputs_matrix(pool, x), lambda pool=pool, x=x: _computed(pool, x, [])))
    for values in _dedup_cases().values():
        cases.append((LossMatrix(values), lambda v=values: Rows.computed(*v.shape, lambda lo, hi: v[lo:hi])))
    return cases


@pytest.mark.parametrize("mode", ["exact", "greedy"])
@pytest.mark.parametrize("metric", ["linf", "l2"])
def test_cover_of_computed_rows_is_the_cover_of_the_matrix(metric, mode):
    fn = covering_number_linf if metric == "linf" else covering_number_l2
    for matrix, reader in _reader_cover_cases():
        for eps in (0.0, 0.01, 0.1, 0.25):
            got, want = fn(reader(), eps, mode=mode), fn(matrix, eps, mode=mode)
            oracle = dedup_first_cover_oracle(matrix, eps, metric, mode)
            assert (got.value, got.method, got.details) == (want.value, want.method, want.details), eps
            assert (want.value, want.method, want.details) == (oracle.value, oracle.method, oracle.details)


def test_cover_computes_only_the_rows_that_settle_it():
    # 50 members over 10^4 + 1 points, no two within eps: dedup and the
    # relation settle within the first few blocks, and the cover is the one
    # of the whole matrix, the pool
    rng = np.random.default_rng(7)
    pool = _truncated_pool(rng, 4, 50)
    x = rng.normal(size=(10_001, 4))
    matrix = outputs_matrix(pool, x)
    for metric, eps in (("linf", 0.1), ("l2", 0.001)):
        blocks = []
        got = covering_number(_computed(pool, x, blocks), eps, metric, mode="greedy")
        want = covering_number(matrix, eps, metric, mode="greedy")
        assert (got.value, got.details) == (want.value, want.details) and got.value == 50
        assert blocks[-1][1] <= 512, blocks
