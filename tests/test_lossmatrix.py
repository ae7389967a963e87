import json

import numpy as np
import pytest

from relmargin import (
    InputError,
    LabeledSample,
    LinearHypothesis,
    LossMatrix,
    TableHypothesis,
    count_dichotomies,
    margins,
    peel,
    ramp,
    step,
    transform_matrix,
)
from oracles import distinct_columns, loss_matrix_csv
from relmargin.lossmatrix import distinct_index, shell_index


def test_range_tag_validation():
    with pytest.raises(InputError):
        LossMatrix(np.array([[0.5]]), "binary")
    with pytest.raises(InputError):
        LossMatrix(np.array([[1.5]]), "unit-interval")
    with pytest.raises(InputError):
        LossMatrix(np.array([[np.nan]]), "real")


def test_shell_index_examples():
    # m = 8: sum 3 -> k=2, sum 0 -> k=0, sum 8 -> k=3
    assert shell_index(3) == 2
    assert shell_index(0) == 0
    assert shell_index(8) == 3


def test_peel_partition_invariants():
    rng = np.random.default_rng(0)
    for _ in range(25):
        m = int(rng.integers(1, 30))
        p = int(rng.integers(1, 12))
        mat = LossMatrix(rng.random((m, p)), "unit-interval")
        seen = []
        for k, cols in peel(mat).items():
            for j in cols:
                s = mat.values[:, j].sum()
                assert 2**k <= s + 1 < 2 ** (k + 1)
            seen.extend(cols)
        assert sorted(seen) == list(range(p))


def test_peel_rejects_out_of_range():
    with pytest.raises(InputError):
        peel(LossMatrix(np.array([[1.5]]), "real"))


def test_count_dichotomies_examples():
    ident = LossMatrix(np.tile(np.array([[1.0], [0.0]]), (1, 5)), "binary")
    assert count_dichotomies(ident) == 1
    # thresholds 1_{x <= t} over 3 distinct points: enumerate threshold pool
    points = np.array([1.0, 2.0, 3.0])
    thresholds = [0.5, 1.5, 2.5, 3.5, 1.7, 2.9]  # includes redundant behaviors
    cols = np.stack([(points <= t).astype(float) for t in thresholds], axis=1)
    expected = len({tuple(col) for col in cols.T})
    assert expected == 4
    assert count_dichotomies(LossMatrix(cols, "binary")) == 4
    full = LossMatrix(np.array([[b >> i & 1 for b in range(8)] for i in range(3)], dtype=float), "binary")
    assert count_dichotomies(full) == 8


def test_count_dichotomies_column_permutation_invariant():
    rng = np.random.default_rng(5)
    vals = rng.integers(0, 2, size=(6, 9)).astype(float)
    mat = LossMatrix(vals, "binary")
    perm = LossMatrix(vals[:, rng.permutation(9)], "binary")
    assert count_dichotomies(mat) == count_dichotomies(perm)
    assert count_dichotomies(mat) <= min(2**6, 9)


def test_count_dichotomies_requires_binary():
    with pytest.raises(InputError):
        count_dichotomies(LossMatrix(np.array([[0.5]]), "unit-interval"))


def test_distinct_columns_matches_np_unique():
    rng = np.random.default_rng(8)
    atoms = [-3.0, -1.0, -5e-324, -0.0, 0.0, 5e-324, 1e-300, 0.5, 1.0, 2.0]
    for trial in range(400):
        m = int(rng.integers(1, 30))
        p = int(rng.integers(1, 20))
        if trial % 2:
            values = rng.choice(atoms, size=(m, p))
        else:
            values = rng.normal(size=(m, p))
        # duplicate columns, and columns equal on all but their last row
        src = rng.integers(0, p, size=p // 2 + 1)
        values[:, rng.integers(0, p, size=src.size)] = values[:, src]
        if p > 2:
            values[: m - 1, 1] = values[: m - 1, 2]
        got = distinct_columns(values)
        want = np.unique(values.T, axis=0)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


@pytest.mark.parametrize("m,p", [(70000, 12), (3, 50000), (40, 4000)])
def test_distinct_columns_matches_np_unique_over_many_key_blocks(m, p):
    rng = np.random.default_rng(m)
    values = rng.choice([-1.0, -0.0, 0.0, 0.5], size=(m, p)) if m < 10 else rng.normal(size=(m, p))
    values[:, rng.integers(0, p, size=p // 3)] = values[:, rng.integers(0, p, size=p // 3)]
    values[1:, 0] = values[1:, 1]  # equal on all but their first row
    got = distinct_columns(values)
    want = np.unique(values.T + 0.0, axis=0)
    assert got.shape == want.shape and np.array_equal(got, want)
    assert got.flags.c_contiguous and not np.signbit(got[got == 0]).any()


def test_distinct_columns_holds_one_more_copy_at_most():
    import tracemalloc

    values = np.random.default_rng(5).normal(size=(20000, 50))
    tracemalloc.start()
    try:
        got = distinct_columns(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.shape == (50, 20000)
    # the keys, then the distinct columns, and a block of compared rows
    assert peak <= 1.2 * values.nbytes


def test_distinct_columns_folds_signed_zeros():
    values = np.array([[0.0, -0.0, 1.0], [-0.0, 0.0, -0.0]])
    got = distinct_columns(values)
    assert got.tolist() == [[0.0, 0.0], [1.0, 0.0]]
    assert not np.signbit(got).any()


def test_transform_matrix_tags_and_values():
    sample = LabeledSample(points=np.arange(3, dtype=float)[:, None], labels=np.ones(3))
    pool = [TableHypothesis({0: 0.9, 1: 0.1, 2: 0.4}), TableHypothesis({0: -1.0, 1: 1.0, 2: 0.0})]
    mat = transform_matrix(pool, sample, step(0.5))
    assert mat.range_tag == "binary"
    assert mat.values[:, 0] == pytest.approx([0.0, 1.0, 1.0])
    assert mat.values[:, 1] == pytest.approx([1.0, 0.0, 1.0])
    assert transform_matrix(pool, sample, ramp(0.5)).range_tag == "unit-interval"
    # the columns, each the transform of one member's margins
    rng = np.random.default_rng(8)
    sample = LabeledSample(points=rng.standard_normal((40, 3)), labels=np.where(rng.random(40) < 0.5, -1.0, 1.0))
    pool = [LinearHypothesis(w) for w in rng.standard_normal((7, 3))]
    for transform in (step(0.3), ramp(0.3)):
        want = np.stack([transform(margins(h, sample)) for h in pool], axis=1)
        assert np.array_equal(transform_matrix(pool, sample, transform).values, want)


def test_csv_and_json_round_trip():
    vals = np.array([[0.125, 1.0], [0.5, 0.25]])
    mat = LossMatrix(vals, "unit-interval")
    text = loss_matrix_csv(mat)
    assert text.splitlines()[0] == "index,c0,c1"
    back = LossMatrix.from_csv(text, "unit-interval")
    assert np.array_equal(back.values, vals)
    back2 = LossMatrix.from_json(json.loads(json.dumps(mat.to_json())))
    assert np.array_equal(back2.values, vals)
    assert back2.range_tag == "unit-interval"


def test_dedup_past_the_prefix_matches_np_unique():
    # columns that share their first k >= 16 rows are told apart (or not)
    # by later rows only; some share every row but the last, some all
    rng = np.random.default_rng(17)
    for trial in range(200):
        m = int(rng.integers(1, 60))
        p = int(rng.integers(1, 30))
        values = rng.choice([-0.5, -0.0, 0.0, 0.5], size=(m, p)) if trial % 2 else rng.normal(size=(m, p))
        shared = rng.integers(0, p, size=int(rng.integers(1, p + 1)))
        k = int(rng.integers(min(16, m), m + 1))
        values[:k, shared] = values[:k, shared[:1]]
        if m > 1 and p > 2:
            values[: m - 1, 1] = values[: m - 1, 2]
        values[:, rng.integers(0, p, size=p // 4)] = values[:, rng.integers(0, p, size=p // 4)]
        want = np.unique(values.T + 0.0, axis=0)
        got = distinct_columns(values)
        assert got.shape == want.shape and np.array_equal(got, want) and not np.signbit(got[got == 0]).any()
        index = distinct_index(values)
        assert np.array_equal(values.T[index] + 0.0, want)
        # each index is the first column equal to its distinct column
        first = [int(np.flatnonzero((values.T == values.T[j]).all(axis=1))[0]) for j in index]
        assert index.tolist() == first


def test_distinct_index_of_empty_and_single_shapes():
    assert distinct_index(np.zeros((0, 4))).tolist() == [0]
    assert distinct_index(np.zeros((0, 0))).tolist() == []
    assert distinct_index(np.zeros((3, 0))).tolist() == []
    assert distinct_index(np.array([[2.0, -0.0, 0.0, 2.0, -1.0]])).tolist() == [4, 1, 0]
    assert distinct_index(np.arange(40.0)[:, None]).tolist() == [0]
