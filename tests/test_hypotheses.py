import json
import math

import numpy as np
import pytest

from relmargin import (
    DecisionStump,
    EnsembleHypothesis,
    FFNNHypothesis,
    InputError,
    LabeledSample,
    LinearHypothesis,
    TableHypothesis,
    hypothesis_from_json,
    margin,
    margins,
    truncate,
)
from relmargin.hypotheses import TruncatedHypothesis
from relmargin.reportio import canonical_json

from oracles import hypothesis_to_json_oracle


def test_margin_linear_examples():
    h = LinearHypothesis(np.array([1.0, 0.0]))
    assert margin(h, [1.0, 0.0], +1) == 1.0
    assert margin(h, [1.0, 0.0], -1) == -1.0


def test_margin_table_lookup():
    h = TableHypothesis({0: 0.3})
    assert margin(h, [0.0], +1) == pytest.approx(0.3)


def test_margin_dimension_mismatch():
    h = LinearHypothesis(np.array([1.0, 0.0]))
    with pytest.raises(InputError):
        margin(h, [1.0, 0.0, 0.0], +1)


def test_margin_label_validation():
    h = LinearHypothesis(np.array([1.0]))
    with pytest.raises(InputError):
        margin(h, [1.0], 0)


def test_linear_projection_to_unit_ball():
    h = LinearHypothesis(np.array([3.0, 4.0]))
    assert np.linalg.norm(h.w) == pytest.approx(1.0)
    # direction is preserved
    assert h.w[1] / h.w[0] == pytest.approx(4.0 / 3.0)


def test_ensemble_weight_normalization():
    stumps = (DecisionStump(0, 0.0), DecisionStump(0, 1.0, -1))
    h = EnsembleHypothesis(np.array([2.0, 6.0]), stumps)
    assert h.weights.sum() == pytest.approx(1.0)
    assert np.all(h.weights >= 0)
    out = h.predict(np.array([[2.0], [-1.0]]))
    assert np.all(np.abs(out) <= 1.0 + 1e-12)


def test_ensemble_rejects_all_zero_weights():
    with pytest.raises(InputError):
        EnsembleHypothesis(np.array([0.0]), (DecisionStump(0, 0.0),))


def test_ffnn_row_cap_projection():
    w1 = np.array([[4.0, 4.0, 2.0], [0.1, 0.1, 0.1]])
    w2 = np.array([[1.0, 1.0, 1.0]])
    h = FFNNHypothesis((w1, w2), row_cap=2.0)
    for layer in h.layers:
        assert np.all(np.abs(layer).sum(axis=1) <= 2.0 + 1e-12)


def test_ffnn_forward_shape_and_range():
    rng = np.random.default_rng(0)
    h = FFNNHypothesis((rng.normal(size=(4, 3)), rng.normal(size=(1, 5))), row_cap=50.0)
    out = h.predict(rng.normal(size=(7, 2)))
    assert out.shape == (7,)
    assert np.all(np.abs(out) <= 1.0)  # tanh output layer


def test_table_missing_index_is_input_error():
    h = TableHypothesis({0: 0.5})
    with pytest.raises(InputError):
        h.predict(np.array([[3.0]]))


def test_truncation_examples():
    base = TableHypothesis({0: 2.0, 1: -3.0, 2: 0.5})
    h = truncate(base, 1.0)
    pts = np.array([[0.0], [1.0], [2.0]])
    assert h.predict(pts) == pytest.approx([1.0, -1.0, 0.5])


def test_truncation_requires_positive_rho():
    with pytest.raises(InputError):
        truncate(LinearHypothesis(np.array([1.0])), 0.0)


@pytest.mark.parametrize("rho", [-1.0, 0.0, math.nan, math.inf])
def test_truncated_hypothesis_rejects_a_rho_that_is_not_finite_and_positive(rho):
    base = LinearHypothesis(np.array([1.0, 0.0]))
    with pytest.raises(InputError, match="rho"):
        TruncatedHypothesis(base=base, rho=rho)
    with pytest.raises(InputError, match="rho"):
        truncate(base, rho)
    # hypothesis.v1.json requires rho > 0, and the loader holds a file to it
    with pytest.raises(InputError, match="rho"):
        hypothesis_from_json({"kind": "truncated", "rho": rho, "base": base.to_json()})


def test_truncation_preserves_binary_and_margin_losses():
    rng = np.random.default_rng(7)
    sample = LabeledSample(
        points=rng.normal(size=(64, 3)),
        labels=rng.choice([-1.0, 1.0], size=64),
    )
    for seed in range(5):
        w = np.random.default_rng(seed).normal(size=3)
        h = LinearHypothesis(w)
        rho = 0.1 + 0.4 * seed
        ht = truncate(h, rho)
        u, ut = margins(h, sample), margins(ht, sample)
        assert np.array_equal(u <= 0, ut <= 0)
        assert np.array_equal(u < rho, ut < rho)


def test_hypothesis_json_round_trip():
    jsonschema = pytest.importorskip("jsonschema")
    import json
    from pathlib import Path

    schema = json.loads(
        (Path(__file__).parent.parent / "src/relmargin/schemas/hypothesis.v1.json").read_text()
    )
    stumps = (DecisionStump(1, 0.25, -1), DecisionStump(0, -0.5))
    cases = [
        LinearHypothesis(np.array([0.6, -0.3])),
        EnsembleHypothesis(np.array([1.0, 3.0]), stumps),
        FFNNHypothesis((np.ones((2, 3)), np.ones((1, 3))), row_cap=5.0),
        TableHypothesis({0: 1.0, 4: -0.25}),
        truncate(LinearHypothesis(np.array([1.0, 0.0])), 0.5),
    ]
    x = np.array([[0.3, -0.8], [1.5, 2.0]])
    x1 = np.array([[0.0, 0.0], [4.0, 0.0]])
    for h in cases:
        data = json.loads(json.dumps(h.to_json()))
        jsonschema.validate(data, schema)
        back = hypothesis_from_json(data)
        probe = x1 if h.kind == "table" else x
        assert back.predict(probe) == pytest.approx(h.predict(probe))


def test_hypothesis_json_defaults_are_the_dataclass_defaults():
    linear = hypothesis_from_json({"kind": "linear", "w": [3.0, 4.0]})
    assert linear.norm_cap == 1.0 and linear.w.tolist() == pytest.approx([0.6, 0.8])
    assert hypothesis_from_json({"kind": "stump", "feature": 1, "threshold": 0.5}).polarity == 1
    net = hypothesis_from_json({"kind": "ffnn", "layers": [[[1.0, 2.0, 0.5]]]})
    assert (net.activation, net.row_cap) == ("tanh", 10.0)
    with pytest.raises(InputError, match=r"missing linear hypothesis keys \['w'\]"):
        hypothesis_from_json({"kind": "linear", "norm_cap": 2.0})
    with pytest.raises(InputError, match="unknown hypothesis kind 'cubic'"):
        hypothesis_from_json({"kind": "cubic"})


def _json_cases():
    """Every hypothesis kind, hand-built and trained, as (name, hypothesis)."""
    from relmargin import MarginSeparable, generate
    from relmargin.training import train_boost_stumps, train_bound_min, train_hinge_linear, train_tiny_mlp

    s = generate(MarginSeparable(dim=2, gap=0.3, noise_rate=0.0), 40, seed=4)
    stumps = (DecisionStump(1, 0.25, -1), DecisionStump(0, -0.5))
    linear = train_hinge_linear(s, steps=50, seed=1)
    return [
        ("linear", LinearHypothesis(np.array([0.6, -0.3]), norm_cap=2)),
        ("stump", DecisionStump(1, 0.25, -1)),
        ("ensemble", EnsembleHypothesis(np.array([1.0, 3.0]), stumps)),
        ("ffnn", FFNNHypothesis((np.ones((2, 3)), np.ones((1, 3))), activation="relu", row_cap=5.0)),
        ("table", TableHypothesis({0: 1.0, 4: -0.25})),
        ("truncated", truncate(LinearHypothesis(np.array([1.0, 0.0])), 0.5)),
        ("truncated-ensemble", truncate(EnsembleHypothesis(np.array([1.0, 3.0]), stumps), 0.5)),
        ("hinge", linear),
        ("trained-ensemble", train_boost_stumps(s, rounds=4, seed=1)),
        # renormalizing these weights again would move their last bits
        ("trained-ensemble-6", train_boost_stumps(s, rounds=6, seed=1)),
        ("tiny-mlp", train_tiny_mlp(s, steps=50, seed=1)),
        ("bound-min", train_bound_min(s, 0.1, [0.1, 0.3], restarts=2, seed=1, steps=30)[0]),
        ("truncated-hinge", truncate(linear, 0.25)),
    ]


def test_hypothesis_json_is_its_kind_and_fields():
    for name, h in _json_cases():
        data = h.to_json()
        assert data == hypothesis_to_json_oracle(h), name
        assert canonical_json(data) == canonical_json(hypothesis_to_json_oracle(h)), name
        # a load and rewrite is exact
        assert hypothesis_from_json(json.loads(json.dumps(data))).to_json() == data, name


def test_hypothesis_reader_rejects_a_key_its_kind_does_not_have():
    with pytest.raises(InputError, match=r"unknown linear hypothesis keys \['normcap'\]"):
        hypothesis_from_json({"kind": "linear", "w": [3.0, 4.0], "normcap": 5.0})
    for name, h in _json_cases():
        data = json.loads(json.dumps(h.to_json()))
        assert hypothesis_from_json(data).kind == h.kind, name
        with pytest.raises(InputError, match=rf"unknown {h.kind} hypothesis keys \['extra', 'schema'\]"):
            hypothesis_from_json({**data, "extra": 1, "schema": "relmargin/hypothesis/v1"})
    # a nested hypothesis is read as strictly
    data = json.loads(json.dumps(truncate(EnsembleHypothesis(np.array([1.0]), (DecisionStump(1, 0.25),)), 0.5).to_json()))
    data["base"]["stumps"][0]["sign"] = -1
    with pytest.raises(InputError, match=r"unknown stump hypothesis keys \['sign'\]"):
        hypothesis_from_json(data)
