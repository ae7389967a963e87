import numpy as np
import pytest

from relmargin import (
    InputError,
    LabeledSample,
    MarginSeparable,
    empirical_risk,
    generate,
    margins,
    train,
    train_bound_min,
    train_boost_stumps,
    train_hinge_linear,
    train_tiny_mlp,
)
from relmargin.training import ramp_objective


def _separable(m=300, gap=0.3, seed=21, dim=4):
    return generate(MarginSeparable(dim=dim, gap=gap, noise_rate=0.0), m, seed=seed)


def test_hinge_linear_fits_separable_data():
    s = _separable()
    h = train_hinge_linear(s, steps=1200, seed=2)
    assert empirical_risk(h, s) == 0.0
    assert margins(h, s).min() > 0.0  # some positive margin
    assert np.linalg.norm(h.w) <= 1.0 + 1e-9


def test_boost_single_round_is_best_stump():
    s = _separable(m=120, seed=5, dim=2)
    h = train_boost_stumps(s, rounds=1)
    assert len(h.stumps) == 1
    assert h.weights == pytest.approx([1.0])


def test_boost_improves_with_rounds():
    rng = np.random.default_rng(11)
    x = rng.uniform(-1, 1, size=(200, 2))
    y = np.where((x[:, 0] > 0) ^ (x[:, 1] > 0), 1.0, -1.0)  # needs several stumps
    s = LabeledSample(points=x, labels=y)
    err1 = empirical_risk(train_boost_stumps(s, rounds=1), s)
    err20 = empirical_risk(train_boost_stumps(s, rounds=20), s)
    assert err20 < err1


def test_tiny_mlp_learns_xor():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, size=(200, 2))
    y = np.sign(x[:, 0] * x[:, 1])
    y[y == 0] = 1.0
    s = LabeledSample(points=x, labels=y)
    h = train_tiny_mlp(s, width=4, steps=8000, seed=1, lr=0.5)
    assert empirical_risk(h, s) <= 0.1


def test_train_dispatch_and_unknown_method():
    s = _separable(m=60, dim=2)
    h = train("hinge-subgradient-linear", s, {"steps": 300, "seed": 0})
    assert h.kind == "linear"
    with pytest.raises(InputError):
        train("mystery", s)
    with pytest.raises(InputError, match=r"unknown trainer keys \['stpes'\]"):
        train("hinge-subgradient-linear", s, {"stpes": 1})
    with pytest.raises(InputError, match=r"unknown trainer keys \['steps'\]"):
        train("boost-stumps", s, {"steps": 5})
    with pytest.raises(InputError, match="trainer.steps must be an integer >= 0, got 2.5"):
        train("hinge-subgradient-linear", s, {"steps": 2.5})
    with pytest.raises(InputError, match="trainer.steps must be an integer >= 0, got -3"):
        train("hinge-subgradient-linear", s, {"steps": -3})
    with pytest.raises(InputError, match="trainer.lr must be finite, got nan"):
        train("tiny-mlp", s, {"lr": float("nan")})
    # the defaults are the trainer's own
    assert train("boost-stumps", s).to_json() == train_boost_stumps(s, rounds=10).to_json()


def test_bound_min_reaches_zero_on_separable_data():
    s = _separable(m=500, gap=0.3, seed=21)
    h, rho, info = train_bound_min(s, lam=0.05, rho_grid=[0.1, 0.2, 0.3], restarts=4, seed=3)
    assert info["objective"] == 0.0
    assert rho in (0.1, 0.2, 0.3)
    assert np.linalg.norm(h.w) <= 1.0 + 1e-9
    assert float(np.clip(1 - margins(h, s) / rho, 0, 1).mean()) == 0.0


def test_bound_min_norm_cap_holds_even_without_warm_start():
    s = _separable(m=120, seed=8, dim=3)
    h, _, info = train_bound_min(
        s, lam=0.3, rho_grid=[0.05, 0.2], restarts=3, seed=4, steps=400
    )
    assert np.linalg.norm(h.w) <= 1.0 + 1e-9
    assert info["norm"] <= 1.0 + 1e-9


def test_bound_min_never_worse_than_any_initialization():
    s = _separable(m=150, seed=13, dim=3)
    _, _, info = train_bound_min(
        s, lam=0.2, rho_grid=[0.1, 0.25], restarts=3, seed=7, steps=500
    )
    best = info["objective"]
    for rec in info["restarts"]:
        assert best <= rec["initial_objective"] + 1e-12
        assert rec["objective"] <= rec["initial_objective"] + 1e-12  # best-so-far tracking


def test_bound_min_lambda_zero_is_plain_ramp_minimization():
    s = _separable(m=100, seed=17, dim=2)
    rho = 0.2
    h, _, info = train_bound_min(
        s, lam=0.0, rho_grid=[rho], restarts=2, seed=5, steps=400
    )
    ramp_loss = float(np.clip(1 - margins(h, s) / rho, 0, 1).mean())
    assert info["objective"] == pytest.approx(ramp_loss, abs=1e-12)
    assert ramp_objective(s, h.w, rho, 0.0) == pytest.approx(ramp_loss, abs=1e-12)


def test_bound_min_input_validation():
    s = _separable(m=50, dim=2)
    with pytest.raises(InputError):
        train_bound_min(s, lam=0.1, rho_grid=[], restarts=2, seed=0)
    with pytest.raises(InputError):
        train_bound_min(s, lam=-1.0, rho_grid=[0.1], restarts=2, seed=0)
    with pytest.raises(InputError):
        train_bound_min(s, lam=0.1, rho_grid=[0.1], restarts=0, seed=0)
