import numpy as np
import pytest

from oracles import bound_min_oracle, hinge_linear_oracle
from relmargin import (
    InputError,
    LabeledSample,
    LinearHypothesis,
    MarginSeparable,
    TwoGaussianMixture,
    empirical_risk,
    generate,
    margins,
    train,
    train_bound_min,
    train_boost_stumps,
    train_hinge_linear,
    train_tiny_mlp,
)
from relmargin.rng import substream
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
    with pytest.raises(InputError, match="width must be an integer >= 1, got 0"):
        train("tiny-mlp", s, {"width": 0})
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
    for grid in ([0.0, 0.1], [0.1, -1.0], [np.nan], [np.inf]):
        with pytest.raises(InputError, match="rho_grid entries must be finite and > 0"):
            train_bound_min(s, lam=0.1, rho_grid=grid, restarts=1, seed=0, steps=5)
    for lam in (np.inf, np.nan):
        with pytest.raises(InputError, match="lam must be finite and >= 0"):
            train_bound_min(s, lam=lam, rho_grid=[0.1], restarts=1, seed=0, steps=5)


def _same_bound_min(s, **kwargs):
    h, rho, info = train_bound_min(s, **kwargs)
    want_h, want_rho, want_info = bound_min_oracle(s, **kwargs)
    assert h.w.tobytes() == want_h.w.tobytes()
    assert (rho, info) == (want_rho, want_info)
    assert type(info["objective"]) is float
    return h, info


@pytest.mark.parametrize("dim", [1, 3, 4])
@pytest.mark.parametrize("m", [1, 2, 57, 200])
def test_linear_trainers_match_the_loops_first_written(m, dim):
    s = generate(TwoGaussianMixture(dim=dim, separation=0.5), m, seed=10 * m + dim)
    for steps in (0, 1, 300):
        h = train_hinge_linear(s, steps=steps, seed=dim)
        assert h.w.tobytes() == hinge_linear_oracle(s, steps=steps, seed=dim).w.tobytes()
        for lam in (0.0, 0.3):
            _same_bound_min(s, lam=lam, rho_grid=[0.1, 0.3], restarts=2, seed=dim, steps=steps)


def test_linear_trainers_keep_the_start_when_no_step_improves_on_it():
    # every point lies at margin 0.5 from the hinge start: the start has no
    # 0-1 error and, at rho = 0.1, a zero objective, which no later iterate
    # beats, though the hinge steps move w
    seed, dim = 2, 3
    start = substream(seed, "hinge-init").standard_normal(dim)
    start /= np.linalg.norm(start)
    rng = np.random.default_rng(0)
    across = rng.standard_normal((40, dim))
    across -= np.outer(across @ start, start)
    y = np.where(np.arange(40) % 2 == 0, 1.0, -1.0)
    s = LabeledSample(points=y[:, None] * (0.5 * start + 0.1 * across), labels=y)
    h = train_hinge_linear(s, steps=50, seed=seed)
    assert h.w.tobytes() == hinge_linear_oracle(s, steps=50, seed=seed).w.tobytes()
    assert h.w.tobytes() == LinearHypothesis(start).w.tobytes()
    h, info = _same_bound_min(s, lam=0.3, rho_grid=[0.1, 0.3], restarts=2, seed=seed, steps=50)
    assert info["objective"] == 0.0 and info["rho"] == 0.1
    assert h.w.tobytes() == LinearHypothesis(start).w.tobytes()


def test_step_sizes_must_be_finite_and_positive():
    # a negative lr climbs the loss, and step0 <= 0 never leaves the start
    s = _separable(m=40, dim=2)
    for value in (0.0, -0.5, np.nan, np.inf, -np.inf):
        with pytest.raises(InputError, match=f"lr must be finite and > 0, got {value!r}"):
            train_tiny_mlp(s, steps=5, lr=value)
        with pytest.raises(InputError, match=f"step0 must be finite and > 0, got {value!r}"):
            train_hinge_linear(s, steps=5, step0=value)
    with pytest.raises(InputError, match="lr must be finite and > 0, got -0.5"):
        train("tiny-mlp", s, {"steps": 5, "lr": -0.5})
    with pytest.raises(InputError, match="step0 must be finite and > 0, got 0.0"):
        train("hinge-subgradient-linear", s, {"steps": 5, "step0": 0.0})
    assert train_tiny_mlp(s, steps=5, lr=1e-3).kind == "ffnn"


def test_restarts_and_rounds_below_one_name_their_option():
    s = _separable(m=40, dim=2)
    for value in (0, -1):
        with pytest.raises(InputError, match=f"restarts must be an integer >= 1, got {value}"):
            train_bound_min(s, lam=0.1, rho_grid=[0.1], restarts=value, seed=0, steps=5)
        with pytest.raises(InputError, match=f"rounds must be an integer >= 1, got {value}"):
            train_boost_stumps(s, rounds=value)
