"""Desk-scale trainers producing norm-capped hypotheses.

All trainers are deterministic given (sample, config, seed), take explicit
step counts (non-convergence is not an error), and return hypotheses whose
class constraints hold by construction.  The hinge and bound-min trainers
descend through one projected-subgradient loop, ``_descend``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError, _count, _options
from .hypotheses import DecisionStump, EnsembleHypothesis, FFNNHypothesis, LinearHypothesis
from .rng import substream
from .samples import LabeledSample

__all__ = [
    "METHODS",
    "train",
    "train_hinge_linear",
    "train_boost_stumps",
    "train_tiny_mlp",
    "train_bound_min",
    "ramp_objective",
]


def _signed_points(sample: LabeledSample) -> np.ndarray:
    return sample.labels[:, None] * sample.points


def _positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise InputError(f"{name} must be finite and > 0, got {value!r}")


def _project(w: np.ndarray) -> np.ndarray:
    """``w`` scaled onto the unit ball when it lies outside it."""
    nrm = np.linalg.norm(w)
    return w / nrm if nrm > 1.0 else w


def _descend(signed: np.ndarray, w: np.ndarray, steps: int, step0: float, objective):
    """Projected subgradient descent over ||w|| <= 1, from ``w``.

    ``objective(signed @ w)`` returns the (value, subgradient) of iterate w,
    so each step makes one product with ``signed``.  Step t moves against
    the subgradient by step0/sqrt(t) and projects onto the unit ball.
    Returns the first iterate of least value, and that value.
    """
    value, grad = objective(signed @ w)
    best_w, best_value = w, value
    for t in range(1, int(steps) + 1):
        w = _project(w - (step0 / np.sqrt(t)) * grad)
        value, grad = objective(signed @ w)
        if value < best_value:
            best_w, best_value = w, value
    return best_w, float(best_value)


def train_hinge_linear(
    sample: LabeledSample, steps: int = 2000, seed: int = 0, step0: float = 1.0
) -> LinearHypothesis:
    """Projected subgradient descent on the mean hinge loss, ||w|| <= 1."""
    _positive("step0", step0)
    signed = _signed_points(sample)
    m, n = signed.shape
    rng = substream(seed, "hinge-init")
    w = rng.standard_normal(n)
    w /= max(np.linalg.norm(w), 1e-12)

    def objective(margins):
        return float(np.mean(margins <= 0.0)), -signed[margins < 1.0].sum(axis=0) / m

    return LinearHypothesis(_descend(signed, w, steps, step0, objective)[0])


def _best_stump(points: np.ndarray, labels: np.ndarray, weights: np.ndarray):
    """Minimum weighted-error stump over all features, thresholds, polarities."""
    m, n = points.shape
    total = float(weights.sum())
    best = (None, np.inf)
    for f in range(n):
        order = np.argsort(points[:, f], kind="stable")
        v = points[order, f]
        wy_pos = np.where(labels[order] > 0, weights[order], 0.0)
        wy_neg = np.where(labels[order] < 0, weights[order], 0.0)
        # threshold below all points, then between consecutive distinct values
        cuts = [v[0] - 1.0]
        cuts.extend((v[i] + v[i + 1]) / 2.0 for i in range(m - 1) if v[i] < v[i + 1])
        pos_below = np.concatenate([[0.0], np.cumsum(wy_pos)])
        neg_below = np.concatenate([[0.0], np.cumsum(wy_neg)])
        idx = 0
        for t in cuts:
            while idx < m and v[idx] < t:
                idx += 1
            # polarity +1 predicts +1 on x >= t: errors are negatives above + positives below
            err_plus = (neg_below[m] - neg_below[idx]) + pos_below[idx]
            for polarity, err in ((1, err_plus), (-1, total - err_plus)):
                if err < best[1]:
                    best = (DecisionStump(f, float(t), polarity), float(err))
    return best


def train_boost_stumps(sample: LabeledSample, rounds: int = 10, seed: int = 0) -> EnsembleHypothesis:
    """AdaBoost over decision stumps; the returned ensemble's weights are the
    round coefficients renormalized to sum to one."""
    rounds = _count("rounds", rounds, 1)
    x, y = sample.points, sample.labels
    m = sample.m
    weights = np.full(m, 1.0 / m)
    stumps = []
    alphas = []
    for _ in range(rounds):
        stump, err = _best_stump(x, y, weights)
        err = min(max(err, 1e-12), 1.0 - 1e-12)
        if err >= 0.5:
            break
        alpha = 0.5 * np.log((1.0 - err) / err)
        stumps.append(stump)
        alphas.append(alpha)
        weights = weights * np.exp(-alpha * y * stump.predict(x))
        weights /= weights.sum()
    if not stumps:
        stump, _ = _best_stump(x, y, np.full(m, 1.0 / m))
        stumps, alphas = [stump], [1.0]
    return EnsembleHypothesis(np.asarray(alphas), tuple(stumps))


def train_tiny_mlp(
    sample: LabeledSample,
    width: int = 4,
    steps: int = 10000,
    seed: int = 0,
    lr: float = 0.5,
) -> FFNNHypothesis:
    """Two-layer tanh net on the logistic loss with hand-derived gradients.

    Forward pass matches FFNNHypothesis: inputs are bias-augmented at every
    layer and the activation is applied at every layer including the last.
    """
    width = _count("width", width, 1)
    _positive("lr", lr)
    x, y = sample.points, sample.labels
    m, n = x.shape
    rng = substream(seed, "mlp-init")
    w1 = rng.standard_normal((width, n + 1))
    w2 = rng.standard_normal((1, width + 1))
    xb = np.hstack([x, np.ones((m, 1))])
    for _ in range(int(steps)):
        z1 = xb @ w1.T
        a1 = np.tanh(z1)
        a1b = np.hstack([a1, np.ones((m, 1))])
        v = a1b @ w2.T
        f = np.tanh(v)[:, 0]
        # logistic loss: dL/df = -y * sigmoid(-y f)
        df = -y / (1.0 + np.exp(y * f))
        dv = (df * (1.0 - f**2))[:, None] / m
        g2 = dv.T @ a1b
        da1 = dv @ w2[:, :width]
        dz1 = da1 * (1.0 - a1**2)
        g1 = dz1.T @ xb
        w2 -= lr * g2
        w1 -= lr * g1
    return FFNNHypothesis((w1, w2), activation="tanh", row_cap=100.0)


def _ramp(margins: np.ndarray, rho: float, lam: float):
    """The ramp margin loss r = mean clip(1 - u/rho, 0, 1) of margins u, and
    the objective r + (lam/rho) sqrt(r)."""
    r = float(np.clip(1.0 - margins / rho, 0.0, 1.0).mean())
    return r, r + (lam / rho) * np.sqrt(r)


def ramp_objective(sample: LabeledSample, w, rho: float, lam: float) -> float:
    """Ramp margin loss plus the lambda/rho-scaled square root of itself."""
    return float(_ramp(_signed_points(sample) @ w, rho, lam)[1])


def train_bound_min(
    sample: LabeledSample,
    lam: float,
    rho_grid: list[float],
    restarts: int = 4,
    seed: int = 0,
    steps: int = 1500,
):
    """Minimize the margin-loss-plus-deviation objective over ||w|| <= 1 and a
    margin grid.

    For each grid rho, projected subgradient descent runs from ``restarts``
    initializations (the first is a hinge-trained warm start, the rest are
    random unit vectors), each projected onto the unit ball, with the fixed
    1/sqrt(t) step schedule.  Returns the best (hypothesis, rho) pair and a
    record of initial/final objectives per restart.
    """
    grid = [float(r) for r in rho_grid]
    if not grid:
        raise InputError("rho_grid must be nonempty")
    for rho in grid:
        _positive("rho_grid entries", rho)
    if not (math.isfinite(lam) and lam >= 0):
        raise InputError(f"lam must be finite and >= 0, got {lam!r}")
    restarts = _count("restarts", restarts, 1)
    signed = _signed_points(sample)
    m, n = signed.shape
    warm = train_hinge_linear(sample, steps=min(steps, 800), seed=seed).w
    best = None
    record = []
    for ri, rho in enumerate(grid):

        def objective(margins):
            r, value = _ramp(margins, rho, lam)
            grad = -signed[(margins > 0.0) & (margins < rho)].sum(axis=0) / (m * rho)
            if r > 0.0:
                grad = grad * (1.0 + lam / (rho * 2.0 * np.sqrt(r)))
            return value, grad

        for s in range(restarts):
            if s == 0:
                w0 = warm
            else:
                rng = substream(seed, "restart", ri, s)
                w0 = rng.standard_normal(n)
                w0 /= max(np.linalg.norm(w0), 1e-12)
            init_obj = ramp_objective(sample, w0, rho, lam)
            w_best, obj_best = _descend(signed, _project(w0), steps, 1.0, objective)
            record.append(
                {"rho": rho, "restart": s, "initial_objective": init_obj, "objective": obj_best}
            )
            if best is None or obj_best < best[0]:
                best = (obj_best, w_best, rho)
    value, w, rho = best
    info = {
        "objective": value,
        "rho": rho,
        "restarts": record,
        "norm": float(np.linalg.norm(w)),
    }
    return LinearHypothesis(w), rho, info


# method -> trainer; its keyword parameters after ``sample`` are its options
METHODS = {
    "hinge-subgradient-linear": train_hinge_linear,
    "boost-stumps": train_boost_stumps,
    "tiny-mlp": train_tiny_mlp,
}


def train(method: str, sample: LabeledSample, config: dict | None = None):
    """Dispatch to a trainer by method name; ``config`` holds its checked
    options (an unknown key or a bad value raises ``InputError``)."""
    if method not in METHODS:
        raise InputError(f"unknown training method {method!r}; choose from {sorted(METHODS)}")
    trainer = METHODS[method]
    return trainer(sample, **_options("trainer", trainer, config or {}, skip=("sample",)))
