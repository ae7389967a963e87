"""Margin transforms and empirical / true risk evaluation.

Every transform phi is squeezed between the zero-one and the margin
indicator, ``1[u < 0] <= phi(u) <= 1[u < rho]``, and is non-increasing:

* ``step``      : 1[u < rho]
* ``half-step`` : 1[u < rho/2]
* ``ramp``      : 1 for u < 0, 1 - u/rho on [0, rho], 0 beyond
* ``smooth-cos``: 1 for u < 0, (1 + cos(pi u / rho)) / 2 on [0, rho], 0 beyond

Binary risk uses the tie-inclusive convention 1[y h(x) <= 0]; margin loss
uses the strict 1[y h(x) < rho].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, InputError, _choice, _count, _fields_json, _real
from .hypotheses import Hypothesis, margins
from .rng import substream
from .samples import LabeledSample, analytic_risk

__all__ = [
    "MarginTransform",
    "step",
    "half_step",
    "ramp",
    "smooth_cos",
    "empirical_margin_loss",
    "empirical_risk",
    "RiskEstimate",
    "true_risk",
    "holdout_error_rate",
    "loss_moment",
    "hypothesis_losses",
]

TRANSFORM_KINDS = ("step", "half-step", "ramp", "smooth-cos")


@dataclass(frozen=True)
class MarginTransform:
    kind: str
    rho: float

    def __post_init__(self):
        if self.kind not in TRANSFORM_KINDS:
            raise InputError(f"unknown transform kind {self.kind!r}")
        _real("rho", self.rho, "(0, inf)")

    def __call__(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=np.float64)
        if self.kind == "step":
            return (u < self.rho).astype(np.float64)
        if self.kind == "half-step":
            return (u < self.rho / 2.0).astype(np.float64)
        if self.kind == "ramp":
            return np.clip(1.0 - u / self.rho, 0.0, 1.0)
        return np.where(
            u < 0.0,
            1.0,
            np.where(u > self.rho, 0.0, (1.0 + np.cos(np.pi * u / self.rho)) / 2.0),
        )


def step(rho: float) -> MarginTransform:
    return MarginTransform("step", rho)


def half_step(rho: float) -> MarginTransform:
    return MarginTransform("half-step", rho)


def ramp(rho: float) -> MarginTransform:
    return MarginTransform("ramp", rho)


def smooth_cos(rho: float) -> MarginTransform:
    return MarginTransform("smooth-cos", rho)


def empirical_margin_loss(h: Hypothesis, sample: LabeledSample, t: MarginTransform) -> float:
    """(1/m) sum phi(y_i h(x_i)); with the step transform this is the rho-margin loss."""
    return float(np.mean(t(margins(h, sample))))


def empirical_risk(h: Hypothesis, sample: LabeledSample) -> float:
    """Tie-inclusive empirical zero-one risk (1/m) sum 1[y_i h(x_i) <= 0]."""
    return float(np.mean(margins(h, sample) <= 0.0))


@dataclass(frozen=True)
class RiskEstimate:
    value: float
    stderr: float
    method: str

    def to_json(self) -> dict:
        return _fields_json(self)


def true_risk(h: Hypothesis, dist, mode: str = "analytic", n: int | None = None, seed: int | None = None) -> RiskEstimate:
    """Generalization error, either closed-form or by a fresh holdout draw of
    ``n`` points (an integer >= 1) from ``seed``."""
    _choice("mode", mode, ("analytic", "holdout"))
    if mode == "analytic":
        return RiskEstimate(value=analytic_risk(h, dist), stderr=0.0, method="analytic")
    n = _count("n", n, 1)
    if seed is None:
        raise InputError("holdout mode requires a seed")
    value = float(holdout_error_rate(h.predict, dist, n, substream(seed, "holdout")))
    stderr = float(np.sqrt(value * (1.0 - value) / n))
    return RiskEstimate(value=value, stderr=stderr, method=f"holdout(n={n})")


_HOLDOUT_BLOCK = 100_000  # rows per draw: bounds the rows x hypotheses predictions held at once


def holdout_error_rate(predict, dist, n: int, rng):
    """Tie-inclusive zero-one error rate of ``predict`` on ``n`` fresh draws
    from ``dist``, drawn from ``rng`` in blocks of at most 10^5 rows.
    Predictions have one row per point, and one column per hypothesis when
    ``predict`` evaluates several (one rate each)."""
    errors = 0
    for start in range(0, n, _HOLDOUT_BLOCK):
        x, y = dist.sample(min(_HOLDOUT_BLOCK, n - start), rng)
        errors = errors + ((y * predict(x).T) <= 0.0).sum(axis=-1)
    return errors / n


def loss_moment(losses, alpha: float) -> float:
    """Empirical alpha-th moment (1/m) sum L_i^alpha for alpha in (1, 2]."""
    _real("alpha", alpha, "(1, 2]")
    arr = np.asarray(losses, dtype=np.float64)
    if arr.size == 0:
        raise InputError("loss moment of an empty sample is undefined")
    if not np.all(np.isfinite(arr)):
        raise DataError("non-finite loss value encountered")
    if np.any(arr < 0):
        raise DataError("loss values must be nonnegative")
    return float(np.mean(arr**alpha))


_LOSS_KINDS = ("hinge", "squared-hinge", "squared")


def hypothesis_losses(h: Hypothesis, sample: LabeledSample, kind: str = "hinge") -> np.ndarray:
    """Per-example unbounded loss values L(h, z) for the given surrogate kind."""
    u = margins(h, sample)
    if kind == "hinge":
        return np.maximum(0.0, 1.0 - u)
    if kind == "squared-hinge":
        return np.maximum(0.0, 1.0 - u) ** 2
    if kind == "squared":
        return (1.0 - u) ** 2
    raise InputError(f"unknown loss kind {kind!r}; choose from {_LOSS_KINDS}")
