"""Hypothesis representations and margin evaluation.

Four evaluable predictor kinds are supported: linear functions with a
euclidean norm cap, convex-combination ensembles of decision stumps,
small feed-forward nets with per-row l1 caps, and explicit lookup tables
indexed by point id.  Norm constraints are enforced by projection at
construction so downstream formula code may assume them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, _dataclass_keys, _fields_json, _mapping

__all__ = [
    "Hypothesis",
    "LinearHypothesis",
    "DecisionStump",
    "EnsembleHypothesis",
    "FFNNHypothesis",
    "TableHypothesis",
    "TruncatedHypothesis",
    "truncate",
    "margin",
    "margins",
    "hypothesis_from_json",
]


def _vector(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise InputError("expected a 1-d vector")
    return arr


def _as_batch(x, dim: int) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise InputError(f"point dimension {arr.shape[-1]} does not match hypothesis dimension {dim}")
    return arr


class Hypothesis:
    """Common surface: ``predict`` on a batch of points, plus JSON round-trip."""

    kind: str = "abstract"

    def predict(self, x) -> np.ndarray:
        raise NotImplementedError

    def to_json(self) -> dict:
        return {"kind": self.kind, **_fields_json(self)}


@dataclass(frozen=True)
class LinearHypothesis(Hypothesis):
    """x -> w . x with ||w||_2 projected to at most ``norm_cap``."""

    w: np.ndarray
    norm_cap: float = 1.0

    kind = "linear"

    def __post_init__(self):
        w = _vector(self.w)
        if not (self.norm_cap > 0):
            raise InputError("norm_cap must be positive")
        nrm = float(np.linalg.norm(w))
        if nrm > self.norm_cap:
            w = w * (self.norm_cap / nrm)
        w.flags.writeable = False
        object.__setattr__(self, "w", w)

    @property
    def dim(self) -> int:
        return self.w.shape[0]

    def predict(self, x) -> np.ndarray:
        return _as_batch(x, self.dim) @ self.w


@dataclass(frozen=True)
class DecisionStump(Hypothesis):
    """x -> polarity * sign(x[feature] - threshold), sign(0) taken as +1."""

    feature: int
    threshold: float
    polarity: int = 1

    kind = "stump"

    def __post_init__(self):
        if self.polarity not in (-1, 1):
            raise InputError("stump polarity must be -1 or +1")
        if self.feature < 0:
            raise InputError("stump feature index must be nonnegative")

    def predict(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[None, :]
        if self.feature >= arr.shape[1]:
            raise InputError("stump feature index out of range for these points")
        raw = arr[:, self.feature] - self.threshold
        return self.polarity * np.where(raw >= 0.0, 1.0, -1.0)


@dataclass(frozen=True)
class EnsembleHypothesis(Hypothesis):
    """Convex combination of stumps: weights are clipped at zero and, unless
    they already sum to 1 within 1e-12, renormalized, so that a written
    ensemble loads with the exact weights it wrote."""

    weights: np.ndarray
    stumps: tuple

    kind = "ensemble"

    def __post_init__(self):
        w = np.clip(_vector(self.weights), 0.0, None)
        if len(self.stumps) != w.shape[0]:
            raise InputError("ensemble needs one weight per base stump")
        total = float(w.sum())
        if total <= 0:
            raise InputError("ensemble weights must have positive sum")
        if abs(total - 1.0) > 1e-12:
            w = w / total
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "stumps", tuple(self.stumps))

    def predict(self, x) -> np.ndarray:
        preds = np.stack([s.predict(x) for s in self.stumps], axis=1)
        return preds @ self.weights


def _project_rows_l1(mat: np.ndarray, cap: float) -> np.ndarray:
    norms = np.abs(mat).sum(axis=1)
    scale = np.where(norms > cap, cap / np.maximum(norms, 1e-300), 1.0)
    return mat * scale[:, None]


@dataclass(frozen=True)
class FFNNHypothesis(Hypothesis):
    """Small feed-forward net; every layer input is augmented with a constant 1.

    ``layers[i]`` has shape (units_i, prev_units + 1); each row's l1 norm is
    projected to at most ``row_cap``.  The activation is applied at every
    layer including the last, whose single unit provides the real-valued
    output.
    """

    layers: tuple
    activation: str = "tanh"
    row_cap: float = 10.0

    kind = "ffnn"

    def __post_init__(self):
        if self.activation not in ("tanh", "relu"):
            raise InputError("activation must be 'tanh' or 'relu'")
        if not (self.row_cap > 0):
            raise InputError("row_cap must be positive")
        mats = []
        prev = None
        for mat in self.layers:
            arr = np.asarray(mat, dtype=np.float64)
            if arr.ndim != 2:
                raise InputError("each layer must be a 2-d weight matrix")
            if prev is not None and arr.shape[1] != prev + 1:
                raise InputError("layer input width must equal previous units + 1 (bias)")
            arr = _project_rows_l1(arr, self.row_cap)
            arr.flags.writeable = False
            mats.append(arr)
            prev = arr.shape[0]
        if not mats:
            raise InputError("at least one layer is required")
        if mats[-1].shape[0] != 1:
            raise InputError("final layer must have a single output unit")
        object.__setattr__(self, "layers", tuple(mats))

    @property
    def dim(self) -> int:
        return self.layers[0].shape[1] - 1

    @property
    def depth(self) -> int:
        return len(self.layers)

    def _act(self, a: np.ndarray) -> np.ndarray:
        if self.activation == "tanh":
            return np.tanh(a)
        return np.maximum(a, 0.0)

    def predict(self, x) -> np.ndarray:
        a = _as_batch(x, self.dim)
        for mat in self.layers:
            a = np.hstack([a, np.ones((a.shape[0], 1))])
            a = self._act(a @ mat.T)
        return a[:, 0]


@dataclass(frozen=True)
class TableHypothesis(Hypothesis):
    """Explicit finite table; points carry their index in coordinate 0."""

    values: dict = field(default_factory=dict)

    kind = "table"

    def __post_init__(self):
        object.__setattr__(
            self, "values", {int(k): float(v) for k, v in dict(self.values).items()}
        )

    def predict(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[None, :]
        out = np.empty(arr.shape[0])
        for i, idx in enumerate(arr[:, 0]):
            key = int(round(idx))
            if key not in self.values:
                raise InputError(f"table hypothesis queried at undefined index {key}")
            out[i] = self.values[key]
        return out


@dataclass(frozen=True)
class TruncatedHypothesis(Hypothesis):
    """The base hypothesis's outputs clamped to [-rho, +rho], rho finite and positive."""

    base: Hypothesis
    rho: float

    kind = "truncated"

    def __post_init__(self):
        if not (0 < self.rho < math.inf):
            raise InputError(f"truncation rho must be finite and positive, got {self.rho!r}")

    def predict(self, x) -> np.ndarray:
        return np.clip(self.base.predict(x), -self.rho, self.rho)


def truncate(h: Hypothesis, rho: float) -> TruncatedHypothesis:
    """Clamp a hypothesis's outputs to [-rho, rho].

    The clamp equals max(u, -rho) on u <= 0 and min(u, rho) on u >= 0, so it
    changes neither the binary loss 1[yh(x) <= 0] nor the margin loss
    1[yh(x) < rho].
    """
    return TruncatedHypothesis(base=h, rho=float(rho))


def margin(h: Hypothesis, point, label) -> float:
    """Confidence margin y * h(x) for a single labeled point."""
    if label not in (-1, 1):
        raise InputError("label must be -1 or +1")
    return float(label * h.predict(np.asarray(point, dtype=np.float64))[0])


def margins(h: Hypothesis, sample) -> np.ndarray:
    """Vector of confidence margins y_i * h(x_i) over a sample."""
    return sample.labels * h.predict(sample.points)


def hypothesis_from_json(data: dict) -> Hypothesis:
    kind = data.get("kind")
    if kind not in _KINDS:
        raise InputError(f"unknown hypothesis kind {kind!r}")
    cls = _KINDS[kind]
    names, required = _dataclass_keys(cls)
    data = _mapping(f"{kind} hypothesis", data, ("kind", *names), required)
    return cls(**{k: _NESTED.get(k, lambda v: v)(data[k]) for k in names if k in data})


# kind -> class; its fields name the keys, and its constructor coerces the values
_KINDS = {cls.kind: cls for cls in Hypothesis.__subclasses__()}
# the fields that hold hypotheses, read back from their JSON
_NESTED = {"stumps": lambda stumps: tuple(map(hypothesis_from_json, stumps)), "base": hypothesis_from_json}
