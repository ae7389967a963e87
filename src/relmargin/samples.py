"""Labeled samples and the synthetic distributions that generate them."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

from .errors import CapabilityError, DataError, InputError, _choice, _count, _fields_from_json, _fields_json, _floats, _mapping, _options, _real
from .hypotheses import LinearHypothesis
from .rng import coin_signs, substream

__all__ = [
    "LabeledSample",
    "TwoGaussianMixture",
    "MarginSeparable",
    "DISTRIBUTIONS",
    "make_distribution",
    "generate",
]


@dataclass(frozen=True)
class LabeledSample:
    """m feature vectors with labels in {-1, +1} and generation provenance."""

    points: np.ndarray
    labels: np.ndarray
    seed: int = 0
    generator_id: str = "unspecified"

    def __post_init__(self):
        pts = np.ascontiguousarray(self.points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[:, None]
        labs = np.ascontiguousarray(self.labels, dtype=np.float64)
        if pts.ndim != 2 or labs.ndim != 1 or pts.shape[0] != labs.shape[0]:
            raise InputError("points and labels must have matching length")
        if pts.shape[0] < 1:
            raise InputError("a sample needs at least one point")
        if not np.all(np.isin(labs, (-1.0, 1.0))):
            raise InputError("labels must be -1 or +1")
        finite = np.isfinite(pts)
        if not finite.all():
            raise DataError(f"points must be finite, got the entry {float(pts[~finite][0])}")
        pts.flags.writeable = False
        labs.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "labels", labs)
        object.__setattr__(self, "seed", _count("seed", self.seed, 0))

    @property
    def m(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def to_json(self) -> dict:
        return {"schema": "relmargin/sample/v1", **_fields_json(self), "labels": self.labels.astype(int).tolist()}

    @classmethod
    def from_json(cls, data: dict) -> "LabeledSample":
        checks = {
            "points": _floats,
            "labels": _floats,
            "seed": lambda name, v: _count(name, v, 0),
            "generator_id": lambda _, v: str(v),
        }
        return cls(**_fields_from_json("sample", cls, data, checks))


# least acceptance probability of MarginSeparable's rejection loop
_ACCEPT_FLOOR = 1e-6
# most rows a later pass of that loop draws at once
_PASS_ROWS = 1 << 21


def _clip_to_ball(x: np.ndarray, radius: float) -> np.ndarray:
    """Scale each point of x whose norm exceeds radius back onto the sphere.

    x is one sample (m x dim) or a block of samples (n x m x dim).  The
    other points of a sample are multiplied by exactly 1.0, so a sample is
    left as it is when no point can reach the radius: when max |x_ij| *
    sqrt(dim), which bounds every norm, stays below it with room for
    rounding.  The clipped samples are scaled in place, and x is returned."""
    samples = x if x.ndim == 3 else x[None]
    reach = np.maximum(samples.max(axis=(1, 2), initial=0.0), -samples.min(axis=(1, 2), initial=0.0))
    clip = np.flatnonzero(reach * math.sqrt(x.shape[-1]) > radius * (1.0 - 1e-9))
    some = samples[clip]
    norms = np.linalg.norm(some, axis=2)
    some *= np.where(norms > radius, radius / np.maximum(norms, 1e-300), 1.0)[..., None]
    samples[clip] = some
    return x


@dataclass(frozen=True)
class TwoGaussianMixture:
    """y uniform in {-1, +1}; x ~ N(y * separation * e1, sigma^2 I), clipped to the radius.

    Clipping scales a point by a positive factor, which keeps the sign of
    every margin w.x of a linear hypothesis through the origin, so the
    closed-form zero-one risk is exact at any radius > 0.
    """

    dim: int = 2
    separation: float = 1.0
    sigma: float = 1.0
    radius: float | None = None

    kind = "two-gaussian-mixture"
    analytic_risk_available = True

    def __post_init__(self):
        object.__setattr__(self, "dim", _count("distribution.dim", self.dim, 1))
        _real("distribution.sigma", self.sigma, "(0, inf)")
        _real("distribution.separation", self.separation, "[0, inf)")
        if self.radius is None:
            object.__setattr__(
                self,
                "radius",
                float(self.separation + self.sigma * (np.sqrt(self.dim) + 8.0)),
            )
        _real("distribution.radius", self.radius, "(0, inf)")

    @property
    def generator_id(self) -> str:
        return (
            f"{self.kind}(dim={self.dim},separation={self.separation},"
            f"sigma={self.sigma},radius={self.radius})"
        )

    def sample(self, m: int, rng: np.random.Generator):
        x, y = self.sample_many(m, (rng,))
        return x[0], y[0]

    def sample_many(self, m: int, rngs):
        """One sample of m points from each generator of the sized iterable
        ``rngs``: x is n x m x dim, y is n x m.  Each generator draws its
        labels, then its normals; the scaling, the shift and the clip are
        done once for the whole block.  The labels of a ``substreams``
        block come from its raw words (``rng.coin_signs``)."""
        x = np.empty((len(rngs), m, self.dim))
        y = coin_signs(rngs, m, lambda b, rng: rng.standard_normal(out=x[b]))
        x *= self.sigma
        x[..., 0] += y * self.separation
        return _clip_to_ball(x, self.radius), y

    def analytic_risk(self, h: LinearHypothesis) -> float:
        """P(y * w.x <= 0); the margin w.x is N(w1 * separation, sigma^2 ||w||^2)."""
        w = np.asarray(h.w, dtype=np.float64)
        if w.shape[0] != self.dim:
            raise InputError("hypothesis dimension does not match distribution")
        nrm = float(np.linalg.norm(w))
        if nrm == 0.0:
            return 1.0  # margin identically zero; ties count as errors
        return float(norm.cdf(-(w[0] * self.separation) / (self.sigma * nrm)))


@dataclass(frozen=True)
class MarginSeparable:
    """Points drawn from N(0, sigma^2 I) conditioned on |x1| >= gap, labeled by
    sign(x1), with labels flipped independently at ``noise_rate``."""

    dim: int = 2
    gap: float = 0.3
    noise_rate: float = 0.0
    sigma: float = 1.0
    radius: float | None = None

    kind = "margin-separable-with-noise"
    analytic_risk_available = False

    def __post_init__(self):
        object.__setattr__(self, "dim", _count("distribution.dim", self.dim, 1))
        _real("distribution.sigma", self.sigma, "(0, inf)")
        _real("distribution.gap", self.gap, "[0, inf)")
        _real("distribution.noise_rate", self.noise_rate, "[0, 1]")
        accept = self.acceptance
        if accept < _ACCEPT_FLOOR:
            raise InputError(
                f"distribution.gap = {self.gap!r} lets the sampler accept at most {accept:.3g} of its"
                f" draws, below {_ACCEPT_FLOOR}: erfc(gap / (sigma sqrt 2)) with sigma = {self.sigma!r}"
            )
        if self.radius is None:
            object.__setattr__(
                self, "radius", float(self.sigma * (np.sqrt(self.dim) + 8.0) + self.gap)
            )
        _real("distribution.radius", self.radius, "(0, inf)")
        if not (self.radius > self.gap):
            raise InputError(f"distribution.radius must exceed distribution.gap = {self.gap!r}, got {self.radius!r}")

    @property
    def generator_id(self) -> str:
        return (
            f"{self.kind}(dim={self.dim},gap={self.gap},noise={self.noise_rate},"
            f"sigma={self.sigma},radius={self.radius})"
        )

    @property
    def acceptance(self) -> float:
        """P(|N(0, sigma^2)| >= gap): the rejection loop accepts a point with
        at most this probability, since clipping only shrinks |x1|."""
        return math.erfc(self.gap / (self.sigma * math.sqrt(2.0)))

    @property
    def planted(self) -> LinearHypothesis:
        w = np.zeros(self.dim)
        w[0] = 1.0
        return LinearHypothesis(w)

    def _accepted(self, batch: np.ndarray) -> np.ndarray:
        """The rows of sigma * batch, clipped, whose |x1| reaches the gap."""
        # clip before the acceptance test so the planted margin survives
        batch = _clip_to_ball(batch * self.sigma, self.radius)
        return batch[np.abs(batch[:, 0]) >= self.gap]

    def sample(self, m: int, rng: np.random.Generator):
        rows = [self._accepted(rng.standard_normal((max(2 * m, 16), self.dim)))]
        got = rows[0].shape[0]
        while got < m:
            # a later pass expects to accept twice the points still missing;
            # it draws x1 alone, and the other coordinates only where x1
            # passes, since clipping only shrinks |x1|
            size = max(min(math.ceil(2 * (m - got) / self.acceptance), _PASS_ROWS), 16)
            first = rng.standard_normal(size)
            first = first[np.abs(first) * self.sigma >= self.gap]
            rows.append(self._accepted(np.column_stack([first, rng.standard_normal((first.size, self.dim - 1))])))
            got += rows[-1].shape[0]
        x = np.concatenate(rows, axis=0)[:m]
        y = np.where(x[:, 0] >= 0, 1.0, -1.0)
        if self.noise_rate > 0:
            flips = rng.random(m) < self.noise_rate
            y = np.where(flips, -y, y)
        return x, y

    def sample_many(self, m: int, rngs):
        """``sample`` from each generator of ``rngs``, stacked: x is
        n x m x dim, y is n x m.  The rejection loop runs per stream."""
        draws = [self.sample(m, rng) for rng in rngs]
        return np.stack([x for x, _ in draws]), np.stack([y for _, y in draws])


# kind -> distribution; its dataclass fields are its options
DISTRIBUTIONS = {
    TwoGaussianMixture.kind: TwoGaussianMixture,
    MarginSeparable.kind: MarginSeparable,
}


def make_distribution(spec: dict):
    """Build a distribution from a config mapping with a ``kind`` tag; its
    other keys are checked against the fields of that kind."""
    spec = _mapping("distribution", spec)
    kind = spec.pop("kind", None)
    _choice("distribution.kind", kind, tuple(DISTRIBUTIONS))
    cls = DISTRIBUTIONS[kind]
    return cls(**_options("distribution", cls, spec))


def generate(dist, m: int, seed: int) -> LabeledSample:
    """Draw m i.i.d. labeled points; reproducible per (distribution, m, seed)."""
    rng = substream(seed, "sample")
    x, y = dist.sample(_count("m", m, 1), rng)
    return LabeledSample(points=x, labels=y, seed=seed, generator_id=dist.generator_id)


def analytic_risk(h, dist) -> float:
    """Closed-form zero-one risk; only linear hypotheses on analytic distributions."""
    if not getattr(dist, "analytic_risk_available", False):
        raise CapabilityError("distribution has no closed-form risk")
    if not isinstance(h, LinearHypothesis):
        raise CapabilityError("closed-form risk is derived for linear hypotheses only")
    return dist.analytic_risk(h)
