"""Complexity values carry their estimation metadata for audit."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InputError, _fields_json

__all__ = ["ComplexityEstimate", "METHODS"]

METHODS = ("exact-enumeration", "monte-carlo", "greedy-upper", "formula")


@dataclass(frozen=True)
class ComplexityEstimate:
    value: float
    method: str
    trials: tuple = ()
    seed: int | None = None
    stderr: float | None = None
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in METHODS:
            raise InputError(f"unknown estimation method {self.method!r}")
        if self.method == "exact-enumeration" and self.stderr is not None:
            raise InputError("exact enumeration carries no standard error")
        if self.method == "monte-carlo":
            if self.stderr is None:
                raise InputError("monte-carlo estimates must report a standard error")
            if not self.trials or any(t <= 0 for t in self.trials):
                raise InputError("monte-carlo estimates must report positive trial counts")
        if self.stderr is not None and self.stderr < 0:
            raise InputError("stderr must be nonnegative")
        object.__setattr__(self, "trials", tuple(int(t) for t in self.trials))

    def to_json(self) -> dict:
        return {"schema": "relmargin/complexity-estimate/v1", **_fields_json(self)}
