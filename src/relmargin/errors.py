"""Exception hierarchy, the input checks shared by the whole package, and
the one rule of its JSON formats: a type's keys are its dataclass fields.

The CLI maps these onto exit codes: InputError (and subclasses) -> 2,
CapabilityError -> 3, ApplicabilityError -> 4.
"""

import inspect
import math
from dataclasses import MISSING, fields, is_dataclass

import numpy as np


class RelmarginError(Exception):
    """Base class for all package errors."""


class InputError(RelmarginError, ValueError):
    """Invalid argument, malformed config, or inconsistent inputs."""


class DataError(InputError):
    """Data-dependent failure (non-finite losses, out-of-range entries)."""


class DomainError(InputError):
    """A closed-form formula was evaluated outside its stated domain."""


class CapabilityError(RelmarginError):
    """Request exceeds a documented size cap (exact enumeration limits)."""


class ApplicabilityError(RelmarginError):
    """Bound is outside its applicable regime (reported, never silently clamped)."""


def _mapping(name: str, value, allowed=None, required=()) -> dict:
    """A copy of the config mapping ``name``; unknown keys (when ``allowed``
    is given) and missing required keys are rejected."""
    if not isinstance(value, dict):
        raise InputError(f"{name} must be a mapping, got {value!r}")
    unknown = sorted(set(value) - set(allowed)) if allowed is not None else []
    if unknown:
        raise InputError(f"unknown {name} keys {unknown}")
    missing = sorted(set(required) - set(value))
    if missing:
        raise InputError(f"missing {name} keys {missing}")
    return dict(value)


def _dataclass_keys(cls) -> tuple[list, list]:
    """The field names of a dataclass, and those without a default."""
    names = [f.name for f in fields(cls)]
    return names, [f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING]


def _plain(value):
    """``value`` as JSON data: an array as nested lists, an object with
    ``to_json`` as its JSON, a dataclass as its fields, a tuple as a list and
    a dict with ``str`` keys, all taken apart the same way."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if hasattr(value, "to_json"):
        return value.to_json()
    if is_dataclass(value):
        return _fields_json(value)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return value


def _fields_json(obj) -> dict:
    """``{field: plain value}`` over the dataclass fields of ``obj``."""
    return {f.name: _plain(getattr(obj, f.name)) for f in fields(obj)}


def _fields_from_json(name: str, cls, data, checks) -> dict:
    """The keyword arguments of dataclass ``cls`` from its JSON mapping
    ``data``, keyed by its fields and ``"schema"``; the value of a key in
    ``checks`` is ``checks[key](f"{name}.{key}", value)``."""
    names, required = _dataclass_keys(cls)
    data = _mapping(name, data, ("schema", *names), required)
    return {k: checks[k](f"{name}.{k}", data[k]) if k in checks else data[k] for k in names if k in data}


def _number(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{name} must be a number, got {value!r}")


def _finite(name: str, value) -> None:
    _number(name, value)
    if not math.isfinite(value):
        raise InputError(f"{name} must be finite, got {value!r}")


def _count(name: str, value, least: int) -> int:
    """``value`` as an int >= ``least``; integral floats (JSON ``1e5``) and
    numpy integers pass."""
    number = isinstance(value, (int, float, np.integer)) and not isinstance(value, bool)
    if not (number and float(value).is_integer() and value >= least):
        raise InputError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _floats(name: str, value) -> np.ndarray:
    """``value``, nested lists of JSON numbers, as a float64 array.

    Strings, booleans and nulls are rejected, also where numpy would turn
    them into numbers (``"1"``, ``true``).
    """
    leaves = np.asarray(value, dtype=object)
    kinds = np.asarray(np.frompyfunc(type, 1, 1)(leaves))
    if not ((kinds == float) | (kinds == int)).all():
        bad = leaves[(kinds != float) & (kinds != int)].flat[0]
        raise InputError(f"{name} must be a rectangular array of numbers, got the entry {bad!r}")
    try:
        return leaves.astype(np.float64)
    except OverflowError as exc:
        raise InputError(f"{name} must be an array of numbers: {exc}") from None


def _choice(name: str, value, choices) -> None:
    if value not in choices:
        raise InputError(f"{name} must be one of {list(choices)}, got {value!r}")


def _options(section: str, declared, values, skip=()) -> dict:
    """A copy of ``values``, checked as the options of section ``section``
    that ``declared`` (a dataclass or a function) declares by its parameters
    other than ``skip``: name, annotated type and default.  A wrong key or
    type, or a non-finite number, raises ``InputError`` naming the key; an
    ``int`` option is an integer >= 0 given as one (not ``3.0`` or ``true``)."""
    params = {n: p for n, p in inspect.signature(declared).parameters.items() if n not in skip}
    options = _mapping(section, values, params, [n for n, p in params.items() if p.default is p.empty])
    for key, value in options.items():
        name, kind = f"{section}.{key}", params[key].annotation
        if kind == "int":
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise InputError(f"{name} must be an integer >= 0, got {value!r}")
        elif kind == "list[float]":
            for item in value:
                _finite(name, item)
        elif kind == "float" or kind == "float | None" and value is not None:
            _finite(name, value)
        elif kind != "float | None":
            raise TypeError(f"no check for the annotation {kind!r} of {name}")
    return options
