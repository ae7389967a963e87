"""Tightness comparison between the loss-factored bound shape and the
classical square-root shape.

New form:  emp + 2 sqrt(emp * beta) + beta
Old form:  c' * sqrt(beta')

With emp = 0, beta = beta' <= 1 and c' = 1 the new form wins everywhere
(beta <= sqrt(beta)); the old form can win when the empirical term
dominates.  The old-form constant c' is unspecified in the literature and
defaults to 1, the value most favorable to the old form.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .bounds import _empirical_input, cov_fat_class_value, loss_factored_value
from .errors import InputError, _count
from .fatdim import FatDimParams

__all__ = ["tightness_row", "compare_tightness_direct", "compare_tightness", "crossover_check"]


def _check(emps, betas, c_prime) -> None:
    """Each emp a finite number in [0, 1], each beta finite and nonnegative,
    and c' finite and positive; an InputError names the field otherwise."""
    for emp in emps:
        _empirical_input(emp)
    for beta in betas:
        if not (math.isfinite(beta) and beta >= 0.0):
            raise InputError(f"beta must be finite and nonnegative, got {beta!r}")
    if not (math.isfinite(c_prime) and c_prime > 0.0):
        raise InputError(f"c_prime must be finite and positive, got {c_prime!r}")


def _row(emp: float, beta: float, new_bound: float, c_prime: float) -> dict:
    """One table row; the old form's beta' is beta, reported as ``beta_prime``."""
    old_bound = c_prime * math.sqrt(beta)
    return {
        "emp": emp,
        "beta": beta,
        "beta_prime": beta,
        "new_bound": new_bound,
        "old_bound": old_bound,
        "new_smaller": bool(new_bound < old_bound),
    }


def tightness_row(emp: float, beta: float, *, c_prime: float = 1.0) -> dict:
    """Both forms at one (emp, beta) with beta' = beta; the new form is
    ``loss_factored_value``."""
    _check((emp,), (beta,), c_prime)
    return _row(emp, beta, float(loss_factored_value(emp, beta)), c_prime)


def compare_tightness_direct(emp_grid, beta_grid, c_prime: float = 1.0) -> dict:
    """Tabulate both forms on explicit (emp, beta) grids with beta' = beta."""
    emps, betas = [float(e) for e in emp_grid], [float(b) for b in beta_grid]
    _check(emps, betas, c_prime)
    rows = [tightness_row(e, b, c_prime=c_prime) for e in emps for b in betas]
    return {
        "mode": "direct",
        "c_prime": c_prime,
        "rows": rows,
        "new_wins": int(sum(r["new_smaller"] for r in rows)),
        "total": len(rows),
    }


def compare_tightness(
    class_params: FatDimParams,
    m_grid,
    rho_grid,
    emp_grid,
    delta: float = 0.05,
    c_prime: float = 1.0,
) -> dict:
    """Tabulate both forms over (m, rho, emp), with the new form and beta =
    beta' from ``cov_fat_class_value``: the cov-fat bound and its cover term."""
    emps = [float(emp) for emp in emp_grid]
    _check(emps, (), c_prime)
    ms = [_count("m_grid", m, 1) for m in m_grid]
    rows = []
    for m in ms:
        for rho in rho_grid:
            values, terms = cov_fat_class_value(
                np.array(emps), replace(class_params, rho=float(rho)), m, delta
            )
            beta, d = terms["term"], terms["fat_dimension"]
            for emp, value in zip(emps, values.tolist()):
                row = _row(emp, beta, value, c_prime)
                row.update({"m": m, "rho": float(rho), "fat_dimension": d})
                rows.append(row)
    return {
        "mode": "class",
        "class_kind": class_params.kind,
        "delta": delta,
        "c_prime": c_prime,
        "rows": rows,
        "new_wins": int(sum(r["new_smaller"] for r in rows)),
        "total": len(rows),
    }


def crossover_check(rows) -> bool:
    """Re-derive every row's winner from the closed forms; True when the
    table is exactly reproducible."""
    for r in rows:
        new = r["emp"] + 2.0 * math.sqrt(r["emp"] * r["beta"]) + r["beta"]
        old = r["old_bound"]
        if not np.isclose(new, r["new_bound"], rtol=0, atol=0):
            return False
        if r["new_smaller"] != (new < old):
            return False
    return True
