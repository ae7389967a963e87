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
from .errors import _count, _real
from .fatdim import FatDimParams

__all__ = ["tightness_row", "compare_tightness_direct", "compare_tightness"]

_SCHEMA = "relmargin/tightness-report/v1"


def _check(emps, betas, c_prime) -> tuple[list, list]:
    """The emps, each in [0, 1], and the betas, each finite and nonnegative,
    as floats, once c' is found finite and positive; an InputError names
    the field otherwise."""
    _real("c_prime", c_prime, "(0, inf)")
    return [_empirical_input(emp) for emp in emps], [_real("beta", beta, "[0, inf)") for beta in betas]


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
    (emp,), (beta,) = _check((emp,), (beta,), c_prime)
    return _row(emp, beta, float(loss_factored_value(emp, beta)), c_prime)


def compare_tightness_direct(emp_grid, beta_grid, c_prime: float = 1.0) -> dict:
    """Tabulate both forms on explicit (emp, beta) grids with beta' = beta."""
    emps, betas = _check(emp_grid, beta_grid, c_prime)
    rows = [tightness_row(e, b, c_prime=c_prime) for e in emps for b in betas]
    return {
        "schema": _SCHEMA,
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
    emps, _ = _check(emp_grid, (), c_prime)
    _real("delta", delta, "(0, inf)")
    ms = [_count("m_grid", m, 1) for m in m_grid]
    rows = []
    for m in ms:
        for rho in rho_grid:
            rho = _real("rho_grid entries", rho, "(0, inf)")
            values, terms = cov_fat_class_value(np.array(emps), replace(class_params, rho=rho), m, delta)
            beta, d = terms["term"], terms["fat_dimension"]
            for emp, value in zip(emps, values.tolist()):
                row = _row(emp, beta, value, c_prime)
                row.update({"m": m, "rho": rho, "fat_dimension": d})
                rows.append(row)
    return {
        "schema": _SCHEMA,
        "mode": "class",
        "class_kind": class_params.kind,
        "delta": delta,
        "c_prime": c_prime,
        "rows": rows,
        "new_wins": int(sum(r["new_smaller"] for r in rows)),
        "total": len(rows),
    }
