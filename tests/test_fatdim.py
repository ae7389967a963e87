import math
import re
from pathlib import Path

import numpy as np
import pytest

from relmargin import (
    CapabilityError,
    DomainError,
    FatDimParams,
    InputError,
    LossMatrix,
    cover_log_bound_from_fat,
    fat_dim_formula,
    fat_shattering_exact,
)


def test_linear_formula():
    assert fat_dim_formula(FatDimParams(kind="linear", radius=1.0, rho=0.5)) == pytest.approx(4.0)


def test_ensemble_formula_frozen():
    p = FatDimParams(kind="ensemble", vc_dim=10.0, rho=0.1, constant=1.0)
    assert fat_dim_formula(p) == pytest.approx(23025.850929940457, rel=1e-12)


def test_ensemble_needs_rho_below_one():
    with pytest.raises(DomainError):
        fat_dim_formula(FatDimParams(kind="ensemble", vc_dim=3.0, rho=1.0))


def test_ffnn_formula_unit_case():
    p = FatDimParams(
        kind="ffnn-fat", radius=1.0, lipschitz=1.0, depth=1, rho=1.0, input_dim=math.e, constant=1.0
    )
    assert fat_dim_formula(p) == pytest.approx(1.0, rel=1e-12)


def test_ffnn_formula_needs_log_factor_positive():
    p = FatDimParams(
        kind="ffnn-fat", radius=1.0, lipschitz=1.0, depth=2, rho=0.5, input_dim=1.0
    )
    with pytest.raises(DomainError):
        fat_dim_formula(p)


def test_cover_log_bound_frozen_value_and_constant():
    # d=1, m=1: 1 + log2(578) * log2(34 e)
    assert cover_log_bound_from_fat(1.0, 1) == pytest.approx(60.91371326362413, rel=1e-12)
    # the conversion constant is 17 by default, pinned in the source
    source = (Path(__file__).parent.parent / "src/relmargin/fatdim.py").read_text()
    assert re.search(r"^FAT_COVER_CONSTANT = 17\.0$", source, re.MULTILINE)
    assert cover_log_bound_from_fat(2.0, 64) == 1.0 + 2.0 * math.log2(2.0 * 17.0 * 17.0 * 64) * math.log2(
        2.0 * 17.0 * math.e * 64 / 2.0
    )


def test_cover_log_bound_monotone_in_m():
    values = [cover_log_bound_from_fat(3.0, m) for m in (2, 4, 8, 64, 512, 4096)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_cover_log_bound_domain():
    with pytest.raises(InputError):
        cover_log_bound_from_fat(0.5, 10)
    with pytest.raises(DomainError):
        cover_log_bound_from_fat(2 * 17 * math.e * 10 * 2, 10)  # d so large the log arg <= 1


def test_unknown_kind_rejected():
    with pytest.raises(InputError):
        FatDimParams(kind="mystery")


@pytest.mark.parametrize("field", ["radius", "rho", "vc_dim", "lipschitz", "input_dim", "r21", "constant"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_non_finite_class_parameter_rejected_naming_it(field, value):
    with pytest.raises(InputError, match=f"{field} must be finite and > 0, got {value}"):
        FatDimParams(kind="linear", **{field: value})


# each kind with a closed form, at finite parameters whose cap overflows a
# float in a power: the class flags, and their FatDimParams fields
_OVERFLOWING_CLASSES = {
    "linear": ["--radius", "1e200", "--rho", "1"],
    "ensemble": ["--vc-dim", "1e200", "--rho", "0.5"],
    "ffnn-fat": ["--radius", "1e100", "--lipschitz", "1e100", "--depth", "2", "--rho", "0.5", "--input-dim", "3"],
}


@pytest.mark.parametrize("kind", sorted(_OVERFLOWING_CLASSES))
def test_a_closed_form_beyond_the_float_range_is_inf(kind, capsys):
    from relmargin.cli import main

    flags = _OVERFLOWING_CLASSES[kind]
    fields = {flag[2:].replace("-", "_"): float(v) for flag, v in zip(flags[::2], flags[1::2])}
    assert fat_dim_formula(FatDimParams(kind, **fields)) == math.inf
    with pytest.raises(InputError, match="d must be finite and >= 1, got inf"):
        cover_log_bound_from_fat(math.inf, 1000)
    assert main(["complexity", "--op", "fat-formula", "--class-kind", kind, *flags]) == 0
    assert '"value": "Infinity"' in capsys.readouterr().out
    # compare reads each --rho-grid entry as the class's rho
    at = flags.index("--rho")
    compare = flags[:at] + ["--rho-grid", flags[at + 1]] + flags[at + 2 :]
    assert main(["compare", "--class-kind", kind, *compare, "--emp-grid", "0.1", "--m-grid", "1000"]) == 2
    assert "d must be finite and >= 1, got inf" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# exact shattering search


def _pool_matrix(cols):
    return LossMatrix(np.array(cols, dtype=float).T, "real")


def test_constant_class_shatters_nothing():
    mat = _pool_matrix([[0.5, 0.5, 0.5], [0.5, 0.5, 0.5]])
    assert fat_shattering_exact(mat, 0.1) == 0


def test_two_function_class_shatters_one_point():
    mat = _pool_matrix([[0.0], [1.0]])
    assert fat_shattering_exact(mat, 0.4, witness_grid=[0.5]) == 1
    # too coarse a margin: gamma beyond half the spread
    assert fat_shattering_exact(mat, 0.6, witness_grid=[0.5]) == 0


def test_one_dim_linear_same_sign_points_shatter_only_one():
    # h_a(x) = a x on points {1, 2}: pattern (+ at 1, - at 2) forces
    # r2 >= 2 r1 + 3 gamma while (-, +) forces r2 <= 2 r1 - 3 gamma
    a_grid = np.linspace(-2.0, 2.0, 17)
    points = [1.0, 2.0]
    cols = [[a * x for x in points] for a in a_grid]
    mat = _pool_matrix(cols)
    assert fat_shattering_exact(mat, 0.1) == 1


def test_full_cube_shatters_everything():
    # all 2^3 sign patterns at scale 1 with witnesses at 0
    cols = [[(1.0 if b >> i & 1 else -1.0) for i in range(3)] for b in range(8)]
    mat = _pool_matrix(cols)
    assert fat_shattering_exact(mat, 0.9, witness_grid=[0.0]) == 3
    # default midpoint grid finds the same witnesses
    assert fat_shattering_exact(mat, 0.9) == 3


def test_shattering_caps():
    with pytest.raises(CapabilityError):
        fat_shattering_exact(LossMatrix(np.zeros((11, 2)), "real"), 0.1)
    with pytest.raises(CapabilityError):
        fat_shattering_exact(LossMatrix(np.zeros((2, 51)), "real"), 0.1)
    with pytest.raises(InputError):
        fat_shattering_exact(LossMatrix(np.zeros((2, 2)), "real"), 0.0)
