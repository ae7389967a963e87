import math

import pytest

from oracles import crossover_check
from relmargin import FatDimParams, InputError, compare_tightness, compare_tightness_direct, tightness_row
from relmargin.cli import main


def test_tightness_examples():
    r = tightness_row(0.0, 0.01)
    assert r["new_bound"] == pytest.approx(0.01)
    assert r["old_bound"] == pytest.approx(0.1)
    assert r["new_smaller"]

    r2 = tightness_row(0.09, 0.01)
    assert r2["new_bound"] == pytest.approx(0.16)
    assert not r2["new_smaller"]  # the old form wins in this regime

    r3 = tightness_row(0.0, 1.0)
    assert r3["new_bound"] == pytest.approx(1.0)
    assert r3["old_bound"] == pytest.approx(1.0)
    assert not r3["new_smaller"]  # boundary: equality


def test_zero_emp_small_beta_always_wins():
    report = compare_tightness_direct([0.0], [1e-6, 1e-4, 0.01, 0.3, 0.999], c_prime=1.0)
    assert report["new_wins"] == report["total"]


def test_direct_report_is_rederivable():
    report = compare_tightness_direct([0.0, 0.05, 0.2], [0.001, 0.01, 0.1, 1.0], c_prime=1.3)
    assert crossover_check(report["rows"])


def test_class_mode_emits_dimension_and_beta():
    params = FatDimParams(kind="linear", radius=1.0, rho=0.5)
    report = compare_tightness(
        params, m_grid=[10**4, 10**6], rho_grid=[0.25, 0.5], emp_grid=[0.0, 0.1], delta=0.05
    )
    assert report["total"] == 8
    assert crossover_check(report["rows"])
    for row in report["rows"]:
        d_expected = max(1.0, (1.0 / row["rho"]) ** 2)
        assert row["fat_dimension"] == pytest.approx(d_expected)
        assert row["beta"] > 0
        # beta shrinks roughly like 1/m: the larger m dominates
    small_m = [r["beta"] for r in report["rows"] if r["m"] == 10**4 and r["rho"] == 0.5]
    big_m = [r["beta"] for r in report["rows"] if r["m"] == 10**6 and r["rho"] == 0.5]
    assert max(big_m) < min(small_m)


def test_c_prime_shifts_the_crossover():
    favorable = tightness_row(0.09, 0.01, c_prime=2.0)
    assert favorable["new_smaller"]  # 0.16 < 2 * 0.1
    assert math.isclose(favorable["old_bound"], 0.2)


_CLASS_ARGV = ["--m-grid", "1000", "--rho-grid", "0.5", "--class-kind", "linear", "--radius", "1"]


@pytest.mark.parametrize(
    "argv,field",
    [
        (["--direct", "--emp-grid", "0.1", "--beta-grid", "0.01", "--c-prime=-2"], "c_prime"),
        (["--direct", "--emp-grid", "0.1", "--beta-grid", "0.01", "--c-prime", "0"], "c_prime"),
        (["--direct", "--emp-grid", "0.1", "--beta-grid", "0.01", "--c-prime", "nan"], "c_prime"),
        (["--direct", "--emp-grid", "0.1", "--beta-grid", "0.01", "--c-prime", "inf"], "c_prime"),
        (["--direct", "--emp-grid", "0.1", "--beta-grid", "0.01,inf"], "beta"),
        (["--direct", "--emp-grid", "0.1", "--beta-grid=-0.1"], "beta"),
        (["--direct", "--emp-grid", "0.1", "--beta-grid", "nan"], "beta"),
        (["--direct", "--emp-grid", "0,2", "--beta-grid", "0.01"], "emp"),
        (["--direct", "--emp-grid", "nan", "--beta-grid", "0.01"], "emp"),
        (["--emp-grid", "2", *_CLASS_ARGV], "emp"),
        (["--emp-grid", "0,-0.1", *_CLASS_ARGV], "emp"),
        (["--emp-grid", "inf", *_CLASS_ARGV], "emp"),
        (["--emp-grid", "0.1", "--c-prime", "nan", *_CLASS_ARGV], "c_prime"),
    ],
)
def test_compare_rejects_bad_inputs_naming_the_field(capsys, argv, field):
    assert main(["compare", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and f"{field} must be" in err


def test_tightness_row_rejects_bad_inputs():
    for emp, beta, c_prime in ((1.5, 0.1, 1.0), (0.1, math.inf, 1.0), (0.1, 0.1, math.nan)):
        with pytest.raises(InputError):
            tightness_row(emp, beta, c_prime=c_prime)


def test_library_reports_write_the_cli_csv(capsys):
    # each report carries its own schema, so report_csv writes the tightness columns
    from relmargin.reportio import report_csv

    direct = compare_tightness_direct([0.0, 0.1], [0.01, 0.2])
    assert main(["compare", "--direct", "--emp-grid", "0,0.1", "--beta-grid", "0.01,0.2", "--format", "csv"]) == 0
    assert report_csv(direct) == capsys.readouterr().out
    assert report_csv(direct).startswith("m,rho,emp,beta,beta_prime,new_bound,old_bound,new_smaller\n")
    linear = FatDimParams(kind="linear", radius=1.0)
    classed = compare_tightness(linear, [100, 1000], [0.5], [0.0, 0.1])
    argv = ["compare", "--class-kind", "linear", "--radius", "1", "--m-grid", "100,1000", "--rho-grid", "0.5",
            "--emp-grid", "0,0.1", "--format", "csv"]
    assert main(argv) == 0
    assert report_csv(classed) == capsys.readouterr().out
