"""Self-tests of the benchmark: its checkers reject corrupted outputs, and
each workload runs end to end at a small size.

    python3 -m pytest relbench -q

Run from the repository root; relmargin is imported from ./src.
"""

import copy
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checkers  # noqa: E402
import relmargin.cli  # noqa: E402
import worker  # noqa: E402


def cli_report(tmp_path, *argv):
    out = tmp_path / "report.json"
    assert relmargin.cli.main([*argv, "--out", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    cfg = worker.campaign_config({
        "params.m": 2000, "trials": 60, "families": ["cov-alpha", "cov-alpha2", "rad"],
        "complexity.cover_draws": 2, "complexity.peel_draws": 2,
    })
    path = tmp_path_factory.mktemp("campaign") / "cfg.json"
    path.write_text(json.dumps(cfg))
    return cfg, cli_report(path.parent, "validate", "--config", str(path), "--threads", "1")


def _row(report, family, cfg, unclamped=True):
    """Index of a row of ``family`` with emp > 0.02 and, if asked, bound < 0.99."""
    fams = list(cfg["families"])
    start = fams.index(family) * cfg["trials"]
    for i in range(start, start + cfg["trials"]):
        row = report["rows"][i]
        if row[2] > 0.02 and (row[4] < 0.99 or not unclamped):
            return i
    pytest.fail(f"no usable {family} row in the fixture campaign")


def rejected(errors, fragment):
    return any(fragment in e for e in errors)


def test_validity_checker_accepts_the_program_output(campaign):
    cfg, report = campaign
    assert checkers.check_validity_report(report, cfg) == []


@pytest.mark.parametrize("family, fragment", [
    ("cov-alpha2", "break emp <= bound <= 1"),
    ("cov-alpha", "break emp <= bound <= 1"),
    ("rad", "break emp <= bound <= 1"),
])
def test_validity_checker_rejects_a_bound_below_its_empirical_term(campaign, family, fragment):
    cfg, report = campaign
    bad = copy.deepcopy(report)
    i = _row(bad, family, cfg, unclamped=False)
    bad["rows"][i][4] = bad["rows"][i][2] - 0.01
    assert rejected(checkers.check_validity_report(bad, cfg), fragment)


def test_validity_checker_rejects_cov_alpha2_off_its_closed_form(campaign):
    cfg, report = campaign
    bad = copy.deepcopy(report)
    i = _row(bad, "cov-alpha2", cfg)
    bad["rows"][i][4] *= 1.001
    assert rejected(checkers.check_validity_report(bad, cfg), "off the closed form")


def test_validity_checker_rejects_rad_off_its_closed_form(campaign):
    cfg, report = campaign
    bad = copy.deepcopy(report)
    i = _row(bad, "rad", cfg, unclamped=False)
    bad["rows"][i][4] = 0.5 * (bad["rows"][i][4] + bad["rows"][i][2])
    assert rejected(checkers.check_validity_report(bad, cfg), "off the peeling closed form")


def test_validity_checker_rejects_cov_alpha_off_its_fixed_point(campaign):
    cfg, report = campaign
    bad = copy.deepcopy(report)
    i = _row(bad, "cov-alpha", cfg)
    bad["rows"][i][4] *= 1.001
    assert rejected(checkers.check_validity_report(bad, cfg), "off the fixed point")
    bad["rows"][i][4] = 1.0  # clamped although the fixed point is below 1
    assert rejected(checkers.check_validity_report(bad, cfg), "clamped at 1")


def test_validity_checker_rejects_a_violation_count_that_disagrees_with_the_rows(campaign):
    cfg, report = campaign
    bad = copy.deepcopy(report)
    bad["families"]["cov-alpha2"]["violations"] += 1
    assert rejected(checkers.check_validity_report(bad, cfg), "violations reported")
    bad = copy.deepcopy(report)
    i = _row(bad, "rad", cfg, unclamped=False)
    bad["rows"][i][6] = 1 - bad["rows"][i][6]
    errors = checkers.check_validity_report(bad, cfg)
    assert rejected(errors, "violated != (true risk > bound)")


def test_validity_checker_rejects_a_cover_larger_than_the_pool(campaign):
    cfg, report = campaign
    bad = copy.deepcopy(report)
    too_big = math.log(cfg["pool"]["size"] + 1)
    bad["families"]["cov-alpha2"]["complexity"]["value"] = too_big
    for row in bad["rows"]:
        if row[0] == "cov-alpha2":
            row[3] = too_big
    assert rejected(checkers.check_validity_report(bad, cfg), "outside [0, log(pool)")


def test_validity_checker_rejects_wrong_shape_and_intervals(campaign):
    cfg, report = campaign
    bad = copy.deepcopy(report)
    bad["rows"].pop()
    assert rejected(checkers.check_validity_report(bad, cfg), "expected trials x families")
    bad = copy.deepcopy(report)
    bad["families"]["rad"]["ci95"][1] *= 0.9
    assert rejected(checkers.check_validity_report(bad, cfg), "upper CI end")
    bad = copy.deepcopy(report)
    bad["schema"] = "relmargin/validity-report/v0"
    assert rejected(checkers.check_validity_report(bad, cfg), "schema")


BOUND_CASES = [
    ("cov-alpha2", {"emp": 0.05, "logN": 8.0, "m": 5000, "delta": 0.05, "alpha": 2.0}),
    ("cov-alpha", {"emp": 0.05, "logN": 8.0, "m": 5000, "delta": 0.05, "alpha": 1.5}),
    ("rad", {"emp": 0.05, "rm": 1.0, "m": 500000, "delta": 0.05, "alpha": 2.0}),
    ("unbounded", {"emp_loss": 0.5, "moment": 2.0, "logN": 5.0, "m": 100000, "delta": 0.05,
                   "alpha": 1.8, "rho": 0.2}),
]


def _bound_argv(family, inputs):
    argv = ["bound", "--family", family]
    for key, value in inputs.items():
        argv += [worker.BOUND_FLAGS[key], repr(value)]
    return argv


@pytest.mark.parametrize("family, inputs", BOUND_CASES)
def test_bound_checker(tmp_path, family, inputs):
    report = cli_report(tmp_path, *_bound_argv(family, inputs))
    assert checkers.check_bound_report(report, family, inputs) == []
    bad = dict(report, bound_value=report["bound_value"] * 1.01)
    assert checkers.check_bound_report(bad, family, inputs)
    if family != "unbounded":
        bad = dict(report, bound_value=inputs["emp"] - 0.01)
        assert rejected(checkers.check_bound_report(bad, family, inputs), "<= bound <= 1")


def test_cover_checker(tmp_path):
    rng = np.random.default_rng(3)
    values = rng.uniform(0, 1, size=(3, 20))[rng.integers(0, 3, size=9)].T + rng.uniform(-0.1, 0.1, (20, 9))
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"values": values.tolist()}))
    report = cli_report(tmp_path, "complexity", "--op", "cover-linf", "--matrix", str(path), "--eps", "0.25")
    assert checkers.check_cover_report(report, values, 0.25) == []
    assert rejected(checkers.check_cover_report(dict(report, value=report["value"] + 1), values, 0.25),
                    "brute-force minimum")
    assert rejected(checkers.check_cover_report(dict(report, value=10.0), values, 0.25), "outside [1, pool")


def test_peeling_checker(tmp_path):
    rng = np.random.default_rng(4)
    mats = [(rng.uniform(size=(9, 6)) < 0.4).astype(float) for _ in range(3)]
    paths = []
    for t, mat in enumerate(mats):
        paths.append(str(tmp_path / f"p{t}.json"))
        Path(paths[-1]).write_text(json.dumps({"values": mat.tolist(), "range_tag": "binary"}))
    report = cli_report(tmp_path, "complexity", "--op", "rm-peeling", "--matrix", *paths, "--seed", "1")
    assert checkers.check_peeling_report(report, mats) == []
    assert checkers.check_peeling_report(dict(report, value=report["value"] * 1.1 + 1e-6), mats)


def test_compare_verify_and_train_checkers(tmp_path):
    emp, beta = [0.0, 0.05], [0.001, 0.1, 0.9]
    report = cli_report(tmp_path, "compare", "--direct", "--emp-grid", "0.0,0.05", "--beta-grid", "0.001,0.1,0.9")
    assert checkers.check_compare_report(report, emp, beta) == []
    bad = copy.deepcopy(report)
    bad["rows"][0]["new_bound"] = 2.0 * bad["rows"][0]["old_bound"]
    assert rejected(checkers.check_compare_report(bad, emp, beta), "new > old")

    report = cli_report(tmp_path, "verify", "binomial", "--m-max", "60")
    assert checkers.check_verify_report(report, 60) == []
    assert rejected(checkers.check_verify_report(dict(report, passed=False), 60), "passed")
    assert checkers.check_verify_report(dict(report, min_upper_tail=report["min_upper_tail"] * 1.01), 60)

    rng = np.random.default_rng(5)
    labels = rng.integers(0, 2, size=60) * 2.0 - 1.0
    points = rng.standard_normal((60, 3)) + labels[:, None] * np.array([1.0, 0, 0])
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"points": points.tolist(), "labels": labels.astype(int).tolist()}))
    report = cli_report(tmp_path, "train", "--method", "bound-min", "--data", str(path), "--seed", "2",
                        "--rho-grid", "0.1,0.3", "--steps", "100", "--restarts", "2")
    grid = (0.1, 0.3)
    assert checkers.check_train_report(report, points, labels, grid, 0.1) == []
    assert rejected(checkers.check_train_report(dict(report, objective=report["objective"] + 0.01),
                                                points, labels, grid, 0.1), "ramp objective")
    assert rejected(checkers.check_train_report(dict(report, rho=0.2), points, labels, grid, 0.1), "not in the grid")
    bad = copy.deepcopy(report)
    bad["hypothesis"]["w"] = [3.0 * v for v in bad["hypothesis"]["w"]]
    assert rejected(checkers.check_train_report(bad, points, labels, grid, 0.1), "||w||")


# ---------------------------------------------------------------------------
# small-size runs of every workload


def run_worker(tmp_path, workload, mode):
    result = tmp_path / f"{workload}-{mode}.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    subprocess.run([sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", "7",
                    "--seconds", "1", "--mode", mode, "--dir", str(tmp_path / f"{workload}-{mode}"),
                    "--t0", "0", "--result", str(result), "--small"],
                   cwd=ROOT, env=env, check=True, capture_output=True, timeout=300)
    return json.loads(result.read_text())


@pytest.mark.parametrize("workload", sorted(worker.WORKLOADS))
def test_workload_smoke(tmp_path, workload):
    result = run_worker(tmp_path, workload, "measure")
    assert result["failures"] == [] and result["errors"] == []
    assert result["attempted"] == 1 + len(result["op_times"]) and result["wall_s"] > 0


def test_traced_counts_repeat_exactly(tmp_path):
    first = run_worker(tmp_path / "a", "campaign-trial-heavy", "trace")
    second = run_worker(tmp_path / "b", "campaign-trial-heavy", "trace")
    assert first["errors"] == [] and first["missing"] == []
    counts = {name for name, (value, unit) in first["layers"].items() if unit in ("count", "bytes")}
    assert {"bounds.solve_relative_calls", "covers.calls", "reportio.rows", "reportio.report_bytes",
            "rademacher.sign_vectors", "rng.substream_calls"} <= counts
    for name in counts:
        assert first["layers"][name] == second["layers"][name], name


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "relbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "relbench/run.py", "--workload", "cli-session", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
