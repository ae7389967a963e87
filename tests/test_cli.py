import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from relmargin import MarginSeparable, TwoGaussianMixture, generate
from relmargin.cli import main


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "relmargin.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_bound_cov_alpha2_golden():
    code, out, _ = run_cli(
        "bound", "--family", "cov-alpha2", "--emp", "0", "--logN", "10",
        "--m", "1000", "--delta", "0.05",
    )
    assert code == 0
    data = json.loads(out)
    assert data["bound_value"] == pytest.approx(4 * (10 + math.log(20)) / 1000, rel=1e-12)
    assert data["family"] == "cov-alpha2"


def test_bound_output_values_match_library():
    from relmargin import BoundParams, bound_rad

    code, out, _ = run_cli(
        "bound", "--family", "rad", "--emp", "0.1", "--rm", "0.7",
        "--m", "100000", "--delta", "0.05",
    )
    assert code == 0
    data = json.loads(out)
    lib = bound_rad(0.1, 0.7, BoundParams(m=100000, delta=0.05))
    assert data["bound_value"] == pytest.approx(lib.bound_value, rel=1e-12)


def test_missing_required_flag_exits_2():
    code, _, err = run_cli("bound", "--family", "cov-alpha2", "--emp", "0")
    assert code == 2
    assert "--m" in err or "-m" in err  # argparse names the missing flag


def test_capability_error_exits_3(tmp_path):
    vals = np.random.default_rng(0).random((3, 30))
    path = tmp_path / "mat.json"
    path.write_text(json.dumps({"values": vals.tolist(), "range_tag": "real"}))
    code, _, err = run_cli(
        "complexity", "--op", "cover-linf", "--matrix", str(path), "--eps", "0.1"
    )
    assert code == 3
    assert "capability" in err


def test_applicability_error_exits_4():
    code, _, err = run_cli(
        "bound", "--family", "unbounded", "--emp-loss", "0", "--moment", "1",
        "--logN", "100", "--m", "10", "--delta", "0.05",
    )
    assert code == 4
    assert "not applicable" in err


def test_verify_binomial_passes():
    code, out, _ = run_cli("verify", "binomial", "--m-max", "40", "--grid-size", "40")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] and data["min_upper_tail"] > 0.25


def test_complexity_ops_round_trip(tmp_path):
    mat = {"values": [[0.0, 1.0], [0.0, 1.0]], "range_tag": "binary"}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(mat))
    code, out, _ = run_cli("complexity", "--op", "rademacher-exact", "--matrix", str(path))
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.25)

    code, out, _ = run_cli(
        "complexity", "--op", "rademacher-mc", "--matrix", str(path),
        "--n-sigma", "4000", "--seed", "5",
    )
    assert code == 0
    mc = json.loads(out)
    assert abs(mc["value"] - 0.25) <= 3 * mc["stderr"]

    code, out, _ = run_cli("complexity", "--op", "dichotomies", "--matrix", str(path), "--range-tag", "binary")
    assert code == 0
    assert json.loads(out)["value"] == 2

    # randomized op without a seed is an input error
    code, _, _ = run_cli("complexity", "--op", "rademacher-mc", "--matrix", str(path), "--n-sigma", "64")
    assert code == 2


def test_complexity_formula_ops(capsys):
    code, out, _ = run_cli(
        "complexity", "--op", "fat-formula", "--class-kind", "linear",
        "--radius", "1", "--rho", "0.5",
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(4.0)
    for value in ("inf", "nan"):
        assert main(["complexity", "--op", "fat-formula", "--class-kind", "linear", "--radius", value]) == 2
        assert f"input error: radius must be finite and > 0, got {value}" in capsys.readouterr().err

    code, out, _ = run_cli("complexity", "--op", "cover-log-fat", "--fat-d", "1", "--m", "1")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(60.91371326362413, rel=1e-12)
    assert main(["complexity", "--op", "cover-log-fat", "--fat-d", "nan", "--m", "10"]) == 2
    assert capsys.readouterr().err == "input error: d must be finite and >= 1, got nan\n"


def test_remaining_bound_families_wiring():
    code, out, _ = run_cli(
        "bound", "--family", "rad-all-alpha", "--emp", "0.05", "--rm", "0.2",
        "--m", "1000000", "--delta", "0.05", "--alpha-grid", "1.5,2",
    )
    assert code == 0
    data = json.loads(out)
    assert data["breakdown"]["best_alpha"] in (1.5, 2.0)

    code, out, _ = run_cli(
        "bound", "--family", "unbounded-uniform-rho", "--emp-loss", "0.1",
        "--moment", "1", "--logN", "5", "--m", "10000", "--delta", "0.05",
        "--r", "1.0", "--rho-grid", "0.25,0.5,1.0",
    )
    assert code == 0
    assert json.loads(out)["family"] == "unbounded-uniform-rho"

    code, out, _ = run_cli(
        "bound", "--family", "rad-smooth", "--emp", "0", "--rmax", "0.015625",
        "--m", "4096", "--rho", "0.5", "--delta", "0.05",
    )
    assert code == 0
    assert json.loads(out)["vacuous"] is True

    code, out, _ = run_cli(
        "bound", "--family", "cov-fat", "--emp", "0", "--fat-d", "2",
        "--m", "1000000", "--delta", "0.1",
    )
    assert code == 0
    assert json.loads(out)["bound_value"] < 1

    code, out, _ = run_cli(
        "bound", "--family", "cov-uniform-rho", "--emp", "0.1", "--logN", "5",
        "--m", "100000", "--delta", "0.05", "--rho", "0.25", "--r", "0.5",
    )
    assert code == 0
    assert json.loads(out)["breakdown"]["loglog_addend"] == pytest.approx(math.log(2), rel=1e-9)


def test_remaining_complexity_ops_wiring(tmp_path):
    mat = {
        "values": [[0.95, 0.15], [0.95, 0.15], [0.15, 0.95], [0.15, 0.95]],
        "range_tag": "unit-interval",
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(mat))

    code, out, _ = run_cli("complexity", "--op", "peel", "--matrix", str(path))
    assert code == 0
    assert json.loads(out)["buckets"] == {"1": [0, 1]}

    code, out, _ = run_cli(
        "complexity", "--op", "rm-dudley", "--matrix", str(path), "--k", "1",
        "--eps-grid", "0.5,0.75,1.0",
    )
    assert code == 0
    assert json.loads(out)["value"] > 1 / 16

    code, out, _ = run_cli(
        "complexity", "--op", "rm-peeling", "--matrix", str(path), str(path), "--seed", "3"
    )
    assert code == 0
    assert json.loads(out)["method"] == "monte-carlo"

    code, out, _ = run_cli(
        "complexity", "--op", "cover-l2", "--matrix", str(path), "--eps", "0.5"
    )
    assert code == 0
    assert json.loads(out)["value"] == 2

    code, out, _ = run_cli(
        "complexity", "--op", "rm-smooth", "--rho", "0.5", "--m", "1024", "--rmax", "1"
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(35325620.01636638, rel=1e-9)

    code, out, _ = run_cli(
        "complexity", "--op", "worst-case", "--class-kind", "linear", "--radius", "1", "--m", "100"
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(0.1)

    code, out, _ = run_cli(
        "complexity", "--op", "fat-exact", "--matrix", str(path), "--gamma", "0.3",
        "--witness-grid", "0.55",
    )
    assert code == 0
    assert json.loads(out)["value"] >= 1


def test_compare_direct_csv():
    code, out, _ = run_cli(
        "compare", "--direct", "--emp-grid", "0", "--beta-grid", "0.01,0.04",
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "m,rho,emp,beta,beta_prime,new_bound,old_bound,new_smaller"
    assert lines[1].endswith(",1")  # new form wins at emp=0, beta=0.01


def test_train_bound_min_cli(tmp_path):
    s = generate(MarginSeparable(dim=3, gap=0.3, noise_rate=0.0), 200, seed=4)
    data_path = tmp_path / "sample.json"
    data_path.write_text(json.dumps(s.to_json()))
    code, out, _ = run_cli(
        "train", "--method", "bound-min", "--data", str(data_path),
        "--seed", "3", "--rho-grid", "0.1,0.3", "--steps", "600",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["objective"] == pytest.approx(0.0, abs=1e-12)
    assert rep["norm"] <= 1 + 1e-9
    assert rep["hypothesis"]["kind"] == "linear"


@pytest.mark.parametrize(
    "argv,text",
    [
        (["--method", "bound-min", "--rho-grid", "0,0.1"], "rho_grid entries must be finite and > 0, got 0.0"),
        (["--method", "bound-min", "--rho-grid", "-1"], "rho_grid entries must be finite and > 0, got -1.0"),
        (["--method", "tiny-mlp", "--width", "0"], "width must be an integer >= 1, got 0"),
    ],
)
def test_train_rejects_a_bad_option_value(tmp_path, capsys, argv, text):
    s = generate(MarginSeparable(dim=2, gap=0.3, noise_rate=0.0), 40, seed=4)
    data_path = tmp_path / "sample.json"
    data_path.write_text(json.dumps(s.to_json()))
    assert main(["train", "--data", str(data_path), "--seed", "1", "--steps", "5", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and text in err


@pytest.mark.parametrize(
    "argv,text",
    [
        (["--method", "bound-min", "--rho-grid", "0.1", "--restarts", "0"], "restarts must be an integer >= 1, got 0"),
        (["--method", "boost-stumps", "--rounds", "0"], "rounds must be an integer >= 1, got 0"),
    ],
)
def test_train_names_a_restart_or_round_count_below_one(tmp_path, capsys, argv, text):
    s = generate(MarginSeparable(dim=2, gap=0.3, noise_rate=0.0), 40, seed=4)
    data_path = tmp_path / "sample.json"
    data_path.write_text(json.dumps(s.to_json()))
    assert main(["train", "--data", str(data_path), "--seed", "1", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and text in err


@pytest.mark.parametrize("method", ["hinge-subgradient-linear", "tiny-mlp"])
def test_train_without_steps_keeps_the_trainer_default(tmp_path, method):
    from relmargin import LabeledSample
    from relmargin.reportio import canonical_json
    from relmargin.training import train

    # the directions with no training error form a narrow cone, which the
    # hinge descent from seed 0 enters only after its 1500th step
    s = LabeledSample(points=np.array([[0.05, 1.0], [-0.05, 1.0]]), labels=np.array([1.0, -1.0]))
    data_path, out_path = tmp_path / "sample.json", tmp_path / "train.json"
    data_path.write_text(json.dumps(s.to_json()))
    assert main(["train", "--method", method, "--data", str(data_path), "--seed", "0", "--out", str(out_path)]) == 0
    # with no --steps flag the CLI passes no step count, so the hypothesis is
    # the one ``train`` gives with the trainer's own default
    want = json.loads(canonical_json(train(method, s, {"seed": 0}).to_json()))
    assert json.loads(out_path.read_text())["hypothesis"] == want


@pytest.mark.parametrize(
    "argv,extra,flags",
    [
        (["--method", "boost-stumps"], ["--steps", "5"], "--steps"),
        (["--method", "hinge-subgradient-linear"], ["--rounds", "3"], "--rounds"),
        (["--method", "tiny-mlp", "--steps", "20"], ["--lam", "9", "--restarts", "2", "--rho-grid", "0.1"],
         "--lam, --rho-grid, --restarts"),
        (["--method", "bound-min", "--rho-grid", "0.1", "--steps", "20"], ["--width", "3", "--rounds", "2"],
         "--rounds, --width"),
    ],
)
def test_train_rejects_flags_the_method_does_not_take(tmp_path, capsys, argv, extra, flags):
    s = generate(MarginSeparable(dim=2, gap=0.3, noise_rate=0.0), 40, seed=4)
    data_path = tmp_path / "sample.json"
    data_path.write_text(json.dumps(s.to_json()))
    argv = ["train", "--data", str(data_path), "--seed", "1", *argv]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + extra) == 2
    err = capsys.readouterr().err
    assert f"--method {argv[6]} does not take {flags}" in err and "Traceback" not in err


_SAMPLE = {"points": [[0.5, 1.0], [-0.5, 0.2], [1.5, -1.0]], "labels": [1, -1, 1]}


@pytest.mark.parametrize(
    "argv,data,text",
    [
        (["train", "--method", "hinge-subgradient-linear", "--seed", "1"],
         {"points": _SAMPLE["points"]}, "missing sample keys ['labels']"),
        (["train", "--method", "hinge-subgradient-linear", "--seed", "1"],
         dict(_SAMPLE, seed="abc"), "sample.seed must be an integer >= 0, got 'abc'"),
        (["train", "--method", "boost-stumps", "--seed", "1"],
         dict(_SAMPLE, points="abc"), "sample.points must be a rectangular array of numbers"),
        (["train", "--method", "boost-stumps", "--seed", "1"],
         dict(_SAMPLE, label=[1, -1, 1]), "unknown sample keys ['label']"),
        (["train", "--method", "boost-stumps", "--seed", "1"],
         dict(_SAMPLE, labels=["1", "-1", "1"]), "sample.labels must be a rectangular array of numbers, got the entry '1'"),
        (["train", "--method", "boost-stumps", "--seed", "1"],
         dict(_SAMPLE, labels=[1, True, -1]), "sample.labels must be a rectangular array of numbers, got the entry True"),
        (["train", "--method", "boost-stumps", "--seed", "1"],
         dict(_SAMPLE, points=[[0.5, 1.0], [-0.5, None], [1.5, -1.0]]), "got the entry None"),
        (["complexity", "--op", "cover-linf", "--eps", "0.1"],
         {"range_tag": "real"}, "missing matrix keys ['values']"),
        (["complexity", "--op", "dichotomies", "--range-tag", "binary"],
         {"range_tag": "binary"}, "missing matrix keys ['values']"),
        (["complexity", "--op", "cover-linf", "--eps", "0.1"],
         {"values": [[0.0, 1.0], [1.0]]}, "matrix.values must be a rectangular array of numbers"),
        (["complexity", "--op", "dichotomies", "--range-tag", "binary"],
         {"values": [[True, False], [False, True]]}, "matrix.values must be a rectangular array of numbers, got the entry True"),
        (["complexity", "--op", "cover-linf", "--eps", "0.1"],
         {"values": [[0.5, "0.25"]]}, "got the entry '0.25'"),
        (["complexity", "--op", "cover-linf", "--eps", "0.1", "--range-tag", "binary"],
         [[0.0, 1.0]], "matrix must be a mapping"),
        (["complexity", "--op", "cover-linf", "--eps", "0.1"], '{"values": [[0.0,', "input error: Expecting"),
        (["complexity", "--op", "cover-linf", "--eps", "0.1"], "index,c0,c1\n0,0.5,abc\n",
         "loss matrix CSV entries must be numbers"),
        (["complexity", "--op", "cover-linf", "--eps", "0.1"], "index,c0,c1\n0,0.5\n1,0.2,0.3\n",
         "loss matrix CSV rows must be a rectangular array of numbers"),
        # Python's json writes and reads NaN and Infinity
        (["train", "--method", "boost-stumps", "--seed", "1"],
         dict(_SAMPLE, points=[[0.5, 1.0], [-0.5, math.nan], [1.5, -1.0]]), "points must be finite, got the entry nan"),
        (["train", "--method", "hinge-subgradient-linear", "--seed", "1"],
         dict(_SAMPLE, points=[[0.5, 1.0], [-0.5, 0.2], [math.inf, -1.0]]), "points must be finite, got the entry inf"),
    ],
)
def test_malformed_input_file_exits_2_naming_the_key(tmp_path, capsys, argv, data, text):
    path = tmp_path / ("input.csv" if str(data).startswith("index") else "input.json")
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    flag = "--data" if argv[0] == "train" else "--matrix"
    assert main(argv + [flag, str(path)]) == 2
    err = capsys.readouterr().err
    assert text in err and "Traceback" not in err


def test_well_formed_input_files_still_load(tmp_path, capsys):
    sample = tmp_path / "sample.json"
    sample.write_text(json.dumps(dict(_SAMPLE, seed=4, schema="relmargin/sample/v1")))
    assert main(["train", "--method", "boost-stumps", "--rounds", "2", "--seed", "1", "--data", str(sample)]) == 0
    capsys.readouterr()
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps({"values": [[0.0, 1.0], [1.0, 1.0]]}))
    assert main(["complexity", "--op", "dichotomies", "--range-tag", "binary", "--matrix", str(matrix)]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 2.0


def _write_campaign_config(tmp_path, trials=8):
    cfg = {
        "distribution": {"kind": "two-gaussian-mixture", "dim": 3, "separation": 1.0, "sigma": 1.0},
        "pool": {"kind": "linear", "size": 6},
        "params": {"m": 50, "delta": 0.05, "alpha": 2.0, "rho": 0.2},
        "families": ["cov-alpha2"],
        "trials": trials,
        "seed": 31,
        "complexity": {"cover_draws": 6, "peel_draws": 6, "n_sigma": 64},
    }
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(cfg))
    return path


def test_validate_threads_do_not_change_bytes(tmp_path):
    path = _write_campaign_config(tmp_path)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    code1, _, _ = run_cli("validate", "--config", str(path), "--threads", "1", "--out", str(out1))
    code2, _, _ = run_cli("validate", "--config", str(path), "--threads", "3", "--out", str(out2))
    assert code1 == 0 and code2 == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_validate_rejects_thread_count_below_1(tmp_path, capsys, threads):
    path = _write_campaign_config(tmp_path, trials=2)
    assert main(["validate", "--config", str(path), "--threads", threads]) == 2
    assert "--threads must be at least 1" in capsys.readouterr().err


_NO_HOLDOUT = "risk.n is the holdout size, and risk.mode 'analytic' draws no holdout"


@pytest.mark.parametrize(
    "overrides,code,text",
    [
        (['distribution={"kind": "margin-separable-with-noise", "dim": 3}'], 2, "risk.mode 'analytic' needs"),
        # a campaign has one mode, the pool judged uniformly, and trains nothing
        (["mode=trained"], 2, "unknown config keys ['mode']"),
        (['risk={"mode": "holdot"}'], 2, "risk.mode must be"),
        (['trainer={"method": "hinge-subgradient-linear"}'], 2, "unknown config keys ['trainer']"),
        (['risk={"mode": "holdout", "size": 10}'], 2, "unknown risk keys ['size']"),
        (["pool.shape=1"], 2, "unknown pool keys ['shape']"),
        (["params.gamma=1"], 2, "unknown params keys ['gamma']"),
        (["trials=x"], 2, "trials must be"),
        (["pool.size=ten"], 2, "pool.size must be"),
        (["params.m=abc"], 2, "params.m must be"),
        (["seed=-1"], 2, "seed must be"),
        (["complexity.cover_draws=0"], 2, "complexity.cover_draws must be"),
        (["distribution.dim=3.0"], 2, "distribution.dim must be an integer >= 0, got 3.0"),
        (["distribution.dim=true"], 2, "distribution.dim must be an integer >= 0, got True"),
        (["distribution.radius=x"], 2, "distribution.radius must be a number, got 'x'"),
        (["distribution.radius=-1"], 2, "distribution.radius must be finite and > 0, got -1"),
        (["distribution.radius=0"], 2, "distribution.radius must be finite and > 0, got 0"),
        (["distribution.separation=Infinity"], 2, "distribution.separation must be finite, got inf"),
        (["distribution.sigma=NaN"], 2, "distribution.sigma must be finite, got nan"),
        (['distribution={"kind": "margin-separable-with-noise", "gap": 10.0}', 'risk={"mode": "holdout"}'],
         2, "distribution.gap = 10.0 lets the sampler accept at most 1.52e-23"),
        # a holdout size with analytic risks would be ignored
        (["risk.n=7"], 2, _NO_HOLDOUT),
        (['risk={"mode": "analytic", "n": 1000000}'], 2, _NO_HOLDOUT),
        (['risk={"mode": "holdout", "n": 2.5}'], 2, "risk.n must be an integer >= 1, got 2.5"),
        (['risk={"mode": "holdout", "n": 0}'], 2, "risk.n must be an integer >= 1, got 0"),
        (['mode="uniform-pool"', 'trainer={"method": "tiny-mlp"}'], 2, "unknown config keys ['mode', 'trainer']"),
        (['families=["cov-alpha2", "rad"]', "params.m=2"], 2,
         "peeling families need params.m >= 3 so that log log m is defined"),
        # a bound family with no array formula, and a misspelled one
        (['families=["rad", "unbounded"]'], 2,
         "bound families ['unbounded'] have no campaign formula; campaign families: cov-alpha, cov-alpha2, cov-fat, rad"),
        (['families=["cov-alfa", "unbounded"]'], 2,
         "unknown bound families ['cov-alfa']; campaign families: cov-alpha, cov-alpha2, cov-fat, rad"),
        # a repeated family would write its rows twice and count them once
        (['families=["rad", "rad"]', "trials=3"], 2, "families lists ['rad'] more than once"),
    ],
)
def test_bad_campaign_config_is_rejected_naming_the_key(tmp_path, capsys, monkeypatch, overrides, code, text):
    from relmargin import validation

    if code == 2:
        # a rejected config runs no complexity estimate
        def estimate(*args):
            raise AssertionError("a complexity estimate ran before the config was rejected")

        for name in list(validation._ESTIMATORS):
            monkeypatch.setitem(validation._ESTIMATORS, name, estimate)
    path = _write_campaign_config(tmp_path, trials=2)
    argv = ["validate", "--config", str(path)]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert text in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["complexity", "--op", "rademacher-mc", "--seed", "-1"],
        ["complexity", "--op", "rm-peeling", "--seed", "-3"],
        ["validate", "--config", "campaign.json", "--seed", "-1"],
        ["train", "--method", "hinge-subgradient-linear", "--data", "sample.json", "--seed", "-1"],
        ["verify", "monotone", "--seed", "-1"],
    ],
)
def test_negative_seed_exits_2_naming_the_flag(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "argument --seed: expected a non-negative integer, got '-" in capsys.readouterr().err


def test_validate_rerun_identical_and_overrides(tmp_path):
    path = _write_campaign_config(tmp_path)
    code, out_a, _ = run_cli("validate", "--config", str(path))
    code_b, out_b, _ = run_cli("validate", "--config", str(path))
    assert code == 0 and out_a == out_b
    code_c, out_c, _ = run_cli("validate", "--config", str(path), "--set", "trials=4")
    assert code_c == 0
    assert json.loads(out_c)["families"]["cov-alpha2"]["trials"] == 4
    code_d, _, err = run_cli("validate", "--config", str(path), "--set", "nope.key=1")
    assert code_d == 2 and "unknown config keys ['nope']" in err


def test_validate_set_creates_a_section_the_file_omits(tmp_path, capsys):
    path = _write_campaign_config(tmp_path, trials=3)
    assert "risk" not in json.loads(path.read_text())
    assert main(["validate", "--config", str(path), "--set", 'risk.mode="holdout"', "--set", "risk.n=500"]) == 0
    created = capsys.readouterr().out
    data = json.loads(path.read_text())
    data["risk"] = {"mode": "holdout", "n": 500}
    written = tmp_path / "with-risk.json"
    written.write_text(json.dumps(data))
    assert main(["validate", "--config", str(written)]) == 0
    assert capsys.readouterr().out == created
    # a misspelled section is still an unknown key, and a path through a value is no path
    for item, text in (('riks.mode="holdout"', "unknown config keys ['riks']"),
                       ("params.m.x=1", "override path 'params.m.x' does not address the config")):
        assert main(["validate", "--config", str(path), "--set", item]) == 2
        assert text in capsys.readouterr().err
    # nor is a key of a file that is not a mapping
    path.write_text("[1, 2]")
    assert main(["validate", "--config", str(path), "--set", "trials=4"]) == 2
    assert "override path 'trials' does not address the config" in capsys.readouterr().err


def test_validate_csv_header(tmp_path):
    path = _write_campaign_config(tmp_path, trials=3)
    code, out, _ = run_cli("validate", "--config", str(path), "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "family,trial,emp,complexity,bound,true_risk,violated"
    assert len(out.splitlines()) == 1 + 3


def test_unknown_flag_rejected():
    code, _, _ = run_cli("bound", "--family", "cov-alpha2", "--emp", "0", "--m", "10",
                         "--delta", "0.1", "--logN", "1", "--mystery", "1")
    assert code == 2


def test_main_entry_returns_int(capsys):
    rc = main(["bound", "--family", "cov-alpha2", "--emp", "0", "--logN", "0",
               "--m", "100", "--delta", "0.5"])
    assert rc == 0
    captured = capsys.readouterr()
    assert '"bound_value"' in captured.out


def test_explain_goes_to_stderr():
    code, out, err = run_cli(
        "bound", "--family", "cov-alpha2", "--emp", "0.2", "--logN", "2",
        "--m", "500", "--delta", "0.05", "--explain",
    )
    assert code == 0
    assert "empirical_term" in err and "bound_value" in err
    json.loads(out)  # stdout still carries exactly the report


# (family, flag, bad value, field named): the --emp and --delta cases on three
# families, and --rho and --r on families that read them
_BAD_BOUND_INPUTS = [
    *((family, flag, value, field)
      for flag, value, field in [("--emp", "nan", "emp"), ("--emp", "inf", "emp"), ("--emp", "-0.1", "emp"),
                                 ("--emp", "2", "emp"), ("--delta", "inf", "delta")]
      for family in ("cov-alpha", "cov-alpha2", "rad")),
    ("cov-uniform-rho", "--rho", "inf", "rho"), ("rad-smooth", "--rho", "inf", "rho"),
    ("unbounded", "--rho", "inf", "rho"),
    ("cov-uniform-rho", "--r", "inf", "r"), ("unbounded-uniform-rho", "--r", "inf", "r"),
]


@pytest.mark.parametrize(
    "family,flag,value,field", _BAD_BOUND_INPUTS, ids=["-".join((*case[1:], case[0])) for case in _BAD_BOUND_INPUTS]
)
def test_bad_bound_inputs_exit_2_naming_the_field(capsys, family, flag, value, field):
    args = ["bound", "--family", family, *_emp_flag(family), "--m", "1000", "--delta", "0.05",
            *_FULL_BOUND_ARGV[family]]
    assert main([*args, f"{flag}={value}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and f"{field} must be" in err


@pytest.mark.parametrize(
    "family,argv,field",
    [("cov-alpha", ["--logN"], "logN"), ("cov-alpha2", ["--logN"], "logN"),
     ("cov-uniform-rho", ["--r", "1", "--rho", "0.5", "--logN"], "logN"),
     ("cov-fat", ["--fat-d"], "fat_d"), ("rad", ["--rm"], "rm"),
     ("rad-all-alpha", ["--alpha-grid", "1.5,2", "--rm"], "rm"),
     ("unbounded", ["--emp-loss", "0.1", "--moment", "1", "--logN"], "logN"),
     ("unbounded-uniform-rho",
      ["--emp-loss", "0.1", "--moment", "1", "--r", "1", "--rho-grid", "0.5,1", "--logN"], "logN")],
)
@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_bad_complexity_inputs_exit_2_naming_the_field(capsys, family, argv, field, value):
    args = ["bound", "--family", family, *_emp_flag(family), "--m", "1000000", "--delta", "0.05"]
    *flags, last = argv
    assert main([*args, *flags, f"{last}={value}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and f"{field} must be" in err


def _emp_flag(family):
    """--emp for the zero-one families; the unbounded ones take --emp-loss."""
    return [] if family.startswith("unbounded") else ["--emp", "0.1"]


@pytest.mark.parametrize("family", ["unbounded", "unbounded-uniform-rho"])
def test_emp_rejected_for_unbounded_families(capsys, family):
    argv = ["bound", "--family", family, "--m", "1000000", "--delta", "0.05", *_FULL_BOUND_ARGV[family]]
    assert main(argv) == 0
    capsys.readouterr()
    assert main([*argv, "--emp", "7"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and "--emp does not apply" in err


def test_emp_defaults_to_zero_for_zero_one_families(capsys):
    assert main(["bound", "--family", "cov-alpha2", "--logN", "3", "--m", "1000", "--delta", "0.05"]) == 0
    assert json.loads(capsys.readouterr().out)["empirical_term"] == 0.0


def test_bad_empirical_loss_exits_2(capsys):
    rc = main(["bound", "--family", "unbounded", "--emp-loss=-1", "--moment", "1",
               "--logN", "5", "--m", "1000000", "--delta", "0.05"])
    assert rc == 2
    assert "emp_loss must be" in capsys.readouterr().err


def test_csv_emit_matches_json_round_trip(capsys):
    from relmargin import BoundParams, ExperimentConfig, bound_rad, compare_tightness_direct
    from relmargin.cli import _emit
    from relmargin.reportio import canonical_json, report_csv
    from relmargin.validation import validate_bounds

    cfg = ExperimentConfig.from_json({
        "distribution": {"kind": "two-gaussian-mixture", "dim": 2, "separation": 1.0, "sigma": 1.0},
        "pool": {"kind": "linear", "size": 5},
        "params": {"m": 40, "delta": 0.05, "alpha": 2.0, "rho": 0.2},
        "families": ["cov-alpha2", "rad"],
        "trials": 4,
        "seed": 3,
        "complexity": {"cover_draws": 3, "peel_draws": 3, "n_sigma": 64},
    })
    tightness = compare_tightness_direct([0.0, 0.1], [0.01, 0.2])
    reports = [
        bound_rad(0.1, 0.7, BoundParams(m=1000, delta=0.05)),
        validate_bounds(cfg),
        tightness,
        {"schema": "relmargin/value/v1", "op": "x", "value": math.inf,
         "nested": {"b": [1.0, -math.inf, 2], "a": 1 / 3}},
    ]
    for report in reports:
        data = report.to_json() if hasattr(report, "to_json") else report
        _emit(report, "csv", None)
        out = capsys.readouterr().out
        assert out == report_csv(json.loads(canonical_json(data)))
    assert "value,Infinity" in out and "nested.b,1;-Infinity;2" in out


def test_emit_writes_a_report_in_slices_whole(monkeypatch, capsys, tmp_path):
    from relmargin import cli, reportio
    from relmargin.reportio import Table, canonical_json, report_csv

    report = {"schema": "relmargin/value/v1", "op": "x", "value": 1 / 3, "note": "caf\u00e9 \u2264", "n": list(range(40))}
    # a table of 40 rows, written 7 rows to a piece
    table = Table(np.array(["caf\u00e9", "\u2264"])[np.arange(40) % 2], np.arange(40) / 3)
    monkeypatch.setattr(reportio, "_TABLE_ROWS", 7)
    validity = {"schema": "relmargin/validity-report/v1", "note": "caf\u00e9", "rows": table}
    for report in (report, validity):
        for fmt, text in (("json", canonical_json(report)), ("csv", report_csv(report))):
            out = tmp_path / f"report.{fmt}"
            cli._emit(report, fmt, str(out))
            cli._emit(report, fmt, None)
            captured = capsys.readouterr()
            assert out.read_text() == captured.out == text
            assert captured.err == f"wrote {out}\n"
    # the text before the table, its opening, 6 chunks and the 5 joins
    # between them, its closing, the text after it and the last newline
    assert len(list(reportio.json_pieces(validity))) == 1 + 1 + 6 + 5 + 1 + 1 + 1
    # the header with the first chunk, the other 5 chunks, and an empty rest
    assert [piece == "" for piece in reportio.csv_pieces(validity)] == [False] * 6 + [True]


# ---------------------------------------------------------------------------
# the family and op tables (in-process: each subprocess pays the import)

# family -> a complete argv beyond --family; it must succeed as given
_FULL_BOUND_ARGV = {
    "cov-alpha": ["--logN", "3"],
    "cov-alpha2": ["--logN", "3"],
    "cov-fat": ["--fat-d", "2"],
    "cov-uniform-rho": ["--logN", "3", "--rho", "0.25", "--r", "0.5"],
    "rad": ["--rm", "0.5"],
    "rad-all-alpha": ["--rm", "0.5", "--alpha-grid", "1.5,2"],
    "rad-smooth": ["--rmax", "0.015625", "--rho", "0.5"],
    "unbounded": ["--emp-loss", "0.1", "--moment", "1", "--logN", "5"],
    "unbounded-uniform-rho": [
        "--emp-loss", "0.1", "--moment", "1", "--logN", "5", "--r", "1", "--rho-grid", "0.5,1",
    ],
}


def _drop_flag(argv, flag):
    i = argv.index(flag)
    return argv[:i] + argv[i + 2:]


def test_bound_table_lists_every_family():
    from relmargin.bounds import FAMILIES

    assert tuple(FAMILIES) == tuple(_FULL_BOUND_ARGV)


@pytest.mark.parametrize("family", sorted(_FULL_BOUND_ARGV))
def test_bound_family_required_flags(capsys, family):
    from relmargin.cli import _bound_flags

    base = ["bound", "--family", family, *_emp_flag(family), "--m", "1000000", "--delta", "0.05"]
    full = base + _FULL_BOUND_ARGV[family]
    assert main(full) == 0
    # the family's record builds a report of that family
    assert json.loads(capsys.readouterr().out)["family"] == family
    flags = _bound_flags(family)[0]
    assert flags
    for attr in flags:
        flag = "--" + attr.replace("_", "-")
        assert main(_drop_flag(full, flag)) == 2
        err = capsys.readouterr().err
        assert f"{flag} required for family {family}" in err


# a value for each family input flag; --solver is read by cov-alpha and
# cov-uniform-rho only
_FAMILY_INPUT_ARGV = {
    "--emp-loss": "0.1", "--logN": "3", "--fat-d": "2", "--rm": "0.5", "--rmax": "0.01", "--moment": "1",
    "--alpha-grid": "1.5,2", "--rho-grid": "0.5,1", "--solver": "lemma-D1",
}


def _unread_family_inputs():
    for family, argv in sorted(_FULL_BOUND_ARGV.items()):
        reads = set(argv) | ({"--solver"} if family in ("cov-alpha", "cov-uniform-rho") else set())
        yield from ((family, flag) for flag in _FAMILY_INPUT_ARGV if flag not in reads)


# every (family, flag) pair of --alpha, --rho and --r whose value the family's
# formula does not read; the other twelve pairs are read
_UNREAD_PARAMS = [
    ("cov-fat", "--alpha"), ("rad-all-alpha", "--alpha"),
    ("cov-alpha", "--rho"), ("cov-alpha2", "--rho"), ("cov-fat", "--rho"), ("rad", "--rho"),
    ("rad-all-alpha", "--rho"), ("unbounded-uniform-rho", "--rho"),
    ("cov-alpha", "--r"), ("cov-alpha2", "--r"), ("cov-fat", "--r"), ("rad", "--r"),
    ("rad-all-alpha", "--r"), ("rad-smooth", "--r"), ("unbounded", "--r"),
]
_PARAM_ARGV = {"--alpha": "2", "--rho": "0.5", "--r": "1"}


@pytest.mark.parametrize("family,flag", [*_unread_family_inputs(), *_UNREAD_PARAMS])
def test_bound_rejects_a_family_input_it_does_not_read(capsys, family, flag):
    full = ["bound", "--family", family, *_emp_flag(family), "--m", "1000000", "--delta", "0.05",
            *_FULL_BOUND_ARGV[family]]
    assert main([*full, flag, {**_FAMILY_INPUT_ARGV, **_PARAM_ARGV}[flag]]) == 2
    assert capsys.readouterr().err == f"input error: family {family} does not read {flag}\n"


def test_bound_takes_and_reports_every_param_its_formula_reads(capsys):
    pairs = [(family, flag) for family in _FULL_BOUND_ARGV for flag in _PARAM_ARGV]
    reads = [pair for pair in pairs if pair not in _UNREAD_PARAMS]
    assert len(reads) == 12
    for family, flag in reads:
        argv = ["bound", "--family", family, *_emp_flag(family), "--m", "1000000", "--delta", "0.05",
                *_FULL_BOUND_ARGV[family], flag, _PARAM_ARGV[flag]]
        assert main(argv) == 0, (family, flag)
        assert json.loads(capsys.readouterr().out)["params"][flag[2:]] == float(_PARAM_ARGV[flag])


def test_bound_names_every_unread_flag_and_defaults_the_solver(capsys):
    base = ["bound", "--family", "cov-alpha2", "--logN", "3", "--m", "1000", "--delta", "0.05"]
    assert main([*base, "--rm", "7", "--solver", "lemma-D1", "--rho-grid", "1,2"]) == 2
    assert "family cov-alpha2 does not read --rm, --rho-grid, --solver" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main([*base, "--tau", "0.5"])
    capsys.readouterr()
    for family in ("cov-alpha", "cov-uniform-rho"):
        argv = ["bound", "--family", family, "--emp", "0.1", "--m", "1000000", "--delta", "0.05",
                *_FULL_BOUND_ARGV[family]]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["solver"] == "root-find"
        assert main([*argv, "--solver", "lemma-D1"]) == 0
        assert json.loads(capsys.readouterr().out)["solver"] == "lemma-D1"


# op -> a complete argv beyond --op, with MATRIX standing for a matrix file
_FULL_OP_ARGV = {
    "cover-linf": ["--matrix", "MATRIX", "--eps", "0.5"],
    "cover-l2": ["--matrix", "MATRIX", "--eps", "0.5"],
    "dichotomies": ["--matrix", "MATRIX", "--range-tag", "binary"],
    "rademacher-exact": ["--matrix", "MATRIX"],
    "rademacher-mc": ["--matrix", "MATRIX", "--seed", "3", "--n-sigma", "64"],
    "peel": ["--matrix", "MATRIX"],
    "rm-peeling": ["--matrix", "MATRIX", "--seed", "3", "--n-sigma", "64"],
    "rm-dudley": ["--matrix", "MATRIX", "--k", "1", "--eps-grid", "0.5,0.75,1.0"],
    "rm-smooth": ["--rho", "0.5", "--m", "1024", "--rmax", "1"],
    "worst-case": ["--class-kind", "linear", "--radius", "1", "--m", "100"],
    "fat-formula": ["--class-kind", "linear", "--radius", "1", "--rho", "0.5"],
    "cover-log-fat": ["--fat-d", "1", "--m", "1"],
    "fat-exact": ["--matrix", "MATRIX", "--gamma", "0.3", "--witness-grid", "0.55"],
}


@pytest.mark.parametrize("op", sorted(_FULL_OP_ARGV))
def test_complexity_op_required_flags(tmp_path, capsys, op):
    from relmargin.cli import _COMPLEXITY_OPS

    path = tmp_path / "m.json"
    values = [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]
    path.write_text(json.dumps({"values": values, "range_tag": "unit-interval"}))
    extra = [str(path) if a == "MATRIX" else a for a in _FULL_OP_ARGV[op]]
    full = ["complexity", "--op", op, *extra]
    assert main(full) == 0
    capsys.readouterr()
    needs, _, _ = _COMPLEXITY_OPS[op]
    assert ("matrix" in needs) == ("--matrix" in full)
    for attr in needs:
        flag = "--" + attr.replace("_", "-")
        assert main(_drop_flag(full, flag)) == 2
        assert f"{flag} required for op {op}" in capsys.readouterr().err


def test_op_table_lists_every_op():
    from relmargin.cli import _COMPLEXITY_OPS

    assert set(_COMPLEXITY_OPS) == set(_FULL_OP_ARGV)


@pytest.mark.parametrize(
    "argv",
    [["bound", "--family", "cov-beta", "--emp", "0", "--logN", "1", "--m", "10", "--delta", "0.1"],
     ["complexity", "--op", "cover-linf3", "--eps", "0.1"]],
)
def test_unknown_family_or_op_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,budget",
    [
        (["--family", "rad", "--emp", "0.1", "--rm", "0", "--m", "1000"], "B = (rm + log log m + log(16/delta)) / m"),
        (["--family", "rad-all-alpha", "--emp", "0.1", "--rm", "0", "--m", "1000", "--alpha-grid", "1.5"],
         "B = (rm + log log m + log(16/delta)) / m"),
        (["--family", "rad-smooth", "--emp", "0.1", "--rmax", "1e-9", "--m", "1000000"],
         "beta = cap/m + (log log m + log(16/delta))/m"),
    ],
)
def test_peeling_families_reject_a_negative_budget(capsys, argv, budget):
    assert main(["bound", *argv, "--delta", "1e6"]) == 2
    err = capsys.readouterr().err
    assert f"the peeling budget {budget} = -" in err and "is negative" in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["nan", "inf", "1000.7", "0"])
def test_compare_rejects_an_m_grid_value_that_is_not_a_count(capsys, value):
    base = ["compare", "--rho-grid", "0.1", "--emp-grid", "0", "--class-kind", "linear", "--radius", "1"]
    assert main([*base, "--m-grid", f"1000,{value}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: m_grid must be an integer >= 1") and "Traceback" not in err
    assert main([*base, "--m-grid", "1000.0"]) == 0
    assert json.loads(capsys.readouterr().out)["rows"][0]["m"] == 1000


@pytest.mark.parametrize("value", ["nan", "inf", "0"])
def test_verify_monotone_rejects_a_delta_that_is_not_finite_and_positive(capsys, value):
    assert main(["verify", "monotone", "--seed", "1", "--n", "10", "--delta", value]) == 2
    expected = f"input error: delta must be finite and > 0, got {float(value)!r}\n"
    assert capsys.readouterr().err == expected


@pytest.mark.parametrize("value", ["0", "-5"])
def test_verify_binomial_rejects_a_grid_size_below_1(capsys, value):
    assert main(["verify", "binomial", "--m-max", "10", "--grid-size", value]) == 2
    assert capsys.readouterr().err == f"input error: grid_size must be an integer >= 1, got {value}\n"


@pytest.mark.parametrize("value", ["1", "0", "2001"])
def test_verify_binomial_rejects_an_m_max_with_no_points_or_past_the_cap(capsys, value):
    # the check starts at m = 2, so m_max = 1 would pass with 0 points checked
    assert main(["verify", "binomial", "--m-max", value, "--grid-size", "5"]) == 2
    assert capsys.readouterr().err == f"input error: m_max must be in [2, 2000], got {value}\n"
    assert main(["verify", "binomial", "--m-max", "2", "--grid-size", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["points_checked"] == 10


@pytest.mark.parametrize(
    "op,argv,text",
    [("rm-peeling", ["--seed", "3", "--n-sigma", "-1"], "n_sigma must be an integer >= 1, got -1"),
     ("rm-peeling", ["--seed", "3", "--n-sigma", "0"], "n_sigma must be an integer >= 1, got 0"),
     ("rm-dudley", ["--k", "-1", "--eps-grid", "0.5,0.75,1.0"], "k must be an integer >= 0, got -1"),
     ("cover-linf", ["--eps", "0.5", "--exact-cap", "-3"], "exact_cap must be an integer >= 1, got -3"),
     ("rm-dudley", ["--k", "1", "--eps-grid", "0.5,nan"], "eps_grid must hold finite numbers, got [0.5, nan]"),
     ("rademacher-mc", ["--seed", "3", "--n-sigma", "1"], "n_sigma must be an integer >= 2, got 1")],
)
def test_complexity_options_outside_their_domain_exit_2(tmp_path, capsys, op, argv, text):
    # 24 rows: above the exact-enumeration cap, so rm-peeling draws signs
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"values": (np.arange(48).reshape(24, 2) % 3 == 0).astype(float).tolist()}))
    assert main(["complexity", "--op", op, "--matrix", str(path), *argv]) == 2
    assert capsys.readouterr().err == f"input error: {text}\n"


@pytest.mark.parametrize("op", sorted(_FULL_OP_ARGV))
def test_complexity_op_rejects_every_flag_it_does_not_read(tmp_path, capsys, op):
    from relmargin.cli import _COMPLEXITY_FLAGS, _COMPLEXITY_OPS

    path = tmp_path / "m.json"
    path.write_text(json.dumps({"values": [[1.0, 0.0], [0.0, 1.0]]}))
    full = ["complexity", "--op", op, *[str(path) if a == "MATRIX" else a for a in _FULL_OP_ARGV[op]]]
    needs, reads, _ = _COMPLEXITY_OPS[op]
    unread = sorted(_COMPLEXITY_FLAGS - set(needs + reads))
    assert unread
    for attr in unread:
        flag = "--" + attr.replace("_", "-")
        assert main([*full, flag, "linear" if attr == "class_kind" else "1"]) == 2
        assert capsys.readouterr().err == f"input error: op {op} does not read {flag}\n"


def test_unread_flags_exit_2_named_in_parser_order(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"values": [[0.0, 1.0], [0.5, 0.5]]}))
    cover = ["complexity", "--op", "cover-linf", "--matrix", str(path), "--eps", "0.1"]
    assert main([*cover, "--k", "3"]) == 2
    assert capsys.readouterr().err == "input error: op cover-linf does not read --k\n"
    assert main([*cover, "--radius", "1", "--k", "3", "--seed", "2"]) == 2
    assert capsys.readouterr().err == "input error: op cover-linf does not read --seed, --k, --radius\n"
    assert main(["verify", "binomial", "--m-max", "5", "--seed", "3"]) == 2
    assert capsys.readouterr().err == "input error: verify binomial does not read --seed\n"
    assert main(["verify", "binomial", "--m-max", "5"]) == 0
    capsys.readouterr()


def test_compare_rejects_the_flags_of_the_other_mode(capsys):
    classed = ["compare", "--class-kind", "linear", "--radius", "1", "--m-grid", "100", "--rho-grid", "0.5",
               "--emp-grid", "0,0.1"]
    assert main(classed) == 0
    capsys.readouterr()
    # --rho-grid replaces --rho in every row
    assert main([*classed, "--rho", "0.5"]) == 2
    assert capsys.readouterr().err == "input error: class mode does not read --rho\n"
    assert main([*classed, "--beta-grid", "0.1"]) == 2
    assert capsys.readouterr().err == "input error: class mode does not read --beta-grid\n"
    direct = ["compare", "--direct", "--emp-grid", "0,0.1", "--beta-grid", "0.01"]
    assert main([*direct, "--m-grid", "100", "--class-kind", "linear"]) == 2
    assert capsys.readouterr().err == "input error: direct mode does not read --m-grid, --class-kind\n"
    assert main([*direct, "--radius", "1"]) == 2
    assert capsys.readouterr().err == "input error: direct mode does not read --radius\n"
