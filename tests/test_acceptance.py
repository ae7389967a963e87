"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import json
import math
import re
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from oracles import brute_min_cover, brute_peeling_value
from relmargin import (
    ExperimentConfig,
    LossMatrix,
    MarginSeparable,
    compare_tightness_direct,
    cover_log_bound_from_fat,
    covering_number_linf,
    explicit_lemma_d1,
    gamma_factor,
    generate,
    peeling_complexity,
    peeling_complexity_for_matrices,
    rademacher_exact,
    rademacher_mc,
    rm_upper_dichotomy,
    solve_relative,
    train_bound_min,
    validate_bounds,
    verify_binomial_lemma,
    verify_monotone_ratio,
)
from relmargin.bounds import BoundParams, bound_cov_alpha2
from relmargin.comparison import crossover_check
from relmargin.kernels import pairwise_linf


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} {name}: FAIL ({time.time() - start:.2f}s)")
        raise
    elapsed = time.time() - start
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, f"criterion {number} exceeded its {budget_seconds}s budget"


def test_criterion_1_formula_fidelity():
    with criterion(1, "formula fidelity", 1.0):
        assert gamma_factor(2.0, 1.0) == 1.5
        assert explicit_lemma_d1(1.0, 1.0, 2.0) == 7.0
        # second-moment cover bound at emp=0 with c=0.01 is 4c = 0.04
        rep = bound_cov_alpha2(0.0, 1.0, BoundParams(m=100, delta=1.0))
        assert rep.breakdown["c"] == 0.01
        assert rep.bound_value == 0.04
        # the fat-shattering cover conversion pins its constant at 17
        source = (Path(__file__).parent.parent / "src/relmargin/fatdim.py").read_text()
        assert re.search(r"^FAT_COVER_CONSTANT = 17\.0$", source, re.MULTILINE)
        assert cover_log_bound_from_fat(2.0, 50) == 1.0 + 2.0 * math.log2(2.0 * 17.0 * 17.0 * 50) * math.log2(
            2.0 * 17.0 * math.e * 50 / 2.0
        )


def test_criterion_2_solver_soundness():
    with criterion(2, "solver soundness", 10.0):
        rng = np.random.default_rng(20240501)
        for _ in range(10_000):
            b = float(rng.uniform(0.0, 3.0))
            c = float(rng.uniform(0.0, 3.0))
            alpha = float(rng.uniform(1.05, 2.0))  # doubles can hold the fixed point here
            x = solve_relative(b, c, alpha)
            residual = abs(x - (b + c * x ** (1.0 / alpha)))
            assert residual <= 1e-10 * max(1.0, x)
            assert explicit_lemma_d1(b, c, alpha) >= x - 1e-9


def test_criterion_3_estimator_vs_oracle():
    with criterion(3, "estimator vs oracle", 120.0):
        rng = np.random.default_rng(101)
        for trial in range(100):
            m = int(rng.integers(2, 13))
            p = int(rng.integers(1, 31))
            vals = (rng.random((m, p)) < rng.uniform(0.2, 0.8)).astype(float)
            mat = LossMatrix(vals, "binary")
            exact = rademacher_exact(mat).value
            mc = rademacher_mc(mat, 8000, seed=101_000 + trial)
            assert abs(mc.value - exact) <= 3.0 * mc.stderr + 1e-9
        # peeling with a fixed outer sample equals full enumeration
        for m in (6, 10, 12):
            mats = [
                LossMatrix((rng.random((m, 5)) < 0.5).astype(float), "binary")
                for _ in range(3)
            ]
            est = peeling_complexity_for_matrices(mats)
            oracle = brute_peeling_value([mat.values.tolist() for mat in mats])
            assert abs(est.value - oracle) <= 1e-10 * max(1.0, abs(oracle))


def test_criterion_4_cover_correctness():
    with criterion(4, "cover correctness", 60.0):
        rng = np.random.default_rng(99)
        for case in range(500):
            p = int(rng.integers(1, 11))
            m = int(rng.integers(1, 7))
            vals = rng.random((m, p))
            if case % 5 == 0 and p > 1:
                vals[:, 0] = vals[:, -1]
            mat = LossMatrix(vals)
            eps = float(rng.uniform(0.02, 0.9))
            exact = covering_number_linf(mat, eps).value
            greedy = covering_number_linf(mat, eps, mode="greedy").value
            oracle = brute_min_cover(pairwise_linf(vals).tolist(), eps)
            assert exact == oracle
            assert greedy >= exact
        mat = LossMatrix(np.random.default_rng(1).random((6, 10)))
        values = [covering_number_linf(mat, e).value for e in np.linspace(0.01, 1.0, 14)]
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_criterion_5_binomial_tails():
    with criterion(5, "binomial quarter-tails", 60.0):
        rep = verify_binomial_lemma(200, grid_size=200)
        assert rep["passed"]
        assert rep["min_upper_tail"] > 0.25
        assert rep["min_lower_tail"] > 0.25


def test_criterion_6_monotone_ratio():
    with criterion(6, "deviation-ratio monotonicity", 5.0):
        rep = verify_monotone_ratio(n_points=10_000, delta=1e-6, seed=6021)
        assert rep["passed"]
        assert rep["increasing_in_x_failures"] == 0
        assert rep["decreasing_in_y_failures"] == 0


def test_criterion_7_bound_coverage_campaign():
    with criterion(7, "bound coverage campaign", 600.0):
        config_path = Path(__file__).parent.parent / "configs/reference-campaign.json"
        cfg = ExperimentConfig.from_json(json.loads(config_path.read_text()))
        report = validate_bounds(cfg, threads=1)
        for fam in ("cov-alpha2", "rad"):
            rec = report.families[fam]
            assert rec["trials"] == 2000
            assert rec["violation_rate"] <= 0.05
            assert rec["complexity"]["method"] in ("monte-carlo",)
        assert report.families["cov-alpha2"]["complexity"]["details"]["mode"] == "exact"


def test_criterion_8_dichotomy_bound_dominates_peeling():
    with criterion(8, "dichotomy cap dominates peeling", 120.0):
        rng = np.random.default_rng(4242)
        for trial in range(20):
            m = int(rng.integers(4, 13))
            p = int(rng.integers(2, 8))
            base = rng.random((m, p))
            cut = float(rng.uniform(0.3, 0.7))

            def sampler(seed, base=base, cut=cut, m=m, p=p):
                local = np.random.default_rng(seed)
                return LossMatrix(
                    ((base + 0.15 * local.random((m, p))) < cut).astype(float), "binary"
                )

            upper = rm_upper_dichotomy(sampler, trials=8, seed=trial)
            lower = peeling_complexity(sampler, outer_trials=8, seed=trial)
            assert upper.value >= lower.value - 1e-10


def test_criterion_9_tightness_regime():
    with criterion(9, "tightness regime", 5.0):
        betas = np.concatenate([np.logspace(-8, 0, 60), [1.0]])
        report = compare_tightness_direct([0.0], betas.tolist(), c_prime=1.0)
        for row in report["rows"]:
            assert row["new_bound"] <= row["old_bound"] + 1e-15  # beta <= sqrt(beta) on (0,1]
        assert crossover_check(report["rows"])


def test_criterion_10_bound_minimizing_trainer():
    with criterion(10, "bound-minimizing trainer", 60.0):
        dist = MarginSeparable(dim=4, gap=0.3, noise_rate=0.0)
        sample = generate(dist, 500, seed=21)
        h, rho, info = train_bound_min(
            sample, lam=0.05, rho_grid=[0.1, 0.2, 0.3], restarts=4, seed=3, steps=1500
        )
        assert info["objective"] == 0.0
        assert np.linalg.norm(h.w) <= 1.0 + 1e-9
        assert rho in (0.1, 0.2, 0.3)


def test_criterion_11_determinism_across_threads(tmp_path):
    with criterion(11, "thread-count determinism", 120.0):
        cfg = {
            "distribution": {"kind": "two-gaussian-mixture", "dim": 3, "separation": 1.0, "sigma": 1.0},
            "pool": {"kind": "linear", "size": 10},
            "params": {"m": 80, "delta": 0.05, "alpha": 2.0, "rho": 0.2},
            "families": ["cov-alpha2", "rad"],
            "trials": 40,
            "seed": 5150,
            "complexity": {"cover_draws": 8, "peel_draws": 8, "n_sigma": 128},
        }
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(cfg))
        outputs = []
        for threads in ("1", "2", "4"):
            out_path = tmp_path / f"report-{threads}.json"
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "relmargin.cli",
                    "validate",
                    "--config",
                    str(path),
                    "--threads",
                    threads,
                    "--out",
                    str(out_path),
                ],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
