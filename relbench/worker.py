"""The measured process of one benchmark run; ``run.py`` starts it.

    python3 relbench/worker.py --workload W --seed N --seconds S \
        --mode setup|measure|trace --rep K --dir D --t0 T --result R [--small]

It sets up (imports, writes the generated inputs, runs one warm-up
operation), then, unless ``--mode setup``, runs the workload's timed
operations and checks every output.  Set-up time is counted from ``--t0``,
the parent's ``time.monotonic()`` just before it started this process.
The result goes to ``--result`` as JSON.

Every operation gets its own seed, derived from the workload seed and the
operation's place in the run, so no operation repeats another's inputs.
The number of operations is fixed by ``--seconds`` and the workload's
nominal round time, not by a clock, so every run of a workload with the
same ``--seconds`` does the same work.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checkers  # noqa: E402
import tracer as tracing  # noqa: E402

# The reference campaign (configs/reference-campaign.json when the benchmark
# was written), copied so that later edits of that file do not move the inputs.
REFERENCE_CAMPAIGN = {
    "distribution": {"kind": "two-gaussian-mixture", "dim": 4, "separation": 1.0, "sigma": 1.0},
    "pool": {"kind": "linear", "size": 50},
    "params": {"m": 200, "delta": 0.05, "alpha": 2.0, "rho": 0.2},
    "families": ["cov-alpha2", "rad"],
    "trials": 2000,
    "seed": 888,
    "complexity": {"cover_draws": 48, "peel_draws": 48, "n_sigma": 1024, "exact_cap": 50,
                   "cover_mode": "exact"},
}

# Nominal seconds of one round on the reference host (2 cores, see README);
# --seconds // this is the number of rounds a run does, and a traced run does
# half as many in each of its two passes.
NOMINAL_ROUND_S = {"campaign-large-m": 3.5, "campaign-trial-heavy": 15.0, "cli-session": 15.0}


def op_seed(seed: int, *path) -> int:
    """A 31-bit seed for the operation at ``path`` within the run of ``seed``."""
    digest = hashlib.sha256(repr((int(seed),) + path).encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def campaign_config(overrides: dict) -> dict:
    cfg = json.loads(json.dumps(REFERENCE_CAMPAIGN))
    for key, value in overrides.items():
        section, _, name = key.rpartition(".")
        (cfg[section] if section else cfg)[name] = value
    return cfg


# ---------------------------------------------------------------------------
# campaign workloads: one in-process ``relmargin.cli.main(["validate", ...])``
# per operation

CAMPAIGNS = {
    # covers and peeling over 2m = 10^4 and m = 5000 rows; few trials
    "campaign-large-m": {
        "full": {"params.m": 5000, "trials": 300, "complexity.cover_draws": 8,
                 "complexity.peel_draws": 8},
        "warmup": {"params.m": 5000, "trials": 20, "complexity.cover_draws": 2,
                   "complexity.peel_draws": 2},
        "small": {"params.m": 1000, "trials": 20, "complexity.cover_draws": 2,
                  "complexity.peel_draws": 2},
    },
    # the trial loop and 3 x 10^4 report rows; complexity estimates at m = 200
    "campaign-trial-heavy": {
        "full": {"trials": 10000, "families": ["cov-alpha", "cov-alpha2", "rad"]},
        "warmup": {"trials": 100, "families": ["cov-alpha", "cov-alpha2", "rad"],
                   "complexity.cover_draws": 2, "complexity.peel_draws": 2},
        "small": {"trials": 300, "families": ["cov-alpha", "cov-alpha2", "rad"],
                  "complexity.cover_draws": 4, "complexity.peel_draws": 4},
    },
}


class Campaign:
    def __init__(self, name, seed, workdir, small):
        spec = CAMPAIGNS[name]
        self.name, self.seed, self.workdir = name, seed, workdir
        self.config = campaign_config(spec["small" if small else "full"])
        self.warmup_config = campaign_config(spec["warmup"])

    def write_inputs(self, n_rounds):
        self.config_path = self.workdir / "campaign.json"
        self.config_path.write_text(json.dumps(self.config, indent=1))
        self.warmup_path = self.workdir / "warmup.json"
        self.warmup_path.write_text(json.dumps(self.warmup_config, indent=1))
        self.plan = [op_seed(self.seed, self.name, r) for r in range(n_rounds)]

    def _validate(self, config_path, seed, out):
        import relmargin.cli

        argv = ["validate", "--config", str(config_path), "--threads", "1",
                "--seed", str(seed), "--out", str(out)]
        start = time.perf_counter()
        try:
            code = relmargin.cli.main(argv)
        except Exception:  # a crash of the program under test is a failed operation
            traceback.print_exc()
            code = -1
        return code, time.perf_counter() - start

    def warmup(self, rep):
        seed = op_seed(self.seed, self.name, "warmup", rep)
        out = self.workdir / "warmup-report.json"
        code, _ = self._validate(self.warmup_path, seed, out)
        return [Outcome("warmup", code, 0.0, lambda: self._check(out, self.warmup_config, seed))]

    def run_round(self, r, tag):
        seed = self.plan[r]
        out = self.workdir / f"{tag}-r{r}.json"
        code, elapsed = self._validate(self.config_path, seed, out)
        return [Outcome("validate", code, elapsed, lambda: self._check(out, self.config, seed), out)]

    def _check(self, out, config, seed):
        report = json.loads(out.read_text())
        errors = checkers.check_validity_report(report, config)
        if report["environment"].get("seed") != seed:
            errors.append("validate: report seed differs from the operation seed")
        return errors

    def peak_rss_mb(self, outcomes):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """One operation: exit code, wall time, a deferred output check, and the
    report it wrote (compared across the untraced and traced passes)."""

    kind: str
    code: int
    elapsed: float
    check: Callable[[], list]
    out: Path | None = None
    rss_mb: float = 0.0


# ---------------------------------------------------------------------------
# cli-session: about ten fresh ``python -m relmargin.cli`` processes per round


def run_child(cmd, stdout_path, stderr_path):
    """Run one child to completion; returns (exit code, wall s, peak RSS MB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss / 1024.0


BOUND_FLAGS = {"m": "--m", "delta": "--delta", "alpha": "--alpha", "emp": "--emp", "logN": "--logN",
               "rm": "--rm", "emp_loss": "--emp-loss", "moment": "--moment", "rho": "--rho"}


def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


class CliSession:
    LAM = 0.1
    RHO_GRID = (0.1, 0.2, 0.3)

    def __init__(self, name, seed, workdir, small):
        self.name, self.seed, self.workdir, self.small = name, seed, workdir, small
        self.trace_dir = None  # set for the traced pass

    def _ops(self, r):
        """The round's operations: (kind, relmargin argv, checker)."""
        d = self.workdir
        rngs = [np.random.default_rng(op_seed(self.seed, self.name, r, i)) for i in range(10)]
        ops = []

        for i, family in enumerate(("cov-alpha2", "cov-alpha", "rad", "unbounded")):
            inputs = self._bound_inputs(family, rngs[i])
            argv = ["bound", "--family", family]
            for key, value in inputs.items():
                argv += [BOUND_FLAGS[key], repr(value)]
            explain = family == "rad"
            if explain:
                argv.append("--explain")
            ops.append(("bound", argv, self._bound_check(family, inputs, explain)))

        # cover-linf on 10 clustered columns, small enough to enumerate every center set
        rng = rngs[4]
        centers = rng.uniform(0, 1, size=(int(rng.integers(2, 6)), 40))
        values = centers[rng.integers(0, len(centers), size=10)].T + rng.uniform(-0.15, 0.15, size=(40, 10))
        eps = float(rng.uniform(0.1, 0.35))
        path = d / f"cover-r{r}.json"
        path.write_text(json.dumps({"values": values.tolist(), "range_tag": "real"}))
        ops.append(("complexity", ["complexity", "--op", "cover-linf", "--matrix", str(path), "--eps", repr(eps)],
                    lambda rep, err, values=values, eps=eps: checkers.check_cover_report(rep, values, eps)))

        # rm-peeling on binary matrices with m = 10 (exact inner enumeration)
        rng = rngs[5]
        mats = [(rng.uniform(size=(10, 8)) < rng.uniform(0.05, 0.9, size=8)).astype(float) for _ in range(4)]
        paths = []
        for t, mat in enumerate(mats):
            paths.append(d / f"peel-r{r}-{t}.json")
            paths[-1].write_text(json.dumps({"values": mat.tolist(), "range_tag": "binary"}))
        ops.append(("complexity", ["complexity", "--op", "rm-peeling", "--matrix", *map(str, paths),
                                   "--seed", str(op_seed(self.seed, self.name, r, 5))],
                    lambda rep, err, mats=mats: checkers.check_peeling_report(rep, mats)))

        rng = rngs[6]
        emp_grid = [0.0] + sorted(rng.uniform(0, 0.2, size=3).tolist())
        beta_grid = sorted(rng.uniform(1e-4, 1.0, size=5).tolist())
        ops.append(("compare", ["compare", "--direct", "--emp-grid", _floats(emp_grid),
                                "--beta-grid", _floats(beta_grid)],
                    lambda rep, err: checkers.check_compare_report(rep, emp_grid, beta_grid)))

        m_max = int(rngs[7].integers(100, 201))
        ops.append(("verify", ["verify", "binomial", "--m-max", str(m_max)],
                    lambda rep, err: checkers.check_verify_report(rep, m_max)))

        config = dict(REFERENCE_CAMPAIGN, seed=op_seed(self.seed, self.name, r, 8))
        if self.small:
            config = dict(config, trials=200)
        path = d / f"campaign-r{r}.json"
        path.write_text(json.dumps(config))
        ops.append(("validate", ["validate", "--config", str(path), "--threads", "1"],
                    lambda rep, err: checkers.check_validity_report(rep, config)))

        rng = rngs[9]
        labels = rng.integers(0, 2, size=200) * 2.0 - 1.0
        points = rng.standard_normal((200, 4))
        points[:, 0] += labels
        path = d / f"sample-r{r}.json"
        path.write_text(json.dumps({"points": points.tolist(), "labels": labels.astype(int).tolist(),
                                    "seed": int(op_seed(self.seed, self.name, r, 9))}))
        argv = ["train", "--method", "bound-min", "--data", str(path), "--seed", str(op_seed(self.seed, self.name, r, 9)),
                "--rho-grid", _floats(self.RHO_GRID), "--lam", repr(self.LAM)]
        if self.small:
            argv += ["--steps", "200", "--restarts", "2"]
        ops.append(("train", argv, lambda rep, err: checkers.check_train_report(
            rep, points, labels, self.RHO_GRID, self.LAM)))
        return ops

    @staticmethod
    def _bound_inputs(family, rng) -> dict:
        """Flag values inside each family's domain, so no seed makes the call fail."""
        if family == "unbounded":
            # m >= 10^4 and alpha >= 1.5 keep the deviation scale below 1
            return {"m": int(rng.integers(10_000, 1_000_001)), "delta": float(rng.uniform(0.01, 0.1)),
                    "alpha": float(rng.uniform(1.5, 2.0)), "emp_loss": float(rng.uniform(0, 2)),
                    "moment": float(rng.uniform(0.5, 5)), "logN": float(rng.uniform(0, 10)),
                    "rho": float(rng.uniform(0.05, 0.5))}
        inputs = {"m": int(rng.integers(1000, 1_000_001)), "delta": float(rng.uniform(0.01, 0.1)),
                  "alpha": 2.0 if family == "cov-alpha2" else float(rng.uniform(1.2, 2.0)),
                  "emp": float(rng.uniform(0, 0.3))}
        if family == "rad":
            inputs["rm"] = float(rng.uniform(0, 5))
        else:
            inputs["logN"] = float(rng.uniform(0, 20))
        return inputs

    @staticmethod
    def _bound_check(family, inputs, explain):
        def check(report, stderr):
            errors = checkers.check_bound_report(report, family, inputs)
            if explain and "bound_value" not in stderr:
                errors.append(f"bound[{family}] --explain printed no breakdown")
            return errors
        return check

    def write_inputs(self, n_rounds):
        self.plan = [self._ops(r) for r in range(n_rounds)]

    def _run(self, tag, argv, check):
        out = self.workdir / f"{tag}.json"
        err = self.workdir / f"{tag}.err"
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "relmargin.cli", *argv, "--out", str(out)]
        else:
            cmd = [sys.executable, str(HERE / "cli_traced.py"), str(self.trace_dir / f"{tag}.jsonl"),
                   *argv, "--out", str(out)]
        code, elapsed, rss = run_child(cmd, self.workdir / f"{tag}.stdout", err)

        def deferred():
            return check(json.loads(out.read_text()), err.read_text())
        return code, elapsed, rss, deferred, out

    def warmup(self, rep):
        inputs = {"emp": 0.1, "logN": 10.0, "m": 1000 + rep, "delta": 0.05, "alpha": 2.0}
        argv = ["bound", "--family", "cov-alpha2", "--emp", "0.1", "--logN", "10.0",
                "--m", str(inputs["m"]), "--delta", "0.05"]
        code, _, _, check, _ = self._run("warmup", argv, self._bound_check("cov-alpha2", inputs, False))
        return [Outcome("warmup", code, 0.0, check)]

    def run_round(self, r, tag):
        outcomes = []
        for i, (kind, argv, check) in enumerate(self.plan[r]):
            code, elapsed, rss, deferred, out = self._run(f"{tag}-r{r}-op{i}", argv, check)
            outcomes.append(Outcome(kind, code, elapsed, deferred, out, rss))
        return outcomes

    def peak_rss_mb(self, outcomes):
        return max(o.rss_mb for o in outcomes)


WORKLOADS = {"campaign-large-m": Campaign, "campaign-trial-heavy": Campaign, "cli-session": CliSession}


# ---------------------------------------------------------------------------


def import_times() -> dict:
    """Cumulative import seconds of relmargin, scipy.stats and scipy.special,
    read from ``python -X importtime`` in a fresh process."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import relmargin"],
                          capture_output=True, text=True, check=True)
    found = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            found.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return {"cli.import_s": found.get("relmargin"), "cli.import_scipy_stats_s": found.get("scipy.stats"),
            "cli.import_scipy_special_s": found.get("scipy.special")}


def run_pass(workload, n_rounds, tag):
    outcomes = []
    start = time.perf_counter()
    for r in range(n_rounds):
        outcomes += workload.run_round(r, tag)
    return outcomes, time.perf_counter() - start


def check_all(outcomes) -> tuple[list, list]:
    """Messages for the operations that failed, and for wrong outputs of the rest."""
    failures, errors = [], []
    for o in outcomes:
        if o.code != 0:
            failures.append(f"{o.kind}: exit code {o.code}")
            continue
        try:
            errors += o.check()
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            errors.append(f"{o.kind}: unreadable output ({type(exc).__name__}: {exc})")
    return failures, errors


def cli_layers(outcomes) -> dict:
    """Median process wall per CLI command kind (0 where the kind did not run)."""
    def median_of(kind):
        times = [o.elapsed for o in outcomes if o.kind == kind]
        return statistics.median(times) if times else 0.0

    return {"cli.bound_p50_s": median_of("bound"), "cli.complexity_p50_s": median_of("complexity"),
            "cli.validate_s": median_of("validate"), "cli.train_s": median_of("train")}


def trace_pass(workload, n_rounds, untraced, untraced_wall):
    """Rerun the untraced pass's operations (same seeds) with the layers wrapped.
    Returns the outcomes and {metric: [value, unit]} plus the missing names."""
    if isinstance(workload, Campaign):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, wall = run_pass(workload, n_rounds, "traced")
        finally:
            tracer.restore()
        tracer.write_spans(workload.workdir / "trace.jsonl")
        snap = tracer.snapshot()
        cli = cli_layers([])  # a campaign runs no CLI process
    else:
        workload.trace_dir = workload.workdir / "trace"
        workload.trace_dir.mkdir(exist_ok=True)
        traced, wall = run_pass(workload, n_rounds, "traced")
        snap = tracing.merge(tracing.read_snapshot(p) for p in sorted(workload.trace_dir.glob("*.jsonl")))
        cli = cli_layers(untraced)
    layers, missing = tracing.layer_metrics(snap)
    layers = {name: [value, unit] for name, (value, unit) in layers.items()}
    for name, value in {**import_times(), **cli}.items():
        if value is None:
            missing.append(name)
        else:
            layers[name] = [value, "s"]
    layers["trace.overhead_s"] = [wall - untraced_wall, "s"]
    return traced, layers, missing


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--rep", type=int, default=0)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--small", action="store_true", help="tiny inputs, for the self-tests")
    args = ap.parse_args(argv)

    workdir = Path(args.dir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.workload, args.seed, workdir, args.small)
    if isinstance(workload, Campaign):
        import relmargin.cli  # noqa: F401  (the import is part of set-up)

        src = (Path.cwd() / "src").resolve()
        if src not in Path(sys.modules["relmargin"].__file__).resolve().parents:
            sys.exit(f"relmargin was imported from {sys.modules['relmargin'].__file__}, not from {src}")
    n_rounds = 1 if args.small else max(1, int(args.seconds // NOMINAL_ROUND_S[args.workload]))
    if args.mode == "trace":
        n_rounds = max(1, n_rounds // 2)
    workload.write_inputs(n_rounds)
    outcomes = workload.warmup(args.rep)
    result = {"setup_s": time.monotonic() - args.t0}

    if args.mode != "setup":
        timed, wall = run_pass(workload, n_rounds, "untraced")
        outcomes += timed
        result.update(op_times=[o.elapsed for o in timed], wall_s=wall,
                      peak_rss_mb=workload.peak_rss_mb(timed))
    failures, errors = check_all(outcomes)
    if args.mode == "trace":
        traced, result["layers"], result["missing"] = trace_pass(workload, n_rounds, timed, wall)
        more_failures, more_errors = check_all(traced)
        failures, errors = failures + more_failures, errors + more_errors
        outcomes += traced
        for a, b in zip(timed, traced):
            if a.code == 0 and b.code == 0 and a.out.read_bytes() != b.out.read_bytes():
                errors.append(f"{a.kind}: the traced report differs from the untraced one")

    import scipy

    result.update(attempted=len(outcomes), failures=failures, errors=errors,
                  versions={"python": sys.version.split()[0], "numpy": np.__version__,
                            "scipy": scipy.__version__})
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
