#!/usr/bin/env python3
"""relmargin benchmark: runs one named workload and prints its metrics.

    python3 relbench/run.py --workload campaign-large-m --seed 1 --seconds 30 --trace 0

Run it from the root of a relmargin checkout: the workers import relmargin
from ./src.  Workloads (see README.md): campaign-large-m,
campaign-trial-heavy, cli-session.

The run sets up three times, each time in a fresh worker process (import,
generated inputs, one warm-up operation), and reports the median set-up
time.  The third worker goes on to the timed operations.  With
``--trace 1`` it then repeats the same operations with the layers wrapped
and reports per-layer metrics instead of the end-to-end ones.

Workers get one BLAS thread and relmargin's ``--threads 1``, and the
cli-session starts its relmargin processes one at a time, so the load is one
process.  Run and trace outputs go to ./.relbench/.  The last line of
standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("campaign-large-m", "campaign-trial-heavy", "cli-session")
SETUP_REPS = 3
BLAS_THREADS = 1
DEADLINE_S = 170.0  # a run must end within 180 s


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("RELMARGIN_THREADS", None)
    return env


def git_sha(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def package_version(root: Path) -> str:
    found = re.search(r'__version__\s*=\s*"([^"]+)"', (root / "src/relmargin/__init__.py").read_text())
    return found.group(1) if found else "unknown"


def run_worker(cmd, env, log: Path, timeout: float) -> int:
    """Run a worker in its own process group; on timeout kill the group,
    which also ends any relmargin process the worker started."""
    with open(log, "ab") as fh:
        proc = subprocess.Popen(cmd, env=env, stdout=fh, stderr=fh, stdin=subprocess.DEVNULL,
                                start_new_session=True)
        try:
            return proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            print(f"relbench: worker exceeded {timeout:.0f} s, stopped", file=sys.stderr)
            return -1
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    start = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "relmargin" / "cli.py").is_file():
        print("relbench: no ./src/relmargin here; run from the root of a relmargin checkout",
              file=sys.stderr)
        return 2
    mode = "trace" if args.trace else "measure"
    rundir = root / ".relbench" / f"{args.workload}-seed{args.seed}-{mode}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    env = child_env(root)
    log = rundir / "worker.log"

    results = []
    for rep in range(SETUP_REPS):
        result_path = rundir / f"result-{rep}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--mode", mode if rep == SETUP_REPS - 1 else "setup", "--rep", str(rep),
               "--dir", str(rundir / f"rep{rep}"), "--result", str(result_path)]
        code = run_worker(cmd + ["--t0", repr(time.monotonic())], env, log,
                          DEADLINE_S - (time.monotonic() - start))
        if code != 0:
            sys.stderr.write(log.read_text(errors="replace")[-4000:])
            print(f"relbench: worker exited with {code}; outputs kept in {rundir}", file=sys.stderr)
            return 1
        results.append(json.loads(result_path.read_text()))

    final = results[-1]
    failures = [f for r in results for f in r["failures"]]
    errors = [e for r in results for e in r["errors"]]
    setups = [r["setup_s"] for r in results]
    if args.trace:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in final["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_p50_s": {"value": statistics.median(final["op_times"]), "unit": "s"},
            "wall_s": {"value": final["wall_s"], "unit": "s"},
            "peak_rss_mb": {"value": final["peak_rss_mb"], "unit": "MB"},
        }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
        "versions": dict(final["versions"], relmargin=package_version(root)), "git_sha": git_sha(root),
        "setup_s_each": setups, "op_s_each": final["op_times"], "missing": final.get("missing", []),
    }
    for message in failures:
        print(f"relbench: operation failed: {message}", file=sys.stderr)
    for message in errors:
        print(f"relbench: wrong output: {message}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:14.6g} {metric['unit']}")
    for name in record["missing"]:
        print(f"{name:34s} {'missing':>14s}")
    print(json.dumps({"run": record}))
    print(json.dumps({"correct": not errors, "attempted": sum(r["attempted"] for r in results),
                      "failed": len(failures), "metrics": metrics}))
    if not args.trace:
        shutil.rmtree(rundir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
