"""Command-line interface.

Subcommands: ``bound`` (evaluate one bound family), ``complexity``
(covering numbers, dichotomies, Rademacher estimates, dimension formulas),
``validate`` (Monte-Carlo coverage campaign from a config file),
``compare`` (tightness tables), ``train`` (trainers incl. the
bound-minimizing one), ``verify`` (numeric lemma checks).

Exit codes: 0 success, 2 input/config error, 3 capability error (size
caps), 4 bound-applicability error.  Exactly one report artifact is
written per invocation: to ``--out`` when given, else to stdout.
Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .bounds import (
    BoundParams,
    bound_cov_alpha,
    bound_cov_alpha2,
    bound_cov_fat,
    bound_cov_uniform_rho,
    bound_rad,
    bound_rad_all_alpha,
    bound_rad_smooth,
    bound_unbounded,
    bound_unbounded_uniform_rho,
)
from .checks import verify_binomial_lemma, verify_monotone_ratio
from .comparison import compare_tightness, compare_tightness_direct
from .covers import covering_number_l2, covering_number_linf
from .errors import ApplicabilityError, CapabilityError, InputError, RelmarginError
from .fatdim import FatDimParams, cover_log_bound_from_fat, fat_dim_formula, fat_shattering_exact
from .lossmatrix import LossMatrix, count_dichotomies, peel
from .rademacher import (
    peeling_complexity_for_matrices,
    rademacher_exact,
    rademacher_mc,
    rm_upper_dudley,
    rm_upper_smooth,
    worst_case_rademacher,
)
from .reportio import canonical, canonical_json, report_csv
from .samples import LabeledSample
from .training import train, train_bound_min
from .validation import ExperimentConfig, validate_bounds

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAPABILITY = 3
EXIT_APPLICABILITY = 4


def _default_threads() -> int:
    raw = os.environ.get("RELMARGIN_THREADS", "").strip()
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError as exc:
        raise InputError(f"RELMARGIN_THREADS must be an integer, got {raw!r}") from exc
    if value < 1:
        raise InputError("RELMARGIN_THREADS must be at least 1")
    return value


def _emit(report, fmt: str, out: str | None) -> None:
    data = report.to_json() if hasattr(report, "to_json") else report
    text = canonical_json(data) if fmt == "json" else report_csv(canonical(data))
    if out:
        Path(out).write_text(text)
        print(f"wrote {out}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def _float_list(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise InputError(f"expected a comma-separated float list, got {text!r}") from exc


def _load_matrix(path: str, range_tag: str) -> LossMatrix:
    p = Path(path)
    if not p.exists():
        raise InputError(f"matrix file not found: {path}")
    if p.suffix == ".json":
        data = json.loads(p.read_text())
        if range_tag != "real":
            data = dict(data, range_tag=range_tag)
        return LossMatrix.from_json(data)
    return LossMatrix.from_csv(p.read_text(), range_tag)


def _value_report(op: str, value: float, extra: dict | None = None) -> dict:
    out = {"schema": "relmargin/value/v1", "op": op, "value": float(value)}
    if extra:
        out.update(extra)
    return out


# ---------------------------------------------------------------------------
# bound


def _cmd_bound(args) -> int:
    params = BoundParams(
        m=args.m, delta=args.delta, alpha=args.alpha, rho=args.rho, tau=args.tau, r=args.r
    )
    fam = args.family
    if fam in ("cov-alpha", "cov-alpha2", "cov-uniform-rho"):
        if args.logN is None:
            raise InputError("--logN is required for covering-number families")
        if fam == "cov-alpha":
            report = bound_cov_alpha(args.emp, args.logN, params, solver=args.solver)
        elif fam == "cov-alpha2":
            report = bound_cov_alpha2(args.emp, args.logN, params)
        else:
            report = bound_cov_uniform_rho(
                args.emp, lambda _radius: args.logN, params, solver=args.solver
            )
    elif fam == "cov-fat":
        if args.fat_d is None:
            raise InputError("--fat-d is required for the fat-shattering family")
        report = bound_cov_fat(args.emp, args.fat_d, params)
    elif fam == "rad":
        if args.rm is None:
            raise InputError("--rm is required for the peeling-complexity family")
        report = bound_rad(args.emp, args.rm, params)
    elif fam == "rad-all-alpha":
        if args.rm is None or not args.alpha_grid:
            raise InputError("--rm and --alpha-grid are required for this family")
        report = bound_rad_all_alpha(args.emp, args.rm, params, _float_list(args.alpha_grid))
    elif fam == "rad-smooth":
        if args.rmax is None:
            raise InputError("--rmax is required for the smoothed-loss family")
        report = bound_rad_smooth(args.emp, args.rmax, params)
    elif fam == "unbounded":
        if args.moment is None or args.emp_loss is None or args.logN is None:
            raise InputError("--emp-loss, --moment and --logN are required for this family")
        report = bound_unbounded(args.emp_loss, args.moment, args.logN, params)
    elif fam == "unbounded-uniform-rho":
        if args.moment is None or args.emp_loss is None or args.logN is None or not args.rho_grid:
            raise InputError("--emp-loss, --moment, --logN and --rho-grid are required")
        report = bound_unbounded_uniform_rho(
            args.emp_loss, args.moment, lambda _radius: args.logN, _float_list(args.rho_grid), params
        )
    else:
        raise InputError(f"unknown family {fam!r}")
    if args.explain:
        data = report.to_json()
        print(f"family {data['family']}:", file=sys.stderr)
        print(f"  empirical_term  = {data['empirical_term']:.12g}", file=sys.stderr)
        print(f"  complexity_term = {data['complexity_term']:.12g}", file=sys.stderr)
        for key, val in sorted(data["breakdown"].items()):
            print(f"  {key} = {val}", file=sys.stderr)
        print(f"  bound_value     = {data['bound_value']:.12g}", file=sys.stderr)
    _emit(report, args.format, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# complexity


def _class_params(args) -> FatDimParams:
    if args.class_kind is None:
        raise InputError("--class-kind is required for this op")
    return FatDimParams(
        kind=args.class_kind,
        radius=args.radius,
        rho=args.rho,
        vc_dim=args.vc_dim,
        constant=args.constant,
        lipschitz=args.lipschitz,
        depth=args.depth,
        input_dim=args.input_dim,
        r21=args.r21,
    )


def _cmd_complexity(args) -> int:
    op = args.op
    needs_matrix = op in (
        "cover-linf",
        "cover-l2",
        "dichotomies",
        "rademacher-exact",
        "rademacher-mc",
        "peel",
        "rm-peeling",
        "rm-dudley",
        "fat-exact",
    )
    matrices = []
    if needs_matrix:
        if not args.matrix:
            raise InputError(f"--matrix is required for op {op!r}")
        matrices = [_load_matrix(p, args.range_tag) for p in args.matrix]
    mat = matrices[0] if matrices else None

    if op in ("cover-linf", "cover-l2"):
        if args.eps is None:
            raise InputError("--eps is required for cover ops")
        fn = covering_number_linf if op == "cover-linf" else covering_number_l2
        report = fn(mat, args.eps, mode=args.mode, exact_cap=args.exact_cap)
    elif op == "dichotomies":
        report = _value_report(op, count_dichotomies(mat))
    elif op == "rademacher-exact":
        report = rademacher_exact(mat)
    elif op == "rademacher-mc":
        if args.seed is None:
            raise InputError("--seed is required for randomized ops")
        report = rademacher_mc(mat, args.n_sigma, args.seed)
    elif op == "peel":
        part = peel(mat)
        report = {
            "schema": "relmargin/value/v1",
            "op": "peel",
            "m": part.m,
            "buckets": {str(k): list(v) for k, v in part.buckets.items()},
        }
    elif op == "rm-peeling":
        if args.seed is None:
            raise InputError("--seed is required for randomized ops")
        report = peeling_complexity_for_matrices(matrices, n_sigma=args.n_sigma, seed=args.seed)
    elif op == "rm-dudley":
        if args.k is None or not args.eps_grid:
            raise InputError("--k and --eps-grid are required for the entropy-integral cap")
        value = rm_upper_dudley(mat, args.k, _float_list(args.eps_grid), exact_cap=args.exact_cap)
        report = _value_report(op, value, {"k": args.k})
    elif op == "rm-smooth":
        if args.rho is None or args.m is None or args.rmax is None:
            raise InputError("--rho, --m and --rmax are required for the smoothed cap")
        report = _value_report(op, rm_upper_smooth(args.rho, args.m, args.rmax))
    elif op == "worst-case":
        if args.m is None:
            raise InputError("--m is required for the worst-case formula")
        report = _value_report(op, worst_case_rademacher(_class_params(args), args.m))
    elif op == "fat-formula":
        report = _value_report(op, fat_dim_formula(_class_params(args)))
    elif op == "cover-log-fat":
        if args.fat_d is None or args.m is None:
            raise InputError("--fat-d and --m are required for the cover-log formula")
        report = _value_report(op, cover_log_bound_from_fat(args.fat_d, args.m))
    elif op == "fat-exact":
        if args.gamma is None:
            raise InputError("--gamma is required for the exact shattering search")
        grid = _float_list(args.witness_grid) if args.witness_grid else None
        report = _value_report(op, fat_shattering_exact(mat, args.gamma, grid))
    else:
        raise InputError(f"unknown complexity op {op!r}")
    _emit(report, args.format, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate / compare / train / verify


def _apply_overrides(data: dict, overrides) -> dict:
    for item in overrides or []:
        if "=" not in item:
            raise InputError(f"override must look like section.key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = data
        parts = key.split(".")
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                raise InputError(f"override path {key!r} does not address the config")
            node = node[part]
        node[parts[-1]] = value
    return data


def _cmd_validate(args) -> int:
    path = Path(args.config)
    if not path.exists():
        raise InputError(f"config file not found: {args.config}")
    data = json.loads(path.read_text())
    data = _apply_overrides(data, args.set)
    if args.seed is not None:
        data["seed"] = args.seed
    cfg = ExperimentConfig.from_json(data)
    threads = args.threads if args.threads is not None else _default_threads()
    report = validate_bounds(cfg, threads=threads)
    _emit(report, args.format, args.out)
    return EXIT_OK


def _cmd_compare(args) -> int:
    if args.direct:
        if not args.emp_grid or not args.beta_grid:
            raise InputError("--emp-grid and --beta-grid are required in direct mode")
        report = compare_tightness_direct(
            _float_list(args.emp_grid), _float_list(args.beta_grid), c_prime=args.c_prime
        )
    else:
        if not (args.m_grid and args.rho_grid and args.emp_grid):
            raise InputError("--m-grid, --rho-grid and --emp-grid are required")
        report = compare_tightness(
            _class_params(args),
            [int(v) for v in _float_list(args.m_grid)],
            _float_list(args.rho_grid),
            _float_list(args.emp_grid),
            delta=args.delta,
            c_prime=args.c_prime,
        )
    report["schema"] = "relmargin/tightness-report/v1"
    _emit(report, args.format, args.out)
    return EXIT_OK


def _cmd_train(args) -> int:
    path = Path(args.data)
    if not path.exists():
        raise InputError(f"sample file not found: {args.data}")
    sample = LabeledSample.from_json(json.loads(path.read_text()))
    if args.method == "bound-min":
        if args.rho_grid is None:
            raise InputError("--rho-grid is required for bound-min training")
        h, rho, info = train_bound_min(
            sample,
            lam=args.lam,
            rho_grid=_float_list(args.rho_grid),
            restarts=args.restarts,
            seed=args.seed,
            steps=args.steps,
        )
        report = {
            "schema": "relmargin/training-report/v1",
            "method": "bound-min",
            "hypothesis": h.to_json(),
            "rho": rho,
            "objective": info["objective"],
            "norm": info["norm"],
            "restarts": info["restarts"],
        }
    else:
        cfg = {"seed": args.seed, "steps": args.steps}
        if args.rounds is not None:
            cfg["rounds"] = args.rounds
        if args.width is not None:
            cfg["width"] = args.width
        h = train(args.method, sample, cfg)
        report = {
            "schema": "relmargin/training-report/v1",
            "method": args.method,
            "hypothesis": h.to_json(),
        }
    _emit(report, args.format, args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.target == "binomial":
        report = verify_binomial_lemma(args.m_max, grid_size=args.grid_size)
        report = {"schema": "relmargin/verify-report/v1", "target": "binomial", **report}
    else:
        if args.seed is None:
            raise InputError("--seed is required for randomized ops")
        report = verify_monotone_ratio(n_points=args.n, delta=args.delta, seed=args.seed)
        report = {"schema": "relmargin/verify-report/v1", "target": "monotone", **report}
    _emit(report, args.format, args.out)
    return EXIT_OK if report["passed"] else 1


# ---------------------------------------------------------------------------
# parser


def _add_common_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="output path; stdout when omitted")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="relmargin", description=__doc__)
    parser.add_argument("--version", action="version", version=f"relmargin {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bound", help="evaluate one bound family")
    b.add_argument("--family", required=True)
    b.add_argument("--emp", type=float, default=0.0, help="empirical margin loss")
    b.add_argument("--emp-loss", type=float, default=None, help="empirical unbounded loss")
    b.add_argument("--logN", type=float, default=None)
    b.add_argument("--fat-d", type=float, default=None)
    b.add_argument("--rm", type=float, default=None)
    b.add_argument("--rmax", type=float, default=None)
    b.add_argument("--moment", type=float, default=None)
    b.add_argument("--m", type=int, required=True)
    b.add_argument("--delta", type=float, required=True)
    b.add_argument("--alpha", type=float, default=2.0)
    b.add_argument("--rho", type=float, default=1.0)
    b.add_argument("--tau", type=float, default=0.0)
    b.add_argument("--r", type=float, default=None)
    b.add_argument("--alpha-grid", default=None)
    b.add_argument("--rho-grid", default=None)
    b.add_argument(
        "--solver",
        choices=("root-find", "lemma-D1"),
        default="root-find",
        help="implicit-inequality resolution for the cov-alpha families",
    )
    b.add_argument("--explain", action="store_true", help="print the per-term breakdown to stderr")
    _add_common_output(b)
    b.set_defaults(func=_cmd_bound)

    c = sub.add_parser("complexity", help="complexity estimation and formulas")
    c.add_argument(
        "--op",
        required=True,
        choices=(
            "cover-linf",
            "cover-l2",
            "dichotomies",
            "rademacher-exact",
            "rademacher-mc",
            "peel",
            "rm-peeling",
            "rm-dudley",
            "rm-smooth",
            "worst-case",
            "fat-formula",
            "cover-log-fat",
            "fat-exact",
        ),
    )
    c.add_argument("--matrix", nargs="*", default=None, help="loss matrix file(s), .csv or .json")
    c.add_argument("--range-tag", choices=("binary", "unit-interval", "real"), default="real")
    c.add_argument("--eps", type=float, default=None)
    c.add_argument("--mode", choices=("exact", "greedy"), default="exact")
    c.add_argument("--exact-cap", type=int, default=25)
    c.add_argument("--n-sigma", type=int, default=1024)
    c.add_argument("--seed", type=int, default=None)
    c.add_argument("--k", type=int, default=None)
    c.add_argument("--eps-grid", default=None)
    c.add_argument("--rho", type=float, default=None)
    c.add_argument("--m", type=int, default=None)
    c.add_argument("--rmax", type=float, default=None)
    c.add_argument("--fat-d", type=float, default=None)
    c.add_argument("--gamma", type=float, default=None)
    c.add_argument("--witness-grid", default=None)
    c.add_argument("--class-kind", choices=("linear", "ensemble", "ffnn-fat", "ffnn-spectral"), default=None)
    c.add_argument("--radius", type=float, default=None)
    c.add_argument("--vc-dim", type=float, default=None)
    c.add_argument("--constant", type=float, default=1.0)
    c.add_argument("--lipschitz", type=float, default=None)
    c.add_argument("--depth", type=int, default=None)
    c.add_argument("--input-dim", type=float, default=None)
    c.add_argument("--r21", type=float, default=None)
    _add_common_output(c)
    c.set_defaults(func=_cmd_complexity)

    v = sub.add_parser("validate", help="Monte-Carlo bound-coverage campaign")
    v.add_argument("--config", required=True)
    v.add_argument("--set", action="append", default=[], help="override section.key=value")
    v.add_argument("--seed", type=int, default=None, help="override the config seed")
    v.add_argument(
        "--threads", type=int, default=None, help="worker threads (default: RELMARGIN_THREADS or 1)"
    )
    _add_common_output(v)
    v.set_defaults(func=_cmd_validate)

    t = sub.add_parser("compare", help="tightness tables: loss-factored vs sqrt form")
    t.add_argument("--direct", action="store_true", help="explicit (emp, beta) grids")
    t.add_argument("--emp-grid", default=None)
    t.add_argument("--beta-grid", default=None)
    t.add_argument("--m-grid", default=None)
    t.add_argument("--rho-grid", default=None)
    t.add_argument("--delta", type=float, default=0.05)
    t.add_argument("--c-prime", type=float, default=1.0)
    t.add_argument("--class-kind", choices=("linear", "ensemble", "ffnn-fat"), default=None)
    t.add_argument("--radius", type=float, default=None)
    t.add_argument("--rho", type=float, default=None)
    t.add_argument("--vc-dim", type=float, default=None)
    t.add_argument("--constant", type=float, default=1.0)
    t.add_argument("--lipschitz", type=float, default=None)
    t.add_argument("--depth", type=int, default=None)
    t.add_argument("--input-dim", type=float, default=None)
    t.add_argument("--r21", type=float, default=None)
    _add_common_output(t)
    t.set_defaults(func=_cmd_compare)

    tr = sub.add_parser("train", help="desk-scale trainers")
    tr.add_argument(
        "--method",
        required=True,
        choices=("bound-min", "hinge-subgradient-linear", "boost-stumps", "tiny-mlp"),
    )
    tr.add_argument("--data", required=True, help="LabeledSample JSON file")
    tr.add_argument("--seed", type=int, required=True)
    tr.add_argument("--steps", type=int, default=1500)
    tr.add_argument("--lam", type=float, default=0.1)
    tr.add_argument("--rho-grid", default=None)
    tr.add_argument("--restarts", type=int, default=4)
    tr.add_argument("--rounds", type=int, default=None)
    tr.add_argument("--width", type=int, default=None)
    _add_common_output(tr)
    tr.set_defaults(func=_cmd_train)

    ve = sub.add_parser("verify", help="numeric lemma verification")
    ve.add_argument("target", choices=("binomial", "monotone"))
    ve.add_argument("--m-max", type=int, default=200)
    ve.add_argument("--grid-size", type=int, default=200)
    ve.add_argument("--n", type=int, default=10000)
    ve.add_argument("--delta", type=float, default=1e-6)
    ve.add_argument("--seed", type=int, default=None)
    _add_common_output(ve)
    ve.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapabilityError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except ApplicabilityError as exc:
        print(f"bound not applicable: {exc}", file=sys.stderr)
        return EXIT_APPLICABILITY
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RelmarginError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
