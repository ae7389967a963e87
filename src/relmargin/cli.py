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
import contextlib
import dataclasses
import inspect
import json
import sys
from pathlib import Path

from . import __version__
from .bounds import FAMILIES, BoundParams
from .checks import verify_binomial_lemma, verify_monotone_ratio
from .comparison import compare_tightness, compare_tightness_direct
from .covers import DEFAULT_EXACT_CAP, covering_number_l2, covering_number_linf
from .errors import ApplicabilityError, CapabilityError, InputError, RelmarginError, _options
from .fatdim import FatDimParams, cover_log_bound_from_fat, fat_dim_formula, fat_shattering_exact
from .lossmatrix import LossMatrix, count_dichotomies, peel
from .rademacher import (
    DEFAULT_N_SIGMA,
    peeling_complexity_for_matrices,
    rademacher_exact,
    rademacher_mc,
    rm_upper_dudley,
    rm_upper_smooth,
    worst_case_rademacher,
)
from .reportio import csv_pieces, format_float, json_pieces
from .samples import LabeledSample
from .training import METHODS, train_bound_min
from .validation import ExperimentConfig, validate_bounds

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAPABILITY = 3
EXIT_APPLICABILITY = 4


def _emit(report, fmt: str, out: str | None) -> None:
    # each piece is written as it is made, and no whole text held; every check
    # has run by the first piece, so a report that cannot be written leaves no file
    pieces = json_pieces(report) if fmt == "json" else csv_pieces(report)
    first = next(pieces)
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as stream:
        stream.write(first)
        stream.writelines(pieces)
    if out:
        print(f"wrote {out}", file=sys.stderr)


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
        if range_tag != "real" and isinstance(data, dict):
            data = dict(data, range_tag=range_tag)
        return LossMatrix.from_json(data)
    return LossMatrix.from_csv(p.read_text(), range_tag)


def _value_report(op: str, value: float, **extra) -> dict:
    return {"schema": "relmargin/value/v1", "op": op, "value": float(value), **extra}


def _require(args, flags, what: str) -> None:
    missing = [f for f in flags if getattr(args, f) in (None, "", [])]
    if missing:
        names = ", ".join("--" + f.replace("_", "-") for f in missing)
        raise InputError(f"{names} required for {what}")


def _reject_unread(args, unread, message: str) -> None:
    """An InputError, ``message`` and the flags, when any flag named in
    ``unread`` was given; a flag with a default cannot be told apart from it."""
    given = ["--" + f.replace("_", "-") for f, value in vars(args).items() if f in unread and value is not None]
    if given:
        raise InputError(f"{message} {', '.join(given)}")


# ---------------------------------------------------------------------------
# bound
#
# A family's flags beyond --emp, --m and --delta are its builder's parameters
# (as attribute names) and the BoundParams fields its ``bounds.FAMILIES``
# record reads.  Parameters without a default are needed, and so are read
# fields whose default is None (r); another family's flag exits 2.  Families
# that need --emp-loss take it in place of --emp, and reject --emp.


def _bound_flags(family: str) -> tuple[list, set]:
    """The flags ``family`` needs and all the flags it reads, as attribute names."""
    record = FAMILIES[family]
    takes = [p for p in inspect.signature(record.build).parameters.values() if p.name not in ("emp", "params")]
    unset = [f.name for f in dataclasses.fields(BoundParams) if f.name in record.reads and f.default is None]
    return [p.name for p in takes if p.default is p.empty] + unset, {p.name for p in takes} | set(record.reads)


def _cmd_bound(args) -> int:
    fields = {f: getattr(args, f) for f in FAMILIES[args.family].reads if getattr(args, f) is not None}
    params = BoundParams(m=args.m, delta=args.delta, **fields)
    needed, reads = _bound_flags(args.family)
    others = set().union(*(_bound_flags(f)[1] for f in FAMILIES)) - reads
    _reject_unread(args, others, f"family {args.family} does not read")
    _require(args, needed, f"family {args.family}")
    if "emp_loss" in needed and args.emp is not None:
        raise InputError(f"--emp does not apply to family {args.family}; give --emp-loss")
    values = {**vars(args), "emp": 0.0 if args.emp is None else args.emp, "params": params}
    build = FAMILIES[args.family].build
    given = {name: values[name] for name in inspect.signature(build).parameters if values[name] is not None}
    report = build(**{name: _float_list(v) if name.endswith("_grid") else v for name, v in given.items()})
    if args.explain:
        data = report.to_json()
        print(f"family {data['family']}:", file=sys.stderr)
        print(f"  empirical_term  = {format_float(data['empirical_term'])}", file=sys.stderr)
        print(f"  complexity_term = {format_float(data['complexity_term'])}", file=sys.stderr)
        for key, val in sorted(data["breakdown"].items()):
            print(f"  {key} = {val}", file=sys.stderr)
        print(f"  bound_value     = {format_float(data['bound_value'])}", file=sys.stderr)
    _emit(report, args.format, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# complexity


# the FatDimParams fields other than kind, one flag each (--class-kind is the
# kind); an omitted flag keeps the field's default
_CLASS_FIELDS = [f for f in dataclasses.fields(FatDimParams) if f.name != "kind"]
_CLASS_FLAGS = tuple(f.name for f in _CLASS_FIELDS)


def _class_params(args) -> FatDimParams:
    given = {f.name: getattr(args, f.name) for f in _CLASS_FIELDS if getattr(args, f.name) is not None}
    return FatDimParams(kind=args.class_kind, **given)


def _peel_report(op: str, matrix) -> dict:
    buckets = {str(k): list(v) for k, v in peel(matrix).items()}
    return {"schema": "relmargin/value/v1", "op": op, "m": matrix.m, "buckets": buckets}


# op -> (the flags it needs, the other flags without a default it reads,
# call(args, matrices)); the calls look the library up when they run.
_COMPLEXITY_OPS = {
    "cover-linf": (
        ("matrix", "eps"),
        (),
        lambda a, ms: covering_number_linf(ms[0], a.eps, mode=a.mode, exact_cap=a.exact_cap),
    ),
    "cover-l2": (
        ("matrix", "eps"),
        (),
        lambda a, ms: covering_number_l2(ms[0], a.eps, mode=a.mode, exact_cap=a.exact_cap),
    ),
    "dichotomies": (("matrix",), (), lambda a, ms: _value_report(a.op, count_dichotomies(ms[0]))),
    "rademacher-exact": (("matrix",), (), lambda a, ms: rademacher_exact(ms[0])),
    "rademacher-mc": (("matrix", "seed"), (), lambda a, ms: rademacher_mc(ms[0], a.n_sigma, a.seed)),
    "peel": (("matrix",), (), lambda a, ms: _peel_report(a.op, ms[0])),
    "rm-peeling": (
        ("matrix", "seed"),
        (),
        lambda a, ms: peeling_complexity_for_matrices(ms, n_sigma=a.n_sigma, seed=a.seed),
    ),
    "rm-dudley": (
        ("matrix", "k", "eps_grid"),
        (),
        lambda a, ms: _value_report(
            a.op,
            rm_upper_dudley(ms[0], a.k, _float_list(a.eps_grid), exact_cap=a.exact_cap),
            k=a.k,
        ),
    ),
    "rm-smooth": (
        ("rho", "m", "rmax"),
        (),
        lambda a, ms: _value_report(a.op, rm_upper_smooth(a.rho, a.m, a.rmax)),
    ),
    "worst-case": (
        ("class_kind", "m"),
        _CLASS_FLAGS,
        lambda a, ms: _value_report(a.op, worst_case_rademacher(_class_params(a), a.m)),
    ),
    "fat-formula": (
        ("class_kind",),
        _CLASS_FLAGS,
        lambda a, ms: _value_report(a.op, fat_dim_formula(_class_params(a))),
    ),
    "cover-log-fat": (
        ("fat_d", "m"),
        (),
        lambda a, ms: _value_report(a.op, cover_log_bound_from_fat(a.fat_d, a.m)),
    ),
    "fat-exact": (
        ("matrix", "gamma"),
        ("witness_grid",),
        lambda a, ms: _value_report(
            a.op,
            fat_shattering_exact(
                ms[0], a.gamma, _float_list(a.witness_grid) if a.witness_grid else None
            ),
        ),
    ),
}
# every complexity flag without a default that some op reads
_COMPLEXITY_FLAGS = {flag for needs, reads, _ in _COMPLEXITY_OPS.values() for flag in needs + reads}


def _cmd_complexity(args) -> int:
    needs, reads, call = _COMPLEXITY_OPS[args.op]
    _reject_unread(args, _COMPLEXITY_FLAGS - set(needs + reads), f"op {args.op} does not read")
    _require(args, needs, f"op {args.op}")
    matrices = [_load_matrix(p, args.range_tag) for p in args.matrix] if "matrix" in needs else []
    report = call(args, matrices)
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
        # a section the file omits is created; the config check rejects a misspelled one
        for part in parts[:-1]:
            if not isinstance(node, dict):
                break
            node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise InputError(f"override path {key!r} does not address the config")
        node[parts[-1]] = value
    return data


def _cmd_validate(args) -> int:
    if args.threads < 1:
        raise InputError(f"--threads must be at least 1, got {args.threads}")
    path = Path(args.config)
    if not path.exists():
        raise InputError(f"config file not found: {args.config}")
    data = json.loads(path.read_text())
    data = _apply_overrides(data, args.set)
    if args.seed is not None:
        data["seed"] = args.seed
    cfg = ExperimentConfig.from_json(data)
    report = validate_bounds(cfg, threads=args.threads)
    _emit(report, args.format, args.out)
    return EXIT_OK


def _cmd_compare(args) -> int:
    if args.direct:
        _reject_unread(args, {"m_grid", "rho_grid", "class_kind", *_CLASS_FLAGS}, "direct mode does not read")
        _require(args, ("emp_grid", "beta_grid"), "direct mode")
        report = compare_tightness_direct(
            _float_list(args.emp_grid), _float_list(args.beta_grid), c_prime=args.c_prime
        )
    else:
        # each --rho-grid entry replaces the class's --rho
        _reject_unread(args, {"beta_grid", "rho"}, "class mode does not read")
        _require(args, ("m_grid", "rho_grid", "emp_grid", "class_kind"), "compare")
        report = compare_tightness(
            _class_params(args),
            _float_list(args.m_grid),
            _float_list(args.rho_grid),
            _float_list(args.emp_grid),
            delta=args.delta,
            c_prime=args.c_prime,
        )
    _emit(report, args.format, args.out)
    return EXIT_OK


# train flags, each named as the trainer keyword it sets; a flag that the
# method's trainer does not take exits 2.  When omitted, --lam takes this
# value for bound-min, and every other option keeps the trainer's own
# default, as it does in a campaign.
_TRAIN_FLAGS = ("steps", "lam", "rho_grid", "restarts", "rounds", "width")
_TRAIN_FLAG_DEFAULTS = {"lam": 0.1}


def _cmd_train(args) -> int:
    path = Path(args.data)
    if not path.exists():
        raise InputError(f"sample file not found: {args.data}")
    sample = LabeledSample.from_json(json.loads(path.read_text()))
    trainer = train_bound_min if args.method == "bound-min" else METHODS[args.method]
    takes = inspect.signature(trainer).parameters
    _reject_unread(args, set(_TRAIN_FLAGS) - set(takes), f"--method {args.method} does not take")
    given = {flag: getattr(args, flag) for flag in _TRAIN_FLAGS if getattr(args, flag) is not None}
    if args.method == "bound-min":
        _require(args, ("rho_grid",), "bound-min training")
        given["rho_grid"] = _float_list(args.rho_grid)
    defaults = {flag: value for flag, value in _TRAIN_FLAG_DEFAULTS.items() if flag in takes}
    options = _options("trainer", trainer, {**defaults, **given, "seed": args.seed}, ("sample",))
    result = trainer(sample, **options)
    report = {"schema": "relmargin/training-report/v1", "method": args.method}
    if args.method == "bound-min":
        h, rho, info = result
        report.update(hypothesis=h.to_json(), rho=rho, objective=info["objective"], norm=info["norm"],
                      restarts=info["restarts"])
    else:
        report["hypothesis"] = result.to_json()
    _emit(report, args.format, args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.target == "binomial":
        _reject_unread(args, {"seed"}, "verify binomial does not read")
        report = verify_binomial_lemma(args.m_max, grid_size=args.grid_size)
    else:
        _require(args, ("seed",), "verify monotone")
        report = verify_monotone_ratio(n_points=args.n, delta=args.delta, seed=args.seed)
    report = {"schema": "relmargin/verify-report/v1", "target": args.target, **report}
    _emit(report, args.format, args.out)
    return EXIT_OK if report["passed"] else 1


# ---------------------------------------------------------------------------
# parser


def _seed(text: str) -> int:
    """The argparse type of every ``--seed`` flag: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _add_common_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="output path; stdout when omitted")


def _add_class_args(p: argparse.ArgumentParser, kinds) -> None:
    p.add_argument("--class-kind", choices=kinds, default=None)
    for f in _CLASS_FIELDS:
        p.add_argument("--" + f.name.replace("_", "-"), type=int if f.type == "int | None" else float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="relmargin", description=__doc__)
    parser.add_argument("--version", action="version", version=f"relmargin {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bound", help="evaluate one bound family")
    b.add_argument("--family", required=True, choices=FAMILIES)
    b.add_argument("--emp", type=float, default=None, help="empirical margin loss (default 0)")
    b.add_argument("--emp-loss", type=float, default=None, help="empirical unbounded loss")
    b.add_argument("--logN", type=float, default=None)
    b.add_argument("--fat-d", type=float, default=None)
    b.add_argument("--rm", type=float, default=None)
    b.add_argument("--rmax", type=float, default=None)
    b.add_argument("--moment", type=float, default=None)
    b.add_argument("--m", type=int, required=True)
    b.add_argument("--delta", type=float, required=True)
    b.add_argument("--alpha", type=float, default=None)
    b.add_argument("--rho", type=float, default=None)
    b.add_argument("--r", type=float, default=None)
    b.add_argument("--alpha-grid", default=None)
    b.add_argument("--rho-grid", default=None)
    b.add_argument("--solver", choices=("root-find", "lemma-D1"), default=None,
                   help="how the family resolves its implicit inequality (default root-find)")
    b.add_argument("--explain", action="store_true", help="print the per-term breakdown to stderr")
    _add_common_output(b)
    b.set_defaults(func=_cmd_bound)

    c = sub.add_parser("complexity", help="complexity estimation and formulas")
    c.add_argument("--op", required=True, choices=_COMPLEXITY_OPS)
    c.add_argument("--matrix", nargs="*", default=None, help="loss matrix file(s), .csv or .json")
    c.add_argument("--range-tag", choices=("binary", "unit-interval", "real"), default="real")
    c.add_argument("--eps", type=float, default=None)
    c.add_argument("--mode", choices=("exact", "greedy"), default="exact")
    c.add_argument("--exact-cap", type=int, default=DEFAULT_EXACT_CAP)
    c.add_argument("--n-sigma", type=int, default=DEFAULT_N_SIGMA)
    c.add_argument("--seed", type=_seed, default=None)
    c.add_argument("--k", type=int, default=None)
    c.add_argument("--eps-grid", default=None)
    c.add_argument("--m", type=int, default=None)
    c.add_argument("--rmax", type=float, default=None)
    c.add_argument("--fat-d", type=float, default=None)
    c.add_argument("--gamma", type=float, default=None)
    c.add_argument("--witness-grid", default=None)
    _add_class_args(c, ("linear", "ensemble", "ffnn-fat", "ffnn-spectral"))
    _add_common_output(c)
    c.set_defaults(func=_cmd_complexity)

    v = sub.add_parser("validate", help="Monte-Carlo bound-coverage campaign")
    v.add_argument("--config", required=True)
    v.add_argument("--set", action="append", default=[], help="override section.key=value")
    v.add_argument("--seed", type=_seed, default=None, help="override the config seed")
    v.add_argument(
        "--threads",
        type=int,
        default=1,
        help="worker threads (default 1); they never change the report bytes. On a 2-core"
        " machine two threads took campaigns at m = 200 (10^4 trials) and at m = 5000 (300"
        " trials) from 0.48 to 0.36 s and from 0.41 to 0.31 s, and halved one at m = 10^5",
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
    _add_class_args(t, ("linear", "ensemble", "ffnn-fat"))
    _add_common_output(t)
    t.set_defaults(func=_cmd_compare)

    tr = sub.add_parser("train", help="desk-scale trainers")
    tr.add_argument(
        "--method",
        required=True,
        choices=("bound-min", *METHODS),
        help="a flag that the method does not take exits 2",
    )
    tr.add_argument("--data", required=True, help="LabeledSample JSON file")
    tr.add_argument("--seed", type=_seed, required=True)
    tr.add_argument("--steps", type=int, default=None, help="default: the method's trainer default")
    tr.add_argument("--lam", type=float, default=None, help=f"default {_TRAIN_FLAG_DEFAULTS['lam']}")
    tr.add_argument("--rho-grid", default=None)
    tr.add_argument("--restarts", type=int, default=None)
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
    ve.add_argument("--seed", type=_seed, default=None)
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
    except (InputError, json.JSONDecodeError) as exc:
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
