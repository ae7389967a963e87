import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from relmargin import (
    BoundParams,
    InputError,
    LabeledSample,
    LossMatrix,
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
from relmargin.bounds import FAMILIES
from relmargin.cli import main
from relmargin.estimates import ComplexityEstimate
from relmargin import reportio
from relmargin.reportio import Table, canonical, canonical_json, format_float, report_csv
from relmargin.validation import ExperimentConfig, validate_bounds

from oracles import canonical_json_oracle, report_csv_oracle, report_to_json_oracle

ROOT = Path(__file__).parent.parent
SCHEMA_DIR = ROOT / "src/relmargin/schemas"
REFERENCE_CAMPAIGN = ROOT / "configs/reference-campaign.json"


def test_float_formatting_is_12_significant_digits():
    assert format_float(1 / 3) == "0.333333333333"
    assert format_float(0.05) == "0.05"
    assert format_float(1e-17) == "1e-17"


def test_canonical_json_is_byte_stable_and_sorted():
    obj = {"b": 0.1 + 0.2, "a": [1, 2.0, {"z": True, "y": None}]}
    one = canonical_json(obj)
    two = canonical_json(obj)
    assert one == two
    assert one.index('"a"') < one.index('"b"')
    # 0.30000000000000004 rounds to 0.3 at 12 significant digits
    assert '"b": 0.3' in one


def test_canonical_non_finite_handling():
    assert '"Infinity"' in canonical_json({"x": math.inf})
    assert '"-Infinity"' in canonical_json({"x": -math.inf})
    with pytest.raises(InputError):
        canonical_json({"x": math.nan})


def test_bound_report_csv_header_and_round_trip_schema():
    jsonschema = pytest.importorskip("jsonschema")
    rep = bound_cov_alpha2(0.1, 3.0, BoundParams(m=500, delta=0.05))
    data = json.loads(canonical_json(rep.to_json()))
    schema = json.loads((SCHEMA_DIR / "bound-report.v1.json").read_text())
    jsonschema.validate(data, schema)
    csv_text = report_csv(data)
    lines = csv_text.splitlines()
    assert lines[0] == (
        "family,m,delta,alpha,rho,empirical_term,complexity_term,bound_value,"
        "solver,complexity_method,vacuous,clamped"
    )
    assert lines[1].startswith("cov-alpha2,500,0.05,")


_P = BoundParams(m=100_000, delta=0.05, alpha=1.8, rho=0.25, r=0.5)
_P2 = BoundParams(m=100_000, delta=0.05, rho=0.25, r=0.5)
# family -> a report of it
_FAMILY_REPORTS = {
    "cov-alpha": lambda: bound_cov_alpha(0.1, 3.0, _P, solver="lemma-D1"),
    "cov-alpha2": lambda: bound_cov_alpha2(0.1, 3.0, _P2),
    "cov-fat": lambda: bound_cov_fat(0.1, 2.0, _P),
    "cov-uniform-rho": lambda: bound_cov_uniform_rho(0.1, lambda _radius: 3.0, _P),
    "rad": lambda: bound_rad(0.1, 0.5, _P),
    "rad-all-alpha": lambda: bound_rad_all_alpha(0.1, 0.5, _P, [1.5, 2.0]),
    "rad-smooth": lambda: bound_rad_smooth(0.0, 0.015625, _P),
    "unbounded": lambda: bound_unbounded(0.3, 1.0, 3.0, _P),
    "unbounded-uniform-rho": lambda: bound_unbounded_uniform_rho(0.3, 1.0, 3.0, [0.25, 0.5], _P),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_every_bound_family_report_matches_its_schema(family):
    jsonschema = pytest.importorskip("jsonschema")
    assert tuple(_FAMILY_REPORTS) == tuple(FAMILIES)
    data = json.loads(canonical_json(_FAMILY_REPORTS[family]().to_json()))
    assert data["family"] == family
    # _P and _P2 set every field, so exactly those the family reads are not null
    assert {k for k, v in data["params"].items() if v is not None} == {"m", "delta", *FAMILIES[family].reads}
    schema = json.loads((SCHEMA_DIR / "bound-report.v1.json").read_text())
    assert schema["properties"]["family"]["enum"] == list(FAMILIES)
    jsonschema.validate(data, schema)
    # the schema catches a params field added or dropped
    for params in ({**data["params"], "tau": 0.0}, {k: v for k, v in data["params"].items() if k != "r"}):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({**data, "params": params}, schema)


def _json_formats():
    """A loss matrix, samples, complexity estimates by cover, Monte Carlo and
    peeling, and one bound report per family, as (name, object)."""
    from relmargin import MarginSeparable, covering_number_linf, generate
    from relmargin.rademacher import peeling_complexity_for_matrices, rademacher_mc

    rng = np.random.default_rng(11)
    real = LossMatrix(rng.random((12, 6)))
    binary = LossMatrix((rng.random((30, 6)) < 0.4).astype(float), "binary")
    cases = [
        ("matrix", real),
        ("binary-matrix", binary),
        ("sample", generate(MarginSeparable(dim=2, gap=0.3, noise_rate=0.0), 20, seed=4)),
        ("hand-sample", LabeledSample(points=np.array([[0.5], [-1.0]]), labels=np.array([1, -1]), seed=3)),
        ("cover", covering_number_linf(real, 0.4)),
        ("monte-carlo", rademacher_mc(binary, 64, seed=3)),
        ("peeling", peeling_complexity_for_matrices([binary, binary], n_sigma=64, seed=3)),
        ("exact-peeling", peeling_complexity_for_matrices([LossMatrix(binary.values[:12], "binary")], seed=3)),
    ]
    return cases + [(family, make()) for family, make in _FAMILY_REPORTS.items()]


@pytest.mark.parametrize("name,obj", _json_formats(), ids=lambda v: v if isinstance(v, str) else "")
def test_json_formats_are_their_dataclass_fields(name, obj):
    assert canonical_json(obj.to_json()) == canonical_json(report_to_json_oracle(obj))
    if isinstance(obj, (LossMatrix, LabeledSample)):
        data = obj.to_json()
        assert type(obj).from_json(json.loads(json.dumps(data))).to_json() == data


def test_complexity_estimate_schema_and_csv():
    jsonschema = pytest.importorskip("jsonschema")
    est = ComplexityEstimate(value=1.5, method="monte-carlo", trials=(32, 64), seed=7, stderr=0.01)
    data = json.loads(canonical_json(est.to_json()))
    schema = json.loads((SCHEMA_DIR / "complexity-estimate.v1.json").read_text())
    jsonschema.validate(data, schema)
    lines = report_csv(data).splitlines()
    assert lines[0] == "value,method,trials,seed,stderr"
    assert lines[1] == "1.5,monte-carlo,32;64,7,0.01"


def test_generic_csv_fallback_flattens():
    text = report_csv({"schema": "relmargin/verify-report/v1", "passed": True, "a": {"b": 2}})
    lines = text.splitlines()
    assert lines[0] == "key,value"
    assert "a.b,2" in lines
    assert "passed,1" in lines


def test_csv_writes_a_float_in_a_nested_list_item_as_every_other_float():
    report = {
        "schema": "x",
        "a": [[1.0, 123456789012.0, -0.0, [0.5, 2.0]], 3.0],
        "b": 1.0,
        "c": [{"w": 1.0, "s": "1.0", "n": None, "t": True, "k": 2, "inf": math.inf}],
    }
    lines = report_csv(report).splitlines()
    assert lines[1:] == [
        'a,"[1, 123456789012, -0, [0.5, 2]];3"',
        "b,1",
        "c,\"{'w': 1, 's': '1.0', 'n': None, 't': True, 'k': 2, 'inf': 'Infinity'}\"",
        "schema,x",
    ]


_BOUND = ["bound", "--m", "100000", "--delta", "0.05"]
_TRAIN = ["train", "--data", "{sample}", "--seed", "3"]
# report -> the CLI call that writes it; {matrix}, {binary}, {binary24} and
# {sample} are input files
_CSV_CASES = {
    "cov-alpha": [*_BOUND, "--family", "cov-alpha", "--emp", "0.1", "--logN", "10"],
    "cov-alpha-lemma-D1": [*_BOUND, "--family", "cov-alpha", "--emp", "0.1", "--logN", "10", "--solver", "lemma-D1"],
    "cov-alpha2": [*_BOUND, "--family", "cov-alpha2", "--emp", "0", "--logN", "10"],
    "cov-fat": [*_BOUND, "--family", "cov-fat", "--emp", "0.1", "--fat-d", "3"],
    "cov-uniform-rho": [*_BOUND, "--family", "cov-uniform-rho", "--emp", "0.1", "--logN", "10", "--r", "0.5",
                        "--rho", "0.25"],
    "rad": [*_BOUND, "--family", "rad", "--emp", "0.1", "--rm", "0.7"],
    "rad-overflow": [*_BOUND, "--family", "rad", "--emp", "0.1", "--rm", "0.7", "--alpha", "1.001"],
    "rad-all-alpha": [*_BOUND, "--family", "rad-all-alpha", "--emp", "0.1", "--rm", "0.7", "--alpha-grid", "1.5,2"],
    "rad-smooth": [*_BOUND, "--family", "rad-smooth", "--emp", "0", "--rmax", "1"],
    "unbounded": [*_BOUND, "--family", "unbounded", "--emp-loss", "0.3", "--moment", "1", "--logN", "3"],
    "unbounded-uniform-rho": [*_BOUND, "--family", "unbounded-uniform-rho", "--emp-loss", "0.3", "--moment", "1",
                              "--logN", "3", "--rho-grid", "0.25,0.5", "--r", "0.5"],
    "exact-cover": ["complexity", "--op", "cover-linf", "--matrix", "{matrix}", "--eps", "0.3"],
    "greedy-cover": ["complexity", "--op", "cover-l2", "--matrix", "{matrix}", "--eps", "0.3", "--mode", "greedy"],
    "rademacher-exact": ["complexity", "--op", "rademacher-exact", "--matrix", "{matrix}"],
    "rademacher-mc": ["complexity", "--op", "rademacher-mc", "--matrix", "{matrix}", "--n-sigma", "64", "--seed", "7"],
    "exact-peeling": ["complexity", "--op", "rm-peeling", "--matrix", "{binary}", "{binary}", "--seed", "3"],
    "mc-peeling": ["complexity", "--op", "rm-peeling", "--matrix", "{binary24}", "{binary24}", "--seed", "3"],
    "value-with-k": ["complexity", "--op", "rm-dudley", "--matrix", "{matrix}", "--k", "1", "--eps-grid", "0.5,1.0"],
    "peel-buckets": ["complexity", "--op", "peel", "--matrix", "{binary}", "--range-tag", "binary"],
    "direct-tightness": ["compare", "--direct", "--emp-grid", "0,0.05", "--beta-grid", "0.001,0.1"],
    "class-tightness": ["compare", "--m-grid", "1000,10000", "--rho-grid", "0.1,0.2", "--emp-grid", "0,0.05",
                        "--class-kind", "linear", "--radius", "1"],
    "verify-binomial": ["verify", "binomial", "--m-max", "30", "--grid-size", "40"],
    "verify-monotone": ["verify", "monotone", "--seed", "1", "--n", "100"],
    "validity": ["validate", "--config", str(REFERENCE_CAMPAIGN), "--set", "trials=20"],
    "train-bound-min": [*_TRAIN, "--method", "bound-min", "--rho-grid", "0.1,0.3", "--steps", "100"],
    "train-hinge": [*_TRAIN, "--method", "hinge-subgradient-linear", "--steps", "100"],
    "train-stumps": [*_TRAIN, "--method", "boost-stumps", "--rounds", "3"],
    "train-tiny-mlp": [*_TRAIN, "--method", "tiny-mlp", "--steps", "100"],
}


@pytest.fixture(scope="module")
def csv_inputs(tmp_path_factory):
    from relmargin import MarginSeparable, generate

    rng = np.random.default_rng(5)
    root = tmp_path_factory.mktemp("csv-inputs")
    files = {
        "matrix": {"values": rng.random((8, 6)).round(3).tolist()},
        "binary": {"values": (rng.random((10, 8)) < 0.4).astype(float).tolist(), "range_tag": "binary"},
        "binary24": {"values": (rng.random((24, 6)) < 0.4).astype(float).tolist(), "range_tag": "binary"},
        "sample": generate(MarginSeparable(dim=2, gap=0.3, noise_rate=0.0), 40, seed=4).to_json(),
    }
    for name, data in files.items():
        (root / f"{name}.json").write_text(json.dumps(data))
    return {name: str(root / f"{name}.json") for name in files}


@pytest.mark.parametrize("case", sorted(_CSV_CASES))
def test_csv_writer_is_the_oracle_on_every_report(case, csv_inputs, tmp_path):
    out = tmp_path / "report.json"
    assert main([arg.format(**csv_inputs) for arg in _CSV_CASES[case]] + ["--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert report_csv(data) == report_csv_oracle(data)


def test_csv_writer_is_the_oracle_on_each_estimation_method():
    from relmargin.estimates import METHODS

    estimates = [
        ComplexityEstimate(value=2.5, method="exact-enumeration", details={"m": 3}),
        ComplexityEstimate(value=1 / 3, method="monte-carlo", trials=(48, 1024), seed=5, stderr=0.25),
        ComplexityEstimate(value=7.0, method="greedy-upper", trials=(3,), details={"eps": 0.1}),
        ComplexityEstimate(value=math.inf, method="formula", seed=0, stderr=0.0),
    ]
    assert sorted(e.method for e in estimates) == sorted(METHODS)
    for est in estimates:
        data = json.loads(canonical_json(est))
        assert report_csv(data) == report_csv(est) == report_csv_oracle(data)


class _Reported:
    def to_json(self):
        return {"b": [0.5, (1, 2)], "a": np.arange(3)}


@pytest.mark.parametrize(
    "obj",
    [
        -0.0,
        1.0,
        1e16,
        123456789012.0,
        1e-7,
        0.1 + 0.2,
        math.inf,
        -math.inf,
        [-0.0, 0.0, -0.0, 0.0, 1e16, 1e-7, math.inf, -math.inf, 0.1 + 0.2, 0.3],
        np.float32(0.1),
        np.float64(-0.0),
        np.int64(-7),
        [np.float32(2.5), np.int64(3), np.float16(-0.0), 2.5, 3],
        True,
        False,
        None,
        [True, False, None, 1, 0],
        "caf\u00e9 \u2264 \U0001d6c5",
        'quote " backslash \\ tab \t newline \n bell \x07',
        {"\u00e9\n": ["\u00e9", "\\"]},
        {},
        [],
        (),
        np.array([]),
        {"a": {}, "b": [], "c": [[], {}], "d": [1, [], 2]},
        (1, (2.5, "x"), [None]),
        np.arange(6).reshape(2, 3) / 7,
        np.array([[1.5, -0.0], [np.inf, 2.0]]),
        _Reported(),
        [_Reported(), 1.5],
        {"per_shell": {10: 0.5, 2: 0.25, 1: [0.125]}, 3: "three"},
        {"rows": [["cov-alpha2", 0, 0.1, 3.912, 0.9, 0.2, 0], ["rad", 1, 1 / 3, 0.5, 1.0, 0.25, 1]]},
        [1, {"k": [1.5, {"z": [None, []]}]}, "tail"],
        # the writer marks a table's place with a bare NaN: strings holding
        # NUL and NaN beside tables, at the top and nested
        Table(np.array(["NaN", "\0"]), np.array([0.5, -0.0])),
        {"NaN": "NaN", "nul": "\0NaN", "rows": Table(np.array(["a\0b NaN,"]), np.array([1])), "z": ["x NaN", "NaN"]},
        [["NaN", Table(np.array([1e-7, math.inf]))], {"\0": {"NaN,": Table(np.array([2]), np.array([0.3]))}}],
        # an empty table beside non-empty ones
        [Table(), Table(np.array([1.5]), np.array(["a"])), Table(np.array([], dtype=float)), Table(np.array([3]))],
        {"empty": Table(np.array([], dtype=str), np.array([], dtype=int)), "rows": Table(np.array([0.25]))},
    ],
)
def test_writer_is_the_two_pass_oracle(obj):
    assert canonical_json(obj) == canonical_json_oracle(obj)


def test_writer_sorts_int_keys_as_strings():
    text = canonical_json({"per_shell": {10: 1, 2: 2}})
    assert text.index('"10"') < text.index('"2"')


@pytest.mark.parametrize("obj", [math.nan, [1.0, math.nan], {"a": {"b": np.float32("nan")}}, (np.nan,)])
def test_writer_rejects_nan_as_the_oracle_does(obj):
    with pytest.raises(InputError, match="reports must not contain NaN"):
        canonical_json_oracle(obj)
    with pytest.raises(InputError, match="reports must not contain NaN"):
        canonical_json(obj)


def test_writer_rejects_what_the_oracle_cannot_serialize():
    table = Table(np.array(["rad"]), np.array([0.5]))
    for obj in ({"a": object()}, [1.0, {1, 2}], np.bool_(True), {"rows": table, "z": object()}, [table, {1, 2}, table]):
        with pytest.raises(InputError, match="cannot serialize"):
            canonical_json_oracle(obj)
        with pytest.raises(InputError, match="cannot serialize"):
            canonical_json(obj)


# the two campaign shapes of the relbench workloads
_CAMPAIGN_SHAPES = {
    "large-m": {"params": {"m": 5000}, "trials": 300, "complexity": {"cover_draws": 8, "peel_draws": 8}},
    "trial-heavy": {"trials": 10000, "families": ["cov-alpha", "cov-alpha2", "rad"]},
}


def _assert_same_text(got: str, want: str) -> None:
    """``got == want``, asserted in full; a failure names the lengths and the
    first differing offset and line, not pytest's diff of two long texts."""
    if got == want:
        return
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    line = got.count("\n", 0, at)
    pytest.fail(
        f"texts of {len(got)} and {len(want)} characters differ first at offset {at}, line {line + 1}: "
        f"{got.splitlines()[line:line + 1]!r} != {want.splitlines()[line:line + 1]!r}",
        pytrace=False,
    )


@pytest.mark.parametrize("shape", sorted(_CAMPAIGN_SHAPES))
def test_writer_is_the_oracle_on_campaign_reports(shape):
    data = json.loads(REFERENCE_CAMPAIGN.read_text())
    for key, value in _CAMPAIGN_SHAPES[shape].items():
        data[key] = {**data[key], **value} if isinstance(value, dict) else value
    report = validate_bounds(ExperimentConfig.from_json(data))
    assert isinstance(report.rows, Table)
    # to_json is plain JSON with the rows as lists, which the oracle gets, so
    # it never sees the table; the CLI writes the table itself
    listed = report.to_json()
    assert listed["rows"] == [list(r) for r in report.rows] and json.loads(json.dumps(listed)) == listed
    tabled = report.to_json(table=True)
    assert tabled["rows"] is report.rows and len(tabled["rows"]) == len(listed["rows"])
    json_text = canonical_json(tabled)
    _assert_same_text(json_text, canonical_json(listed))
    _assert_same_text(json_text, canonical_json_oracle(listed))
    csv_text = report_csv(tabled)
    _assert_same_text(csv_text, report_csv(listed))
    _assert_same_text(csv_text, report_csv_oracle(canonical(listed)))


_TABLES = {
    "signed zeros and infinities": (
        np.array(["cov-alpha", "rad", "rad"]),
        np.array([0, 1, 2]),
        np.array([-0.0, 0.0, -0.0]),
        np.array([np.inf, -np.inf, 0.1 + 0.2]),
        np.array([1, 0, 1]),
    ),
    "repeated floats": (
        np.repeat(np.array([1 / 3, 1e16, 1e-7, 123456789012.0, 0.3]), 4),
        np.arange(20),
        np.tile(np.array([0.5, 0.5, 2.0, -0.0]), 5),
        np.tile(np.float32([0.1, 2.5]), 10),
    ),
    "zero trials": (np.array([], dtype=str), np.array([], dtype=int), np.array([])),
    # the strings "Infinity" and "-Infinity" beside the floats that write
    # them in both formats, cells that CSV quotes, and an ASCII-bytes column
    "infinity and quoting": (
        np.array(["Infinity", "-Infinity", "a,b", 'say "x"', "line\nbreak", ""]),
        np.array([math.inf, -math.inf, math.inf, 1.0, -0.0, math.inf]),
        np.array([b"cov-alpha", b"rad", b"rad", b"", b"cov-alpha2", b"rad"]),
        np.array([0, 1, 0, 1, 1, 0], dtype=np.uint8),
    ),
    # one-cell rows, whose empty cell CSV quotes
    "one empty column": (np.array(["", "x", "", ""]),),
}
_VALIDITY = "relmargin/validity-report/v1"


@pytest.mark.parametrize("name", sorted(_TABLES))
def test_table_writer_is_the_oracle_on_its_rows(monkeypatch, name):
    table = Table(*_TABLES[name])
    rows = [list(r) for r in table]
    assert len(table) == len(rows) == len(_TABLES[name][0])
    assert table == tuple(map(tuple, rows)) and table == Table(*_TABLES[name])
    assert all(type(v) in (str, int, float) for row in rows for v in row)
    cases = ((table, rows), ({"rows": table, "n": 2.5}, {"rows": rows, "n": 2.5}), ([table, [table]], [rows, [rows]]))
    validity = {"schema": _VALIDITY, "rows": rows}
    csv_text = report_csv_oracle(canonical(validity))
    # rows per piece of the text: the default, one, and a divisor and a
    # non-divisor of the 20 repeated-float rows
    for piece_rows in (reportio._TABLE_ROWS, 1, 3, 4):
        monkeypatch.setattr(reportio, "_TABLE_ROWS", piece_rows)
        for obj, listed in cases:
            assert canonical_json(obj) == canonical_json_oracle(listed)
            assert canonical(obj) == canonical(listed)
        assert report_csv({**validity, "rows": table}) == report_csv(validity) == csv_text


def test_table_writer_rejects_nan_as_the_oracle_does():
    table = Table(np.array(["a", "b"]), np.array([0.5, np.nan]))
    listed = [list(r) for r in table]
    with pytest.raises(InputError, match="reports must not contain NaN"):
        canonical_json_oracle(listed)
    with pytest.raises(InputError, match="reports must not contain NaN"):
        canonical_json({"rows": table})
    # the CSV oracle is given a canonical report, and canonical rejects NaN
    with pytest.raises(InputError, match="reports must not contain NaN"):
        report_csv_oracle(canonical({"schema": _VALIDITY, "rows": listed}))
    with pytest.raises(InputError, match="reports must not contain NaN"):
        report_csv({"schema": _VALIDITY, "rows": table})


@pytest.fixture(scope="module")
def trial_heavy_report():
    """A campaign report of 3 x 10^4 rows (10^4 trials, three families), and
    the bytes still traced once ``validate_bounds`` has returned it."""
    data = json.loads(REFERENCE_CAMPAIGN.read_text())
    data.update(families=["cov-alpha", "cov-alpha2", "rad"], trials=10_000)
    data["complexity"] = {**data["complexity"], "cover_draws": 2, "peel_draws": 2}
    # a first, small campaign pays for lazy imports and caches
    validate_bounds(ExperimentConfig.from_json({**data, "trials": 2}))
    cfg = ExperimentConfig.from_json(data)
    tracemalloc.start()
    try:
        report = validate_bounds(cfg)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(report.rows) == 30_000
    return report, held


def test_campaign_report_holds_at_most_48_bytes_a_row(trial_heavy_report):
    report, held = trial_heavy_report
    # float emp, complexity, bound and risk, and the family, trial and
    # violated columns at their least widths
    assert sum(c.nbytes for c in report.rows.columns) <= 45 * len(report.rows)
    assert held <= 48 * len(report.rows)


def test_csv_of_a_campaign_report_peaks_at_most_3_5_times_its_text(trial_heavy_report):
    report = trial_heavy_report[0].to_json(table=True)
    tracemalloc.start()
    try:
        text = report_csv(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the chunks' pieces and their join, and one chunk's cells
    assert text.isascii() and text.count("\n") == 1 + 30_000
    assert peak <= 3.5 * len(text)


def test_csv_of_a_campaign_report_object_is_written_from_its_table(trial_heavy_report):
    # the report object, as the CLI passes it: its table, not its listed rows
    report = trial_heavy_report[0]
    tracemalloc.start()
    try:
        text = report_csv(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _assert_same_text(text, report_csv(report.to_json(table=True)))
    assert peak <= 3.5 * len(text)


def test_validity_report_matches_its_schema(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    out = tmp_path / "report.json"
    argv = ["validate", "--config", str(REFERENCE_CAMPAIGN), "--set", "trials=30", "--set", "complexity.cover_draws=2",
            "--set", "complexity.peel_draws=2", "--set", 'families=["cov-alpha", "cov-alpha2", "cov-fat", "rad"]',
            "--out", str(out)]
    assert main(argv) == 0
    data = json.loads(out.read_text())
    schema = json.loads((SCHEMA_DIR / "validity-report.v1.json").read_text())
    jsonschema.validate(data, schema)
    assert len(data["rows"]) == 4 * 30 and set(data["families"]) == {"cov-alpha", "cov-alpha2", "cov-fat", "rad"}
    # the schema can fail: an environment field added or dropped, a family
    # judged on another event than the uniform one over the pool, or a row
    # with a violation flag of 2
    environment = data["environment"]
    for changed in ({**environment, "backend": "numpy"}, {k: v for k, v in environment.items() if k != "seed"}):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({**data, "environment": changed}, schema)
    for event in ("trained-single-hypothesis", "", None):
        families = {**data["families"], "rad": {**data["families"]["rad"], "event": event}}
        with pytest.raises(jsonschema.ValidationError, match="uniform-over-pool"):
            jsonschema.validate({**data, "families": families}, schema)
    data["rows"][0][6] = 2
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(data, schema)
