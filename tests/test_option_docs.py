"""README's option tables against the declarations they document: the
dataclass fields of each distribution, the keyword parameters of each
trainer, the ``train`` flags each method takes, the ``bound`` flags each
family reads, the campaign families and the defaults of a campaign's
``complexity`` and ``risk`` keys, and the CSV columns of each report
schema."""

import inspect
import json
import re
from pathlib import Path

from relmargin.bounds import FAMILIES
from relmargin.cli import _TRAIN_FLAGS, _bound_flags
from relmargin.reportio import _CSV_COLUMNS, _VALIDITY_HEADER
from relmargin.samples import DISTRIBUTIONS
from relmargin.training import METHODS, train_bound_min
from relmargin.validation import _COMPLEXITY_DEFAULTS, _COMPLEXITY_LEAST, SUPPORTED_FAMILIES, ExperimentConfig

README = Path(__file__).parent.parent / "README.md"


def _table(header: str) -> list:
    """The body rows of the README table whose first column is ``header``,
    as lists of cells with the backticks stripped."""
    rows, inside = [], False
    for line in README.read_text().splitlines():
        cells = [cell.strip().strip("`") for cell in line.strip().strip("|").split("|")]
        if not line.startswith("|"):
            if inside:
                break
        elif cells[0] == header:
            inside = True
        elif inside and not set(cells[0]) <= {"-"}:
            rows.append(cells)
    return rows


def _options(owner, skip=()) -> set:
    """(option, JSON default) of every option ``owner`` declares."""
    params = inspect.signature(owner).parameters.items()
    return {(name, json.dumps(p.default)) for name, p in params if name not in skip}


def test_readme_option_table_matches_the_declarations():
    declared = {(kind, *option) for kind, cls in DISTRIBUTIONS.items() for option in _options(cls)}
    for method, trainer in METHODS.items():
        declared |= {(method, *option) for option in _options(trainer, ("sample", "seed"))}
    documented = {(row[0], row[1], row[4]) for row in _table("kind or method")}
    assert documented == declared


def test_readme_train_flag_table_matches_the_trainers():
    documented = {row[0]: sorted(re.findall(r"--[a-z-]+", row[1])) for row in _table("--method")}
    trainers = {"bound-min": train_bound_min, **METHODS}
    assert set(documented) == set(trainers)
    for method, trainer in trainers.items():
        takes = inspect.signature(trainer).parameters
        assert documented[method] == sorted("--" + f.replace("_", "-") for f in _TRAIN_FLAGS if f in takes)


def test_readme_bound_flag_table_matches_the_families():
    def flags(names) -> list:
        return sorted("--" + name.replace("_", "-") for name in names)

    documented = {row[0]: [sorted(re.findall(r"--[A-Za-z-]+", cell)) for cell in row[1:]] for row in _table("family")}
    assert set(documented) == set(FAMILIES)
    for family in FAMILIES:
        required, reads = _bound_flags(family)
        also = reads - set(required)
        assert documented[family] == [flags(required), flags(also)], family


def test_readme_csv_table_matches_the_declared_columns():
    documented = {row[0]: re.findall(r"[a-z_.]+", row[1]) for row in _table("schema")}
    declared = {schema: list(keys) for schema, keys in _CSV_COLUMNS.items()}
    assert documented == {**declared, "relmargin/validity-report/v1": list(_VALIDITY_HEADER)}


def test_readme_campaign_families_are_the_supported_families():
    paragraph = next(p for p in README.read_text().split("\n\n") if p.startswith("`families` is a list of"))
    listed = re.findall(r"`([a-z0-9-]+)`", paragraph.split(";")[0])
    assert listed == ["families", *SUPPORTED_FAMILIES]


def test_readme_campaign_section_table_matches_the_defaults():
    rows = {row[0]: row[1:] for row in _table("section key")}
    complexity = {key.removeprefix("complexity."): cells for key, cells in rows.items() if key.startswith("complexity.")}
    assert set(complexity) == set(_COMPLEXITY_DEFAULTS)
    for key, (kind, least, default) in complexity.items():
        assert json.loads(default) == _COMPLEXITY_DEFAULTS[key], key
        if key in _COMPLEXITY_LEAST:
            assert (kind, least) == ("integer", f"≥ {_COMPLEXITY_LEAST[key]}"), key
    assert set(rows) - {f"complexity.{key}" for key in complexity} == {"risk.mode", "risk.n"}
    # a config that leaves both sections out gets the documented defaults
    cfg = ExperimentConfig.from_json({
        "distribution": {"kind": "two-gaussian-mixture"},
        "pool": {"size": 3},
        "params": {"m": 10, "delta": 0.05},
        "families": ["cov-alpha"],
        "trials": 1,
        "seed": 0,
    })
    assert cfg.complexity == _COMPLEXITY_DEFAULTS
    assert json.dumps(cfg.risk["mode"]) == rows["risk.mode"][2]
    assert cfg.risk["n"] == 10**6 and rows["risk.n"][2] == "10⁶"
