"""Per-layer spans and counters for the traced benchmark run.

The tracer wraps the public functions each relmargin layer exposes, on the
names callers look up (every module attribute that *is* the function, so
``relmargin.validation.covering_number_linf`` and
``relmargin.cli.covering_number_linf`` are both replaced).  Nothing in the
package is edited: ``install`` patches attributes in memory and
``restore`` puts the originals back.

A span's self time is its duration minus the time of the wrapped spans it
directly contains.  A wrapped function called while a span of the same
layer key is open passes straight through, so nested entry points of one
layer (``peeling_complexity`` calling ``peeling_complexity_for_matrices``)
count once.  Functions called hundreds of thousands of times per operation
are aggregated only; the others also keep one span record each, written
out as JSON lines when the run ends.
"""

from __future__ import annotations

import json
import sys
import time

# (module, attribute) -> layer key.  A "Class.method" attribute patches the class.
TARGETS = (
    ("relmargin.covers", "covering_number_linf", "covers.covering_number"),
    ("relmargin.kernels", "pairwise_linf", "kernels.pairwise_linf"),
    ("relmargin.kernels", "sup_signed_sums", "kernels.sup_signed_sums"),
    ("relmargin.kernels", "exact_mean_sup_signed_sum", "kernels.exact_mean_sup"),
    ("relmargin.rademacher", "peeling_complexity", "rademacher.peeling_complexity"),
    ("relmargin.rademacher", "peeling_complexity_for_matrices", "rademacher.peeling_complexity"),
    ("relmargin.rademacher", "peeling_exponents", "rademacher.peeling_exponents"),
    ("relmargin.lossmatrix", "outputs_matrix", "lossmatrix.outputs_matrix"),
    ("relmargin.lossmatrix", "transform_matrix", "lossmatrix.transform_matrix"),
    ("relmargin.lossmatrix", "peel", "lossmatrix.peel"),
    ("relmargin.bounds", "solve_relative", "bounds.solve_relative"),
    ("relmargin.validation", "validate_bounds", "validation.validate_bounds"),
    ("relmargin.validation", "family_bound_values", "validation.family_bound_values"),
    ("relmargin.samples", "TwoGaussianMixture.sample", "samples.sample"),
    ("relmargin.samples", "MarginSeparable.sample", "samples.sample"),
    ("relmargin.rng", "substream", "rng.substream"),
    ("relmargin.reportio", "canonical_json", "reportio.canonical_json"),
)

# called per trial or per pool member: aggregate, keep no span records
HOT = frozenset(
    {"bounds.solve_relative", "validation.family_bound_values", "samples.sample", "rng.substream"}
)


def _count_covers(counts, args, kwargs, result):
    details = result.details
    counts["covers.pool"] += details["pool"]
    counts["covers.distinct"] += details["distinct"]
    counts["covers.cover"] += result.value


def _count_sup_signed_sums(counts, args, kwargs, result):
    values = args[0] if args else kwargs["values"]
    signs = args[1] if len(args) > 1 else kwargs["signs"]
    n_sigma, m = signs.shape
    # computed from argument shapes: one multiply and one add per matmul term
    counts["kernels.sup_signed_sums_flops"] += 2 * n_sigma * m * values.shape[1]


def _count_exact_sign_vectors(counts, args, kwargs, result):
    values = args[0] if args else kwargs["values"]
    counts["rademacher.sign_vectors"] += 2 ** len(values)


def _count_mc_sign_vectors(counts, args, kwargs, result):
    matrix = args[0] if args else kwargs["matrix"]
    inner = args[1] if len(args) > 1 else kwargs.get("inner", "auto")
    n_sigma = args[2] if len(args) > 2 else kwargs.get("n_sigma", 1024)
    if inner == "mc" or (inner == "auto" and matrix.m > 20):
        counts["rademacher.sign_vectors"] += int(n_sigma)


def _count_trials(counts, args, kwargs, result):
    cfg = args[0] if args else kwargs["cfg"]
    counts["validation.trials"] += cfg.trials


def _count_report(counts, args, kwargs, result):
    obj = args[0] if args else kwargs["obj"]
    rows = getattr(obj, "rows", None)
    if rows is None and isinstance(obj, dict):
        rows = obj.get("rows")
    counts["reportio.rows"] += len(rows) if rows is not None else 0
    counts["reportio.report_bytes"] += len(result.encode("utf-8"))


COUNTERS = {
    "covers.covering_number": _count_covers,
    "kernels.sup_signed_sums": _count_sup_signed_sums,
    "kernels.exact_mean_sup": _count_exact_sign_vectors,
    "rademacher.peeling_exponents": _count_mc_sign_vectors,
    "validation.validate_bounds": _count_trials,
    "reportio.canonical_json": _count_report,
}


class _Counts(dict):
    def __missing__(self, key):
        return 0


class Tracer:
    """Aggregated spans and counters for the layers in ``TARGETS``."""

    def __init__(self):
        self.stats = {}  # key -> [calls, total_s, self_s]
        self.counts = _Counts()
        self.spans = []  # (id, parent id, key, start, end) of non-hot spans
        self.missing = []
        self._stack = []  # open frames: [key, start, child_s, span id]
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, fn, key):
        stack = self._stack
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        counter = COUNTERS.get(key)
        record = key not in HOT
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if any(frame[0] == key for frame in stack):
                return fn(*args, **kwargs)
            span_id = len(spans) if record else -1
            if record:
                spans.append(None)  # reserve the id so children can name their parent
            frame = [key, clock(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if record:
                    parent = next((f[3] for f in reversed(stack) if f[3] >= 0), -1)
                    spans[span_id] = (span_id, parent, key, frame[1], end)
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every target on each loaded relmargin module that refers to it."""
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "relmargin"]
        for module_name, attr, key in TARGETS:
            owner = sys.modules.get(module_name)
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = owner.__dict__.get(meth) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(original, key)
            if cls_name:
                self._patch(owner, meth, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def _patch(self, owner, name, wrapper):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def restore(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def snapshot(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "counts": dict(self.counts),
            "missing": sorted(set(self.missing)),
        }

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                if span is not None:
                    sid, parent, key, start, end = span
                    fh.write(json.dumps({"id": sid, "parent": parent, "name": key,
                                         "start": start, "end": end}) + "\n")
            fh.write(json.dumps({"aggregate": self.snapshot()}) + "\n")


def read_snapshot(path) -> dict:
    """The aggregate that ``write_spans`` put on the last line of a trace file."""
    with open(path) as fh:
        last = fh.read().splitlines()[-1]
    return json.loads(last)["aggregate"]


def merge(snapshots) -> dict:
    """Sum the snapshots of several traced processes."""
    out = {"stats": {}, "counts": _Counts(), "missing": set()}
    for snap in snapshots:
        for key, (calls, total, self_s) in snap["stats"].items():
            acc = out["stats"].setdefault(key, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        for key, value in snap["counts"].items():
            out["counts"][key] += value
        out["missing"].update(snap["missing"])
    out["missing"] = sorted(out["missing"])
    return out


# name, unit, layer key it is read from, and how: a stats field, a counter
# name, or a (numerator, denominator) pair of counters
LAYER_METRICS = (
    ("covers.covering_number_s", "s", "covers.covering_number", "total"),
    ("covers.self_s", "s", "covers.covering_number", "self"),
    ("covers.calls", "count", "covers.covering_number", "calls"),
    ("covers.distinct_per_pool", "ratio", "covers.covering_number", ("covers.distinct", "covers.pool")),
    ("covers.cover_per_distinct", "ratio", "covers.covering_number", ("covers.cover", "covers.distinct")),
    ("kernels.pairwise_linf_s", "s", "kernels.pairwise_linf", "total"),
    ("kernels.pairwise_linf_calls", "count", "kernels.pairwise_linf", "calls"),
    ("kernels.sup_signed_sums_s", "s", "kernels.sup_signed_sums", "total"),
    ("kernels.sup_signed_sums_flops", "flop-computed", "kernels.sup_signed_sums",
     "kernels.sup_signed_sums_flops"),
    ("rademacher.peeling_complexity_s", "s", "rademacher.peeling_complexity", "total"),
    ("rademacher.self_s", "s", "rademacher.peeling_complexity", "self"),
    ("rademacher.sign_vectors", "count", "rademacher.peeling_exponents", "rademacher.sign_vectors"),
    ("lossmatrix.outputs_matrix_s", "s", "lossmatrix.outputs_matrix", "total"),
    ("lossmatrix.transform_matrix_s", "s", "lossmatrix.transform_matrix", "total"),
    ("lossmatrix.peel_s", "s", "lossmatrix.peel", "total"),
    ("bounds.solve_relative_s", "s", "bounds.solve_relative", "total"),
    ("bounds.solve_relative_calls", "count", "bounds.solve_relative", "calls"),
    ("validation.validate_bounds_s", "s", "validation.validate_bounds", "total"),
    ("validation.family_bound_values_s", "s", "validation.family_bound_values", "total"),
    ("validation.self_s", "s", "validation.validate_bounds", "self"),
    ("validation.trials", "count", "validation.validate_bounds", "validation.trials"),
    ("samples.sample_s", "s", "samples.sample", "total"),
    ("samples.sample_calls", "count", "samples.sample", "calls"),
    ("rng.substream_s", "s", "rng.substream", "total"),
    ("rng.substream_calls", "count", "rng.substream", "calls"),
    ("reportio.canonical_json_s", "s", "reportio.canonical_json", "total"),
    ("reportio.report_bytes", "bytes", "reportio.canonical_json", "reportio.report_bytes"),
    ("reportio.rows", "count", "reportio.canonical_json", "reportio.rows"),
)

_STATS_FIELD = {"calls": 0, "total": 1, "self": 2}


def layer_metrics(snap: dict) -> tuple[dict, list]:
    """Per-layer metrics (name -> (value, unit)) from a snapshot, and the names
    left out because a function they are read from no longer exists."""
    stats, counts = snap["stats"], snap["counts"]
    missing_keys = {key for module, attr, key in TARGETS if f"{module}.{attr}" in snap["missing"]}
    metrics, missing = {}, []
    for name, unit, key, how in LAYER_METRICS:
        if key in missing_keys:
            missing.append(name)
        elif isinstance(how, tuple):
            den = counts.get(how[1], 0)
            metrics[name] = (counts.get(how[0], 0) / den if den else 0.0, unit)
        elif how in _STATS_FIELD:
            metrics[name] = (stats.get(key, [0, 0.0, 0.0])[_STATS_FIELD[how]], unit)
        else:
            metrics[name] = (counts.get(how, 0), unit)
    return metrics, missing
