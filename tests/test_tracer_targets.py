"""The benchmark tracer (relbench/tracer.py) wraps package functions by
name; a name it cannot find turns that layer's metrics into ``missing``."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "relbench" / "tracer.py"


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("relbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module_name, attr, _key in tracer.TARGETS:
        owner = importlib.import_module(module_name)
        cls_name, _, name = attr.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name)
        # looked up as the tracer does: defined on the module or class itself
        assert callable(vars(owner).get(name)), f"{module_name}.{attr}"
