"""Every clarklab name that the benchmark's tracer wraps still exists.

Only ``perfbench/run.py --trace 1`` touches these names, so without this
check a renamed or deleted function would break the traced benchmark
while every other test still passed.
"""
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_traced_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for name, (module, attr, _) in spans.TARGETS.items():
        obj = importlib.import_module(f"clarklab.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
            assert obj is not None, f"{name}: clarklab.{module}.{attr} is gone"
        assert callable(obj), name
