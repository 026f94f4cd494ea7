"""The benchmark tracer (``perfbench/tracing.py``) wraps seqtight functions by
name, so renaming or deleting one breaks ``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_seqtight_callable():
    tracing = load_tracing()
    for layer, names in tracing.TRACED.items():
        home = importlib.import_module(f"seqtight.{layer}")
        for name in names:
            assert callable(getattr(home, name, None)), f"seqtight.{layer}.{name}"


def test_every_reported_span_is_traced():
    tracing = load_tracing()
    traced = {f"{layer}.{name}" for layer, names in tracing.TRACED.items() for name in names}
    for span in (*tracing.SPAN_METRICS, *tracing.KEEP, *tracing.ENGINES):
        assert span in traced, span
