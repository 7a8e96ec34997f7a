"""The benchmark's traced functions must exist: perfbench/tracing.py wraps
each `risjam.<module>.<function>` it lists, and a missing one would turn its
per-layer metrics into "missing" instead of failing."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _functions():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.FUNCTIONS


def test_traced_functions_are_callable():
    functions = _functions()
    assert functions
    for module, names in functions.items():
        mod = importlib.import_module(f"risjam.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"risjam.{module}.{name}"
