"""The benchmark's tracer rebinds dpgenlab functions by name; every name it
lists must still exist, or a traced benchmark run breaks."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_trace_target_resolves_in_dpgenlab():
    targets = _load_tracing().TARGETS
    assert targets
    missing = []
    for module, attr, _ in targets:
        obj = importlib.import_module(f"dpgenlab.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{attr}")
    assert missing == []
