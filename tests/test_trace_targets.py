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


def test_traced_exact_paths_run_on_a_coupled_model():
    # The tracer's counters bind the traced functions' arguments by name
    # (model, config, length), so a renamed parameter fails here.
    from dpgenlab import (
        Dataset,
        GenerationConfig,
        LabelBonusRule,
        LogitModel,
        NeighborPair,
        Record,
        Vocabulary,
        generation,
        privacy,
    )

    tracing = _load_tracing()
    model = LogitModel(
        vocabulary=Vocabulary(("a", "b", "c")),
        base_tables={"x": ((0.5, 0.0, -0.5),), "y": ((0.0, 0.2, 0.1),)},
        influence=LabelBonusRule(beta=1.0),
        history_coupling=((0.1, 0.0, -0.2), (0.0, 0.2, 0.0), (0.3, 0.0, 0.1)),
    )
    data = Dataset((("a", 1.0, ""), ("b", 1.0, "")))
    pair = NeighborPair(data, data.replace(0, Record("c", 1.0, "")), 0)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        report = privacy.analyze_pair(model, pair, GenerationConfig(1.0, 3))
        scores = generation.enumerate_cumulative_scores(model, data, 3)
    assert report.exact_message_epsilon > 0 and scores.shape == (27,)
    states = {s.name: s.info["states"] for s in tracer.spans if "states" in s.info}
    assert states == {
        "generation._level_log_probs": 27,
        "generation.enumerate_cumulative_scores": 27,
    }
