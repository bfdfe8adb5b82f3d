import sys

import pytest

import tracing
from tracing import Span, Tracer


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 3.0, 6.0, parent=0),  # overlaps a: the union [1, 6] counts once
        Span("leaf", 2.0, 3.0, parent=1),
        Span("late", 9.0, 12.0, parent=0),  # only [9, 10] lies inside root
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_layer_metrics_ratios_on_a_hand_built_tree():
    spans = [
        Span("cli.main", 0.0, 10.0, info={"op": "analyze", "output_bytes": 7}),
        Span("privacy.analyze_pair", 1.0, 9.0, parent=0, info={"contexts": 2}),
        *(Span("generation._level_log_probs", 2.0 + i, 2.5 + i, parent=1,
               info={"states": 100}) for i in range(6)),
        Span("generation._level_log_probs", 8.6, 8.7, parent=1, calls=0),  # a resume
    ]
    m = tracing.layer_metrics(spans)
    assert m["generation.prefix_walks"] == 6
    assert m["generation.enumerated_states"] == 600
    assert m["generation.walks_per_arm_context"] == 1.5
    assert m["generation.enumerate_self_s"] == pytest.approx(3.1)
    assert m["privacy.analyze_self_s"] == pytest.approx(8.0 - 3.1)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["cli.output_bytes"] == 7
    assert m["lab.label_space_builds_per_length"] == 0.0


def _bindings():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "dpgenlab" or name.startswith("dpgenlab.")
        for attr, value in vars(module).items()
    } | {
        (cls.__name__, attr): value
        for cls in (sys.modules["dpgenlab.lab"].SweepResult,
                    sys.modules["dpgenlab.modelfiles"].RunManifest)
        for attr, value in vars(cls).items()
    }


def _tiny_model():
    from dpgenlab import Dataset, LabelBonusRule, LogitModel, Vocabulary

    model = LogitModel(
        vocabulary=Vocabulary(("a", "b", "c")),
        base_tables={"x": ((0.5, 0.0, -0.5),), "y": ((0.0, 0.2, 0.1),)},
        influence=LabelBonusRule(beta=1.0),
        history_coupling=((0.1, 0.0, 0.0), (0.0, 0.2, 0.0), (0.0, 0.0, 0.3)),
    )
    return model, Dataset((("a", 1.0, ""), ("b", 1.0, "")))


def test_installed_traces_calls_and_restores_every_binding():
    import dpgenlab.cli  # noqa: F401  (loads every module the targets name)
    from dpgenlab import GenerationConfig, NeighborPair, Record, privacy

    model, data = _tiny_model()
    pair = NeighborPair(data, data.replace(0, Record("c", 1.0, "")), 0)
    before = _bindings()
    tracer = Tracer()
    with tracing.installed(tracer):
        assert _bindings() != before
        privacy.analyze_pair(model, pair, GenerationConfig(1.0, 3))
    assert _bindings() == before
    names = [s.name for s in tracer.spans]
    assert names[0] == "privacy.analyze_pair"
    # Called through privacy's own binding and through generation's.
    assert sum(s.calls for s in tracer.spans if s.name == "generation._level_log_probs") == 4 * 2 + 2
    assert all(s.end >= s.start for s in tracer.spans)


def test_installed_restores_bindings_when_the_traced_code_raises():
    import dpgenlab.cli  # noqa: F401

    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracing.installed(Tracer()):
            raise RuntimeError("boom")
    assert _bindings() == before


def test_generator_wrapper_records_one_call_and_one_segment_per_resume():
    def walk(n):
        for i in range(n):
            yield i
        return "done"

    tracer = Tracer()
    traced = tracer.wrap("walk", walk, lambda a: {"states": a["n"]})
    gen = traced(3)
    assert list(gen) == [0, 1, 2]
    assert [s.calls for s in tracer.spans] == [1, 0, 0, 0]
    assert tracer.spans[0].info == {"states": 3}
