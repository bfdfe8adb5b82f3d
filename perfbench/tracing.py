"""Span tracing of dpgenlab from the outside.

``installed`` rebinds the module attributes through which one dpgenlab
module calls another, so every call records a span (name, start, end,
parent). The program's source is not touched, and leaving the context
restores every attribute, so untraced runs measure the unmodified program.
``layer_metrics`` turns the spans of one cycle into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    calls: int = 1  # 0 for the later segments of one generator call
    info: dict = field(default_factory=dict)


class Tracer:
    """Records nested spans of the process that created it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._pid = os.getpid()

    @contextmanager
    def span(self, name: str, calls: int = 1, **info) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), parent=parent, calls=calls, info=info)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        """``fn`` recording a span per call; ``count`` maps its bound
        arguments to counters stored on the span."""
        signature = inspect.signature(fn) if count else None

        def counters(args, kwargs) -> dict:
            if count is None:
                return {}
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return count(bound.arguments)

        if inspect.isgeneratorfunction(fn):
            # A generator does its work while it is resumed, so each resume
            # is one segment; the first segment carries the call count.
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                if os.getpid() != self._pid:
                    return (yield from fn(*args, **kwargs))
                info = counters(args, kwargs)
                inner = fn(*args, **kwargs)
                calls = 1
                while True:
                    with self.span(name, calls=calls, **info):
                        try:
                            item = next(inner)
                        except StopIteration as stop:
                            return stop.value
                    calls, info = 0, {}
                    yield item

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # Worker processes forked from a traced run inherit the wrappers;
            # their spans would be lost, so they skip the bookkeeping.
            if os.getpid() != self._pid:
                return fn(*args, **kwargs)
            with self.span(name, **counters(args, kwargs)):
                return fn(*args, **kwargs)

        return traced


def _states(a: dict) -> dict:
    length = a["config"].length if "config" in a else a["length"]
    return {"states": a["model"].vocabulary.size ** length}


# (module, attribute, counters); the span is named "module.attribute". A
# function imported from another package (the logsumexp bindings) is traced
# only through the module named here.
TARGETS: tuple[tuple[str, str, Callable | None], ...] = (
    ("generation", "_level_log_probs", _states),
    ("generation", "enumerate_cumulative_scores", _states),
    ("generation", "enumerate_message_distribution", None),
    ("generation", "path_logits", None),
    ("generation", "sample_messages",
     lambda a: {"tokens": a["count"] * a["config"].length}),
    ("generation", "cumulative_logit_scores", None),
    ("generation", "logsumexp", None),
    ("privacy", "logit_sensitivity", None),
    ("privacy", "message_epsilon_exact", None),
    ("privacy", "per_step_max_epsilons", None),
    ("privacy", "hockey_stick_curve", None),
    ("privacy", "analyze_pair",
     lambda a: {"contexts": len(a["model"].context_ids)}),
    ("utility", "optimal_temperature", None),
    ("utility", "gibbs_distribution", None),
    ("utility", "expected_utility", None),
    ("utility", "utility_temperature_derivative", None),
    ("utility", "utility_covariance", None),
    ("utility", "logsumexp", None),
    ("lab", "run_sweep",
     lambda a: {"lengths": len(a["lengths"]), "jobs": a["jobs"]}),
    ("lab", "estimate_cell", None),
    ("lab", "make_label_space", None),
    ("lab", "laplace_smooth", None),
    ("lab", "empirical_epsilon", None),
    ("lab", "total_variation", None),
    ("lab", "js_divergence", None),
    ("lab", "SweepResult.to_csv", None),
    ("modelfiles", "load_model_spec", None),
    ("modelfiles", "load_dataset", None),
    ("modelfiles", "file_digest", None),
    ("modelfiles", "RunManifest.write_next_to", None),
    ("svgplot", "write_sweep_svg", None),
)


def _bindings(module: str, attr: str) -> tuple[Callable, list[tuple[object, str]]]:
    """The traced object and every (namespace, name) that refers to it."""
    owner = importlib.import_module(f"dpgenlab.{module}")
    if "." in attr:
        cls_name, method = attr.split(".")
        cls = getattr(owner, cls_name)
        return cls.__dict__[method], [(cls, method)]
    original = getattr(owner, attr)
    if original.__module__ != owner.__name__:
        return original, [(owner, attr)]
    package = [m for name, m in sorted(sys.modules.items())
               if name == "dpgenlab" or name.startswith("dpgenlab.")]
    return original, [(m, attr) for m in package if m.__dict__.get(attr) is original]


@contextmanager
def installed(tracer: Tracer, targets=TARGETS) -> Iterator[None]:
    """Route every target through ``tracer`` until the context exits."""
    saved: list[tuple[object, str, Callable]] = []
    try:
        for module, attr, count in targets:
            original, bindings = _bindings(module, attr)
            wrapper = tracer.wrap(f"{module}.{attr}", original, count)
            for namespace, key in bindings:
                saved.append((namespace, key, original))
                setattr(namespace, key, wrapper)
        yield
    finally:
        for namespace, key, original in reversed(saved):
            setattr(namespace, key, original)


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered, reach = 0.0, s.start
        for k in sorted(kids, key=lambda k: spans[k].start):
            lo, hi = max(spans[k].start, reach), min(spans[k].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def _ancestors(spans: list[Span], i: int) -> Iterator[int]:
    parent = spans[i].parent
    while parent is not None:
        yield parent
        parent = spans[parent].parent


UTILITY_CURVE = {
    "utility.gibbs_distribution", "utility.expected_utility",
    "utility.utility_temperature_derivative", "utility.utility_covariance",
    "utility.logsumexp",
}
PREFIX_WALKS = ("generation._level_log_probs", "generation.enumerate_cumulative_scores")
ENUMERATION = (*PREFIX_WALKS, "generation.enumerate_message_distribution")
DIVERGENCES = ("lab.empirical_epsilon", "lab.total_variation", "lab.js_divergence")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one cycle. Root spans are the CLI calls, named
    ``cli.main`` and carrying ``output_bytes``."""
    own = self_times(spans)

    def calls(*names: str) -> int:
        return sum(s.calls for s in spans if s.name in names)

    def total(*names: str) -> float:
        return sum(s.end - s.start for s in spans if s.name in names)

    def self_s(*names: str) -> float:
        return sum(t for s, t in zip(spans, own) if s.name in names)

    def info(key: str, *names: str) -> int:
        return sum(s.info.get(key, 0) for s in spans if s.name in names)

    def under(i: int, test: Callable[[Span], bool]) -> bool:
        return any(test(spans[a]) for a in _ancestors(spans, i))

    walks_in_analyze = sum(
        s.calls for i, s in enumerate(spans) if s.name in PREFIX_WALKS
        and under(i, lambda a: a.name == "privacy.analyze_pair")
    )
    arm_contexts = 2 * info("contexts", "privacy.analyze_pair")
    curve_self = sum(
        t for i, (s, t) in enumerate(zip(spans, own)) if s.name in UTILITY_CURVE
        and not under(i, lambda a: a.name == "utility.optimal_temperature")
    )
    # Only sweeps whose cells ran in this process show their cells' builds.
    def local_sweep(a: Span) -> bool:
        return a.name == "lab.run_sweep" and a.info["jobs"] == 1

    builds_in_sweeps = sum(
        1 for i, s in enumerate(spans) if s.name == "lab.make_label_space" and under(i, local_sweep)
    )
    lengths = sum(s.info["lengths"] for s in spans if local_sweep(s))

    return {
        "generation.prefix_walks": calls(*PREFIX_WALKS),
        "generation.enumerated_states": info("states", *PREFIX_WALKS),
        "generation.enumerate_self_s": self_s(*ENUMERATION),
        "generation.walks_per_arm_context": walks_in_analyze / arm_contexts if arm_contexts else 0.0,
        "generation.path_logits_calls": calls("generation.path_logits"),
        "generation.path_logits_self_s": self_s("generation.path_logits"),
        "generation.sample_self_s": self_s("generation.sample_messages"),
        "generation.sampled_tokens": info("tokens", "generation.sample_messages"),
        "generation.scores_self_s": self_s("generation.cumulative_logit_scores"),
        "generation.logsumexp_calls": calls("generation.logsumexp"),
        "generation.logsumexp_s": total("generation.logsumexp"),
        "privacy.sensitivity_s": total("privacy.logit_sensitivity"),
        "privacy.message_epsilon_self_s": self_s("privacy.message_epsilon_exact"),
        "privacy.per_step_self_s": self_s("privacy.per_step_max_epsilons"),
        "privacy.hockey_stick_s": total("privacy.hockey_stick_curve"),
        "privacy.analyze_self_s": self_s("privacy.analyze_pair"),
        "utility.normaliser_evals": calls("utility.logsumexp"),
        "utility.solver_self_s": self_s("utility.optimal_temperature"),
        "utility.gibbs_builds": calls("utility.gibbs_distribution"),
        "utility.curve_self_s": curve_self,
        "utility.logsumexp_s": total("utility.logsumexp"),
        "lab.cells": calls("lab.estimate_cell"),
        "lab.cell_self_s": self_s("lab.estimate_cell"),
        "lab.label_space_builds": calls("lab.make_label_space"),
        "lab.label_space_builds_per_length": builds_in_sweeps / lengths if lengths else 0.0,
        "lab.label_space_s": total("lab.make_label_space"),
        "lab.smooth_s": total("lab.laplace_smooth"),
        "lab.divergence_s": total(*DIVERGENCES),
        "lab.csv_s": total("lab.SweepResult.to_csv"),
        "modelfiles.load_s": total("modelfiles.load_model_spec", "modelfiles.load_dataset"),
        "modelfiles.digest_s": total("modelfiles.file_digest"),
        "modelfiles.manifest_s": total("modelfiles.RunManifest.write_next_to"),
        "cli.self_s": self_s("cli.main"),
        "cli.output_bytes": info("output_bytes", "cli.main"),
        "svgplot.write_s": total("svgplot.write_sweep_svg"),
    }


def op_profile(spans: list[Span]) -> dict[str, dict[str, list]]:
    """[calls, self seconds] of each traced function, by the CLI op that ran it."""
    own = self_times(spans)
    out: dict[str, dict[str, list]] = {}
    for i, s in enumerate(spans):
        root = i
        while spans[root].parent is not None:
            root = spans[root].parent
        entry = out.setdefault(spans[root].info["op"], {}).setdefault(s.name, [0, 0.0])
        entry[0] += s.calls
        entry[1] += own[i]
    return out
