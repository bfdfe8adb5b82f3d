"""Seeded workload inputs and the CLI operations each workload runs.

A workload is a set of generated JSON input files plus a fixed cycle of
``dpgenlab`` command lines. The files depend only on the workload seed; the
command lines depend only on where the files were written. This module
imports nothing from numpy or dpgenlab, so the set-up probe can time the
package import on its own.
"""

from __future__ import annotations

import json
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = {
    # Keeps the enumeration path that no closed form replaces: history coupling on.
    "exact-coupled": "analyze and optimize on a coupled V=10 model at the 10^6-state enumeration cap",
    # The only workload a coupling-free (factorised) exact engine would apply to.
    "exact-free": "the same exact ops on the same model with history_coupling null",
    # Sampler, label spaces, smoothing and divergences; no enumeration at all.
    "montecarlo": "two identity-label sweeps at jobs 1 and 2 plus repeated long-L estimate calls",
}

# Sizes are chosen against limits in the program: V**L = 10**6 is exactly
# DEFAULT_ENUM_CAP, and 4**6 = 4096 is exactly IDENTITY_LABEL_CAP.
EXACT_V, EXACT_CONTEXTS, ANALYZE_L, OPTIMIZE_L = 10, 2, 6, 5
MC_V, MC_LENGTHS, MC_GRID, MC_TEMPERATURES = 4, "2,4,6", "0.5:2.0:0.5", 4
MC_SAMPLES, MC_REPEATS = 200, 4
SWEEP_ROWS = MC_TEMPERATURES * len(MC_LENGTHS.split(",")) * 6  # six metrics per cell
ESTIMATE_L, ESTIMATE_SAMPLES, ESTIMATES_PER_CYCLE = 40, 40000, 3
CLI_SEED = "7"
RECORDS, TAGS = 8, 3


@dataclass(frozen=True)
class Op:
    """One CLI call: its metric name, its argv and the files it writes."""

    name: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]


def _row(rng: random.Random, n: int, scale: float) -> list[float]:
    return [round(rng.uniform(-scale, scale), 4) for _ in range(n)]


def _model_and_data(
    rng: random.Random, V: int, contexts: int, steps: int, influence: str
) -> tuple[dict, dict, str]:
    tokens = [f"t{i}" for i in range(V)]
    tags = [f"g{i}" for i in range(TAGS)]
    model = {
        "schema_version": 1,
        "vocabulary": tokens,
        "contexts": [
            # One row per step: the cost of sampling depends on how peaked
            # each step's distribution is, and many rows average that out.
            {"id": f"ctx{c}", "base_logits": [_row(rng, V, 2.0) for _ in range(steps)]}
            for c in range(contexts)
        ],
        "history_coupling": [_row(rng, V, 0.3) for _ in range(V)],
    }
    if influence == "tag_table":
        model["influence"] = {
            "kind": "tag_table", "beta": 1.0,
            "table": {tag: _row(rng, V, 1.0) for tag in tags},
        }
    else:
        model["influence"] = {"kind": "label_bonus", "beta": 0.5}
    records = [[rng.choice(tokens), 1.0, rng.choice(tags)] for _ in range(RECORDS)]
    index = rng.randrange(RECORDS)
    old_label, _, old_tag = records[index]
    # The replacement always differs from the old record in the field the
    # influence rule reads, so the neighbours are never identical.
    if influence == "tag_table":
        new = f"{rng.choice(tokens)},1.0,{rng.choice([t for t in tags if t != old_tag])}"
    else:
        new = f"{rng.choice([t for t in tokens if t != old_label])},1.0,{old_tag}"
    return model, {"schema_version": 1, "records": records}, f"{index}:{new}"


def input_files(workload: str, seed: int) -> dict[str, dict | str]:
    """Every input file of ``workload`` for ``seed``, by file name.

    ``neighbor.txt`` holds ``index:record`` for the --neighbor-* flags.
    """
    if workload in ("exact-coupled", "exact-free"):
        # Both exact workloads draw the same model; only the coupling differs.
        rng = random.Random(f"exact:{seed}")
        model, data, neighbor = _model_and_data(rng, EXACT_V, EXACT_CONTEXTS, ANALYZE_L, "tag_table")
        if workload == "exact-free":
            model["history_coupling"] = None
        return {"model.json": model, "data.json": data, "neighbor.txt": neighbor}
    if workload == "montecarlo":
        rng = random.Random(f"montecarlo:{seed}")
        model, data, neighbor = _model_and_data(rng, MC_V, 1, ESTIMATE_L, "label_bonus")
        free = dict(model, history_coupling=None)
        return {
            "model.json": model, "free.json": free,
            "data.json": data, "neighbor.txt": neighbor,
        }
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def write_inputs(workload: str, seed: int, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, content in input_files(workload, seed).items():
        text = content if isinstance(content, str) else json.dumps(content, indent=1)
        (directory / name).write_text(text + "\n")


def timed_setup(workload: str, seed: int, directory: str, src: str) -> float:
    """Seconds to import dpgenlab and write the workload's inputs; meant to
    run first thing in a fresh interpreter."""
    start = time.perf_counter()
    sys.path.insert(0, src)
    import dpgenlab  # noqa: F401

    write_inputs(workload, seed, Path(directory))
    return time.perf_counter() - start


def cycle(workload: str, inputs: Path, outputs: Path) -> list[Op]:
    """The operations of one closed-loop cycle, in the order they run."""
    index, record = (inputs / "neighbor.txt").read_text().strip().split(":", 1)
    model, data = str(inputs / "model.json"), str(inputs / "data.json")
    pair = ("--data", data, "--neighbor-index", index, "--neighbor-record", record)

    def op(name: str, argv: list[str], *files: str) -> Op:
        paths = tuple(str(outputs / f) for f in files)
        return Op(name, tuple(a.format(*paths) for a in argv), paths)

    if workload in ("exact-coupled", "exact-free"):
        optimize = ["optimize", "--model", model, "--data", data, "--L", str(OPTIMIZE_L),
                    "--lambda", "0.5", "--bracket", "0.1:2.0"]
        return [
            op("analyze", ["analyze", "--model", model, *pair, "--T", "0.8",
                           "--L", str(ANALYZE_L), "--out", "{0}"], "analyze.json"),
            op("optimize", [*optimize, "--out", "{0}"], "optimize.json"),
            op("optimize_curve", [*optimize, "--curve", "{0}", "--out", "{1}"],
               "curve.csv", "optimize_curve.json"),
        ]
    sweep = ["sweep", "--model", model, *pair, "--grid", MC_GRID, "--L", MC_LENGTHS,
             "--samples", str(MC_SAMPLES), "--repeats", str(MC_REPEATS),
             "--labels", "identity", "--seed", CLI_SEED]
    estimate = ["estimate", "--model", str(inputs / "free.json"), *pair, "--T", "1.0",
                "--L", str(ESTIMATE_L), "--samples", str(ESTIMATE_SAMPLES),
                "--labels", "first_token", "--seed", CLI_SEED, "--out", "{0}"]
    return [
        op("sweep", [*sweep, "--jobs", "1", "--out", "{0}"], "sweep.csv"),
        op("sweep_jobs2", [*sweep, "--jobs", "2", "--out", "{0}", "--svg", "{1}"],
           "sweep_jobs2.csv", "sweep_jobs2.svg"),
        *(op("estimate", estimate, f"estimate{i}.json") for i in range(ESTIMATES_PER_CYCLE)),
    ]
