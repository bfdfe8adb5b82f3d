"""Checks on the files each benchmarked CLI call writes.

Every failed check counts against the run's ``failed`` total. Besides the
per-op invariants, a ``Checker`` requires every repeat of an op to write the
same bytes as its first call, the jobs-2 sweep to match the jobs-1 sweep byte
for byte, and, on the default seed, every output to match the reference
recorded from the program at the start of the benchmark's history.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

BOUND_SLACK = 1e-9  # the slack the program itself allows an exact epsilon over its bound
DELTA_AT_EXACT_TOL = 1e-12
REFERENCE_TOL = 1e-9  # relative above magnitude 1, absolute below it
CURVE_HEADER = "temperature,expected_utility,objective,derivative"
CURVE_ROWS = 101

REFERENCE = Path(__file__).resolve().parent / "reference_seed0.json"
# Outputs compared by value (exact arithmetic that a rewrite may reorder)
# rather than byte for byte (sampled outputs, which must not change at all).
BY_VALUE = ("exact-coupled", "exact-free")


def check_analyze(report: dict, length: int) -> list[str]:
    out = []
    exact, bound = report["exact_message_epsilon"], report["message_epsilon_bound"]
    if not exact <= bound + BOUND_SLACK:
        out.append(f"analyze: exact message epsilon {exact!r} exceeds its bound {bound!r}")
    steps = report["per_step_exact_epsilons"]
    if len(steps) != length:
        out.append(f"analyze: {len(steps)} per-step epsilons for L={length}")
    token_bound = report["token_epsilon_bound"]
    for k, eps in enumerate(steps, start=1):
        if not eps <= token_bound + BOUND_SLACK:
            out.append(f"analyze: step {k} epsilon {eps!r} exceeds the token bound {token_bound!r}")
    at_exact = [d for e, d in report["hockey_stick_delta_at"] if e == exact]
    if not at_exact:
        out.append("analyze: no hockey-stick delta at the exact epsilon")
    elif not abs(at_exact[0]) <= DELTA_AT_EXACT_TOL:
        out.append(f"analyze: delta at the exact epsilon is {at_exact[0]!r}, not 0")
    return out


def parse_curve(text: str) -> list[list[float]]:
    lines = text.splitlines()
    if not lines or lines[0] != CURVE_HEADER:
        raise ValueError("curve CSV has an unexpected header")
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


def check_optimize(payload: dict, curve: str | None = None) -> list[str]:
    out = []
    chosen = payload["diagnostics"]["chosen"]["objective"]
    if payload["objective"] != chosen:
        out.append("optimize: reported objective is not the chosen candidate's")
    best = max(c["objective"] for c in payload["diagnostics"]["candidates"])
    if chosen < best:
        out.append(f"optimize: chosen objective {chosen!r} is below candidate {best!r}")
    if curve is not None:
        try:
            rows = parse_curve(curve)
        except ValueError as exc:
            return out + [f"optimize --curve: {exc}"]
        if len(rows) != CURVE_ROWS:
            out.append(f"optimize --curve: {len(rows)} rows, expected {CURVE_ROWS}")
        top = max(row[2] for row in rows)
        if chosen < top - REFERENCE_TOL * max(1.0, abs(top)):
            out.append(f"optimize: chosen objective {chosen!r} is below the curve's {top!r}")
    return out


def check_sweep(csv: str, expected_rows: int) -> list[str]:
    rows = len(csv.splitlines()) - 1
    if rows != expected_rows:
        return [f"sweep: {rows} CSV rows, expected {expected_rows}"]
    return []


def close(ref, got, where: str = "") -> list[str]:
    """Differences between ``got`` and ``ref`` beyond REFERENCE_TOL."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if ref.keys() != got.keys():
            return [f"{where}: keys {sorted(got)} differ from the reference {sorted(ref)}"]
        return [d for key in ref for d in close(ref[key], got[key], f"{where}.{key}")]
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{where}: {len(got)} entries, reference has {len(ref)}"]
        return [d for i, (r, g) in enumerate(zip(ref, got)) for d in close(r, g, f"{where}[{i}]")]
    numbers = (int, float)
    if (isinstance(ref, numbers) and isinstance(got, numbers)
            and not isinstance(ref, bool) and not isinstance(got, bool)):
        if math.isfinite(ref) and abs(got - ref) <= REFERENCE_TOL * max(1.0, abs(ref), abs(got)):
            return []
    elif ref == got:
        return []
    return [f"{where}: {got!r} differs from the reference {ref!r}"]


def reference_entry(workload: str, name: str, data: bytes):
    """What the reference keeps of one output file."""
    if workload not in BY_VALUE:
        return {"sha256": hashlib.sha256(data).hexdigest()}
    text = data.decode()
    return {"values": parse_curve(text) if name.endswith(".csv") else json.loads(text)}


class Checker:
    """Checks every output of one run of one workload."""

    def __init__(self, workload: str, expected_sweep_rows: int, analyze_length: int,
                 reference: dict | None = None) -> None:
        self.workload = workload
        self.sweep_rows = expected_sweep_rows
        self.analyze_length = analyze_length
        self.reference = reference
        self.first: dict[str, list[bytes]] = {}

    def check(self, op: str, outputs: list[Path]) -> list[str]:
        data = [p.read_bytes() for p in outputs]
        problems = self._invariants(op, [d.decode() for d in data])
        if op == "sweep_jobs2" and "sweep" in self.first and data[0] != self.first["sweep"][0]:
            problems.append("sweep: jobs-2 CSV differs from the jobs-1 CSV")
        if op in self.first:
            if data != self.first[op]:
                problems.append(f"{op}: output bytes differ from its first call")
            return problems
        self.first[op] = data
        if self.reference is not None:
            expected = self.reference[self.workload][op]
            for path, blob, ref in zip(outputs, data, expected):
                got = reference_entry(self.workload, path.name, blob)
                problems += close(ref, got, f"{op}:{path.name}")
        return problems

    def _invariants(self, op: str, texts: list[str]) -> list[str]:
        try:
            if op == "analyze":
                return check_analyze(json.loads(texts[0]), self.analyze_length)
            if op == "optimize":
                return check_optimize(json.loads(texts[0]))
            if op == "optimize_curve":
                return check_optimize(json.loads(texts[1]), texts[0])
            if op in ("sweep", "sweep_jobs2"):
                return check_sweep(texts[0], self.sweep_rows)
            if op == "estimate":
                metrics = json.loads(texts[0])["metrics"]
                bad = [k for k, v in metrics.items() if not math.isfinite(v)]
                return [f"estimate: non-finite {', '.join(bad)}"] if bad else []
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            return [f"{op}: malformed output: {exc!r}"]
        return [f"{op}: no checks defined"]
