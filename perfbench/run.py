"""Seeded, closed-loop benchmark of the dpgenlab command line.

One caller runs a workload's cycle of CLI calls back to back, in-process,
through ``dpgenlab.cli.main`` with the argv a user would type, on input files
generated from the workload seed. Run it from the repository root:

    python3 perfbench/run.py --workload exact-coupled --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

With ``--trace 0`` the final line holds the end-to-end metrics, measured with
tracing off; with ``--trace 1`` it holds the per-layer metrics of a traced
run. The line before it is a report: the environment, every op's median and
tail time with its sample count, and any failed checks. See README.md.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: the jobs-2 sweep then uses at most
# 2 processes x 1 BLAS thread, within the 2 cores this was sized for.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 0
SETUP_PROBES = 11
# glibc raises its mmap threshold to the size of the largest freed mmapped
# block, up to 32 MiB, so an op's time depends on what ran before it in the
# process (optimize at L=5: about 1.0 s first, 0.37 s after analyze). Freeing
# one block just under the ceiling at set-up makes every op start warm.
ALLOCATOR_WARMUP_BYTES = 31 * 2**20
MIN_CYCLES = 3
# The host's speed drifts by tens of percent over minutes, and pure numpy or
# interpreter loops drift with it. So the gated times are measured against
# reference_loop(), run between every two ops and around every set-up probe:
# a time t next to reference times r is reported as t / mean(r) * this
# constant, the loop's median on the 2-core host the benchmark was sized on.
# The figures then read as seconds on that host at its usual speed.
REFERENCE_NOMINAL_S = 0.032


def reference_loop() -> float:
    """Wall time of a fixed mix of interpreter and numpy work that uses no dpgenlab code."""
    import numpy

    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    values = numpy.arange(1_000_000, dtype=float) / 1e6
    for _ in range(3):
        numpy.log(numpy.exp(values).sum())
        values = values * 1.0001
    return time.perf_counter() - start


def rescaled(seconds: float, references: list[float]) -> float:
    """``seconds`` at the host speed where reference_loop() takes REFERENCE_NOMINAL_S."""
    return seconds / statistics.fmean(references) * REFERENCE_NOMINAL_S


def tail(samples: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "samples": n}
    if n > 10:
        pct = 100 * (n - 10) // n
        rank = max(1, -(-pct * n // 100))  # nearest rank
        out[f"p{pct}"] = ordered[rank - 1]
    return out


def probe_setup(workload: str, seed: int, directory: Path) -> float:
    """Set-up time measured in a fresh interpreter."""
    code = ("import sys, workloads; print(workloads.timed_setup("
            "sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]))")
    done = subprocess.run(
        [sys.executable, "-c", code, workload, str(seed), str(directory), str(SRC)],
        cwd=HERE, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "max_worker_processes": 2,
        "git_commit": git_commit(),
        "workload_seed": seed,
    }


class Runner:
    """Runs one workload's cycle of CLI calls and checks every output."""

    def __init__(self, main, ops: list[workloads.Op], checker: checks.Checker) -> None:
        self.main = main
        self.ops = ops
        self.checker = checker
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def call(self, op: workloads.Op, tracer: tracing.Tracer | None = None) -> float:
        for path in op.outputs:
            Path(path).unlink(missing_ok=True)
        span = None
        start = time.perf_counter()
        try:
            if tracer is None:
                code = self.main(list(op.argv))
            else:
                with tracer.span("cli.main", op=op.name) as span:
                    code = self.main(list(op.argv))
        except Exception as exc:  # an uncaught error is a failed op, not a crashed run
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if span is not None:
            span.info["output_bytes"] = sum(
                os.path.getsize(p) for out in op.outputs
                for p in (out, out + ".manifest.json") if os.path.exists(p)
            )
        self.attempted += 1
        if code != 0:
            problems = [f"{op.name}: exit {code}"]
        else:
            problems = self.checker.check(op.name, [Path(p) for p in op.outputs])
        self.failed += bool(problems)
        self.failures += problems
        return elapsed

    def cycle(self, tracer: tracing.Tracer | None = None) -> list[float]:
        """Wall time of each op; the output checks between ops are not timed."""
        return [self.call(op, tracer) for op in self.ops]

    def memory_cycle(self) -> dict[str, float]:
        """tracemalloc peak of each op, in MB."""
        peaks: dict[str, float] = {}
        tracemalloc.start()
        try:
            for op in self.ops:
                tracemalloc.reset_peak()
                self.call(op)
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                peaks[op.name] = max(peaks.get(op.name, 0.0), peak)
        finally:
            tracemalloc.stop()
        return peaks


def untraced(runner: Runner, seconds: float, probe) -> tuple[dict, dict]:
    """Cycles for ``seconds`` of cycle time, with reference_loop() between
    every two ops. The set-up probes run between cycles, spread over the run,
    each between two reference loops."""
    wall: list[float] = []
    cycles: list[float] = []
    setup: list[float] = []
    setup_wall: list[float] = []
    by_op: dict[str, list[float]] = {}
    by_op_wall: dict[str, list[float]] = {}

    def probe_once() -> None:
        before = reference_loop()
        took = probe(len(setup))
        setup_wall.append(took)
        setup.append(rescaled(took, [before, reference_loop()]))

    while len(cycles) < MIN_CYCLES or sum(wall) < seconds:
        refs, times = [reference_loop()], []
        for op in runner.ops:
            times.append(runner.call(op))
            refs.append(reference_loop())
        wall.append(sum(times))
        cycles.append(rescaled(sum(times), refs))
        for i, (op, t) in enumerate(zip(runner.ops, times)):
            by_op_wall.setdefault(op.name, []).append(t)
            by_op.setdefault(op.name, []).append(rescaled(t, refs[i:i + 2]))
        if len(setup) < SETUP_PROBES and sum(wall) >= len(setup) * seconds / SETUP_PROBES:
            probe_once()
    while len(setup) < SETUP_PROBES:
        probe_once()
    metrics = {
        "setup_s": statistics.median(setup),
        "cycle_s": statistics.median(cycles),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    report = {
        "setup_s": tail(setup),
        "cycle_s": tail(cycles),
        "ops": {f"{name}_s": tail(t) for name, t in by_op.items()},
        # The same times as read on the wall clock, before rescaling.
        "wall": {
            "setup_s": tail(setup_wall),
            "cycle_s": tail(wall),
            "ops": {f"{name}_s": tail(t) for name, t in by_op_wall.items()},
        },
    }
    return metrics, report


def traced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    peaks = runner.memory_cycle()
    plain: list[float] = []
    timed: list[float] = []
    per_cycle: list[dict] = []
    profiles: list[dict] = []
    deadline = time.perf_counter() + seconds
    while len(timed) < MIN_CYCLES or time.perf_counter() < deadline:
        plain.append(sum(runner.cycle()))
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            timed.append(sum(runner.cycle(tracer)))
        per_cycle.append(tracing.layer_metrics(tracer.spans))
        profiles.append(tracing.op_profile(tracer.spans))
    metrics = {}
    for name in per_cycle[0]:
        # Times vary from cycle to cycle; counts and ratios must not.
        values = [m[name] for m in per_cycle]
        metrics[name] = statistics.median(values) if name.endswith("_s") else values[0]
    metrics["trace.peak_traced_mb"] = max(peaks.values())
    metrics["trace.overhead_s"] = statistics.median(timed) - statistics.median(plain)

    def counts(cycle: int) -> tuple:
        layers = {k: v for k, v in per_cycle[cycle].items() if not k.endswith("_s")}
        calls = {op: {f: c for f, (c, _) in p.items()} for op, p in profiles[cycle].items()}
        return layers, calls

    report = {
        "traced_cycles": len(timed),
        "counts_repeat": all(counts(i) == counts(0) for i in range(len(timed))),
        # From the last traced cycle: [calls, self seconds] per function and op.
        "profile_per_op": profiles[-1],
        "peak_traced_mb_per_op": peaks,
    }
    return metrics, report


def run(workload: str, seed: int, seconds: float, trace: bool, directory: Path) -> tuple[dict, dict]:
    sys.path.insert(0, str(SRC))
    import dpgenlab.cli

    if not Path(dpgenlab.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"dpgenlab was imported from {dpgenlab.cli.__file__}, not {SRC}")
    import numpy

    numpy.empty(ALLOCATOR_WARMUP_BYTES // 8)  # allocated and freed at once
    inputs, outputs = directory / "inputs", directory / "outputs"
    workloads.write_inputs(workload, seed, inputs)
    outputs.mkdir()
    reference = json.loads(checks.REFERENCE.read_text()) if seed == DEFAULT_SEED else None
    checker = checks.Checker(workload, workloads.SWEEP_ROWS, workloads.ANALYZE_L, reference)
    runner = Runner(dpgenlab.cli.main, workloads.cycle(workload, inputs, outputs), checker)
    runner.cycle()  # warm-up: lazy imports and first-touch allocations, checked but not timed
    if trace:
        metrics, report = traced(runner, seconds)
    else:
        metrics, report = untraced(
            runner, seconds, lambda i: probe_setup(workload, seed, directory / f"probe{i}"))
    report.update({
        "workload": workload,
        "trace": int(trace),
        "environment": environment(seed),
        "error_rate": runner.failed / runner.attempted,
        "failures": runner.failures[:20],
    })
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": value, "unit": _unit(name)}
            for name, value in sorted(metrics.items())
        },
    }
    return report, result


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_per_length", "_per_arm_context")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Every workload in a fresh process, then one table of their metrics."""
    rows, ok = [], True
    for workload in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=900,
        )
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        lines = done.stdout.strip().splitlines()
        report, result = json.loads(lines[-2]), json.loads(lines[-1])
        ok = ok and result["correct"]
        rows.append((workload, "error_rate", report["error_rate"], "ratio"))
        rows += [(workload, k, v["value"], v["unit"]) for k, v in result["metrics"].items()]
        for name, stats in report.get("ops", {}).items():
            rows += [(workload, f"{name} {key}", value, "s" if key != "samples" else "count")
                     for key, value in stats.items()]
    for workload, name, value, unit in rows:
        print(f"{workload:14} {name:40} {value:>14.6g} {unit}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dpgenlab" / "__init__.py").is_file():
        print(f"perfbench: no dpgenlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    WORK.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        report, result = run(args.workload, args.seed, args.seconds, bool(args.trace), directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
