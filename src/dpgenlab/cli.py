"""Command-line front end for the workbench.

Subcommands:
  analyze   exact and worst-case privacy report for a neighbor pair
  bound     closed-form epsilon bounds and the temperature floor
  optimize  temperature maximizing the regularized utility objective
  estimate  one-shot empirical metrics for a single (T, L) cell
  sweep     seeded Monte Carlo metric curves over a temperature grid
  selftest  run the built-in oracle suite

Reports are JSON (CSV for sweeps, SVG for plots). Runs that write files get
a ``<output>.manifest.json`` sidecar holding every resolved parameter and
input digest; stdout reports embed the same manifest. Exit codes: 0 success,
2 usage error, 3 input error (including an output path that cannot be
written, such as one in a missing directory), 4 numeric or solver error, and
any other unexpected failure, 5 enumeration cap exceeded. Every error prints
a one-line JSON record to stderr, never a traceback.

The ``DPGENLAB_ENUM_CAP`` environment variable overrides the default
enumeration cap, which bounds what each exact path builds: V^L messages for
message and score tables, the logits of the walks' lattice rows, and
V^ceil(L/2) half-table atoms for a coupling-free model's hockey-stick delta.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import Any, Sequence

from .errors import ArgumentError, EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, WorkbenchError
from .generation import (
    DEFAULT_ENUM_CAP,
    Dataset,
    GenerationConfig,
    Record,
)
from .lab import (
    DEFAULT_ALPHA,
    DEFAULT_LENGTHS,
    DEFAULT_REPEATS,
    DEFAULT_SAMPLES,
    DEFAULT_TEMPERATURES,
    LABEL_KINDS,
    _cell_seeds,
    estimate_cell,
    run_sweep,
)
from .modelfiles import RunManifest, file_digest, json_text, load_dataset, load_model_spec
from .privacy import (
    NeighborPair,
    analyze_pair,
    message_epsilon_bound,
    temperature_floor_for_budget,
    token_epsilon_bound,
)
from .selftest import run_selftest
from .svgplot import write_sweep_svg
from .utility import OptimizationProblem, UtilitySpec, objective_curve, optimal_temperature

CURVE_HEADER = "temperature,expected_utility,objective,derivative"
CURVE_POINTS = 101
# Most temperatures a --grid may hold; a sweep runs one cell per temperature,
# length and repeat.
MAX_GRID_POINTS = 10_000


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so errors share one format."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise ArgumentError(message)


# ---------------------------------------------------------------------------
# flag parsing helpers


def _parse_grid(text: str) -> tuple[float, ...]:
    """Inclusive ``start:stop:step`` temperature grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ArgumentError(f"--grid must look like start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ArgumentError(f"--grid has a non-numeric part: {text!r}") from None
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ArgumentError(f"--grid values must be finite, got {text!r}")
    if step <= 0:
        raise ArgumentError(f"--grid step must be > 0, got {step}")
    if stop < start:
        raise ArgumentError(f"--grid stop {stop} is below start {start}")
    span = (stop - start) / step
    too_many = f"--grid has more than {MAX_GRID_POINTS} points: {text!r}"
    if span >= MAX_GRID_POINTS:
        raise ArgumentError(too_many)
    count = int(math.floor(span + 1e-9))
    if abs(start + (count + 1) * step - stop) < step * 1e-6:
        count += 1
    if count >= MAX_GRID_POINTS:
        raise ArgumentError(too_many)
    return tuple(round(start + i * step, 10) for i in range(count + 1))


def _parse_lengths(text: str) -> tuple[int, ...]:
    try:
        lengths = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ArgumentError(f"--L must be a comma-separated list of integers, got {text!r}") from None
    if not lengths or any(length < 1 for length in lengths):
        raise ArgumentError(f"--L entries must be >= 1, got {text!r}")
    return lengths


def _parse_bracket(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ArgumentError(f"--bracket must look like low:high, got {text!r}")
    try:
        lo, hi = (float(p) for p in parts)
    except ValueError:
        raise ArgumentError(f"--bracket has a non-numeric part: {text!r}") from None
    return lo, hi


def _parse_record(text: str) -> Record:
    parts = text.split(",")
    if len(parts) > 3 or not parts[0]:
        raise ArgumentError(
            f"--neighbor-record must be label[,weight[,tag]], got {text!r}"
        )
    weight = 1.0
    if len(parts) >= 2:
        try:
            weight = float(parts[1])
        except ValueError:
            raise ArgumentError(f"--neighbor-record weight {parts[1]!r} is not numeric") from None
    tag = parts[2] if len(parts) == 3 else ""
    return Record(parts[0], weight, tag)


def _enum_cap() -> int:
    raw = os.environ.get("DPGENLAB_ENUM_CAP")
    if raw is None:
        return DEFAULT_ENUM_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ArgumentError(f"DPGENLAB_ENUM_CAP must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ArgumentError(f"DPGENLAB_ENUM_CAP must be >= 1, got {cap}")
    return cap


# ---------------------------------------------------------------------------
# shared plumbing


def _load_pair(args: argparse.Namespace) -> tuple[Any, NeighborPair, dict[str, str]]:
    model = load_model_spec(args.model)
    dataset = load_dataset(args.data)
    record = _parse_record(args.neighbor_record)
    pair = NeighborPair(
        left=dataset,
        right=dataset.replace(args.neighbor_index, record),
        differing_index=args.neighbor_index,
    )
    digests = {args.model: file_digest(args.model), args.data: file_digest(args.data)}
    return model, pair, digests


def _neighbor_jsonable(pair: NeighborPair) -> dict[str, Any]:
    record = pair.new_record
    return {
        "index": pair.differing_index,
        "label": record.label,
        "weight": record.weight,
        "tag": record.tag,
    }


def _emit_json(payload: dict, manifest: RunManifest, out: str | None) -> None:
    if out:
        Path(out).write_text(json_text(payload))
        manifest.write_next_to(out)
    else:
        print(json_text({**payload, "manifest": manifest.to_jsonable()}), end="")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_analyze(args: argparse.Namespace) -> int:
    model, pair, digests = _load_pair(args)
    config = GenerationConfig(args.T, args.L, _enum_cap())
    report = analyze_pair(model, pair, config)
    manifest = RunManifest(
        subcommand="analyze",
        parameters={
            "model": args.model,
            "data": args.data,
            "neighbor": _neighbor_jsonable(pair),
            "T": args.T,
            "L": args.L,
            "enum_cap": config.enum_cap,
        },
        root_seed=None,
        input_digests=digests,
    )
    _emit_json(report.to_jsonable(), manifest, args.out)
    return EXIT_OK


def _cmd_bound(args: argparse.Namespace) -> int:
    payload: dict[str, Any] = {
        "delta_logit": args.delta,
        "temperature": args.T,
        "length": args.L,
        "token_epsilon_bound": token_epsilon_bound(args.delta, args.T),
        "message_epsilon_bound": message_epsilon_bound(args.delta, args.T, args.L),
    }
    if args.epsilon is not None:
        payload["epsilon_budget"] = args.epsilon
        payload["temperature_floor"] = temperature_floor_for_budget(
            args.delta, args.L, args.epsilon
        )
    manifest = RunManifest(
        subcommand="bound",
        parameters={
            "delta": args.delta,
            "T": args.T,
            "L": args.L,
            "epsilon": args.epsilon,
        },
        root_seed=None,
    )
    _emit_json(payload, manifest, args.out)
    return EXIT_OK


def _cmd_optimize(args: argparse.Namespace) -> int:
    model = load_model_spec(args.model)
    digests = {args.model: file_digest(args.model)}
    if args.data:
        dataset = load_dataset(args.data)
        digests[args.data] = file_digest(args.data)
    else:
        dataset = Dataset(())
    utility = UtilitySpec.parse(args.utility)
    problem = OptimizationProblem(
        model=model,
        dataset=dataset,
        length=args.L,
        utility=utility,
        lam=args.lam,
        bracket=_parse_bracket(args.bracket),
        enum_cap=_enum_cap(),
    )
    t_star, diagnostics = optimal_temperature(problem)
    payload = {
        "optimal_temperature": t_star,
        "objective": diagnostics.chosen.objective,
        "length": problem.length,
        "lambda": problem.lam,
        "bracket": list(problem.bracket),
        "utility": utility.to_jsonable(),
        "diagnostics": diagnostics.to_jsonable(),
    }
    manifest = RunManifest(
        subcommand="optimize",
        parameters={
            "model": args.model,
            "data": args.data,
            "L": args.L,
            "lambda": args.lam,
            "bracket": list(problem.bracket),
            "utility": utility.to_jsonable(),
            "curve": args.curve,
            "enum_cap": problem.enum_cap,
        },
        root_seed=None,
        input_digests=digests,
    )
    if args.curve:
        lines = [CURVE_HEADER] + [
            ",".join(repr(v) for v in row) for row in objective_curve(problem, CURVE_POINTS)
        ]
        Path(args.curve).write_text("\n".join(lines) + "\n")
        manifest.write_next_to(args.curve)
    _emit_json(payload, manifest, args.out)
    return EXIT_OK


def _cmd_estimate(args: argparse.Namespace) -> int:
    model, pair, digests = _load_pair(args)
    utility = UtilitySpec.parse(args.utility)
    left_rng, right_rng = _cell_seeds(args.seed, 0, 0, 0, args.shared_seed)
    cell = estimate_cell(
        model,
        pair,
        args.T,
        args.L,
        args.samples,
        args.alpha,
        args.labels,
        utility,
        left_rng,
        right_rng,
    )
    payload = {
        "temperature": args.T,
        "length": args.L,
        "samples": args.samples,
        "alpha": args.alpha,
        "labels": args.labels,
        "metrics": cell.to_jsonable(),
    }
    manifest = RunManifest(
        subcommand="estimate",
        parameters={
            "model": args.model,
            "data": args.data,
            "neighbor": _neighbor_jsonable(pair),
            "T": args.T,
            "L": args.L,
            "samples": args.samples,
            "alpha": args.alpha,
            "labels": args.labels,
            "utility": utility.to_jsonable(),
            "shared_seed": args.shared_seed,
        },
        root_seed=args.seed,
        input_digests=digests,
    )
    _emit_json(payload, manifest, args.out)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    model, pair, digests = _load_pair(args)
    utility = UtilitySpec.parse(args.utility)
    temperatures = _parse_grid(args.grid) if args.grid else DEFAULT_TEMPERATURES
    lengths = _parse_lengths(args.L) if args.L else DEFAULT_LENGTHS
    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    result = run_sweep(
        model,
        pair,
        lengths=lengths,
        temperatures=temperatures,
        samples=args.samples,
        repeats=args.repeats,
        alpha=args.alpha,
        label_kind=args.labels,
        utility=utility,
        root_seed=args.seed,
        shared_seed=args.shared_seed,
        jobs=jobs,
    )
    manifest = RunManifest(
        subcommand="sweep",
        parameters={
            "model": args.model,
            "data": args.data,
            "neighbor": _neighbor_jsonable(pair),
            "temperatures": list(temperatures),
            "lengths": list(lengths),
            "samples": args.samples,
            "repeats": args.repeats,
            "alpha": args.alpha,
            "labels": args.labels,
            "utility": utility.to_jsonable(),
            "shared_seed": args.shared_seed,
            "out": args.out,
            "svg": args.svg,
        },
        root_seed=args.seed,
        input_digests=digests,
    )
    Path(args.out).write_text(result.to_csv())
    manifest.write_next_to(args.out)
    if args.svg:
        write_sweep_svg(result, args.svg)
        manifest.write_next_to(args.svg)
    return EXIT_OK


def _cmd_selftest(args: argparse.Namespace) -> int:
    results = run_selftest()
    failed = 0
    for result in results:
        if result.passed:
            print(f"PASS {result.name}")
        else:
            failed += 1
            print(f"FAIL {result.name}: {result.detail}")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# parser wiring


def _add_pair_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--model", required=True, help="model spec JSON file")
    sub.add_argument("--data", required=True, help="dataset JSON file")
    sub.add_argument(
        "--neighbor-index", type=int, required=True,
        help="index of the record the neighboring dataset replaces",
    )
    sub.add_argument(
        "--neighbor-record", required=True,
        help="replacement record as label[,weight[,tag]]",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dpgenlab", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser("analyze", help="exact privacy report for a neighbor pair")
    _add_pair_flags(analyze)
    analyze.add_argument("--T", type=float, required=True, help="softmax temperature")
    analyze.add_argument("--L", type=int, required=True, help="message length")
    analyze.add_argument("--out", help="report path (default: stdout)")
    analyze.set_defaults(handler=_cmd_analyze)

    bound = commands.add_parser("bound", help="closed-form epsilon bounds")
    bound.add_argument("--delta", type=float, required=True, help="logit sensitivity")
    bound.add_argument("--T", type=float, required=True, help="softmax temperature")
    bound.add_argument("--L", type=int, required=True, help="message length")
    bound.add_argument(
        "--epsilon", type=float,
        help="privacy budget; adds the minimal temperature attaining it",
    )
    bound.add_argument("--out", help="report path (default: stdout)")
    bound.set_defaults(handler=_cmd_bound)

    optimize = commands.add_parser("optimize", help="best temperature for the objective")
    optimize.add_argument("--model", required=True, help="model spec JSON file")
    optimize.add_argument("--data", help="dataset JSON file (default: empty dataset)")
    optimize.add_argument("--L", type=int, required=True, help="message length")
    optimize.add_argument(
        "--lambda", dest="lam", type=float, required=True,
        help="temperature reward weight in E(T) + (lambda/L) T",
    )
    optimize.add_argument(
        "--utility", default="exp_logit_plus_length",
        help="utility as kind[:key=value,...] (default: exp_logit_plus_length)",
    )
    optimize.add_argument("--bracket", default="0.1:2.0", help="search bracket low:high")
    optimize.add_argument("--curve", help="also write an objective curve CSV here")
    optimize.add_argument("--out", help="report path (default: stdout)")
    optimize.set_defaults(handler=_cmd_optimize)

    estimate = commands.add_parser("estimate", help="empirical metrics for one (T, L) cell")
    _add_pair_flags(estimate)
    estimate.add_argument("--T", type=float, required=True, help="softmax temperature")
    estimate.add_argument("--L", type=int, required=True, help="message length")
    estimate.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    estimate.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    estimate.add_argument("--labels", choices=LABEL_KINDS, default="identity")
    estimate.add_argument("--utility", default="exp_logit_plus_length")
    estimate.add_argument("--seed", type=int, default=0)
    estimate.add_argument(
        "--shared-seed", action="store_true",
        help="drive both arms with the same stream",
    )
    estimate.add_argument("--out", help="report path (default: stdout)")
    estimate.set_defaults(handler=_cmd_estimate)

    sweep = commands.add_parser("sweep", help="metric curves over a temperature grid")
    _add_pair_flags(sweep)
    sweep.add_argument(
        "--grid", help="temperature grid start:stop:step, inclusive (default: 0.1:2.0:0.1)"
    )
    sweep.add_argument("--L", help="comma-separated lengths (default: 2,5,10)")
    sweep.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    sweep.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    sweep.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    sweep.add_argument("--labels", choices=LABEL_KINDS, default="identity")
    sweep.add_argument("--utility", default="exp_logit_plus_length")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--shared-seed", action="store_true")
    sweep.add_argument(
        "--jobs", type=int,
        help="worker processes, >= 1 and at most one per cell (default: cpu count)",
    )
    sweep.add_argument("--out", required=True, help="CSV output path")
    sweep.add_argument("--svg", help="also write metric plots here")
    sweep.set_defaults(handler=_cmd_sweep)

    selftest = commands.add_parser("selftest", help="run the built-in oracle suite")
    selftest.set_defaults(handler=_cmd_selftest)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except Exception as exc:  # noqa: BLE001 - every failure exits with one JSON line
        # OSError here comes from writing an output file; reading inputs
        # already maps it to InputError. Anything else is unexpected.
        if isinstance(exc, WorkbenchError):
            exit_code = exc.exit_code
        else:
            exit_code = EXIT_INPUT if isinstance(exc, OSError) else EXIT_NUMERIC
        record = {
            "error": type(exc).__name__,
            "message": str(exc),
            "exit_code": exit_code,
        }
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return exit_code


if __name__ == "__main__":
    sys.exit(main())
