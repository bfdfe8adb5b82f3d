import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracing

REFERENCE = json.loads(checks.REFERENCE.read_text())
ANALYZE = REFERENCE["exact-coupled"]["analyze"][0]["values"]
OPTIMIZE_CURVE = REFERENCE["exact-coupled"]["optimize_curve"]


def _curve_text(rows):
    return "\n".join([checks.CURVE_HEADER] + [",".join(repr(v) for v in r) for r in rows]) + "\n"


def test_reference_outputs_pass_their_own_checks():
    assert checks.check_analyze(ANALYZE, 6) == []
    curve, payload = (entry["values"] for entry in OPTIMIZE_CURVE)
    assert checks.check_optimize(payload, _curve_text(curve)) == []


def test_perturbed_analyze_reports_are_rejected():
    over = copy.deepcopy(ANALYZE)
    over["per_step_exact_epsilons"][2] = over["token_epsilon_bound"] * 1.01
    assert checks.check_analyze(over, 6)
    leaky = copy.deepcopy(ANALYZE)
    leaky["hockey_stick_delta_at"][-1][1] = 1e-9
    assert checks.check_analyze(leaky, 6)
    short = copy.deepcopy(ANALYZE)
    short["per_step_exact_epsilons"].pop()
    assert checks.check_analyze(short, 6)


def test_perturbed_optimize_outputs_are_rejected():
    curve, payload = (copy.deepcopy(entry["values"]) for entry in OPTIMIZE_CURVE)
    beaten = copy.deepcopy(curve)
    beaten[50][2] = payload["objective"] * (1 + 1e-6)
    assert checks.check_optimize(payload, _curve_text(beaten))
    assert checks.check_optimize(payload, _curve_text(curve[:-1]))
    payload["diagnostics"]["candidates"].append({"objective": payload["objective"] * (1 + 1e-12)})
    assert checks.check_optimize(payload)


def test_reference_comparison_is_relative_above_one_and_absolute_below():
    ref = {"a": [2.0, 1e-17], "b": "t1"}
    assert checks.close(ref, {"a": [2.0 * (1 + 5e-10), 3e-17], "b": "t1"}) == []
    assert checks.close(ref, {"a": [2.0 * (1 + 5e-9), 1e-17], "b": "t1"})
    assert checks.close(ref, {"a": [2.0, 5e-9], "b": "t1"})
    assert checks.close(ref, {"a": [2.0, 1e-17], "b": "t2"})
    assert checks.close(ref, {"a": [2.0], "b": "t1"})


def _write(directory: Path, name: str, text: str) -> Path:
    path = directory / name
    path.write_text(text)
    return path


def test_checker_compares_with_the_reference_and_earlier_calls(tmp_path):
    good = _write(tmp_path, "analyze.json", json.dumps(ANALYZE))
    checker = checks.Checker("exact-coupled", 0, 6, REFERENCE)
    assert checker.check("analyze", [good]) == []
    assert checker.check("analyze", [good]) == []

    nudged = copy.deepcopy(ANALYZE)
    nudged["exact_message_epsilon"] *= 1 + 1e-6
    bad = _write(tmp_path, "nudged.json", json.dumps(nudged))
    assert checks.Checker("exact-coupled", 0, 6, REFERENCE).check("analyze", [bad])
    assert any("differ from its first call" in p for p in checker.check("analyze", [bad]))


def test_checker_requires_sampled_outputs_byte_for_byte(tmp_path):
    rows = 3
    csv = "header\n" + "".join(f"{i},x\n" for i in range(rows))
    sweep = _write(tmp_path, "sweep.csv", csv)
    svg = _write(tmp_path, "plot.svg", "<svg/>")
    checker = checks.Checker("montecarlo", rows, 6)
    assert checker.check("sweep", [sweep]) == []
    assert checker.check("sweep_jobs2", [sweep, svg]) == []
    changed = _write(tmp_path, "jobs2.csv", csv.replace("2,x", "2,y"))
    assert any("jobs-2" in p for p in checker.check("sweep_jobs2", [changed, svg]))
    assert checks.Checker("montecarlo", rows + 1, 6).check("sweep", [sweep])
    assert checks.Checker("montecarlo", rows, 6, REFERENCE).check("sweep", [sweep])


def test_tail_reports_the_highest_percentile_with_ten_samples_above():
    stats = run.tail([float(i) for i in range(30)])
    assert stats["median"] == 14.5 and stats["samples"] == 30
    (key, value), = [(k, v) for k, v in stats.items() if k.startswith("p")]
    assert key == "p66" and sum(x > value for x in range(30)) == 10
    assert set(run.tail([1.0] * 10)) == {"median", "samples"}


def test_rescaled_divides_by_the_mean_reference_time():
    nominal = run.REFERENCE_NOMINAL_S
    assert run.rescaled(2.0, [nominal, nominal]) == pytest.approx(2.0)
    # A host running at half speed doubles both the op and the reference loop.
    assert run.rescaled(4.0, [2 * nominal, 1.5 * nominal, 2.5 * nominal]) == pytest.approx(2.0)
    assert run.reference_loop() > 0


def test_benchmark_refuses_to_run_without_the_program_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in Path(run.HERE).glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "montecarlo", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_per_layer_metrics_and_units_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    produced = set(tracing.layer_metrics([])) | {"trace.peak_traced_mb", "trace.overhead_s"}
    assert set(declared) == produced
    assert {name: run._unit(name) for name in produced} == declared


@pytest.mark.parametrize("seed", [0, 5])
def test_montecarlo_runs_clean_on_the_seed_code(seed, tmp_path):
    report, result = run.run("montecarlo", seed, 0, False, tmp_path)
    assert report["failures"] == []
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
