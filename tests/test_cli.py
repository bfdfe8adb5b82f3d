import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dpgenlab import ArgumentError, UtilitySpec, cli
from dpgenlab.cli import main


@pytest.fixture()
def workdir(tmp_path):
    model = {
        "schema_version": 1,
        "vocabulary": ["a", "b"],
        "contexts": [{"id": "default", "base_logits": [[1.0, 0.0]]}],
        "influence": {"kind": "label_bonus", "beta": 1.0},
        "history_coupling": None,
    }
    data = {"schema_version": 1, "records": [["a", 1.0, "r0"], ["b", 1.0, "r1"]]}
    (tmp_path / "model.json").write_text(json.dumps(model))
    (tmp_path / "data.json").write_text(json.dumps(data))
    return tmp_path


def pair_args(workdir):
    return [
        "--model", str(workdir / "model.json"),
        "--data", str(workdir / "data.json"),
        "--neighbor-index", "0",
        "--neighbor-record", "b,1.0,r1",
    ]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def payload(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# bound


def test_bound_worked_example(capsys):
    doc = payload(capsys, ["bound", "--delta", "1", "--T", "1", "--L", "5"])
    assert doc["message_epsilon_bound"] == 10.0
    assert doc["token_epsilon_bound"] == 2.0
    assert "temperature_floor" not in doc


def test_bound_temperature_floor(capsys):
    doc = payload(
        capsys, ["bound", "--delta", "1", "--T", "1", "--L", "5", "--epsilon", "2"]
    )
    assert doc["temperature_floor"] == 5.0
    assert doc["epsilon_budget"] == 2.0


@pytest.mark.parametrize(
    "argv",
    [
        ["--delta", "1", "--T", "1e-320", "--L", "3"],
        ["--delta", "1e308", "--T", "1e-5", "--L", "3", "--epsilon", "1e-300"],
    ],
    ids=["token_bound", "temperature_floor"],
)
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_bound_that_overflows_exits_4_and_writes_nothing(capsys, tmp_path, argv, to_file):
    out = tmp_path / "bound.json"
    code, stdout, err = run(capsys, ["bound", *argv, *(["--out", str(out)] if to_file else [])])
    assert code == 4
    assert stdout == ""
    assert list(tmp_path.iterdir()) == []
    assert len(err.splitlines()) == 1
    record = json.loads(err)
    assert record["error"] == "ModelEvaluationError" and record["exit_code"] == 4


# ---------------------------------------------------------------------------
# analyze


def test_analyze_reports_exact_epsilon(capsys, workdir):
    doc = payload(
        capsys, ["analyze", *pair_args(workdir), "--T", "1.0", "--L", "2"]
    )
    assert doc["delta_logit"] == pytest.approx(1.0)
    assert doc["token_epsilon_bound"] == pytest.approx(2.0)
    assert doc["exact_message_epsilon"] <= doc["message_epsilon_bound"] + 1e-9
    assert doc["length"] == 2
    assert len(doc["per_step_exact_epsilons"]) == 2
    assert doc["manifest"]["subcommand"] == "analyze"
    digests = doc["manifest"]["input_digests"]
    assert set(digests) == {str(workdir / "model.json"), str(workdir / "data.json")}
    assert all(len(v) == 64 for v in digests.values())


def test_analyze_out_file_gets_manifest_sidecar(capsys, workdir):
    out = workdir / "report.json"
    code, stdout, _ = run(
        capsys,
        ["analyze", *pair_args(workdir), "--T", "1.0", "--L", "2", "--out", str(out)],
    )
    assert code == 0
    assert stdout == ""
    doc = json.loads(out.read_text())
    assert "manifest" not in doc
    sidecar = json.loads((workdir / "report.json.manifest.json").read_text())
    assert sidecar["subcommand"] == "analyze"


# ---------------------------------------------------------------------------
# optimize


def test_optimize_emits_curve(capsys, workdir):
    curve = workdir / "curve.csv"
    doc = payload(
        capsys,
        [
            "optimize", "--model", str(workdir / "model.json"),
            "--L", "1", "--lambda", "0.0", "--curve", str(curve),
        ],
    )
    assert doc["optimal_temperature"] == pytest.approx(0.1, abs=1e-12)
    lines = curve.read_text().splitlines()
    assert lines[0] == "temperature,expected_utility,objective,derivative"
    assert len(lines) == 102
    assert (workdir / "curve.csv.manifest.json").exists()


def test_optimize_utility_variants(capsys, workdir):
    doc = payload(
        capsys,
        [
            "optimize", "--model", str(workdir / "model.json"),
            "--L", "1", "--lambda", "0.1",
            "--utility", "exp_logit_plus_length:length_coefficient=0.2",
        ],
    )
    assert doc["utility"]["kind"] == "exp_logit_plus_length"
    assert doc["utility"]["length_coefficient"] == 0.2


def test_optimize_rejects_unknown_utility(capsys, workdir):
    code, _, err = run(
        capsys,
        ["optimize", "--model", str(workdir / "model.json"), "--L", "1",
         "--lambda", "0.1", "--utility", "mystery"],
    )
    assert code == 2
    assert json.loads(err)["exit_code"] == 2


UTILITY_FORMS = [
    ("exp_logit_plus_length", 0, {"kind": "exp_logit_plus_length", "length_coefficient": 0.1}),
    ("exp_logit_plus_length:", 0, {"kind": "exp_logit_plus_length", "length_coefficient": 0.1}),
    ("exp_logit_plus_length:length_coefficient=0.2", 0,
     {"kind": "exp_logit_plus_length", "length_coefficient": 0.2}),
    ("affine_in_U:slope=2", 0, {"kind": "affine_in_U", "slope": 2.0, "intercept": 0.0}),
    ("affine_in_U:intercept=-1,slope=0.5", 0,
     {"kind": "affine_in_U", "slope": 0.5, "intercept": -1.0}),
    ("constant:value=3", 0, {"kind": "constant", "value": 3.0}),
    ("table:1,2.5", 0, {"kind": "table", "table_values": [1.0, 2.5]}),
    ("affine_in_U", 2, None),
    ("constant", 2, None),
    ("constant:slope=1", 2, None),
    ("constant:value=1,slope=1", 2, None),
    ("affine_in_U:slope", 2, None),
    ("affine_in_U:slope=inf", 2, None),
    ("table:", 2, None),
    ("table:1,x", 2, None),
    ("table:1,2,3", 2, None),
    ("exp_logit_plus_length:length_coefficient=x", 2, None),
    ("mystery", 2, None),
    ("mystery:value=1", 2, None),
]


@pytest.mark.parametrize("text, code, block", UTILITY_FORMS)
def test_utility_text_forms_and_their_json_blocks(capsys, workdir, text, code, block):
    argv = ["optimize", "--model", str(workdir / "model.json"), "--L", "1",
            "--lambda", "0.1", "--utility", text]
    got, out, err = run(capsys, argv)
    assert got == code, err
    if code:
        assert json.loads(err)["exit_code"] == code
        return
    doc = json.loads(out)
    assert UtilitySpec.parse(text).to_jsonable() == block
    assert doc["utility"] == block
    assert doc["manifest"]["parameters"]["utility"] == block


# ---------------------------------------------------------------------------
# estimate


def test_estimate_is_deterministic(capsys, workdir):
    argv = [
        "estimate", *pair_args(workdir), "--T", "0.5", "--L", "2",
        "--samples", "60", "--seed", "4",
    ]
    first = payload(capsys, argv)
    second = payload(capsys, argv)
    assert first == second
    assert set(first["metrics"]) == {
        "empirical_epsilon", "tv", "js", "mean_U", "mean_info_score", "cov_nu_U"
    }


def test_estimate_shared_seed_zeroes_divergences(capsys, workdir):
    doc = payload(
        capsys,
        [
            "estimate", "--model", str(workdir / "model.json"),
            "--data", str(workdir / "data.json"),
            "--neighbor-index", "0", "--neighbor-record", "a,1.0,r0",
            "--T", "0.5", "--L", "2", "--samples", "50", "--seed", "4",
            "--shared-seed",
        ],
    )
    assert doc["metrics"]["empirical_epsilon"] == 0.0
    assert doc["metrics"]["tv"] == 0.0


def test_table_of_the_wrong_size_exits_2_in_estimate_as_in_optimize(capsys, workdir):
    estimate = ["estimate", *pair_args(workdir), "--T", "0.5", "--L", "2", "--seed", "0"]
    optimize = ["optimize", "--model", str(workdir / "model.json"), "--L", "2",
                "--lambda", "0.5"]
    for table in ("table:1,2,3", "table:0,1,2,3,4,5,6"):
        messages = set()
        for argv in ([*estimate, "--samples", "5"], [*estimate, "--samples", "20000"], optimize):
            code, _, err = run(capsys, [*argv, "--utility", table])
            assert code == 2
            messages.add(json.loads(err)["message"])
        assert len(messages) == 1
    assert payload(capsys, [*estimate, "--samples", "5", "--utility", "table:1,2,3,4"])
    assert payload(capsys, [*optimize, "--utility", "table:1,2,3,4"])


# ---------------------------------------------------------------------------
# sweep


def test_sweep_accepts_tokens_containing_commas(capsys, workdir):
    model = json.loads((workdir / "model.json").read_text())
    model["vocabulary"] = ["a", "a,a"]
    (workdir / "model.json").write_text(json.dumps(model))
    data = {"schema_version": 1, "records": [["a,a", 1.0, "r0"]]}
    (workdir / "data.json").write_text(json.dumps(data))
    out = workdir / "s.csv"
    code, _, err = run(
        capsys,
        ["sweep", "--model", str(workdir / "model.json"), "--data", str(workdir / "data.json"),
         "--neighbor-index", "0", "--neighbor-record", "a,1.0,r0", "--grid", "0.5:1.0:0.5",
         "--L", "1,2", "--samples", "20", "--repeats", "1", "--labels", "identity",
         "--jobs", "1", "--out", str(out)],
    )
    assert code == 0, err
    assert len(out.read_text().splitlines()) == 1 + 2 * 2 * 6


def test_sweep_writes_expected_rows_and_replays_identically(capsys, workdir):
    out = workdir / "sweep.csv"
    argv = [
        "sweep", *pair_args(workdir), "--grid", "0.1:0.5:0.2", "--L", "1,2",
        "--samples", "30", "--repeats", "2", "--out", str(out),
    ]
    code, stdout, _ = run(capsys, argv)
    assert code == 0 and stdout == ""
    lines = out.read_text().splitlines()
    assert lines[0] == "temperature,length,metric,mean,std,repeats,samples,alpha,seed"
    assert len(lines) == 1 + 3 * 2 * 6
    first_bytes = out.read_bytes()
    assert main(argv) == 0
    capsys.readouterr()
    assert out.read_bytes() == first_bytes
    manifest = json.loads((workdir / "sweep.csv.manifest.json").read_text())
    assert manifest["root_seed"] == 0


def test_sweep_jobs_do_not_change_output(capsys, workdir):
    out1, out2 = workdir / "s1.csv", workdir / "s2.csv"
    base = [
        "sweep", *pair_args(workdir), "--grid", "0.2:0.6:0.2", "--L", "2",
        "--samples", "25", "--repeats", "2",
    ]
    assert main(base + ["--out", str(out1), "--jobs", "1"]) == 0
    assert main(base + ["--out", str(out2), "--jobs", "2"]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_svg_written_with_manifest(capsys, workdir):
    out = workdir / "sweep.csv"
    svg = workdir / "sweep.svg"
    argv = [
        "sweep", *pair_args(workdir), "--grid", "0.3:0.9:0.3", "--L", "2",
        "--samples", "20", "--repeats", "2", "--out", str(out), "--svg", str(svg),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    assert svg.read_text().startswith("<svg")
    assert (workdir / "sweep.svg.manifest.json").exists()


def test_grid_includes_both_endpoints(capsys, workdir):
    out = workdir / "g.csv"
    argv = [
        "sweep", *pair_args(workdir), "--grid", "0.1:2.0:0.1", "--L", "2",
        "--samples", "5", "--repeats", "1", "--out", str(out),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    temps = sorted({float(l.split(",")[0]) for l in out.read_text().splitlines()[1:]})
    assert len(temps) == 20
    assert temps[0] == 0.1 and temps[-1] == 2.0


# ---------------------------------------------------------------------------
# selftest


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, ["selftest"])
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


# ---------------------------------------------------------------------------
# failure modes and exit codes


def test_unknown_subcommand_exits_2(capsys):
    code, _, err = run(capsys, ["frobnicate"])
    assert code == 2
    record = json.loads(err)
    assert record["exit_code"] == 2 and record["error"]


def test_bad_grid_exits_2(capsys, workdir):
    code, _, err = run(
        capsys,
        ["sweep", *pair_args(workdir), "--grid", "2.0:0.1:0.1", "--L", "2",
         "--out", str(workdir / "x.csv")],
    )
    assert code == 2
    assert json.loads(err)["exit_code"] == 2


def test_grid_with_an_infinite_point_count_exits_2(capsys, workdir):
    out = workdir / "x.csv"
    code, stdout, err = run(
        capsys,
        ["sweep", *pair_args(workdir), "--grid", "0.5:1e300:1e-300", "--L", "2",
         "--out", str(out)],
    )
    assert code == 2
    assert stdout == ""
    assert len(err.splitlines()) == 1
    record = json.loads(err)
    assert record["exit_code"] == 2 and "--grid" in record["message"]
    assert not out.exists()


def test_grid_past_the_point_cap_exits_2_before_building_it(capsys, workdir):
    out = workdir / "x.csv"
    code, stdout, err = run(
        capsys,
        ["sweep", *pair_args(workdir), "--grid", "0:1e8:1", "--L", "2", "--out", str(out)],
    )
    assert code == 2 and stdout == "" and not out.exists()
    assert len(err.splitlines()) == 1
    record = json.loads(err)
    assert record["exit_code"] == 2 and "--grid" in record["message"]
    cap = cli.MAX_GRID_POINTS
    assert len(cli._parse_grid(f"1:{cap}:1")) == cap
    # A stop just short of the cap still counts as the grid's last point.
    for text in (f"0:{cap}:1", f"0:{cap - 1e-8}:1"):
        with pytest.raises(ArgumentError, match="--grid"):
            cli._parse_grid(text)


def test_sweep_past_the_cell_cap_exits_2_before_building_it(capsys, workdir):
    out = workdir / "x.csv"
    code, stdout, err = run(
        capsys,
        ["sweep", *pair_args(workdir), "--grid", "1:1:1", "--L", "2", "--samples", "10",
         "--repeats", "100001", "--jobs", "1", "--out", str(out)],
    )
    assert code == 2 and stdout == "" and not out.exists()
    assert len(err.splitlines()) == 1
    record = json.loads(err)
    assert record["exit_code"] == 2 and "100001 cells" in record["message"]


def test_missing_model_exits_3(capsys, workdir):
    code, _, err = run(
        capsys,
        ["analyze", "--model", str(workdir / "nope.json"),
         "--data", str(workdir / "data.json"), "--neighbor-index", "0",
         "--neighbor-record", "b,1.0,r1", "--T", "1.0", "--L", "2"],
    )
    assert code == 3
    assert "cannot read" in json.loads(err)["message"]


def test_neighbor_index_out_of_range_exits_3(capsys, workdir):
    code, _, err = run(
        capsys,
        ["analyze", *pair_args(workdir)[:-2], "--neighbor-record", "b,1.0,r1",
         "--neighbor-index", "7", "--T", "1.0", "--L", "2"],
    )
    assert code == 3
    assert json.loads(err)["exit_code"] == 3


def _with_coupling(workdir, coupling):
    model = json.loads((workdir / "model.json").read_text())
    (workdir / "model.json").write_text(json.dumps(dict(model, history_coupling=coupling)))


def test_enum_cap_env_exits_5(capsys, workdir, monkeypatch):
    # Coupled hockey-stick delta needs the two V^L message tables.
    _with_coupling(workdir, [[0.0, 0.0], [0.0, 0.0]])
    monkeypatch.setenv("DPGENLAB_ENUM_CAP", "3")
    code, _, err = run(
        capsys, ["analyze", *pair_args(workdir), "--T", "1.0", "--L", "2"]
    )
    assert code == 5
    record = json.loads(err)
    assert record["exit_code"] == 5
    assert "4 messages but the cap is 3" in record["message"]


def test_free_model_answers_exactly_where_its_coupled_twin_hits_the_cap(capsys, tmp_path):
    # V = 10, L = 12: 10^12 messages, but the split hockey-stick delta builds
    # two half tables of 10^6 atoms, exactly the default cap.
    rng = np.random.default_rng(12)
    tokens = [f"t{i}" for i in range(10)]
    model = {
        "schema_version": 1,
        "vocabulary": tokens,
        "contexts": [{"id": "c", "base_logits": rng.uniform(-2, 2, (3, 10)).round(3).tolist()}],
        "influence": {"kind": "label_bonus", "beta": 0.5},
        "history_coupling": None,
    }
    data = {"schema_version": 1, "records": [["t0", 1.0, ""], ["t1", 1.0, ""]]}
    (tmp_path / "model.json").write_text(json.dumps(model))
    (tmp_path / "data.json").write_text(json.dumps(data))
    argv = ["analyze", "--model", str(tmp_path / "model.json"), "--data",
            str(tmp_path / "data.json"), "--neighbor-index", "0", "--neighbor-record",
            "t2,1.0,", "--T", "1.0", "--L", "12"]
    report = payload(capsys, argv)
    eps = report["exact_message_epsilon"]
    assert 0 < eps <= report["message_epsilon_bound"]
    (e0, d0), (e1, d1), (e2, d2) = report["hockey_stick_delta_at"]
    assert (e0, e1, e2) == (0.0, eps / 2, eps)
    assert 1 > d0 > d1 > 0 and abs(d2) <= 1e-12
    _with_coupling(tmp_path, [[0.0] * 10] * 10)
    code, stdout, err = run(capsys, argv)
    assert code == 5 and stdout == ""
    assert "1000000000000 messages but the cap is 1000000" in json.loads(err)["message"]


@pytest.mark.parametrize("coupled", [False, True])
def test_a_count_too_large_to_print_still_exits_5(capsys, workdir, coupled):
    # 2^20000 messages, or 2^10000 half-table atoms, have more digits than
    # Python prints; the cap refuses them from their logarithm.
    if coupled:
        _with_coupling(workdir, [[0.0, 0.0], [0.0, 0.0]])
    code, _, err = run(capsys, ["analyze", *pair_args(workdir), "--T", "1.0", "--L", "20000"])
    assert code == 5
    want = "10^6021 messages" if coupled else "10^3010 half-table atoms"
    assert f"about {want} but the cap is 1000000" in json.loads(err)["message"]


def test_unwritable_out_path_exits_3(capsys, workdir):
    out = workdir / "missing" / "dir" / "x.json"
    code, stdout, err = run(
        capsys, ["analyze", *pair_args(workdir), "--T", "1.0", "--L", "2", "--out", str(out)]
    )
    assert code == 3
    assert stdout == ""
    assert len(err.splitlines()) == 1
    record = json.loads(err)
    assert record["exit_code"] == 3
    assert record["error"] == "FileNotFoundError"


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_jobs_below_one_exits_2(capsys, workdir, jobs):
    out = workdir / "s.csv"
    code, _, err = run(
        capsys,
        ["sweep", *pair_args(workdir), "--grid", "0.5:1.0:0.5", "--L", "2",
         "--samples", "5", "--repeats", "1", "--jobs", jobs, "--out", str(out)],
    )
    assert code == 2
    record = json.loads(err)
    assert record["exit_code"] == 2 and "jobs" in record["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "field, value, where",
    [
        ("history_coupling", [1, 2], "history_coupling[0]"),
        ("history_coupling", [[0.0, 0.0], "row"], "history_coupling[1]"),
        ("history_coupling", [[0.0, 0.0], [0.0]], "history_coupling[1]"),
        ("influence", {"kind": "label_bonus", "beta": -1.0}, "influence.beta"),
        ("influence", {"kind": "label_bonus", "beta": float("nan")}, "influence.beta"),
        ("influence", {"kind": "label_bonus", "beta": float("inf")}, "influence.beta"),
        ("influence", {"kind": "tag_table", "beta": -0.5, "table": {}}, "influence.beta"),
    ],
)
def test_malformed_model_field_exits_3_naming_it(capsys, workdir, field, value, where):
    path = workdir / "model.json"
    model = json.loads(path.read_text())
    model[field] = value
    path.write_text(json.dumps(model))
    code, _, err = run(capsys, ["optimize", "--model", str(path), "--L", "2", "--lambda", "0.5"])
    assert code == 3
    assert len(err.splitlines()) == 1
    record = json.loads(err)
    assert record["error"] == "InputError"
    assert str(path) in record["message"] and where in record["message"]


def test_bad_temperature_exits_2(capsys, workdir):
    code, _, err = run(
        capsys, ["analyze", *pair_args(workdir), "--T", "0", "--L", "2"]
    )
    assert code == 2
    assert json.loads(err)["exit_code"] == 2


@pytest.mark.parametrize("coupling", [[[0.1, 0.0], [0.0, 0.2]], None], ids=["coupled", "free"])
def test_overflowing_scaled_logits_exit_4(capsys, workdir, coupling):
    # At T = 1e-310 the logits divided by T overflow to inf.
    path = workdir / "model.json"
    model = json.loads(path.read_text())
    model["history_coupling"] = coupling
    path.write_text(json.dumps(model))
    code, stdout, err = run(capsys, ["analyze", *pair_args(workdir), "--T", "1e-310", "--L", "2"])
    assert code == 4
    assert stdout == ""
    assert len(err.splitlines()) == 1
    record = json.loads(err)
    assert record["error"] == "ModelEvaluationError" and record["exit_code"] == 4


@pytest.mark.parametrize("coupling", [[[0.1, 0.0], [0.0, 0.2]], None], ids=["coupled", "free"])
def test_overflowing_scaled_logits_in_the_sampler_exit_4(capsys, workdir, coupling):
    path = workdir / "model.json"
    model = json.loads(path.read_text())
    model["history_coupling"] = coupling
    path.write_text(json.dumps(model))
    code, stdout, err = run(
        capsys, ["estimate", *pair_args(workdir), "--T", "1e-310", "--L", "2", "--samples", "20"]
    )
    assert code == 4
    assert stdout == ""
    assert len(err.splitlines()) == 1
    record = json.loads(err)
    assert record["error"] == "ModelEvaluationError" and record["exit_code"] == 4


def test_an_unexpected_exception_exits_4_with_one_json_line(capsys, monkeypatch):
    def broken(args):
        raise ValueError("not a workbench error")

    monkeypatch.setattr(cli, "_cmd_bound", broken)
    code, stdout, err = run(capsys, ["bound", "--delta", "1", "--T", "1", "--L", "1"])
    assert code == 4
    assert stdout == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err) == {
        "error": "ValueError", "message": "not a workbench error", "exit_code": 4,
    }


@pytest.mark.parametrize("coupling", [[[0.1, 0.0], [0.0, 0.2]], None], ids=["coupled", "free"])
@pytest.mark.parametrize("bracket", ["1e-300:1", "1e-310:1", "1:1e300"])
def test_extreme_bracket_ends_give_an_answer_or_one_solver_error(
    capsys, workdir, coupling, bracket
):
    # At the low end T^2 underflows (and at 1e-310 the scores / T overflow),
    # so the first-order condition is not finite; at the high end T^2
    # overflows, the slope is 0 and the objective stays finite.
    path = workdir / "model.json"
    model = json.loads(path.read_text())
    model["history_coupling"] = coupling
    path.write_text(json.dumps(model))
    curve = workdir / "curve.csv"
    code, stdout, err = run(
        capsys,
        ["optimize", "--model", str(path), "--data", str(workdir / "data.json"), "--L", "2",
         "--lambda", "0.5", "--bracket", bracket, "--curve", str(curve)],
    )
    if bracket == "1:1e300":
        assert code == 0 and err == ""
        assert json.loads(stdout)["optimal_temperature"] == 1e300
        assert "nan" not in curve.read_text() and "inf" not in curve.read_text()
    else:
        assert code == 4
        assert stdout == ""
        assert len(err.splitlines()) == 1
        record = json.loads(err)
        assert record["error"] == "SolverError" and record["exit_code"] == 4


COLD_START = """
import json, sys

from dpgenlab import cli

for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
assert "scipy.special" not in sys.modules

import numpy as np
from dpgenlab.lab import js_divergence

got = js_divergence([0.5, 0.5], [0.25, 0.75])
assert "scipy.special" in sys.modules
from scipy.special import rel_entr

p, q = np.array([0.5, 0.5]), np.array([0.25, 0.75])
mid = 0.5 * (p + q)
assert got == float(0.5 * rel_entr(p, mid).sum() + 0.5 * rel_entr(q, mid).sum())
"""


def test_exact_commands_never_import_scipy_special(workdir):
    # scipy.special takes about 200 ms to import; only the Jensen-Shannon
    # divergence of estimate, sweep and selftest loads it.
    model = str(workdir / "model.json")
    commands = [
        ["bound", "--delta", "1", "--T", "1", "--L", "5"],
        ["analyze", *pair_args(workdir), "--T", "1.0", "--L", "2"],
        ["optimize", "--model", model, "--data", str(workdir / "data.json"), "--L", "2",
         "--lambda", "0.5", "--curve", str(workdir / "curve.csv")],
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", COLD_START, json.dumps(commands)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
