import json

import pytest

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


def test_enum_cap_env_exits_5(capsys, workdir, monkeypatch):
    monkeypatch.setenv("DPGENLAB_ENUM_CAP", "3")
    code, _, err = run(
        capsys, ["analyze", *pair_args(workdir), "--T", "1.0", "--L", "2"]
    )
    assert code == 5
    record = json.loads(err)
    assert record["exit_code"] == 5
    assert "cap" in record["message"]


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
