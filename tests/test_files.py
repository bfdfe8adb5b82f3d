import json
import platform

import numpy
import pytest
import scipy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dpgenlab import (
    Dataset,
    InputError,
    LabelBonusRule,
    LogitModel,
    Record,
    RunManifest,
    TagTableRule,
    Vocabulary,
    file_digest,
    load_dataset,
    load_model_spec,
    save_dataset,
    save_model_spec,
)

AWKWARD_FLOATS = (0.1 + 0.2, 1e-17, -3.7500000000000004, 2.0**-40)


def roundtrip_model(tmp_path, model):
    path = tmp_path / "model.json"
    save_model_spec(model, path)
    return load_model_spec(path)


# ---------------------------------------------------------------------------
# model specs


def test_label_bonus_model_roundtrip(tmp_path):
    model = LogitModel(
        vocabulary=Vocabulary(("a", "b", "c")),
        base_tables={"default": (AWKWARD_FLOATS[:3], (1.0, 0.0, -1.0))},
        influence=LabelBonusRule(beta=0.75),
    )
    loaded = roundtrip_model(tmp_path, model)
    assert loaded.vocabulary.tokens == ("a", "b", "c")
    assert loaded.base_tables == model.base_tables
    assert isinstance(loaded.influence, LabelBonusRule)
    assert loaded.influence.beta == 0.75
    assert loaded.history_coupling is None


def test_tag_table_model_roundtrip(tmp_path):
    model = LogitModel(
        vocabulary=Vocabulary(("a", "b")),
        base_tables={
            "calm": ((0.0, 0.0),),
            "sharp": ((2.0, -2.0), (0.5, 0.5)),
        },
        influence=TagTableRule(beta=1.5, table={"boost": (1.5, -1.5), "mild": (0.25, 0.0)}),
        history_coupling=((0.3, -0.2), (0.1, 0.4)),
        context="sharp",
    )
    loaded = roundtrip_model(tmp_path, model)
    assert set(loaded.base_tables) == {"calm", "sharp"}
    assert loaded.base_tables["sharp"] == ((2.0, -2.0), (0.5, 0.5))
    assert isinstance(loaded.influence, TagTableRule)
    assert loaded.influence.table == {"boost": (1.5, -1.5), "mild": (0.25, 0.0)}
    assert loaded.history_coupling == ((0.3, -0.2), (0.1, 0.4))


def test_model_floats_survive_exactly(tmp_path):
    model = LogitModel(
        vocabulary=Vocabulary(("a", "b", "c", "d")),
        base_tables={"default": (AWKWARD_FLOATS,)},
        influence=LabelBonusRule(beta=AWKWARD_FLOATS[0]),
    )
    loaded = roundtrip_model(tmp_path, model)
    assert loaded.base_tables["default"][0] == AWKWARD_FLOATS
    assert loaded.influence.beta == AWKWARD_FLOATS[0]


def test_model_bad_schema_version(tmp_path):
    path = tmp_path / "model.json"
    for version in (99, True, 1.0, "1"):
        path.write_text(json.dumps({"schema_version": version}))
        with pytest.raises(InputError, match="nothing was loaded"):
            load_model_spec(path)


def test_model_missing_file():
    with pytest.raises(InputError, match="cannot read"):
        load_model_spec("/nonexistent/model.json")


def test_model_invalid_json_reports_location(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"schema_version": 1,\n  "vocabulary": [,]}')
    with pytest.raises(InputError, match="line 2"):
        load_model_spec(path)


def test_model_ragged_logit_row(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "vocabulary": ["a", "b"],
                "contexts": [{"id": "default", "base_logits": [[1.0]]}],
                "influence": {"kind": "label_bonus", "beta": 1.0},
                "history_coupling": None,
            }
        )
    )
    with pytest.raises(InputError, match="base_logits"):
        load_model_spec(path)


def test_model_tag_table_cap_violation_names_entry(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "vocabulary": ["a", "b"],
                "contexts": [{"id": "default", "base_logits": [[0.0, 0.0]]}],
                "influence": {"kind": "tag_table", "beta": 1.0, "table": {"x": [0.0, 3.0]}},
                "history_coupling": None,
            }
        )
    )
    with pytest.raises(InputError, match="x"):
        load_model_spec(path)


def test_model_unknown_influence_kind(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "vocabulary": ["a", "b"],
                "contexts": [{"id": "default", "base_logits": [[0.0, 0.0]]}],
                "influence": {"kind": "mystery", "beta": 1.0},
                "history_coupling": None,
            }
        )
    )
    with pytest.raises(InputError, match="mystery"):
        load_model_spec(path)


def test_model_integer_beyond_float_range_is_an_input_error(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "vocabulary": ["a", "b"],
        "contexts": [{"id": "default", "base_logits": [[10**400, 0.0]]}],
        "influence": {"kind": "label_bonus", "beta": 1.0},
    }))
    with pytest.raises(InputError, match=r"base_logits\[0\]\[0\]: integer is too large"):
        load_model_spec(path)


# ---------------------------------------------------------------------------
# datasets


def test_dataset_roundtrip(tmp_path):
    data = Dataset(
        (
            Record("alice", 1.25, "g0"),
            Record("bob", AWKWARD_FLOATS[0], ""),
        )
    )
    path = tmp_path / "data.json"
    save_dataset(data, path)
    loaded = load_dataset(path)
    assert loaded.records == data.records


def test_empty_dataset_roundtrip(tmp_path):
    path = tmp_path / "data.json"
    save_dataset(Dataset(()), path)
    assert load_dataset(path).records == ()


def test_dataset_malformed_row_is_located(tmp_path):
    path = tmp_path / "data.json"
    path.write_text(
        json.dumps({"schema_version": 1, "records": [["ok", 1.0, ""], ["bad", 1.0]]})
    )
    with pytest.raises(InputError, match=r"records\[1\]"):
        load_dataset(path)


def test_dataset_nonnumeric_weight(tmp_path):
    path = tmp_path / "data.json"
    path.write_text(
        json.dumps({"schema_version": 1, "records": [["x", "heavy", ""]]})
    )
    with pytest.raises(InputError, match="number"):
        load_dataset(path)


def test_dataset_bad_schema_version(tmp_path):
    path = tmp_path / "data.json"
    for version in (2, True, 1.0, "1"):
        path.write_text(json.dumps({"schema_version": version, "records": [["a", 1.0, ""]]}))
        with pytest.raises(InputError, match="nothing was loaded"):
            load_dataset(path)


# ---------------------------------------------------------------------------
# loader fuzz: any JSON value loads or raises InputError, nothing else

NUMBERS = st.floats() | st.integers()
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def _fields(draw, plausible):
    """A JSON object whose fields are mostly plausible, sometimes arbitrary or missing."""
    out = {}
    for key, strategy in plausible.items():
        pick = draw(st.integers(0, 19))
        if pick > 1:
            out[key] = draw(strategy)
        elif pick == 1:
            out[key] = draw(JSON_VALUES)
    return out


@st.composite
def model_specs(draw):
    V = draw(st.integers(2, 3))
    row = st.lists(NUMBERS, min_size=V, max_size=V)
    context = st.fixed_dictionaries(
        {"id": st.text(min_size=1, max_size=3), "base_logits": st.lists(row, min_size=1, max_size=3)}
    )
    return draw(_fields({
        "schema_version": st.just(1),
        "vocabulary": st.lists(st.sampled_from(["a", "b", "c", ""]), min_size=V, max_size=V, unique=True),
        "contexts": st.lists(context, min_size=1, max_size=3),
        "influence": _fields({
            "kind": st.sampled_from(["label_bonus", "tag_table"]),
            "beta": NUMBERS,
            "table": st.dictionaries(st.sampled_from(["g0", "g1"]), row, max_size=2),
        }),
        "history_coupling": st.none() | st.lists(row | JSON_VALUES, min_size=V, max_size=V),
    }))


DATASET_SPECS = _fields({
    "schema_version": st.just(1),
    "records": st.lists(
        st.tuples(st.text(max_size=3), NUMBERS, st.text(max_size=3)).map(list),
        max_size=4,
    ),
})

FUZZ = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _load_or_input_error(loader, value, path):
    path.write_text(json.dumps(value))
    try:
        return loader(path)
    except InputError:
        return None


@FUZZ
@given(st.one_of(model_specs(), model_specs(), model_specs(), JSON_VALUES))
def test_fuzz_model_loader_gives_a_model_or_an_input_error(tmp_path_factory, value):
    path = tmp_path_factory.getbasetemp() / "fuzz_model.json"
    loaded = _load_or_input_error(load_model_spec, value, path)
    assert loaded is None or isinstance(loaded, LogitModel)


@FUZZ
@given(st.one_of(DATASET_SPECS, DATASET_SPECS, DATASET_SPECS, JSON_VALUES))
def test_fuzz_dataset_loader_gives_a_dataset_or_an_input_error(tmp_path_factory, value):
    path = tmp_path_factory.getbasetemp() / "fuzz_data.json"
    loaded = _load_or_input_error(load_dataset, value, path)
    assert loaded is None or isinstance(loaded, Dataset)


# ---------------------------------------------------------------------------
# manifests and digests


def test_manifest_written_next_to_output(tmp_path):
    out = tmp_path / "sweep.csv"
    out.write_text("x\n")
    manifest = RunManifest(
        subcommand="sweep",
        parameters={"zeta": 1, "alpha": 2},
        root_seed=0,
        input_digests={"model": "deadbeef"},
    )
    written = manifest.write_next_to(out)
    assert written == tmp_path / "sweep.csv.manifest.json"
    payload = json.loads(written.read_text())
    assert payload["subcommand"] == "sweep"
    assert payload["parameters"] == {"zeta": 1, "alpha": 2}
    assert payload["root_seed"] == 0
    keys = list(written.read_text().split('"'))
    # sorted serialisation puts input_digests before parameters
    assert keys.index("input_digests") < keys.index("parameters")


def test_manifest_records_the_environment_and_replays_byte_identically(tmp_path):
    out = tmp_path / "report.json"

    def write() -> bytes:
        manifest = RunManifest(subcommand="bound", parameters={"T": 1.0}, root_seed=None)
        return manifest.write_next_to(out).read_bytes()

    first = write()
    assert write() == first
    environment = json.loads(first)["environment"]
    assert environment == {
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "scipy": scipy.__version__,
    }


def test_file_digest_tracks_content(tmp_path):
    path = tmp_path / "blob"
    path.write_bytes(b"abc")
    first = file_digest(path)
    assert first == file_digest(path)
    path.write_bytes(b"abcd")
    assert file_digest(path) != first
    assert len(first) == 64
