"""Versioned JSON file formats for models, datasets, and run manifests.

Model spec (schema_version 1):

    {
      "schema_version": 1,
      "vocabulary": ["a", "b"],
      "contexts": [{"id": "default", "base_logits": [[1.0, 0.0]]}],
      "influence": {"kind": "label_bonus", "beta": 1.0},
      "history_coupling": null
    }

``base_logits`` lists one row per step (each row one logit per token); steps
beyond the last row reuse the last row. ``influence`` is either a label-match
bonus or an explicit tag table: {"kind": "tag_table", "beta": B,
"table": {"tag": [..one entry per token..]}} with every |entry| <= B.
``history_coupling``, when present, is a V x V table; row p is added to the
next-token logits once per occurrence of token p in the history.

Dataset (schema_version 1):

    {"schema_version": 1, "records": [["a", 1.0, "tag-0"], ...]}

Rows are (label, weight, tag). Loading never interprets labels; they are
checked against the model's vocabulary when analysis first uses the dataset.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Union

import numpy
import scipy

from .errors import InputError, ModelEvaluationError
from .generation import (
    Dataset,
    LabelBonusRule,
    LogitModel,
    Record,
    TagTableRule,
    Vocabulary,
)

MODEL_SCHEMA_VERSION = 1
DATASET_SCHEMA_VERSION = 1
MANIFEST_SCHEMA_VERSION = 1

TOOL_VERSION = "0.1.0"

# What byte-identical replay depends on besides the inputs: numpy's random
# streams and arithmetic, and scipy's ``rel_entr``. Every manifest records
# scipy's version, but only sweep and estimate outputs depend on it.
ENVIRONMENT = {
    "numpy": numpy.__version__,
    "python": platform.python_version(),
    "scipy": scipy.__version__,
}


def _load_json(path: Union[str, Path], what: str) -> Any:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InputError(f"cannot read {what} file {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{what} file {path} is not valid JSON (line {exc.lineno}, column {exc.colno}): "
            f"{exc.msg}"
        ) from exc


def _check_version(data: Any, expected: int, what: str, path: Path) -> None:
    if not isinstance(data, dict):
        raise InputError(f"{what} file {path} must contain a JSON object at the top level")
    version = data.get("schema_version")
    if isinstance(version, bool) or not isinstance(version, int) or version != expected:
        raise InputError(
            f"{what} file {path} has unsupported schema_version {version!r} "
            f"(expected {expected}); nothing was loaded"
        )


def _as_float(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{where}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise InputError(f"{where}: integer is too large for a float") from None


def _number_row(row: Any, size: int, where: str) -> tuple[float, ...]:
    """A JSON list of ``size`` numbers as floats; InputError names ``where``."""
    if not isinstance(row, list) or len(row) != size:
        raise InputError(f"{where}: expected a row of {size} numbers")
    return tuple(_as_float(v, f"{where}[{j}]") for j, v in enumerate(row))


def load_model_spec(path: Union[str, Path]) -> LogitModel:
    """Parse and validate a model-spec file into a LogitModel."""
    path = Path(path)
    data = _load_json(path, "model spec")
    _check_version(data, MODEL_SCHEMA_VERSION, "model spec", path)

    vocab_field = data.get("vocabulary")
    if not isinstance(vocab_field, list) or not all(isinstance(t, str) for t in vocab_field):
        raise InputError(f"{path}: 'vocabulary' must be a list of token strings")
    try:
        vocabulary = Vocabulary(tuple(vocab_field))
    except Exception as exc:
        raise InputError(f"{path}: vocabulary: {exc}") from exc
    V = vocabulary.size

    contexts_field = data.get("contexts")
    if not isinstance(contexts_field, list) or not contexts_field:
        raise InputError(f"{path}: 'contexts' must be a non-empty list")
    base_tables: dict[str, tuple[tuple[float, ...], ...]] = {}
    for i, ctx in enumerate(contexts_field):
        where = f"{path}: contexts[{i}]"
        if not isinstance(ctx, dict) or "id" not in ctx or "base_logits" not in ctx:
            raise InputError(f"{where}: each context needs 'id' and 'base_logits'")
        cid = ctx["id"]
        if not isinstance(cid, str) or not cid:
            raise InputError(f"{where}.id: must be a non-empty string")
        if cid in base_tables:
            raise InputError(f"{where}.id: duplicate context id {cid!r}")
        rows_field = ctx["base_logits"]
        if not isinstance(rows_field, list) or not rows_field:
            raise InputError(f"{where}.base_logits: must be a non-empty list of rows")
        base_tables[cid] = tuple(
            _number_row(row, V, f"{where}.base_logits[{k}]") for k, row in enumerate(rows_field)
        )

    infl_field = data.get("influence")
    if not isinstance(infl_field, dict) or "kind" not in infl_field:
        raise InputError(f"{path}: 'influence' must be an object with a 'kind'")
    kind = infl_field["kind"]
    beta = _as_float(infl_field.get("beta", 0.0), f"{path}: influence.beta")
    if not math.isfinite(beta) or beta < 0:
        raise InputError(f"{path}: influence.beta must be finite and >= 0, got {beta!r}")
    if kind == "label_bonus":
        influence: Union[LabelBonusRule, TagTableRule] = LabelBonusRule(beta=beta)
    elif kind == "tag_table":
        table_field = infl_field.get("table")
        if not isinstance(table_field, dict):
            raise InputError(f"{path}: influence.table must be an object mapping tags to rows")
        table = {
            tag: _number_row(row, V, f"{path}: influence.table[{tag!r}]")
            for tag, row in table_field.items()
        }
        try:
            influence = TagTableRule(beta=beta, table=table)
        except InputError as exc:
            raise InputError(f"{path}: influence: {exc}") from exc
    else:
        raise InputError(
            f"{path}: influence.kind {kind!r} is unknown (label_bonus or tag_table)"
        )

    coupling_field = data.get("history_coupling")
    coupling = None
    if coupling_field is not None:
        if not isinstance(coupling_field, list) or len(coupling_field) != V:
            raise InputError(f"{path}: history_coupling must be a {V}x{V} table or null")
        coupling = tuple(
            _number_row(row, V, f"{path}: history_coupling[{i}]")
            for i, row in enumerate(coupling_field)
        )

    try:
        return LogitModel(
            vocabulary=vocabulary,
            base_tables=base_tables,
            influence=influence,
            history_coupling=coupling,
        )
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def save_model_spec(model: LogitModel, path: Union[str, Path]) -> None:
    data = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "vocabulary": list(model.vocabulary.tokens),
        "contexts": [
            {"id": cid, "base_logits": [list(row) for row in rows]}
            for cid, rows in model.base_tables.items()
        ],
        "influence": _influence_to_jsonable(model),
        "history_coupling": (
            None
            if model.history_coupling is None
            else [list(row) for row in model.history_coupling]
        ),
    }
    Path(path).write_text(json.dumps(data, indent=2) + "\n")


def _influence_to_jsonable(model: LogitModel) -> dict:
    rule = model.influence
    if isinstance(rule, LabelBonusRule):
        return {"kind": "label_bonus", "beta": rule.beta}
    return {
        "kind": "tag_table",
        "beta": rule.beta,
        "table": {tag: list(row) for tag, row in rule.table.items()},
    }


def load_dataset(path: Union[str, Path]) -> Dataset:
    """Parse a dataset file; an empty record list is valid."""
    path = Path(path)
    data = _load_json(path, "dataset")
    _check_version(data, DATASET_SCHEMA_VERSION, "dataset", path)
    rows_field = data.get("records")
    if not isinstance(rows_field, list):
        raise InputError(f"{path}: 'records' must be a list of [label, weight, tag] rows")
    records = []
    for i, row in enumerate(rows_field):
        where = f"{path}: records[{i}]"
        if not isinstance(row, list) or len(row) != 3:
            raise InputError(f"{where}: expected [label, weight, tag]")
        label, weight, tag = row
        if not isinstance(label, str):
            raise InputError(f"{where}: label must be a string, got {label!r}")
        if not isinstance(tag, str):
            raise InputError(f"{where}: tag must be a string, got {tag!r}")
        records.append(Record(label, _as_float(weight, f"{where}: weight"), tag))
    try:
        return Dataset(tuple(records))
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def save_dataset(dataset: Dataset, path: Union[str, Path]) -> None:
    data = {
        "schema_version": DATASET_SCHEMA_VERSION,
        "records": [[r.label, r.weight, r.tag] for r in dataset.records],
    }
    Path(path).write_text(json.dumps(data, indent=2) + "\n")


# ---------------------------------------------------------------------------
# run manifests


def file_digest(path: Union[str, Path]) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def json_text(data: Any) -> str:
    """Indented, key-sorted JSON and a newline, for reports and manifests. JSON
    has no NaN or infinity, so a non-finite number raises ModelEvaluationError."""
    try:
        return json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ModelEvaluationError(f"a reported value is not finite: {exc}") from None


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce a run byte for byte."""

    subcommand: str
    parameters: Mapping[str, Any]
    root_seed: int | None
    input_digests: Mapping[str, str] = field(default_factory=dict)
    tool_version: str = TOOL_VERSION
    schema_version: int = MANIFEST_SCHEMA_VERSION

    def to_jsonable(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "tool_version": self.tool_version,
            "subcommand": self.subcommand,
            "parameters": dict(self.parameters),
            "root_seed": self.root_seed,
            "input_digests": dict(self.input_digests),
            "environment": dict(ENVIRONMENT),
        }

    def write_next_to(self, output_path: Union[str, Path]) -> Path:
        manifest_path = Path(str(output_path) + ".manifest.json")
        manifest_path.write_text(json_text(self.to_jsonable()))
        return manifest_path
