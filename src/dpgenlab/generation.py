"""Vocabularies, record-conditioned logit models, and the generation mechanism.

The mechanism generates a fixed-length message token by token: at step k the
next-token distribution is a temperature-scaled softmax of the current logits,
and the message distribution is the product of the per-step distributions.
Everything numeric lives in natural-log space and is normalised through
log-sum-exp, so low temperatures with large logit gaps stay representable.

Logits are record-additive: the logit of token ``w`` at step ``k`` given
history ``h`` is

    base_logits(k, w) + sum_r influence(r, w, k) + sum_j coupling(h_j, w)

where ``r`` ranges over dataset records and ``h_j`` over history tokens. The
influence of any single record is bounded by the rule's declared cap ``beta``,
which is what makes the worst-case logit shift between neighboring datasets
analytically computable.

Every exact table comes from one walk over the prefix tree, ``_prefix_walk``:
per step it yields the history-free logit row and the summed history
coupling of every prefix. Without history coupling that sum is one (1, V)
zero row that every consumer broadcasts, so the per-step levels are (1, V)
rows and the message tables are outer sums of them. Every exact level is
normalised by one numpy max-shift, ``_log_normaliser``; scipy's logsumexp
stays in the sampler, whose bytes depend on it, and in the normalisation
checks and single-message references that tests compare the engine against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, NamedTuple, Sequence, Union

import numpy as np
from scipy.special import logsumexp

from .errors import (
    ArgumentError,
    ConfigError,
    EnumerationCapError,
    InputError,
    ModelEvaluationError,
)

DEFAULT_ENUM_CAP = 10**6

TOKEN_NORMALISATION_TOL = 1e-12
MESSAGE_NORMALISATION_TOL = 1e-10


# ---------------------------------------------------------------------------
# basic value types


@dataclass(frozen=True)
class Vocabulary:
    """Ordered token alphabet; token index <-> token string is a bijection."""

    tokens: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if len(self.tokens) < 2:
            raise ConfigError(f"vocabulary needs at least 2 tokens, got {len(self.tokens)}")
        if len(set(self.tokens)) != len(self.tokens):
            raise ConfigError("vocabulary tokens must be distinct")
        object.__setattr__(self, "_index", {t: i for i, t in enumerate(self.tokens)})

    @property
    def size(self) -> int:
        return len(self.tokens)

    def index(self, token: str) -> int:
        try:
            return self._index[token]  # type: ignore[attr-defined]
        except KeyError:
            raise InputError(f"token {token!r} is not in the vocabulary") from None

    def __contains__(self, token: str) -> bool:
        return token in self._index  # type: ignore[attr-defined]


@dataclass(frozen=True)
class Message:
    """A fixed-length sequence of vocabulary token indices."""

    tokens: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(int(t) for t in self.tokens))
        if len(self.tokens) < 1:
            raise ConfigError("a message must contain at least one token")

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[int]:
        return iter(self.tokens)

    def render(self, vocabulary: Vocabulary) -> tuple[str, ...]:
        return tuple(vocabulary.tokens[t] for t in self.tokens)


class Record(NamedTuple):
    label: str
    weight: float
    tag: str


@dataclass(frozen=True)
class Dataset:
    """An ordered collection of (label, weight, tag) records."""

    records: tuple[Record, ...]

    def __post_init__(self) -> None:
        coerced = tuple(Record(str(r[0]), float(r[1]), str(r[2])) for r in self.records)
        object.__setattr__(self, "records", coerced)
        for i, rec in enumerate(coerced):
            if not np.isfinite(rec.weight):
                raise InputError(f"record {i} has non-finite weight {rec.weight!r}")

    def __len__(self) -> int:
        return len(self.records)

    def replace(self, index: int, record: Record) -> "Dataset":
        if not 0 <= index < len(self.records):
            raise InputError(
                f"record index {index} out of range for dataset of {len(self.records)} records"
            )
        rows = list(self.records)
        rows[index] = record
        return Dataset(tuple(rows))


# ---------------------------------------------------------------------------
# record influence rules


@dataclass(frozen=True)
class LabelBonusRule:
    """Adds ``beta`` to the logit of the token equal to the record's label.

    Record weight and tag are ignored; the per-record influence is 0 or beta,
    so the declared cap holds by construction.
    """

    beta: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.beta) or self.beta < 0:
            raise ConfigError(f"influence cap beta must be finite and >= 0, got {self.beta!r}")

    def influence_vector(self, dataset: Dataset, vocabulary: Vocabulary) -> np.ndarray:
        out = np.zeros(vocabulary.size)
        for rec in dataset.records:
            out[vocabulary.index(rec.label)] += self.beta
        return out


@dataclass(frozen=True)
class TagTableRule:
    """Per-record influence read from an explicit (record tag x token) table.

    Tags missing from the table contribute nothing. Every entry must respect
    the declared cap: |entry| <= beta.
    """

    beta: float
    table: Mapping[str, tuple[float, ...]]

    def __post_init__(self) -> None:
        if not np.isfinite(self.beta) or self.beta < 0:
            raise ConfigError(f"influence cap beta must be finite and >= 0, got {self.beta!r}")
        frozen = {tag: tuple(float(v) for v in row) for tag, row in self.table.items()}
        object.__setattr__(self, "table", frozen)
        for tag, row in frozen.items():
            for j, value in enumerate(row):
                if not np.isfinite(value):
                    raise InputError(f"influence table entry [{tag!r}][{j}] is non-finite")
                if abs(value) > self.beta:
                    raise InputError(
                        f"influence table entry [{tag!r}][{j}] = {value} exceeds the "
                        f"declared cap beta = {self.beta}"
                    )

    def influence_vector(self, dataset: Dataset, vocabulary: Vocabulary) -> np.ndarray:
        out = np.zeros(vocabulary.size)
        for rec in dataset.records:
            row = self.table.get(rec.tag)
            if row is not None:
                if len(row) != vocabulary.size:
                    raise InputError(
                        f"influence table row for tag {rec.tag!r} has {len(row)} entries, "
                        f"vocabulary has {vocabulary.size}"
                    )
                out += np.asarray(row)
        return out


InfluenceRule = Union[LabelBonusRule, TagTableRule]


# ---------------------------------------------------------------------------
# the logit model


@dataclass(frozen=True)
class LogitModel:
    """Record-additive logit model over a fixed vocabulary.

    ``base_tables`` maps a context id to a per-step table: a tuple of rows,
    each row holding one logit per vocabulary token. Steps beyond the last
    declared row reuse the last row. ``context`` selects the active table.
    ``history_coupling`` is an optional V x V table; entry [p][w] is added to
    the logit of ``w`` once for every occurrence of token ``p`` in the
    history.
    """

    vocabulary: Vocabulary
    base_tables: Mapping[str, tuple[tuple[float, ...], ...]]
    influence: InfluenceRule
    history_coupling: tuple[tuple[float, ...], ...] | None = None
    context: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.influence, (LabelBonusRule, TagTableRule)):
            raise ConfigError(
                "influence rule must be a LabelBonusRule or a TagTableRule, "
                f"got {type(self.influence).__name__}"
            )
        V = self.vocabulary.size
        tables = {}
        for cid, rows in self.base_tables.items():
            frozen_rows = tuple(tuple(float(v) for v in row) for row in rows)
            if not frozen_rows:
                raise InputError(f"context {cid!r} declares an empty base-logit table")
            for k, row in enumerate(frozen_rows):
                if len(row) != V:
                    raise InputError(
                        f"context {cid!r} base-logit row {k} has {len(row)} entries, "
                        f"vocabulary has {V}"
                    )
                for j, value in enumerate(row):
                    if not np.isfinite(value):
                        raise InputError(
                            f"context {cid!r} base-logit row {k} entry {j} is non-finite"
                        )
            tables[cid] = frozen_rows
        if not tables:
            raise InputError("model declares no contexts")
        object.__setattr__(self, "base_tables", tables)

        if self.history_coupling is not None:
            rows = tuple(tuple(float(v) for v in row) for row in self.history_coupling)
            if len(rows) != V or any(len(row) != V for row in rows):
                raise InputError(
                    f"history coupling must be a {V}x{V} table for this vocabulary"
                )
            if not all(np.isfinite(v) for row in rows for v in row):
                raise InputError("history coupling contains a non-finite entry")
            object.__setattr__(self, "history_coupling", rows)

        cid = self.context if self.context is not None else next(iter(tables))
        if cid not in tables:
            raise InputError(
                f"context {cid!r} is not declared; known contexts: {sorted(tables)}"
            )
        object.__setattr__(self, "context", cid)

    @property
    def context_ids(self) -> tuple[str, ...]:
        return tuple(self.base_tables.keys())

    def with_context(self, context: str) -> "LogitModel":
        if context == self.context:
            return self
        return LogitModel(
            vocabulary=self.vocabulary,
            base_tables=self.base_tables,
            influence=self.influence,
            history_coupling=self.history_coupling,
            context=context,
        )

    @cached_property
    def _coupling_array(self) -> np.ndarray | None:
        if self.history_coupling is None:
            return None
        arr = np.asarray(self.history_coupling, dtype=float)
        arr.setflags(write=False)
        return arr

    def base_row(self, step: int) -> np.ndarray:
        """Base logits for 1-based ``step`` in the active context."""
        rows = self.base_tables[self.context]
        return np.asarray(rows[min(step - 1, len(rows) - 1)], dtype=float)


# ---------------------------------------------------------------------------
# configuration and distribution types


@dataclass(frozen=True)
class GenerationConfig:
    """Sampling temperature, message length, and the enumeration cap."""

    temperature: float
    length: int
    enum_cap: int = DEFAULT_ENUM_CAP

    def __post_init__(self) -> None:
        if not np.isfinite(self.temperature) or self.temperature <= 0:
            raise ConfigError(f"temperature must be finite and > 0, got {self.temperature!r}")
        if int(self.length) != self.length or self.length < 1:
            raise ConfigError(f"length must be an integer >= 1, got {self.length!r}")
        object.__setattr__(self, "length", int(self.length))
        if int(self.enum_cap) != self.enum_cap or self.enum_cap < 1:
            raise ConfigError(f"enum_cap must be an integer >= 1, got {self.enum_cap!r}")
        object.__setattr__(self, "enum_cap", int(self.enum_cap))


@dataclass(frozen=True)
class TokenDistribution:
    """Log-probabilities of the next token; exp of them sums to one."""

    log_probs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.log_probs, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "log_probs", arr)
        if not np.all(np.isfinite(arr)):
            raise ModelEvaluationError("token distribution contains non-finite log-probabilities")
        residual = float(logsumexp(arr))
        if abs(residual) > TOKEN_NORMALISATION_TOL:
            raise ModelEvaluationError(
                f"token distribution is not normalised: logsumexp = {residual!r}"
            )

    @property
    def size(self) -> int:
        return int(self.log_probs.shape[0])

    def probs(self) -> np.ndarray:
        return np.exp(self.log_probs)


@dataclass(frozen=True)
class MessageDistribution:
    """Exact distribution over all |V|^L messages, in lexicographic order.

    Entry ``i`` is the log-probability of the message whose token indices are
    the digits of ``i`` in base |V|, most significant digit first.
    """

    vocabulary: Vocabulary
    length: int
    log_probs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.log_probs, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "log_probs", arr)
        expected = self.vocabulary.size**self.length
        if arr.shape != (expected,):
            raise ArgumentError(
                f"message table has {arr.shape} entries, expected ({expected},)"
            )
        residual = float(logsumexp(arr))
        if abs(residual) > MESSAGE_NORMALISATION_TOL:
            raise ModelEvaluationError(
                f"message distribution is not normalised: logsumexp = {residual!r}"
            )

    @property
    def size(self) -> int:
        return int(self.log_probs.shape[0])

    def probs(self) -> np.ndarray:
        return np.exp(self.log_probs)

    def index_of(self, message: Message) -> int:
        return message_index(message, self.vocabulary.size, self.length)

    def message_at(self, index: int) -> Message:
        return message_at_index(index, self.vocabulary.size, self.length)

    def log_prob(self, message: Message) -> float:
        return float(self.log_probs[self.index_of(message)])


def message_index(message: Message, vocab_size: int, length: int) -> int:
    """Lexicographic rank of ``message`` among all messages of ``length``."""
    if len(message) != length:
        raise ArgumentError(f"message has {len(message)} tokens, expected {length}")
    idx = 0
    for t in message.tokens:
        if not 0 <= t < vocab_size:
            raise ArgumentError(f"token index {t} out of range for vocabulary of {vocab_size}")
        idx = idx * vocab_size + t
    return idx


def message_at_index(index: int, vocab_size: int, length: int) -> Message:
    if not 0 <= index < vocab_size**length:
        raise ArgumentError(f"message index {index} out of range")
    digits = []
    for _ in range(length):
        digits.append(index % vocab_size)
        index //= vocab_size
    return Message(tuple(reversed(digits)))


# ---------------------------------------------------------------------------
# logit assembly


def _influence_vector(model: LogitModel, dataset: Dataset) -> np.ndarray:
    """Summed per-record influence for every token, the same at every step."""
    vocab = model.vocabulary
    for i, rec in enumerate(dataset.records):
        if rec.label not in vocab:
            raise InputError(
                f"record {i} has label {rec.label!r} which is not a vocabulary token"
            )
    return model.influence.influence_vector(dataset, vocab)


def record_influence_vector(model: LogitModel, record: Record) -> np.ndarray:
    """Influence of a single record on every token's logit."""
    return _influence_vector(model, Dataset((record,)))


def path_logits(model: LogitModel, dataset: Dataset, length: int) -> np.ndarray:
    """History-free part of the logits: base + influence, shape (L, V)."""
    base = np.stack([model.base_row(k) for k in range(1, length + 1)])
    out = base + _influence_vector(model, dataset)
    if not np.all(np.isfinite(out)):
        raise ModelEvaluationError("logit evaluation produced a non-finite value")
    return out


def step_logits(
    model: LogitModel, dataset: Dataset, history: Sequence[int], step: int
) -> np.ndarray:
    """Full logit vector at 1-based ``step`` after ``history``."""
    if step < 1:
        raise ArgumentError(f"step must be >= 1, got {step}")
    if len(history) != step - 1:
        raise ArgumentError(
            f"history of {len(history)} tokens is invalid for step {step}; expected {step - 1}"
        )
    V = model.vocabulary.size
    for t in history:
        if not 0 <= int(t) < V:
            raise ArgumentError(f"history token index {t} out of range for vocabulary of {V}")
    logits = model.base_row(step) + _influence_vector(model, dataset)
    coupling = model._coupling_array
    if coupling is not None and history:
        logits = logits + coupling[np.asarray(history, dtype=int)].sum(axis=0)
    if not np.all(np.isfinite(logits)):
        raise ModelEvaluationError("logit evaluation produced a non-finite value")
    return logits


# ---------------------------------------------------------------------------
# operations


def token_distribution(
    model: LogitModel,
    dataset: Dataset,
    history: Sequence[int],
    step: int,
    config: GenerationConfig,
) -> TokenDistribution:
    """Temperature-scaled softmax over the next token.

    log pi(w) = l(w)/T - logsumexp_v l(v)/T, evaluated entirely in log space.
    """
    logits = step_logits(model, dataset, history, step)
    scaled = logits / config.temperature
    return TokenDistribution(scaled - logsumexp(scaled))


def message_log_probability(
    model: LogitModel, dataset: Dataset, message: Message, config: GenerationConfig
) -> float:
    """Log-probability of ``message``: the sum of per-step log-probabilities."""
    if len(message) != config.length:
        raise ArgumentError(
            f"message has {len(message)} tokens but the configured length is {config.length}"
        )
    V = model.vocabulary.size
    base = path_logits(model, dataset, config.length)
    coupling = model._coupling_array
    acc = np.zeros(V)
    total = 0.0
    for k, w in enumerate(message.tokens):
        if not 0 <= w < V:
            raise ArgumentError(f"token index {w} out of range for vocabulary of {V}")
        scaled = (base[k] + acc) / config.temperature
        total += float(scaled[w] - logsumexp(scaled))
        if coupling is not None and k < len(message) - 1:
            acc = acc + coupling[w]
    return total


def check_enumerable(vocab_size: int, length: int, cap: int) -> int:
    states = vocab_size**length
    if states > cap:
        raise EnumerationCapError(states, cap)
    return states


def _prefix_walk(
    model: LogitModel, dataset: Dataset, length: int, enum_cap: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The one walk over the prefix tree, step by step.

    Yields, for step k = 1..L, the history-free logit row of shape (|V|,) and
    the history-coupling sum of every prefix of length k-1, shape
    (|V|^(k-1), |V|), whose row i belongs to the prefix of lexicographic rank
    i. A model without history coupling keeps one (1, |V|) zero row, which
    consumers broadcast. The enumeration cap is enforced for both.
    """
    V = model.vocabulary.size
    check_enumerable(V, length, enum_cap)
    base = path_logits(model, dataset, length)
    coupling = model._coupling_array
    acc = np.zeros((1, V))
    for k in range(length):
        yield base[k], acc
        if coupling is not None and k < length - 1:
            acc = (acc[:, None, :] + coupling[None, :, :]).reshape(-1, V)


def _log_normaliser(scaled: np.ndarray) -> np.ndarray:
    """log-sum-exp over the last axis, kept as a length-1 axis.

    A numpy max-shift: on the small rows of a level, scipy's logsumexp costs
    more in per-call overhead than in arithmetic.
    """
    top = scaled.max(axis=-1, keepdims=True)
    return top + np.log(np.exp(scaled - top).sum(axis=-1, keepdims=True))


def _level_log_probs(
    model: LogitModel, dataset: Dataset, config: GenerationConfig
) -> Iterator[np.ndarray]:
    """Per-step log-probabilities over all prefixes, level by level.

    Yields, for step k = 1..L, an array of shape (|V|^(k-1), |V|) whose row i
    is the log next-token distribution after the prefix of lexicographic rank
    i. Prefix order is preserved across levels, so flattening accumulates the
    lexicographic message table. Without history coupling every level is one
    (1, |V|) row shared by all prefixes. A temperature so low that the scaled
    logits overflow raises ModelEvaluationError.
    """
    T = config.temperature
    for row, acc in _prefix_walk(model, dataset, config.length, config.enum_cap):
        with np.errstate(over="ignore", invalid="ignore"):
            scaled = (row[None, :] + acc) / T
            level = scaled - _log_normaliser(scaled)
        if not np.isfinite(level).all():
            raise ModelEvaluationError(f"logits scaled by 1/T at T = {T!r} are not finite")
        yield level


def enumerate_message_distribution(
    model: LogitModel, dataset: Dataset, config: GenerationConfig
) -> MessageDistribution:
    """Exact product-form distribution over all |V|^L messages."""
    table = np.zeros(1)
    for level in _level_log_probs(model, dataset, config):
        table = (table[:, None] + level).reshape(-1)
    return MessageDistribution(model.vocabulary, config.length, table)


def cumulative_logit_scores(
    model: LogitModel, dataset: Dataset, messages: np.ndarray
) -> np.ndarray:
    """Total logit score U(m) = sum_k l(w_k | h_k) for an (n, L) array of
    token indices; independent of temperature."""
    messages = np.asarray(messages, dtype=int)
    if messages.ndim != 2:
        raise ArgumentError(f"messages must be a 2-D array, got shape {messages.shape}")
    n, L = messages.shape
    V = model.vocabulary.size
    if messages.min(initial=0) < 0 or messages.max(initial=0) >= V:
        raise ArgumentError("message token index out of range for the vocabulary")
    base = path_logits(model, dataset, L)
    scores = base[np.arange(L)[None, :], messages].sum(axis=1)
    coupling = model._coupling_array
    if coupling is not None:
        acc = np.zeros((n, V))
        for k in range(L):
            if k > 0:
                scores += acc[np.arange(n), messages[:, k]]
            if k < L - 1:
                acc += coupling[messages[:, k]]
    return scores


def enumerate_cumulative_scores(
    model: LogitModel,
    dataset: Dataset,
    length: int,
    enum_cap: int = DEFAULT_ENUM_CAP,
) -> np.ndarray:
    """U(m) for every message of ``length``, in lexicographic order."""
    if length < 1:
        raise ConfigError(f"length must be >= 1, got {length}")
    scores = np.zeros(1)
    for row, acc in _prefix_walk(model, dataset, length, enum_cap):
        scores = ((scores[:, None] + row[None, :]) + acc).reshape(-1)
    return scores


# ---------------------------------------------------------------------------
# sampling


def derive_rng(root_seed: int, *key: int) -> np.random.Generator:
    """Independent seeded stream for a worker, derived from a root seed."""
    return np.random.default_rng(np.random.SeedSequence(root_seed, spawn_key=tuple(key)))


def sample_messages(
    model: LogitModel,
    dataset: Dataset,
    config: GenerationConfig,
    rng: np.random.Generator,
    count: int,
) -> np.ndarray:
    """Draw ``count`` messages token by token; returns an (count, L) array.

    Each step draws one uniform per message and inverts the CDF of the exact
    per-step distribution, so the output is fully determined by the rng state.
    """
    if count < 0:
        raise ArgumentError(f"count must be >= 0, got {count}")
    V = model.vocabulary.size
    L = config.length
    base = path_logits(model, dataset, L)
    coupling = model._coupling_array
    out = np.empty((count, L), dtype=np.int64)
    acc = None if coupling is None else np.zeros((count, V))
    for k in range(L):
        if acc is None:
            scaled = base[k] / config.temperature
            log_probs = scaled - logsumexp(scaled)
            cum = np.cumsum(np.exp(log_probs))
            u = rng.random(count)
            idx = np.minimum(np.searchsorted(cum, u, side="right"), V - 1)
        else:
            scaled = (base[k][None, :] + acc) / config.temperature
            log_probs = scaled - logsumexp(scaled, axis=1, keepdims=True)
            cum = np.cumsum(np.exp(log_probs), axis=1)
            u = rng.random(count)
            idx = np.minimum((u[:, None] >= cum).sum(axis=1), V - 1)
        out[:, k] = idx
        if acc is not None and k < L - 1:
            acc += coupling[idx]
    return out
