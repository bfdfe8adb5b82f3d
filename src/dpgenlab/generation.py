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

Every exact table comes from one walk over the composition lattice,
``_prefix_walk``. History coupling adds counts(h) @ C to the logits, so the
next-token law after a prefix h depends only on the step and on h's token
counts. Per step the walk yields the logit rows of the distinct compositions,
C(k+V-2, V-1) rows at step k against V^(k-1) prefixes, and a child map to
the next step's rows. Without history coupling each step is one (1, V) row
that every consumer broadcasts. The V^L message tables gather the rows by
each prefix's composition. Every softmax, exact or sampled, comes from
``_tempered_log_probs``: logits scaled by 1/T minus their one normaliser,
``logsumexp``, or ModelEvaluationError if they overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, Union

import numpy as np

from .errors import (
    ArgumentError,
    ConfigError,
    EnumerationCapError,
    InputError,
    ModelEvaluationError,
)

DEFAULT_ENUM_CAP = 10**6

# The coupling-free sampler's guide table has the power of two above
# min(BUCKETS_PER_VALUE * (V-1), draws // DRAWS_PER_BUCKET) buckets. At most
# V-1 buckets hold a CDF value, so with enough draws about 1/BUCKETS_PER_VALUE
# of the draws fall back to a binary search. Building the table takes one
# search per bucket, so with few draws or a large V it costs at most
# 2/DRAWS_PER_BUCKET of the searches the draws would take without it.
BUCKETS_PER_VALUE = 16
DRAWS_PER_BUCKET = 16

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


def check_temperature(temperature: float) -> None:
    """Raise ConfigError unless ``temperature`` is finite and > 0."""
    if not np.isfinite(temperature) or temperature <= 0:
        raise ConfigError(f"temperature must be finite and > 0, got {temperature!r}")


def check_length(length: int) -> int:
    """``length`` as an int; ConfigError unless it is an integer >= 1."""
    if not 1 <= length < np.inf or int(length) != length:
        raise ConfigError(f"length must be an integer >= 1, got {length!r}")
    return int(length)


@dataclass(frozen=True)
class GenerationConfig:
    """Sampling temperature, message length, and the enumeration cap."""

    temperature: float
    length: int
    enum_cap: int = DEFAULT_ENUM_CAP

    def __post_init__(self) -> None:
        check_temperature(self.temperature)
        object.__setattr__(self, "length", check_length(self.length))
        check_enumerable(1, self.length, self.enum_cap)  # checks the cap; 1^L never exceeds it
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
        residual = float(logsumexp(arr)[0])
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
        residual = float(logsumexp(arr)[0])
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
    return TokenDistribution(_tempered_log_probs(logits, config.temperature))


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
        total += float(_tempered_log_probs(base[k] + acc, config.temperature)[w])
        if coupling is not None and k < len(message) - 1:
            acc = acc + coupling[w]
    return total


# What each exact path builds, as a function of (|V|, L): the natural log of
# the count, and the count itself. The V^L tables are the message and score
# tables (coupled hockey-stick delta, the table utility, enumerated moments and
# label smoothing); the split hockey-stick delta of a coupling-free model
# builds half tables of V^ceil(L/2) atoms; the coupled walk builds
# sum_{k=1..L} C(k+V-2, V-1) = C(L+V-1, V) lattice rows and the coupling-free
# walk and its closed forms L rows. A row holds V logits, and the walks are
# capped by their logits, so every count bounds the arrays built.
_BUILT = {
    "messages": (lambda V, L: L * math.log(V), lambda V, L: V**L),
    "half-table atoms": (lambda V, L: -(-L // 2) * math.log(V), lambda V, L: V ** -(-L // 2)),
    "logits in lattice rows": (
        lambda V, L: math.log(V) + math.lgamma(L + V) - math.lgamma(V + 1) - math.lgamma(L),
        lambda V, L: V * math.comb(L + V - 1, V),
    ),
    "logits in step rows": (lambda V, L: math.log(V * L), lambda V, L: V * L),
}


def check_enumerable(vocab_size: int, length: int, cap: int, built: str = "messages") -> int:
    """How many of ``built`` a path over |V| tokens and L steps allocates:
    "messages", "half-table atoms", "logits in lattice rows" or "logits in
    step rows".

    Raises ConfigError unless ``cap`` is an integer >= 1, and
    EnumerationCapError if the count exceeds it. Every exact path calls this
    with what it builds, before it allocates. A count far past the cap is
    refused from its logarithm, without building the number.
    """
    if not 1 <= cap < np.inf or int(cap) != cap:
        raise ConfigError(f"enum_cap must be an integer >= 1, got {cap!r}")
    cap = int(cap)
    log_count, count = _BUILT[built]
    magnitude = log_count(vocab_size, length)
    if magnitude > 2 * math.log(cap) + 50:
        raise EnumerationCapError(f"about 10^{magnitude / math.log(10):.0f}", cap, built)
    states = count(vocab_size, length)
    if states > cap:
        raise EnumerationCapError(states, cap, built)
    return states


def _child_ranks(counts: np.ndarray, binomials: np.ndarray) -> np.ndarray:
    """Entry [c, w] is the rank of composition c + e_w among the next
    step's compositions, where row c of ``counts`` is the composition of
    rank c.

    Stars and bars: with s_i = c_0 + ... + c_(i-1), the rank of c in the
    combinatorial number system is sum_i C(s_i + i - 1, i) over i = 1..V-1.
    Adding token w raises s_i by one for every i > w, which adds
    C(s_i + i - 1, i - 1) to the rank; ``binomials[s, j]`` holds C(s + j, j).
    """
    n, V = counts.shape
    raised = np.zeros((n, V), dtype=np.intp)
    raised[:, :-1] = binomials[np.cumsum(counts[:, :-1], axis=1), np.arange(V - 1)]
    return np.arange(n)[:, None] + np.cumsum(raised[:, ::-1], axis=1)[:, ::-1]


def _prefix_walk(
    model: LogitModel, dataset: Dataset, length: int, enum_cap: int
) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
    """The one walk over the composition lattice, step by step.

    History coupling adds counts(h) @ C to the logits, so the next-token law
    after a prefix h depends only on the step and on h's token counts. For
    step k = 1..L this yields the logit rows of the C(k+V-2, V-1) distinct
    compositions of k-1 tokens, shape (n_k, |V|), and a child map of shape
    (n_k, |V|) whose entry [c, w] is the row of c + e_w at step k+1. A model
    without history coupling has one (1, |V|) row per step, which every
    prefix shares; like the last step, it yields no child map (None). The
    enumeration cap counts the logits the walk builds: |V| per row, over the
    lattice's C(L+V-1, V) rows, or over L rows without coupling.
    """
    V = model.vocabulary.size
    coupling = model._coupling_array
    built = "logits in step rows" if coupling is None else "logits in lattice rows"
    check_enumerable(V, length, enum_cap, built)
    base = path_logits(model, dataset, length)
    if coupling is None:
        for k in range(length):
            yield base[k][None, :], None
        return
    binomials = np.array(
        [[math.comb(s + j, j) for j in range(V - 1)] for s in range(length)], dtype=np.intp
    )
    counts = np.zeros((1, V), dtype=np.intp)
    for k in range(length):
        children = None if k == length - 1 else _child_ranks(counts, binomials)
        yield base[k] + counts @ coupling, children
        if children is not None:
            grown = np.empty((math.comb(k + V, V - 1), V), dtype=np.intp)
            grown[children] = counts[:, None, :] + np.eye(V, dtype=np.intp)
            counts = grown


def logsumexp(values: np.ndarray) -> np.ndarray:
    """log-sum-exp over the last axis, kept as a length-1 axis.

    The max-shift form: the largest term is exp(0) = 1, so the sum neither
    overflows nor loses its largest term to underflow.
    """
    top = values.max(axis=-1, keepdims=True)
    return top + np.log(np.exp(values - top).sum(axis=-1, keepdims=True))


def _tempered_log_probs(logits: np.ndarray, temperature: float) -> np.ndarray:
    """log softmax of ``logits / temperature`` over the last axis, or
    ModelEvaluationError if the logits scaled by 1/T overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = logits / temperature
        log_probs = scaled - logsumexp(scaled)
    if not np.isfinite(log_probs).all():
        raise ModelEvaluationError(f"logits scaled by 1/T at T = {temperature!r} are not finite")
    return log_probs


def _level_log_probs(
    model: LogitModel, dataset: Dataset, config: GenerationConfig
) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
    """Per-step log-probabilities on the composition lattice, level by level.

    Yields, for step k = 1..L, the log next-token distributions of
    ``_prefix_walk``'s logit rows, with the walk's child map. A temperature
    so low that the scaled logits overflow raises ModelEvaluationError.
    """
    for rows, children in _prefix_walk(model, dataset, config.length, config.enum_cap):
        yield _tempered_log_probs(rows, config.temperature), children


def _message_table(levels: Iterable[tuple[np.ndarray, np.ndarray | None]]) -> np.ndarray:
    """Sum of one level entry per step along every message's path, in
    lexicographic order.

    ``prefix`` holds the lattice row of every prefix. It grows only through
    a child map, so a shared (1, |V|) row broadcasts over every prefix.
    """
    table = np.zeros(1)
    prefix = np.zeros(1, dtype=np.intp)
    for rows, children in levels:
        table = (table[:, None] + rows[prefix]).reshape(-1)
        if children is not None:
            prefix = children[prefix].reshape(-1)
    return table


def enumerate_message_distribution(
    model: LogitModel, dataset: Dataset, config: GenerationConfig
) -> MessageDistribution:
    """Exact product-form distribution over all |V|^L messages."""
    check_enumerable(model.vocabulary.size, config.length, config.enum_cap)
    table = _message_table(_level_log_probs(model, dataset, config))
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
    check_enumerable(model.vocabulary.size, check_length(length), enum_cap)
    return _message_table(_prefix_walk(model, dataset, length, enum_cap))


# ---------------------------------------------------------------------------
# sampling


def derive_rng(root_seed: int, *key: int) -> np.random.Generator:
    """Independent seeded stream for a worker, derived from a root seed."""
    return np.random.default_rng(np.random.SeedSequence(root_seed, spawn_key=tuple(key)))


def _invert_cdf(cum: np.ndarray, u: np.ndarray, buckets: int) -> np.ndarray:
    """#{j < V-1 : cum[j] <= u} for each draw u in [0, 1), which is what
    ``min(searchsorted(cum, u, side="right"), V - 1)`` gives.

    Indexed search (Chen & Asau 1974): ``buckets`` is a power of two, so
    bucket b = floor(u * buckets) holds exactly the u in [b/B, (b+1)/B). A
    bucket that holds no value of cum[:-1] answers with one table lookup;
    only the draws in the others fall back to ``searchsorted``.
    """
    inner = cum[:-1]
    edges = np.searchsorted(inner, np.arange(buckets + 1) / buckets, side="right")
    table = np.where(edges[:-1] == edges[1:], edges[:-1], -1)
    idx = table[(u * buckets).astype(np.intp)]
    ambiguous = np.flatnonzero(idx < 0)
    idx[ambiguous] = np.searchsorted(inner, u[ambiguous], side="right")
    return idx


def sample_messages(
    model: LogitModel,
    dataset: Dataset,
    config: GenerationConfig,
    rng: np.random.Generator,
    count: int,
) -> np.ndarray:
    """Draw ``count`` messages token by token; returns a C-contiguous
    (count, L) int64 array.

    Each step draws one uniform per message and inverts the CDF of the exact
    per-step distribution, returning the index ``searchsorted(cum, u,
    side="right")`` would, clamped to V-1; so the output is fully determined
    by the rng state. Without history coupling ``_invert_cdf`` inverts each
    step with a guide table; with it, each row's CDF is compared with its own
    draw. A temperature so low that the scaled logits overflow raises
    ModelEvaluationError.
    """
    if count < 0:
        raise ArgumentError(f"count must be >= 0, got {count}")
    V = model.vocabulary.size
    L = config.length
    base = path_logits(model, dataset, L)
    coupling = model._coupling_array
    buckets = 1 << min(BUCKETS_PER_VALUE * (V - 1), count // DRAWS_PER_BUCKET).bit_length()
    out = np.empty((L, count), dtype=np.int64)
    acc = None if coupling is None else np.zeros((count, V))
    for k in range(L):
        logits = base[k] if acc is None else base[k][None, :] + acc
        cum = np.cumsum(np.exp(_tempered_log_probs(logits, config.temperature)), axis=-1)
        u = rng.random(count)
        if acc is None:
            out[k] = _invert_cdf(cum, u, buckets)
        else:
            out[k] = (u[:, None] >= cum[:, :-1]).sum(axis=1)
            if k < L - 1:
                acc += coupling[out[k]]
    return np.ascontiguousarray(out.T)
