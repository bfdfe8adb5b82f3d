"""Exact and worst-case privacy loss of the generation mechanism.

Neighboring datasets differ by replacing a single record. The worst-case
logit shift between neighbors is

    Delta = max over steps k and tokens w of
            |influence(new_record, w, k) - influence(old_record, w, k)|

which bounds every per-step log-probability ratio by 2*Delta/T and therefore
the whole L-step message by 2*Delta*L/T. Hockey-stick divergence converts an
epsilon into the smallest admissible delta:
delta(eps) = sum_m max(P(m) - e^eps * Q(m), 0).

The exact counterparts read the gaps p_k - q_k between the two arms' level
log-probabilities, one level per step. The per-step epsilon is the largest
|gap| of each level. The log-ratio of a message is the sum of the gaps along
its path through the prefix tree, so the message epsilon is a max-plus pass
over the levels, backward from the last, and its witness follows the argmaxes
forward from the root. A level holds one row per prefix under history
coupling and one shared (1, V) row without it; then the pass reduces to
max(sum_k max_w r_k, sum_k max_w -r_k) at O(L*V) cost. Only hockey-stick
delta enumerates the two message tables. Every path enforces the same
enumeration cap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

import numpy as np

from .errors import ArgumentError, ConfigError, WorkbenchError
from .generation import (
    Dataset,
    GenerationConfig,
    LogitModel,
    Message,
    MessageDistribution,
    Record,
    check_enumerable,
    enumerate_message_distribution,
    record_influence_vector,
    step_logits,
    token_distribution,
    _level_log_probs,
)

BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class NeighborPair:
    """Two datasets of equal size differing in exactly one record."""

    left: Dataset
    right: Dataset
    differing_index: int

    def __post_init__(self) -> None:
        if len(self.left) != len(self.right):
            raise ArgumentError(
                f"neighboring datasets must have equal record counts, "
                f"got {len(self.left)} and {len(self.right)}"
            )
        if not 0 <= self.differing_index < len(self.left):
            raise ArgumentError(
                f"differing_index {self.differing_index} out of range for "
                f"{len(self.left)} records"
            )
        for i, (a, b) in enumerate(zip(self.left.records, self.right.records)):
            if i != self.differing_index and a != b:
                raise ArgumentError(
                    f"datasets differ at record {i}, but differing_index is "
                    f"{self.differing_index}"
                )

    @property
    def old_record(self) -> Record:
        return self.left.records[self.differing_index]

    @property
    def new_record(self) -> Record:
        return self.right.records[self.differing_index]


@dataclass(frozen=True)
class Sensitivity:
    """Worst-case per-token logit shift between the two neighbors."""

    delta_logit: float
    attained_at: Union[str, tuple[str, int, tuple[int, ...]]]

    def __post_init__(self) -> None:
        if not np.isfinite(self.delta_logit) or self.delta_logit < 0:
            raise ArgumentError(f"delta_logit must be finite and >= 0, got {self.delta_logit!r}")


@dataclass(frozen=True)
class PrivacyReport:
    """Exact and worst-case privacy quantities for one neighbor pair.

    Exact values are maximised over every declared context of the model;
    ``worst_context`` names the context attaining the message-level maximum.
    """

    temperature: float
    length: int
    delta_logit: float
    sensitivity_attained_at: Union[str, tuple[str, int, tuple[int, ...]]]
    token_epsilon_bound: float
    message_epsilon_bound: float
    exact_message_epsilon: float
    worst_message: tuple[str, ...]
    worst_context: str
    per_step_exact_epsilons: tuple[float, ...]
    hockey_stick_delta_at: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if self.exact_message_epsilon > self.message_epsilon_bound + BOUND_SLACK:
            raise WorkbenchError(
                f"internal inconsistency: exact message epsilon "
                f"{self.exact_message_epsilon} exceeds its bound {self.message_epsilon_bound}"
            )
        for k, eps in enumerate(self.per_step_exact_epsilons, start=1):
            if eps > self.token_epsilon_bound + BOUND_SLACK:
                raise WorkbenchError(
                    f"internal inconsistency: step {k} exact epsilon {eps} exceeds "
                    f"the per-token bound {self.token_epsilon_bound}"
                )

    def to_jsonable(self) -> dict:
        attained = self.sensitivity_attained_at
        if isinstance(attained, tuple):
            attained = {"token": attained[0], "step": attained[1], "history": list(attained[2])}
        return {
            "temperature": self.temperature,
            "length": self.length,
            "delta_logit": self.delta_logit,
            "sensitivity_attained_at": attained,
            "token_epsilon_bound": self.token_epsilon_bound,
            "message_epsilon_bound": self.message_epsilon_bound,
            "exact_message_epsilon": self.exact_message_epsilon,
            "worst_message": list(self.worst_message),
            "worst_context": self.worst_context,
            "per_step_exact_epsilons": list(self.per_step_exact_epsilons),
            "hockey_stick_delta_at": [list(point) for point in self.hockey_stick_delta_at],
        }


# ---------------------------------------------------------------------------
# sensitivity


def logit_sensitivity(
    model: LogitModel,
    pair: NeighborPair,
    config: GenerationConfig,
    method: str = "analytic",
) -> Sensitivity:
    """Worst-case logit shift Delta between the two neighboring datasets.

    ``analytic`` exploits record-additivity: base logits and history coupling
    cancel between neighbors, so Delta is the largest influence difference of
    the replaced record over tokens, the same at every step. ``enumerate``
    recomputes the full logits for every step, history, and token; it exists
    as an independent cross-check and requires enumerable history spaces.
    """
    if method == "analytic":
        diff = np.abs(
            record_influence_vector(model, pair.new_record)
            - record_influence_vector(model, pair.old_record)
        )
        return Sensitivity(delta_logit=float(diff.max()), attained_at="analytic")
    if method == "enumerate":
        V = model.vocabulary.size
        check_enumerable(V, max(config.length - 1, 1), config.enum_cap)
        best = -1.0
        witness: tuple[str, int, tuple[int, ...]] = (model.vocabulary.tokens[0], 1, ())
        for k in range(1, config.length + 1):
            for history in itertools.product(range(V), repeat=k - 1):
                diff = np.abs(
                    step_logits(model, pair.right, history, k)
                    - step_logits(model, pair.left, history, k)
                )
                j = int(diff.argmax())
                if diff[j] > best:
                    best = float(diff[j])
                    witness = (model.vocabulary.tokens[j], k, history)
        return Sensitivity(delta_logit=best, attained_at=witness)
    raise ArgumentError(f"unknown sensitivity method {method!r}")


# ---------------------------------------------------------------------------
# exact epsilons


def token_epsilon_exact(
    model: LogitModel,
    pair: NeighborPair,
    history: Sequence[int],
    step: int,
    config: GenerationConfig,
) -> float:
    """Largest |log pi_left(w) - log pi_right(w)| over next tokens w."""
    p = token_distribution(model, pair.left, history, step, config).log_probs
    q = token_distribution(model, pair.right, history, step, config).log_probs
    return float(np.abs(p - q).max())


def _level_gaps(
    model: LogitModel, pair: NeighborPair, config: GenerationConfig
) -> Iterator[np.ndarray]:
    """p_k - q_k for each level of the two arms' prefix walks."""
    for p, q in zip(
        _level_log_probs(model, pair.left, config),
        _level_log_probs(model, pair.right, config),
    ):
        yield p - q


def _max_path(levels: Sequence[np.ndarray]) -> tuple[float, tuple[int, ...]]:
    """Largest sum of level entries along one message's path, with the
    lexicographically smallest message attaining it.

    Level k holds one row per prefix of length k-1, or one row that every
    prefix shares. The backward pass adds to each entry the best sum over
    the steps after it (the next level's row maxima, reshaped to this
    level's rows) and keeps the first argmax of each row; the witness then
    follows the argmaxes forward from the root.
    """
    best = np.zeros(len(levels[-1]))
    choices = []
    for level in reversed(levels):
        total = level + best.reshape(len(level), -1)
        choices.append(total.argmax(axis=1))
        best = total.max(axis=1)
    V = levels[0].shape[1]
    row, witness = 0, []
    for choice in reversed(choices):
        w = int(choice[row % len(choice)])  # a shared row serves every prefix
        witness.append(w)
        row = row * V + w
    return float(best[0]), tuple(witness)


def message_epsilon_exact(
    model: LogitModel, pair: NeighborPair, config: GenerationConfig
) -> tuple[float, Message]:
    """Largest |log P_left(m) - log P_right(m)| over all messages, with witness.

    The maximum is taken over both signs of the gaps; on a tie between the
    two signs the lexicographically smaller witness wins, as it does in an
    enumeration of the message tables.
    """
    gaps = list(_level_gaps(model, pair, config))
    sides = [_max_path(gaps), _max_path([-gap for gap in gaps])]
    eps = max(e for e, _ in sides)
    return eps, Message(min(w for e, w in sides if e == eps))


def per_step_max_epsilons(
    model: LogitModel, pair: NeighborPair, config: GenerationConfig
) -> tuple[float, ...]:
    """For each step, the exact epsilon maximised over all histories."""
    return tuple(float(np.abs(gap).max()) for gap in _level_gaps(model, pair, config))


# ---------------------------------------------------------------------------
# closed-form bounds


def token_epsilon_bound(delta_logit: float, temperature: float) -> float:
    """Per-step bound 2*Delta/T."""
    _check_delta(delta_logit)
    _check_temperature(temperature)
    return 2.0 * delta_logit / temperature


def message_epsilon_bound(delta_logit: float, temperature: float, length: int) -> float:
    """Whole-message bound 2*Delta*L/T: the per-step bound composed L times."""
    _check_delta(delta_logit)
    _check_temperature(temperature)
    _check_length(length)
    return 2.0 * delta_logit * length / temperature


def temperature_floor_for_budget(
    delta_logit: float, length: int, epsilon_budget: float
) -> float:
    """Smallest temperature whose message bound still meets the budget.

    Inverts 2*Delta*L/T <= eps into T >= 2*Delta*L/eps.
    """
    _check_delta(delta_logit)
    _check_length(length)
    if not np.isfinite(epsilon_budget) or epsilon_budget <= 0:
        raise ConfigError(f"epsilon budget must be finite and > 0, got {epsilon_budget!r}")
    return 2.0 * delta_logit * length / epsilon_budget


def _check_delta(delta_logit: float) -> None:
    if not np.isfinite(delta_logit) or delta_logit < 0:
        raise ConfigError(f"delta_logit must be finite and >= 0, got {delta_logit!r}")


def _check_temperature(temperature: float) -> None:
    if not np.isfinite(temperature) or temperature <= 0:
        raise ConfigError(f"temperature must be finite and > 0, got {temperature!r}")


def _check_length(length: int) -> None:
    if int(length) != length or length < 1:
        raise ConfigError(f"length must be an integer >= 1, got {length!r}")


# ---------------------------------------------------------------------------
# hockey-stick divergence


def hockey_stick_delta(
    p: MessageDistribution, q: MessageDistribution, epsilon: float
) -> float:
    """delta(eps) = sum_m max(P(m) - e^eps * Q(m), 0).

    This equals the maximum over all message sets S of P(S) - e^eps * Q(S),
    because the positive per-message terms are exactly the ones worth
    including in S.
    """
    _require_same_space(p, q)
    if not np.isfinite(epsilon) or epsilon < 0:
        raise ConfigError(f"epsilon must be finite and >= 0, got {epsilon!r}")
    lp = p.log_probs
    lq = q.log_probs + epsilon
    mask = lp > lq
    if not mask.any():
        return 0.0
    return float(np.sum(np.exp(lp[mask]) - np.exp(lq[mask])))


def hockey_stick_curve(
    p: MessageDistribution, q: MessageDistribution, epsilons: Sequence[float]
) -> tuple[tuple[float, float], ...]:
    return tuple((float(e), hockey_stick_delta(p, q, e)) for e in epsilons)


def _require_same_space(p: MessageDistribution, q: MessageDistribution) -> None:
    if p.vocabulary.tokens != q.vocabulary.tokens or p.length != q.length:
        raise ArgumentError(
            "distributions live on different message spaces "
            f"({p.vocabulary.size} tokens, length {p.length} vs "
            f"{q.vocabulary.size} tokens, length {q.length})"
        )


# ---------------------------------------------------------------------------
# report assembly


def analyze_pair(
    model: LogitModel,
    pair: NeighborPair,
    config: GenerationConfig,
) -> PrivacyReport:
    """Full privacy report, worst case over every declared context."""
    sens = logit_sensitivity(model, pair, config)
    tok_bound = token_epsilon_bound(sens.delta_logit, config.temperature)
    msg_bound = message_epsilon_bound(sens.delta_logit, config.temperature, config.length)

    worst_eps = -1.0
    worst_message = None
    worst_context = model.context
    per_step = None
    for cid in model.context_ids:
        ctx_model = model.with_context(cid)
        eps, witness = message_epsilon_exact(ctx_model, pair, config)
        if eps > worst_eps:
            worst_eps = eps
            worst_message = witness
            worst_context = cid
        steps = per_step_max_epsilons(ctx_model, pair, config)
        per_step = steps if per_step is None else tuple(
            max(a, b) for a, b in zip(per_step, steps)
        )

    ctx_model = model.with_context(worst_context)
    p = enumerate_message_distribution(ctx_model, pair.left, config)
    q = enumerate_message_distribution(ctx_model, pair.right, config)
    curve = hockey_stick_curve(p, q, (0.0, worst_eps / 2.0, worst_eps))

    assert worst_message is not None and per_step is not None
    return PrivacyReport(
        temperature=config.temperature,
        length=config.length,
        delta_logit=sens.delta_logit,
        sensitivity_attained_at=sens.attained_at,
        token_epsilon_bound=tok_bound,
        message_epsilon_bound=msg_bound,
        exact_message_epsilon=worst_eps,
        worst_message=worst_message.render(model.vocabulary),
        worst_context=worst_context,
        per_step_exact_epsilons=per_step,
        hockey_stick_delta_at=curve,
    )
