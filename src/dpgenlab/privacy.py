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
log-probabilities, one level per step. Under history coupling a level holds
one row per composition of the prefix's token counts, C(k+V-2, V-1) rows at
step k against the V^(k-1) prefixes, because prefixes with equal counts share
their next-token law. The per-step epsilon is the largest |gap| of each
level. The log-ratio of a message is the sum of the gaps along its path
through the composition lattice, so the message epsilon is a max-plus pass
over the levels, backward from the last through the lattice's child maps, and
its witness follows the argmaxes forward from the root. Without coupling a
level is one shared (1, V) row, and the pass reduces to
max(sum_k max_w r_k, sum_k max_w -r_k) at O(L*V) cost.

Hockey-stick delta of a coupled model sums over the two V^L-entry message
tables. Without coupling the privacy loss of a message is a sum of
independent per-step terms, so delta is split in the middle (Horowitz &
Sahni's meet in the middle, applied to the privacy-loss distribution of a
product mechanism): each arm gets two half tables of at most V^ceil(L/2)
atoms, and delta is read exactly from one sorted half and its suffix sums.
The enumeration cap counts what each path builds: the logits of the lattice
rows (of L rows without coupling) for the epsilons, the V^L messages of the
tables, or the V^ceil(L/2) atoms of the split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

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
    check_length,
    check_temperature,
    enumerate_message_distribution,
    record_influence_vector,
    token_distribution,
    _level_log_probs,
    _message_table,
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
    attained_at: str

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
    sensitivity_attained_at: str
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
        return {
            "temperature": self.temperature,
            "length": self.length,
            "delta_logit": self.delta_logit,
            "sensitivity_attained_at": self.sensitivity_attained_at,
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


def logit_sensitivity(model: LogitModel, pair: NeighborPair) -> Sensitivity:
    """Worst-case logit shift Delta between the two neighboring datasets.

    Logits are record-additive, so base logits and history coupling cancel
    between neighbors: Delta is the largest influence difference of the
    replaced record over tokens, the same at every step and history.
    """
    diff = np.abs(
        record_influence_vector(model, pair.new_record)
        - record_influence_vector(model, pair.old_record)
    )
    return Sensitivity(delta_logit=float(diff.max()), attained_at="analytic")


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
) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
    """p_k - q_k for each level of the two arms' lattice walks, with the
    child map that both arms share."""
    for (p, children), (q, _) in zip(
        _level_log_probs(model, pair.left, config),
        _level_log_probs(model, pair.right, config),
    ):
        yield p - q, children


def _max_path(
    levels: Sequence[tuple[np.ndarray, np.ndarray | None]]
) -> tuple[float, tuple[int, ...]]:
    """Largest sum of level entries along one message's path, with the
    lexicographically smallest message attaining it.

    Each level holds one row per lattice composition and a child map, or one
    row that every prefix shares and no child map. The backward pass adds to
    each entry the best sum over the steps after it (the next level's row
    maxima, gathered through the child map) and keeps the first argmax of
    each row; the witness then follows the argmaxes forward from the root.
    """
    best = np.zeros(1)
    choices = []
    for gap, children in reversed(levels):
        total = gap + (best if children is None else best[children])
        choices.append(total.argmax(axis=1))
        best = total.max(axis=1)
    row, witness = 0, []
    for (_, children), choice in zip(levels, reversed(choices)):
        w = int(choice[row])
        witness.append(w)
        if children is not None:
            row = int(children[row, w])
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
    sides = [_max_path(gaps), _max_path([(-gap, children) for gap, children in gaps])]
    eps = max(e for e, _ in sides)
    return eps, Message(min(w for e, w in sides if e == eps))


def per_step_max_epsilons(
    model: LogitModel, pair: NeighborPair, config: GenerationConfig
) -> tuple[float, ...]:
    """For each step, the exact epsilon maximised over all histories."""
    return tuple(float(np.abs(gap).max()) for gap, _ in _level_gaps(model, pair, config))


# ---------------------------------------------------------------------------
# closed-form bounds


def token_epsilon_bound(delta_logit: float, temperature: float) -> float:
    """Per-step bound 2*Delta/T."""
    _check_delta(delta_logit)
    check_temperature(temperature)
    return 2.0 * delta_logit / temperature


def message_epsilon_bound(delta_logit: float, temperature: float, length: int) -> float:
    """Whole-message bound 2*Delta*L/T: the per-step bound composed L times."""
    _check_delta(delta_logit)
    check_temperature(temperature)
    check_length(length)
    return 2.0 * delta_logit * length / temperature


def temperature_floor_for_budget(
    delta_logit: float, length: int, epsilon_budget: float
) -> float:
    """Smallest temperature whose message bound still meets the budget.

    Inverts 2*Delta*L/T <= eps into T >= 2*Delta*L/eps.
    """
    _check_delta(delta_logit)
    check_length(length)
    if not np.isfinite(epsilon_budget) or epsilon_budget <= 0:
        raise ConfigError(f"epsilon budget must be finite and > 0, got {epsilon_budget!r}")
    return 2.0 * delta_logit * length / epsilon_budget


def _check_delta(delta_logit: float) -> None:
    if not np.isfinite(delta_logit) or delta_logit < 0:
        raise ConfigError(f"delta_logit must be finite and >= 0, got {delta_logit!r}")


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
    _check_epsilon(epsilon)
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


def split_hockey_stick_curve(
    model: LogitModel, pair: NeighborPair, config: GenerationConfig, epsilons: Sequence[float]
) -> tuple[tuple[float, float], ...]:
    """(eps, delta(eps)) for a model without history coupling, exactly,
    from half tables of at most V^ceil(L/2) atoms per arm.

    A message m = (a, b) splits into its first ceil(L/2) tokens a and the
    rest b. Without coupling P(m) = P_a P_b, Q(m) = Q_a Q_b, and the loss
    log P(m)/Q(m) is lambda_a + lambda_b. With B sorted by lambda_b, and SP(t),
    SQ(t) the sums of P_b, Q_b over lambda_b > t,

        delta(eps) = sum_a P_a SP(eps - lambda_a) - e^eps Q_a SQ(eps - lambda_a)

    with one searchsorted over the atoms a per epsilon. Every term is
    summed in log space: e^eps Q_a SQ <= P_a SP <= 1, so no term overflows
    where e^eps alone would.
    """
    if model.history_coupling is not None:
        raise ArgumentError("the split hockey-stick delta needs a model without history coupling")
    check_enumerable(model.vocabulary.size, config.length, config.enum_cap, "half-table atoms")
    half = -(-config.length // 2)
    tables = []
    for dataset in (pair.left, pair.right):
        levels = list(_level_log_probs(model, dataset, config))
        tables.append((_message_table(levels[:half]), _message_table(levels[half:])))
    (lp_a, lp_b), (lq_a, lq_b) = tables
    loss_a, loss_b = lp_a - lq_a, lp_b - lq_b
    order = np.argsort(loss_b)
    loss_b = loss_b[order]

    def log_suffix_sums(log_w: np.ndarray) -> np.ndarray:
        # Entry i is log sum_{j >= i} w_j in lambda_b order; the last, -inf,
        # is the empty sum past every atom.
        return np.append(np.logaddexp.accumulate(log_w[order][::-1])[::-1], -np.inf)

    sp, sq = log_suffix_sums(lp_b), log_suffix_sums(lq_b)
    curve = []
    for eps in epsilons:
        _check_epsilon(eps)
        first = np.searchsorted(loss_b, eps - loss_a, side="right")
        delta = np.exp(lp_a + sp[first]).sum() - np.exp(eps + lq_a + sq[first]).sum()
        curve.append((float(eps), max(float(delta), 0.0)))
    return tuple(curve)


def _check_epsilon(epsilon: float) -> None:
    if not np.isfinite(epsilon) or epsilon < 0:
        raise ConfigError(f"epsilon must be finite and >= 0, got {epsilon!r}")


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
    """Full privacy report, worst case over every declared context.

    Hockey-stick delta builds the most of any field, so its count is checked
    against the cap before any walk.
    """
    coupled = model.history_coupling is not None
    built = "messages" if coupled else "half-table atoms"
    check_enumerable(model.vocabulary.size, config.length, config.enum_cap, built)
    sens = logit_sensitivity(model, pair)
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
    epsilons = (0.0, worst_eps / 2.0, worst_eps)
    if coupled:
        p = enumerate_message_distribution(ctx_model, pair.left, config)
        q = enumerate_message_distribution(ctx_model, pair.right, config)
        curve = hockey_stick_curve(p, q, epsilons)
    else:
        curve = split_hockey_stick_curve(ctx_model, pair, config, epsilons)

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
