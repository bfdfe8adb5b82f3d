"""Monte Carlo estimation of privacy metrics from sampled generator output.

Two seeded arms sample messages from the mechanism under each of the two
neighboring datasets; messages are projected onto a finite label space,
counts are Laplace-smoothed, and the arms are compared with max-log-ratio
epsilon, total variation, and Jensen-Shannon divergence (natural log).
Alongside the divergences, each cell records the mean cumulative score, the
mean utility, and their sample covariance on the left arm.

A label space is an index map defined by (kind, vocabulary, length): a
message's label is its lexicographic rank (``identity``, V**L labels) or its
first token's index (``first_token``, V labels). Sampling, smoothing and the
divergences work on indices alone; the label strings (tokens joined by
commas) are rendered only when ``LabelSpace.labels`` is read, and no output
reads them, so tokens may contain commas.

Every (temperature, length, repeat) cell owns rng streams derived from the
root seed and the cell's indices, so cells are order-independent and can run
in parallel without changing results.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

import numpy as np
from scipy.special import rel_entr

from .errors import ArgumentError, ConfigError
from .generation import (
    Dataset,
    GenerationConfig,
    LogitModel,
    MessageDistribution,
    Vocabulary,
    derive_rng,
    cumulative_logit_scores,
    enumerate_message_distribution,
    sample_messages,
)
from .privacy import NeighborPair
from .utility import UtilitySpec

IDENTITY_LABEL_CAP = 4096
LABEL_KINDS = ("identity", "first_token")

METRICS = ("empirical_epsilon", "tv", "js", "mean_U", "mean_info_score", "cov_nu_U")

DEFAULT_LENGTHS = (2, 5, 10)
DEFAULT_TEMPERATURES = tuple(round(0.1 * i, 10) for i in range(1, 21))
DEFAULT_SAMPLES = 250
DEFAULT_REPEATS = 10
DEFAULT_ALPHA = 1.0

CSV_HEADER = "temperature,length,metric,mean,std,repeats,samples,alpha,seed"


# ---------------------------------------------------------------------------
# label spaces


def _message_ranks(messages: np.ndarray, vocab_size: int) -> np.ndarray:
    """Lexicographic rank of each row of an (n, L) token-index array."""
    return messages @ vocab_size ** np.arange(messages.shape[1] - 1, -1, -1)


@dataclass(frozen=True)
class LabelSpace:
    """Finite, ordered label set: an index map from messages onto labels."""

    kind: str
    vocabulary: Vocabulary
    length: int

    def __post_init__(self) -> None:
        if self.kind not in LABEL_KINDS:
            raise ConfigError(
                f"unknown label space {self.kind!r}; choose identity or first_token"
            )
        if self.kind == "identity" and self.size > IDENTITY_LABEL_CAP:
            raise ConfigError(
                f"identity label space would need {self.size} labels "
                f"(cap {IDENTITY_LABEL_CAP}); use first_token instead"
            )

    @property
    def size(self) -> int:
        V = self.vocabulary.size
        return V**self.length if self.kind == "identity" else V

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """Label strings in index order: comma-joined tokens, or first tokens."""
        if self.kind == "first_token":
            return self.vocabulary.tokens
        return tuple(
            ",".join(m) for m in itertools.product(self.vocabulary.tokens, repeat=self.length)
        )

    def project_batch(self, messages: np.ndarray) -> np.ndarray:
        """Label index for each row of an (n, L) token-index array."""
        messages = np.asarray(messages, dtype=int)
        if messages.ndim != 2 or messages.shape[1] != self.length:
            raise ArgumentError(
                f"messages must have shape (n, {self.length}), got {messages.shape}"
            )
        if self.kind == "identity":
            return _message_ranks(messages, self.vocabulary.size)
        return messages[:, 0].copy()

    def project_distribution(self, dist: MessageDistribution) -> np.ndarray:
        """Exact label probabilities induced by a message distribution."""
        if dist.vocabulary.tokens != self.vocabulary.tokens or dist.length != self.length:
            raise ArgumentError("distribution and label space live on different message spaces")
        probs = dist.probs()
        if self.kind == "identity":
            return probs
        return probs.reshape(self.vocabulary.size, -1).sum(axis=1)


def make_label_space(kind: str, vocabulary: Vocabulary, length: int) -> LabelSpace:
    return LabelSpace(kind, vocabulary, length)


# ---------------------------------------------------------------------------
# smoothing and divergences


@dataclass(frozen=True)
class SmoothedDistribution:
    """Laplace-smoothed label distribution: P(y) = (c(y) + a) / (n + a*|Y|)."""

    label_space: LabelSpace
    probs: np.ndarray
    sample_count: int
    alpha: float

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=float)
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        size = self.label_space.size
        if probs.shape != (size,):
            raise ArgumentError(f"probs shape {probs.shape} does not match {size} labels")
        if abs(float(probs.sum()) - 1.0) > 1e-12:
            raise ArgumentError(f"smoothed probabilities sum to {float(probs.sum())!r}, not 1")
        floor = self.alpha / (self.sample_count + self.alpha * size)
        if float(probs.min()) < floor - 1e-15:
            raise ArgumentError("smoothed probability fell below the smoothing floor")


def laplace_smooth(
    counts: Union[Sequence[int], np.ndarray],
    sample_count: int,
    alpha: float,
    label_space: LabelSpace,
) -> SmoothedDistribution:
    """Add-alpha smoothing of per-label counts, in label-index order, into a
    strictly positive distribution."""
    if not np.isfinite(alpha) or alpha <= 0:
        raise ConfigError(f"alpha must be finite and > 0, got {alpha!r}")
    vec = np.asarray(counts, dtype=float)
    if vec.shape != (label_space.size,):
        raise ArgumentError(f"counts shape {vec.shape} does not match {label_space.size} labels")
    if np.any(vec < 0):
        raise ArgumentError("counts must be nonnegative")
    total = float(vec.sum())
    if abs(total - sample_count) > 1e-9:
        raise ArgumentError(f"counts sum to {total}, expected sample_count = {sample_count}")
    probs = (vec + alpha) / (sample_count + alpha * label_space.size)
    return SmoothedDistribution(
        label_space=label_space, probs=probs, sample_count=sample_count, alpha=alpha
    )


Distribution = Union[SmoothedDistribution, Sequence[float], np.ndarray]


def _paired_probs(p: Distribution, q: Distribution) -> tuple[np.ndarray, np.ndarray]:
    # Plain probability vectors are accepted so the divergences also apply to
    # exact (unsmoothed) distributions; label spaces must match when both
    # sides carry one.
    if isinstance(p, SmoothedDistribution) and isinstance(q, SmoothedDistribution):
        if p.label_space != q.label_space:
            raise ArgumentError("distributions are over different label spaces")
    pv = p.probs if isinstance(p, SmoothedDistribution) else np.asarray(p, dtype=float)
    qv = q.probs if isinstance(q, SmoothedDistribution) else np.asarray(q, dtype=float)
    if pv.shape != qv.shape:
        raise ArgumentError(f"distribution shapes differ: {pv.shape} vs {qv.shape}")
    return pv, qv


def empirical_epsilon(p: Distribution, q: Distribution) -> float:
    """Largest absolute log-ratio max_y |log P(y) - log Q(y)|.

    A label with probability 0 on both sides counts 0; one with probability 0
    on one side only makes the result inf.
    """
    pv, qv = _paired_probs(p, q)
    support = (pv > 0) | (qv > 0)
    with np.errstate(divide="ignore"):
        return float(np.abs(np.log(pv[support]) - np.log(qv[support])).max(initial=0.0))


def total_variation(p: Distribution, q: Distribution) -> float:
    """0.5 * sum_y |P(y) - Q(y)|."""
    pv, qv = _paired_probs(p, q)
    return float(0.5 * np.abs(pv - qv).sum())


def js_divergence(p: Distribution, q: Distribution) -> float:
    """0.5*KL(P||M) + 0.5*KL(Q||M) with M the midpoint, natural log."""
    pv, qv = _paired_probs(p, q)
    mid = 0.5 * (pv + qv)
    return float(0.5 * rel_entr(pv, mid).sum() + 0.5 * rel_entr(qv, mid).sum())


# ---------------------------------------------------------------------------
# sweep cells


@dataclass(frozen=True)
class CellMetrics:
    empirical_epsilon: float
    tv: float
    js: float
    mean_U: float
    mean_info_score: float
    cov_nu_U: float

    def to_jsonable(self) -> dict:
        return {metric: getattr(self, metric) for metric in METRICS}


def _counts(label_space: LabelSpace, label_indices: np.ndarray) -> np.ndarray:
    return np.bincount(label_indices, minlength=label_space.size).astype(float)


def estimate_cell(
    model: LogitModel,
    pair: NeighborPair,
    temperature: float,
    length: int,
    samples: int,
    alpha: float,
    label_kind: str,
    utility: UtilitySpec,
    left_rng: np.random.Generator,
    right_rng: np.random.Generator,
) -> CellMetrics:
    """One repeat: sample both arms, smooth, and compare."""
    if samples < 1:
        raise ConfigError(f"samples must be >= 1, got {samples}")
    config = GenerationConfig(temperature=temperature, length=length)
    label_space = make_label_space(label_kind, model.vocabulary, length)
    utility.check_table_size(model.vocabulary.size**length)

    left_msgs = sample_messages(model, pair.left, config, left_rng, samples)
    right_msgs = sample_messages(model, pair.right, config, right_rng, samples)

    p = laplace_smooth(
        _counts(label_space, label_space.project_batch(left_msgs)), samples, alpha, label_space
    )
    q = laplace_smooth(
        _counts(label_space, label_space.project_batch(right_msgs)), samples, alpha, label_space
    )

    scores = cumulative_logit_scores(model, pair.left, left_msgs)
    ranks = _message_ranks(left_msgs, model.vocabulary.size) if utility.kind == "table" else None
    values = utility.values_for(scores, length, message_indices=ranks)
    if samples > 1:
        cov = float(np.cov(values, scores, ddof=1)[0, 1])
    else:
        cov = 0.0

    return CellMetrics(
        empirical_epsilon=empirical_epsilon(p, q),
        tv=total_variation(p, q),
        js=js_divergence(p, q),
        mean_U=float(scores.mean()),
        mean_info_score=float(values.mean()),
        cov_nu_U=cov,
    )


def exact_smoothed_distribution(
    model: LogitModel,
    dataset: Dataset,
    config: GenerationConfig,
    label_space: LabelSpace,
    samples: int,
    alpha: float,
) -> SmoothedDistribution:
    """What Laplace smoothing converges to: counts replaced by n * P(y)."""
    label_probs = label_space.project_distribution(
        enumerate_message_distribution(model, dataset, config)
    )
    probs = (samples * label_probs + alpha) / (samples + alpha * label_space.size)
    return SmoothedDistribution(
        label_space=label_space, probs=probs, sample_count=samples, alpha=alpha
    )


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class SweepRow:
    temperature: float
    length: int
    metric: str
    mean: float
    std: float
    repeats: int


@dataclass(frozen=True)
class SweepResult:
    """Aggregated metric curves plus everything needed to replay the run."""

    rows: tuple[SweepRow, ...]
    samples: int
    alpha: float
    root_seed: int

    def __post_init__(self) -> None:
        keys = [(r.temperature, r.length, r.metric) for r in self.rows]
        if len(set(keys)) != len(keys):
            raise ArgumentError("duplicate (temperature, length, metric) row in sweep result")

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for r in self.rows:
            lines.append(
                f"{r.temperature!r},{r.length},{r.metric},{r.mean!r},{r.std!r},"
                f"{r.repeats},{self.samples},{self.alpha!r},{self.root_seed}"
            )
        return "\n".join(lines) + "\n"

    def curve(self, length: int, metric: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(temperatures, means, stds) for one metric at one length."""
        rows = sorted(
            (r for r in self.rows if r.length == length and r.metric == metric),
            key=lambda r: r.temperature,
        )
        return (
            np.array([r.temperature for r in rows]),
            np.array([r.mean for r in rows]),
            np.array([r.std for r in rows]),
        )


def _cell_seeds(root_seed: int, t_idx: int, l_idx: int, repeat: int, shared_seed: bool):
    left = derive_rng(root_seed, t_idx, l_idx, repeat, 0)
    right = derive_rng(root_seed, t_idx, l_idx, repeat, 0 if shared_seed else 1)
    return left, right


def _run_cell(task: tuple) -> tuple[tuple[int, int, int], CellMetrics]:
    (model, pair, temperatures, lengths, samples, alpha, label_kind, utility,
     root_seed, shared_seed, t_idx, l_idx, repeat) = task
    left_rng, right_rng = _cell_seeds(root_seed, t_idx, l_idx, repeat, shared_seed)
    cell = estimate_cell(
        model, pair, temperatures[t_idx], lengths[l_idx], samples, alpha,
        label_kind, utility, left_rng, right_rng,
    )
    return (t_idx, l_idx, repeat), cell


def run_sweep(
    model: LogitModel,
    pair: NeighborPair,
    lengths: Sequence[int] = DEFAULT_LENGTHS,
    temperatures: Sequence[float] = DEFAULT_TEMPERATURES,
    samples: int = DEFAULT_SAMPLES,
    repeats: int = DEFAULT_REPEATS,
    alpha: float = DEFAULT_ALPHA,
    label_kind: str = "identity",
    utility: UtilitySpec | None = None,
    root_seed: int = 0,
    shared_seed: bool = False,
    jobs: int = 1,
) -> SweepResult:
    """Metric curves over a temperature grid, averaged over seeded repeats.

    Means and stds are taken across ``repeats`` independent cells; the std
    uses the unbiased (n-1) denominator and is 0.0 when repeats == 1. At most
    ``jobs`` worker processes run the cells, and never more than there are
    cells.
    """
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    if not lengths:
        raise ConfigError("at least one length is required")
    if not temperatures:
        raise ConfigError("at least one temperature is required")
    if utility is None:
        utility = UtilitySpec.exp_logit_plus_length()
    lengths = tuple(int(x) for x in lengths)
    temperatures = tuple(float(t) for t in temperatures)
    for length in lengths:  # fail before any cell runs
        make_label_space(label_kind, model.vocabulary, length)
        utility.check_table_size(model.vocabulary.size**length)

    tasks = [
        (model, pair, temperatures, lengths, samples, alpha, label_kind, utility,
         root_seed, shared_seed, t_idx, l_idx, repeat)
        for t_idx in range(len(temperatures))
        for l_idx in range(len(lengths))
        for repeat in range(repeats)
    ]
    results: dict[tuple[int, int, int], CellMetrics] = {}
    workers = min(jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for key, cell in pool.map(_run_cell, tasks, chunksize=8):
                results[key] = cell
    else:
        for task in tasks:
            key, cell = _run_cell(task)
            results[key] = cell

    rows = []
    for t_idx, temperature in enumerate(temperatures):
        for l_idx, length in enumerate(lengths):
            cells = [results[(t_idx, l_idx, r)] for r in range(repeats)]
            for metric in METRICS:
                values = np.array([getattr(c, metric) for c in cells])
                std = float(values.std(ddof=1)) if repeats > 1 else 0.0
                rows.append(
                    SweepRow(
                        temperature=temperature,
                        length=length,
                        metric=metric,
                        mean=float(values.mean()),
                        std=std,
                        repeats=repeats,
                    )
                )
    return SweepResult(rows=tuple(rows), samples=samples, alpha=alpha, root_seed=root_seed)
