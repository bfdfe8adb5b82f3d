"""Independent oracle implementations used to cross-check the package.

Everything here is written the slow, obvious way (pure-python loops,
itertools enumeration, bitmask subsets) and deliberately shares no code with
the package internals beyond the public model types it receives.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.special import logsumexp

from dpgenlab import (
    Dataset,
    LabelBonusRule,
    LogitModel,
    NeighborPair,
    Record,
    TagTableRule,
    Vocabulary,
)


def naive_softmax(logits, temperature):
    scaled = [x / temperature for x in logits]
    top = max(scaled)
    weights = [math.exp(s - top) for s in scaled]
    total = sum(weights)
    return [w / total for w in weights]


def naive_influence(rule, records, tokens):
    """Summed per-record logit contribution, reimplemented from scratch."""
    out = [0.0] * len(tokens)
    for record in records:
        if isinstance(rule, LabelBonusRule):
            for j, token in enumerate(tokens):
                if token == record.label:
                    out[j] += rule.beta
        elif isinstance(rule, TagTableRule):
            row = rule.table.get(record.tag)
            if row is not None:
                for j in range(len(tokens)):
                    out[j] += row[j]
        else:
            raise TypeError(f"unsupported rule {type(rule)!r}")
    return out


def naive_step_logits(model, dataset, history, step):
    """base + record influence + history coupling, all plain python."""
    tokens = model.vocabulary.tokens
    rows = model.base_tables[model.context]
    base = rows[min(step - 1, len(rows) - 1)]
    infl = naive_influence(model.influence, dataset.records, tokens)
    logits = [base[j] + infl[j] for j in range(len(tokens))]
    if model.history_coupling is not None:
        for prev in history:
            row = model.history_coupling[prev]
            logits = [logits[j] + row[j] for j in range(len(tokens))]
    return logits


def naive_message_probs(model, dataset, length, temperature):
    """Probability of every message, in lexicographic order, by brute force."""
    V = model.vocabulary.size
    probs = []
    for message in itertools.product(range(V), repeat=length):
        p = 1.0
        for step in range(1, length + 1):
            history = message[: step - 1]
            dist = naive_softmax(naive_step_logits(model, dataset, history, step), temperature)
            p *= dist[message[step - 1]]
        probs.append(p)
    return probs


def scipy_normalised_sampler(model, dataset, length, temperature, rng, count):
    """Token-by-token inverse-CDF draws, one message at a time, normalised by
    scipy's logsumexp. Each step takes one uniform per message from ``rng``,
    so from the same stream it must draw what ``sample_messages`` draws."""
    V = model.vocabulary.size
    out = np.zeros((count, length), dtype=np.int64)
    for k in range(length):
        u = rng.random(count)
        for i in range(count):
            history = [int(t) for t in out[i, :k]]
            scaled = np.asarray(naive_step_logits(model, dataset, history, k + 1)) / temperature
            cum = np.cumsum(np.exp(scaled - logsumexp(scaled)))
            out[i, k] = min(int(np.searchsorted(cum, u[i], side="right")), V - 1)
    return out


def tree_logit_levels(model, dataset, length):
    """Logits after every prefix of a coupled model, step by step, on the
    prefix tree: level k has shape (V^(k-1), V), row i for the prefix of
    lexicographic rank i. The coupling sum grows one token at a time,
    acc[:, None, :] + C."""
    V = model.vocabulary.size
    coupling = np.array(model.history_coupling)
    infl = np.array(naive_influence(model.influence, dataset.records, model.vocabulary.tokens))
    rows = model.base_tables[model.context]
    acc = np.zeros((1, V))
    levels = []
    for k in range(length):
        levels.append(np.array(rows[min(k, len(rows) - 1)]) + infl + acc)
        acc = (acc[:, None, :] + coupling[None, :, :]).reshape(-1, V)
    return levels


def longdouble_gibbs_covariance(scores, values, temperature):
    """Cov(nu, U) under the law proportional to exp(U/T), in long double and
    in the centred two-pass form E[(nu - E nu)(U - E U)]."""
    scores = np.asarray(scores, dtype=np.longdouble)
    values = np.asarray(values, dtype=np.longdouble)
    weights = np.exp((scores - scores.max()) / np.longdouble(temperature))
    weights /= weights.sum()
    e_nu = (weights * values).sum()
    e_u = (weights * scores).sum()
    return (weights * (values - e_nu) * (scores - e_u)).sum()


def naive_cumulative_score(model, dataset, message):
    total = 0.0
    for step in range(1, len(message) + 1):
        logits = naive_step_logits(model, dataset, message[: step - 1], step)
        total += logits[message[step - 1]]
    return total


def exhaustive_sensitivity(model, pair, length):
    """max |logit difference| over every step, history, and token."""
    V = model.vocabulary.size
    worst = 0.0
    for step in range(1, length + 1):
        for history in itertools.product(range(V), repeat=step - 1):
            left = naive_step_logits(model, pair.left, history, step)
            right = naive_step_logits(model, pair.right, history, step)
            for l, r in zip(left, right):
                worst = max(worst, abs(l - r))
    return worst


def subset_hockey_stick(ps, qs, epsilon):
    """max_S P(S) - e^eps Q(S) over all 2^n subsets."""
    factor = math.exp(epsilon)
    best = 0.0
    for mask in range(2 ** len(ps)):
        p_mass = sum(p for i, p in enumerate(ps) if mask >> i & 1)
        q_mass = sum(q for i, q in enumerate(qs) if mask >> i & 1)
        best = max(best, p_mass - factor * q_mass)
    return best


def central_difference(f, x, h=1e-4):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def dense_grid_max(f, low, high, points=10_000):
    return max(f(float(t)) for t in np.geomspace(low, high, points))


TEMPERATURE_GRID = tuple(round(0.1 * i, 10) for i in range(1, 21))


def make_random_instance(
    rng,
    max_vocab=5,
    max_length=3,
    with_coupling=None,
    vocab_size=None,
    length=None,
    contexts=None,
    label_bonus=None,
):
    """A random record-additive model plus a replacement neighbor pair.

    Sensitivity cap beta stays <= 2. ``vocab_size``, ``length``, the number
    of ``contexts``, ``label_bonus`` (the rule kind) and ``with_coupling`` are
    drawn at random unless given. Returns (model, pair, length).
    """
    V = int(rng.integers(2, max_vocab + 1)) if vocab_size is None else vocab_size
    L = int(rng.integers(1, max_length + 1)) if length is None else length
    tokens = tuple(f"t{i}" for i in range(V))
    tables = {}
    for c in range(int(rng.integers(1, 3)) if contexts is None else contexts):
        rows = tuple(tuple(rng.uniform(-2.0, 2.0, V)) for _ in range(int(rng.integers(1, L + 1))))
        tables[f"ctx{c}"] = rows

    if label_bonus is None:
        label_bonus = rng.random() < 0.5
    if label_bonus:
        beta = float(rng.uniform(0.1, 2.0))
        rule = LabelBonusRule(beta=beta)
    else:
        beta = float(rng.uniform(0.1, 2.0))
        tags = [f"g{i}" for i in range(3)]
        table = {tag: tuple(rng.uniform(-beta, beta, V)) for tag in tags}
        rule = TagTableRule(beta=beta, table=table)

    if with_coupling is None:
        with_coupling = bool(rng.random() < 0.5)
    coupling = (
        tuple(tuple(rng.uniform(-1.0, 1.0, V)) for _ in range(V)) if with_coupling else None
    )

    model = LogitModel(
        vocabulary=Vocabulary(tokens),
        base_tables=tables,
        influence=rule,
        history_coupling=coupling,
    )

    def random_record():
        label = tokens[int(rng.integers(V))]
        tag = f"g{int(rng.integers(3))}"
        return Record(label, float(rng.uniform(0.5, 2.0)), tag)

    records = tuple(random_record() for _ in range(int(rng.integers(1, 5))))
    index = int(rng.integers(len(records)))
    left = Dataset(records)
    pair = NeighborPair(
        left=left, right=left.replace(index, random_record()), differing_index=index
    )
    return model, pair, L


def zero_coupling_twin(model):
    """The same model with an all-zero history coupling table.

    It has the same law as a coupling-free model but one row per lattice
    composition in every level, child maps and an enumerated score table, so
    it is the oracle for the shared-row levels and the closed-form utility
    moments.
    """
    V = model.vocabulary.size
    return LogitModel(
        vocabulary=model.vocabulary,
        base_tables=model.base_tables,
        influence=model.influence,
        history_coupling=((0.0,) * V,) * V,
        context=model.context,
    )
