import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from dpgenlab import (
    ArgumentError,
    ConfigError,
    Dataset,
    EnumerationCapError,
    GenerationConfig,
    InputError,
    LabelBonusRule,
    LogitModel,
    Message,
    Record,
    TagTableRule,
    Vocabulary,
    check_enumerable,
    cumulative_logit_scores,
    derive_rng,
    enumerate_cumulative_scores,
    enumerate_message_distribution,
    message_at_index,
    message_index,
    message_log_probability,
    record_influence_vector,
    sample_messages,
    step_logits,
    token_distribution,
)
from dpgenlab.generation import _log_normaliser
from .helpers import (
    make_random_instance,
    naive_cumulative_score,
    naive_influence,
    naive_message_probs,
    naive_softmax,
)

EMPTY = Dataset(())


def plain_model(rows=((1.0, 0.0),), coupling=None, vocab=("a", "b")):
    return LogitModel(
        vocabulary=Vocabulary(vocab),
        base_tables={"default": rows},
        influence=LabelBonusRule(beta=0.0),
        history_coupling=coupling,
    )


# ---------------------------------------------------------------------------
# vocabulary, messages, datasets


def test_vocabulary_rejects_too_few_or_duplicate_tokens():
    with pytest.raises(ConfigError):
        Vocabulary(("a",))
    with pytest.raises(ConfigError):
        Vocabulary(("a", "a"))


def test_vocabulary_lookup():
    vocab = Vocabulary(("a", "b", "c"))
    assert vocab.size == 3
    assert vocab.index("c") == 2
    assert "b" in vocab and "z" not in vocab
    with pytest.raises(InputError):
        vocab.index("z")


def test_message_requires_tokens_and_renders():
    with pytest.raises(ConfigError):
        Message(())
    msg = Message((1, 0))
    assert msg.render(Vocabulary(("a", "b"))) == ("b", "a")


def test_dataset_coerces_and_validates():
    ds = Dataset((("a", 1, "t"),))
    assert ds.records[0] == Record("a", 1.0, "t")
    with pytest.raises(InputError):
        Dataset(((("a"), float("nan"), "t"),))
    with pytest.raises(InputError):
        ds.replace(3, Record("a", 1.0, "t"))


@given(st.integers(min_value=2, max_value=5), st.integers(min_value=1, max_value=4))
def test_message_index_round_trip(vocab_size, length):
    for index in range(min(vocab_size**length, 64)):
        msg = message_at_index(index, vocab_size, length)
        assert len(msg) == length
        assert message_index(msg, vocab_size, length) == index


def test_message_index_is_lexicographic():
    assert message_at_index(0, 2, 2).tokens == (0, 0)
    assert message_at_index(1, 2, 2).tokens == (0, 1)
    assert message_at_index(3, 2, 2).tokens == (1, 1)


# ---------------------------------------------------------------------------
# logit assembly


def test_step_logits_adds_influence_and_coupling():
    model = LogitModel(
        vocabulary=Vocabulary(("a", "b")),
        base_tables={"default": ((1.0, 0.0), (0.5, 0.5))},
        influence=LabelBonusRule(beta=0.4),
        history_coupling=((0.1, -0.1), (0.2, 0.3)),
    )
    data = Dataset((Record("b", 1.0, "t"),))
    got = step_logits(model, data, (1,), 2)
    assert got == pytest.approx([0.5 + 0.2, 0.5 + 0.4 + 0.3])


def test_step_logits_reuses_last_declared_row():
    model = plain_model(rows=((1.0, 0.0), (2.0, 0.0)))
    np.testing.assert_allclose(step_logits(model, EMPTY, (0, 0, 0), 4), [2.0, 0.0])


def test_step_logits_validates_history_and_step():
    model = plain_model()
    with pytest.raises(ArgumentError):
        step_logits(model, EMPTY, (), 0)
    with pytest.raises(ArgumentError):
        step_logits(model, EMPTY, (0,), 1)
    with pytest.raises(ArgumentError):
        step_logits(model, EMPTY, (7,), 2)


def test_influence_rejects_label_outside_vocabulary():
    model = plain_model()
    with pytest.raises(InputError, match="label 'z'"):
        step_logits(model, Dataset((Record("z", 1.0, "t"),)), (), 1)


def test_label_bonus_ignores_record_weight():
    model = LogitModel(
        vocabulary=Vocabulary(("a", "b")),
        base_tables={"default": ((0.0, 0.0),)},
        influence=LabelBonusRule(beta=0.7),
    )
    heavy = Dataset((Record("a", 100.0, "t"),))
    np.testing.assert_allclose(step_logits(model, heavy, (), 1), [0.7, 0.0])


def test_tag_table_rejects_entry_above_cap():
    with pytest.raises(InputError, match=r"\['x'\]\[1\]"):
        TagTableRule(beta=0.5, table={"x": (0.1, 0.6)})


def test_tag_table_unknown_tag_contributes_nothing():
    model = LogitModel(
        vocabulary=Vocabulary(("a", "b")),
        base_tables={"default": ((0.0, 0.0),)},
        influence=TagTableRule(beta=1.0, table={"known": (0.5, -0.5)}),
    )
    data = Dataset((Record("a", 1.0, "unknown"),))
    np.testing.assert_allclose(step_logits(model, data, (), 1), [0.0, 0.0])


def test_model_rejects_influence_rules_of_other_types():
    class HalfBonus:
        beta = 0.5

        def influence(self, record, token, step):
            return 0.5 if token == record.label else 0.0

    with pytest.raises(ConfigError, match="HalfBonus"):
        LogitModel(
            vocabulary=Vocabulary(("a", "b")),
            base_tables={"default": ((0.0, 0.0),)},
            influence=HalfBonus(),
        )


def test_record_influence_vector_matches_naive():
    rng = np.random.default_rng(5)
    for _ in range(10):
        model, pair, _ = make_random_instance(rng)
        record = pair.left.records[0]
        want = naive_influence(model.influence, [record], model.vocabulary.tokens)
        np.testing.assert_allclose(record_influence_vector(model, record), want, atol=1e-12)


def test_model_requires_known_context_and_valid_tables():
    with pytest.raises(InputError):
        plain_model(rows=((1.0,),))
    with pytest.raises(InputError):
        LogitModel(
            vocabulary=Vocabulary(("a", "b")),
            base_tables={"default": ((1.0, 0.0),)},
            influence=LabelBonusRule(beta=0.0),
            context="missing",
        )
    with pytest.raises(InputError):
        plain_model(coupling=((0.1, 0.2),))


# ---------------------------------------------------------------------------
# distributions


def test_token_distribution_matches_naive_softmax():
    model = plain_model(rows=((1.0, 0.0),))
    dist = token_distribution(model, EMPTY, (), 1, GenerationConfig(1.0, 1))
    np.testing.assert_allclose(dist.probs(), naive_softmax([1.0, 0.0], 1.0), atol=1e-15)
    np.testing.assert_allclose(dist.probs(), [0.7310585786, 0.2689414214], atol=1e-9)


def test_token_distribution_high_temperature_flattens():
    model = plain_model(rows=((5.0, 0.0),))
    dist = token_distribution(model, EMPTY, (), 1, GenerationConfig(100.0, 1))
    np.testing.assert_allclose(dist.probs(), [0.5124973965, 0.4875026035], atol=1e-9)


@given(
    st.lists(st.floats(min_value=-30, max_value=30), min_size=2, max_size=6),
    st.floats(min_value=0.05, max_value=50.0),
)
def test_token_distribution_normalizes_for_any_logits(logits, temperature):
    vocab = Vocabulary(tuple(f"t{i}" for i in range(len(logits))))
    model = LogitModel(
        vocabulary=vocab,
        base_tables={"default": (tuple(logits),)},
        influence=LabelBonusRule(beta=0.0),
    )
    dist = token_distribution(model, EMPTY, (), 1, GenerationConfig(temperature, 1))
    assert math.isclose(float(dist.probs().sum()), 1.0, abs_tol=1e-9)


def test_message_log_probability_is_product_of_steps():
    model = plain_model()
    got = message_log_probability(model, EMPTY, Message((0, 0)), GenerationConfig(1.0, 2))
    assert got == pytest.approx(-0.6265233750, abs=1e-9)
    with pytest.raises(ArgumentError):
        message_log_probability(model, EMPTY, Message((0,)), GenerationConfig(1.0, 2))


def test_enumeration_matches_frozen_table():
    model = plain_model()
    dist = enumerate_message_distribution(model, EMPTY, GenerationConfig(1.0, 2))
    np.testing.assert_allclose(
        dist.probs(),
        [0.5344466454, 0.1966119332, 0.1966119332, 0.0723294881],
        atol=1e-9,
    )
    assert dist.index_of(Message((1, 1))) == 3
    assert dist.message_at(3).tokens == (1, 1)


@pytest.mark.parametrize("shape", [(7,), (1, 5), (6, 4)])
def test_log_normaliser_matches_scipy_logsumexp(shape):
    rng = np.random.default_rng(shape[-1])
    for scale in (1.0, 30.0, 1e3):
        x = rng.normal(0.0, scale, shape)
        got, want = _log_normaliser(x), logsumexp(x, axis=-1, keepdims=True)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("seed", range(8))
def test_enumeration_matches_naive_oracle(seed):
    rng = np.random.default_rng(seed)
    model, pair, length = make_random_instance(rng)
    config = GenerationConfig(float(rng.choice([0.3, 0.7, 1.0, 1.7])), length)
    dist = enumerate_message_distribution(model, pair.left, config)
    naive = naive_message_probs(model, pair.left, length, config.temperature)
    np.testing.assert_allclose(dist.probs(), naive, atol=1e-12)
    assert math.isclose(float(dist.probs().sum()), 1.0, abs_tol=1e-9)


@pytest.mark.parametrize("seed", range(8))
def test_message_log_probability_agrees_with_enumeration(seed):
    rng = np.random.default_rng(100 + seed)
    model, pair, length = make_random_instance(rng)
    config = GenerationConfig(0.9, length)
    dist = enumerate_message_distribution(model, pair.left, config)
    for index in range(dist.size):
        msg = dist.message_at(index)
        assert message_log_probability(model, pair.left, msg, config) == pytest.approx(
            float(dist.log_probs[index]), abs=1e-10
        )


def test_cumulative_score_is_temperature_free_and_matches_naive():
    rng = np.random.default_rng(42)
    model, pair, length = make_random_instance(rng)
    msgs = np.array([[0] * length, [1] * length])
    scores = cumulative_logit_scores(model, pair.left, msgs)
    for row, score in zip(msgs, scores):
        assert naive_cumulative_score(model, pair.left, tuple(row)) == pytest.approx(
            float(score), abs=1e-10
        )


def test_enumerate_cumulative_scores_order_matches_messages():
    cases = [(plain_model(coupling=((0.3, -0.2), (0.1, 0.4))), EMPTY, 2)]
    rng = np.random.default_rng(700)
    for with_coupling in (True, False):
        for _ in range(6):
            model, pair, length = make_random_instance(rng, with_coupling=with_coupling)
            cases.append((model, pair.left, length))
    for model, dataset, length in cases:
        V = model.vocabulary.size
        scores = enumerate_cumulative_scores(model, dataset, length)
        assert scores.shape == (V**length,)
        for index, score in enumerate(scores):
            msg = message_at_index(index, V, length)
            assert naive_cumulative_score(model, dataset, msg.tokens) == pytest.approx(
                float(score), abs=1e-12
            )


def test_enumeration_cap_is_enforced_with_counts_in_message():
    model = plain_model()
    with pytest.raises(EnumerationCapError, match="1024 messages but the cap is 100"):
        enumerate_message_distribution(model, EMPTY, GenerationConfig(1.0, 10, enum_cap=100))
    assert check_enumerable(2, 3, 8) == 8


# ---------------------------------------------------------------------------
# sampling


def test_sampling_is_deterministic_per_seed():
    model = plain_model(coupling=((0.3, -0.2), (0.1, 0.4)))
    config = GenerationConfig(0.8, 3)
    a = sample_messages(model, EMPTY, config, derive_rng(9, 1), 64)
    b = sample_messages(model, EMPTY, config, derive_rng(9, 1), 64)
    c = sample_messages(model, EMPTY, config, derive_rng(9, 2), 64)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_low_temperature_sampling_is_deterministic():
    model = plain_model(rows=((20.0, 0.0),))
    msgs = sample_messages(model, EMPTY, GenerationConfig(0.1, 3), derive_rng(7, 0), 10_000)
    assert (msgs == 0).all()


def test_uniform_sampling_frequency_within_bound():
    model = plain_model(rows=((0.0, 0.0),))
    msgs = sample_messages(model, EMPTY, GenerationConfig(1.0, 1), derive_rng(11, 0), 100_000)
    assert abs(float((msgs == 0).mean()) - 0.5) <= 0.005


@pytest.mark.parametrize("seed", range(4))
def test_sampled_frequencies_track_enumerated_probabilities(seed):
    rng = np.random.default_rng(300 + seed)
    model, pair, length = make_random_instance(rng, max_vocab=3, max_length=2)
    config = GenerationConfig(1.0, length)
    dist = enumerate_message_distribution(model, pair.left, config)
    msgs = sample_messages(model, pair.left, config, derive_rng(300 + seed, 0), 40_000)
    V = model.vocabulary.size
    weights = V ** np.arange(length - 1, -1, -1)
    counts = np.bincount(msgs @ weights, minlength=dist.size)
    freqs = counts / counts.sum()
    assert float(0.5 * np.abs(freqs - dist.probs()).sum()) < 0.02


def test_derive_rng_depends_on_every_key_part():
    keys = [(0, 0), (0, 1), (1, 0), (2,)]
    draws = {derive_rng(123, *key).random() for key in keys}
    assert len(draws) == len(keys)


def test_sample_count_validation():
    model = plain_model()
    with pytest.raises(ArgumentError):
        sample_messages(model, EMPTY, GenerationConfig(1.0, 1), derive_rng(0), -1)
    out = sample_messages(model, EMPTY, GenerationConfig(1.0, 1), derive_rng(0), 0)
    assert out.shape == (0, 1)
