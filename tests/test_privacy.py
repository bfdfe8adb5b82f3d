import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpgenlab import (
    ArgumentError,
    ConfigError,
    Dataset,
    GenerationConfig,
    LabelBonusRule,
    LogitModel,
    MessageDistribution,
    NeighborPair,
    Record,
    TagTableRule,
    Vocabulary,
    WorkbenchError,
    analyze_pair,
    enumerate_message_distribution,
    hockey_stick_curve,
    hockey_stick_delta,
    logit_sensitivity,
    message_epsilon_bound,
    message_index,
    message_epsilon_exact,
    per_step_max_epsilons,
    split_hockey_stick_curve,
    temperature_floor_for_budget,
    token_epsilon_bound,
    token_epsilon_exact,
)
from .helpers import (
    TEMPERATURE_GRID,
    exhaustive_sensitivity,
    make_random_instance,
    naive_message_probs,
    subset_hockey_stick,
)


def epsilon_instance():
    """Left per-step logits (1, 0), right (0, 0)."""
    model = LogitModel(
        vocabulary=Vocabulary(("a", "b")),
        base_tables={"default": ((0.0, 0.0),)},
        influence=TagTableRule(beta=1.0, table={"boost": (1.0, 0.0)}),
    )
    left = Dataset((Record("a", 1.0, "boost"),))
    right = Dataset((Record("a", 1.0, "plain"),))
    return model, NeighborPair(left=left, right=right, differing_index=0)


# ---------------------------------------------------------------------------
# neighbor pairs


def test_neighbor_pair_validation():
    left = Dataset((Record("a", 1.0, "t"), Record("b", 1.0, "t")))
    with pytest.raises(ArgumentError):
        NeighborPair(left=left, right=Dataset(left.records[:1]), differing_index=0)
    with pytest.raises(ArgumentError):
        NeighborPair(left=left, right=left, differing_index=2)
    with pytest.raises(ArgumentError):
        NeighborPair(
            left=left,
            right=Dataset((Record("b", 1.0, "t"), Record("a", 1.0, "t"))),
            differing_index=0,
        )
    pair = NeighborPair(left=left, right=left.replace(1, Record("a", 2.0, "t")), differing_index=1)
    assert pair.old_record == Record("b", 1.0, "t")
    assert pair.new_record == Record("a", 2.0, "t")


def test_neighbor_pair_allows_identical_records_at_index():
    left = Dataset((Record("a", 1.0, "t"),))
    pair = NeighborPair(left=left, right=left, differing_index=0)
    assert pair.old_record == pair.new_record


# ---------------------------------------------------------------------------
# sensitivity


def test_label_bonus_sensitivity_is_beta_on_label_change():
    model = LogitModel(
        vocabulary=Vocabulary(("a", "b")),
        base_tables={"default": ((0.0, 0.0),)},
        influence=LabelBonusRule(beta=0.4),
    )
    left = Dataset((Record("a", 1.0, "r"),))
    pair = NeighborPair(left=left, right=left.replace(0, Record("b", 1.0, "r")), differing_index=0)
    assert logit_sensitivity(model, pair).delta_logit == pytest.approx(0.4)
    same = NeighborPair(
        left=left, right=left.replace(0, Record("a", 5.0, "other")), differing_index=0
    )
    assert logit_sensitivity(model, same).delta_logit == 0.0


def test_sensitivity_methods_and_the_exhaustive_oracle_agree():
    rng = np.random.default_rng(77)
    for _ in range(25):
        model, pair, length = make_random_instance(rng)
        analytic = logit_sensitivity(model, pair).delta_logit
        oracle = exhaustive_sensitivity(model, pair, length)
        assert analytic == pytest.approx(oracle, abs=1e-12)


# ---------------------------------------------------------------------------
# exact epsilons and closed-form bounds


def test_token_epsilon_two_point_instance():
    model, pair = epsilon_instance()
    eps = token_epsilon_exact(model, pair, (), 1, GenerationConfig(1.0, 1))
    assert eps == pytest.approx(0.6201145070, abs=1e-9)
    assert eps <= token_epsilon_bound(1.0, 1.0) + 1e-9


def test_message_epsilon_two_step_instance():
    model, pair = epsilon_instance()
    eps, witness = message_epsilon_exact(model, pair, GenerationConfig(1.0, 2))
    assert eps == pytest.approx(1.2402290139, abs=1e-9)
    assert witness.render(model.vocabulary) == ("b", "b")


def test_per_step_epsilons_for_history_free_model_repeat_token_epsilon():
    model, pair = epsilon_instance()
    config = GenerationConfig(1.0, 3)
    steps = per_step_max_epsilons(model, pair, config)
    tok = token_epsilon_exact(model, pair, (), 1, GenerationConfig(1.0, 1))
    assert steps == pytest.approx((tok, tok, tok), abs=1e-12)


def test_bound_formulas():
    assert token_epsilon_bound(1.0, 1.0) == pytest.approx(2.0)
    assert message_epsilon_bound(1.0, 1.0, 5) == pytest.approx(10.0)
    assert message_epsilon_bound(0.5, 2.0, 4) == pytest.approx(2.0)
    with pytest.raises(ConfigError):
        token_epsilon_bound(-1.0, 1.0)
    with pytest.raises(ConfigError):
        token_epsilon_bound(1.0, 0.0)
    with pytest.raises(ConfigError):
        message_epsilon_bound(1.0, 1.0, 0)


@given(
    st.floats(min_value=0.01, max_value=4.0),
    st.floats(min_value=0.05, max_value=10.0),
    st.integers(min_value=1, max_value=50),
)
def test_temperature_floor_inverts_the_message_bound(delta, epsilon, length):
    floor = temperature_floor_for_budget(delta, length, epsilon)
    assert message_epsilon_bound(delta, floor, length) == pytest.approx(epsilon, rel=1e-12)


@pytest.mark.parametrize("seed", range(12))
def test_exact_epsilons_respect_bounds_on_random_instances(seed):
    rng = np.random.default_rng(1000 + seed)
    model, pair, length = make_random_instance(rng)
    temperature = TEMPERATURE_GRID[seed % len(TEMPERATURE_GRID)]
    config = GenerationConfig(temperature, length)
    delta = logit_sensitivity(model, pair).delta_logit
    for cid in model.context_ids:
        ctx = model.with_context(cid)
        eps, _ = message_epsilon_exact(ctx, pair, config)
        assert eps <= message_epsilon_bound(delta, temperature, length) + 1e-9
        steps = per_step_max_epsilons(ctx, pair, config)
        assert eps <= sum(steps) + 1e-9
        for step_eps in steps:
            assert step_eps <= token_epsilon_bound(delta, temperature) + 1e-9


@pytest.mark.parametrize("with_coupling", [True, False], ids=["coupled", "free"])
@pytest.mark.parametrize("seed", range(8))
def test_message_epsilon_matches_naive_message_tables(seed, with_coupling):
    rng = np.random.default_rng(3000 + seed)
    model, pair, length = make_random_instance(rng, with_coupling=with_coupling)
    temperature = float(rng.choice([0.3, 0.7, 1.0, 1.7]))
    config = GenerationConfig(temperature, length)
    for cid in model.context_ids:
        ctx = model.with_context(cid)
        gaps = np.abs(
            np.log(naive_message_probs(ctx, pair.left, length, temperature))
            - np.log(naive_message_probs(ctx, pair.right, length, temperature))
        )
        eps, witness = message_epsilon_exact(ctx, pair, config)
        assert eps == pytest.approx(gaps.max(), abs=1e-12)
        assert message_index(witness, model.vocabulary.size, length) == int(gaps.argmax())


# ---------------------------------------------------------------------------
# hockey-stick divergence


def two_point_pair():
    vocab = Vocabulary(("a", "b"))
    p = MessageDistribution(vocab, 1, np.log([0.75, 0.25]))
    q = MessageDistribution(vocab, 1, np.log([0.25, 0.75]))
    return p, q


def test_hockey_stick_frozen_value():
    p, q = two_point_pair()
    assert hockey_stick_delta(p, q, math.log(2.0)) == pytest.approx(0.25, abs=1e-12)


def test_hockey_stick_at_zero_is_total_variation():
    p, q = two_point_pair()
    assert hockey_stick_delta(p, q, 0.0) == pytest.approx(0.5, abs=1e-12)


def test_hockey_stick_curve_is_nonincreasing_and_bounded():
    p, q = two_point_pair()
    grid = [0.0, 0.2, 0.5, 1.0, 2.0, 5.0]
    curve = hockey_stick_curve(p, q, grid)
    deltas = [d for _, d in curve]
    assert all(0.0 <= d <= 1.0 for d in deltas)
    assert all(a >= b - 1e-15 for a, b in zip(deltas, deltas[1:]))


def test_hockey_stick_rejects_mismatched_spaces_and_bad_epsilon():
    p, _ = two_point_pair()
    other = MessageDistribution(Vocabulary(("a", "b")), 2, np.log([0.25] * 4))
    with pytest.raises(ArgumentError):
        hockey_stick_delta(p, other, 0.1)
    with pytest.raises(ConfigError):
        hockey_stick_delta(p, p, -0.5)


@pytest.mark.parametrize("seed", range(10))
def test_hockey_stick_matches_subset_enumeration(seed):
    rng = np.random.default_rng(2000 + seed)
    model, pair, length = make_random_instance(rng, max_vocab=3, max_length=2)
    if model.vocabulary.size**length > 12:
        length = 1
    config = GenerationConfig(float(TEMPERATURE_GRID[(3 * seed) % 20]), length)
    p = enumerate_message_distribution(model, pair.left, config)
    q = enumerate_message_distribution(model, pair.right, config)
    eps_exact, _ = message_epsilon_exact(model, pair, config)
    for eps in (0.0, eps_exact / 2, eps_exact):
        got = hockey_stick_delta(p, q, eps)
        want = subset_hockey_stick(p.probs().tolist(), q.probs().tolist(), eps)
        assert got == pytest.approx(want, abs=1e-12)
    assert hockey_stick_delta(p, q, eps_exact) <= 1e-12


def _split_against_tables(model, pair, config, epsilons):
    """The split delta and the message tables' delta at each epsilon."""
    got = split_hockey_stick_curve(model, pair, config, epsilons)
    p = enumerate_message_distribution(model, pair.left, config)
    q = enumerate_message_distribution(model, pair.right, config)
    return [d for _, d in got], [d for _, d in hockey_stick_curve(p, q, epsilons)]


@pytest.mark.parametrize("seed", range(40))
def test_split_delta_matches_the_message_tables(seed):
    rng = np.random.default_rng(5100 + seed)
    model, pair, length = make_random_instance(
        rng, vocab_size=int(rng.integers(2, 7)), length=int(rng.integers(1, 7)),
        with_coupling=False,
    )
    config = GenerationConfig(float(rng.choice([0.05, 0.3, 1.0, 3.0])), length)
    eps, _ = message_epsilon_exact(model, pair, config)
    epsilons = (0.0, eps / 2, eps, float(rng.uniform(0.0, eps)), 1.5 * eps + 0.1)
    got, want = _split_against_tables(model, pair, config, epsilons)
    assert got == pytest.approx(want, abs=1e-12, rel=0)
    assert got[2] <= 1e-12 and got[4] == 0.0


def _label_swap(vocab_size, beta, base=None):
    """Left record labelled t0, right t1, under a label bonus of ``beta``;
    the base logits are 0 unless given."""
    model = LogitModel(
        vocabulary=Vocabulary(tuple(f"t{i}" for i in range(vocab_size))),
        base_tables={"c": (base or (0.0,) * vocab_size,)},
        influence=LabelBonusRule(beta=beta),
    )
    left = Dataset((Record("t0", 1.0, ""),))
    return model, NeighborPair(left, left.replace(0, Record("t1", 1.0, "")), 0)


def test_split_delta_with_an_empty_second_half():
    rng = np.random.default_rng(5200)
    model, pair, _ = make_random_instance(rng, vocab_size=5, length=1, with_coupling=False)
    config = GenerationConfig(0.7, 1)
    eps, _ = message_epsilon_exact(model, pair, config)
    got, want = _split_against_tables(model, pair, config, (0.0, eps / 3, eps))
    assert got == pytest.approx(want, abs=1e-12, rel=0) and got[0] > 0


def test_split_delta_of_identical_arms_is_zero_everywhere():
    # beta = 0: every loss is exactly 0, so no atom passes any epsilon >= 0.
    model, pair = _label_swap(4, 0.0, base=(0.3, -0.1, 0.0, 0.8))
    got, want = _split_against_tables(model, pair, GenerationConfig(0.9, 5), (0.0, 0.5, 2.0))
    assert got == [0.0, 0.0, 0.0] == want


def test_split_delta_at_exact_sign_ties():
    # A label swap on equal base logits gives per-step losses +x, -x and 0,
    # so many messages tie at each of the table's losses, epsilon 0 included.
    model, pair = _label_swap(3, 0.8)
    config = GenerationConfig(0.6, 4)
    p = enumerate_message_distribution(model, pair.left, config)
    q = enumerate_message_distribution(model, pair.right, config)
    ties = sorted({float(x) for x in p.log_probs - q.log_probs if x >= 0})
    assert len(ties) > 1 and ties[0] == 0.0
    got, want = _split_against_tables(model, pair, config, ties)
    assert got == pytest.approx(want, abs=1e-12, rel=0)


def test_split_delta_where_probabilities_underflow():
    rng = np.random.default_rng(5300)
    model, pair, _ = make_random_instance(rng, vocab_size=4, length=4, with_coupling=False)
    config = GenerationConfig(0.004, 4)
    p = enumerate_message_distribution(model, pair.left, config)
    assert (p.probs() == 0.0).any()
    eps, _ = message_epsilon_exact(model, pair, config)
    got, want = _split_against_tables(model, pair, config, (0.0, eps / 2, eps, 0.9 * eps))
    assert got == pytest.approx(want, abs=1e-12, rel=0)


def test_split_delta_past_the_float_range_of_e_to_the_epsilon():
    # beta = 3.1 at T = 0.01 gives 310 per step, so epsilon* = 1240: e^eps
    # overflows and Q of the worst message underflows to 0.
    model, pair = _label_swap(3, 3.1)
    config = GenerationConfig(0.01, 4)
    eps, _ = message_epsilon_exact(model, pair, config)
    assert eps == pytest.approx(1240.0)
    epsilons = (0.0, eps / 2, eps - 1.0, eps, 1300.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, want = _split_against_tables(model, pair, config, epsilons)
    assert all(math.isfinite(d) for d in got)
    assert got == pytest.approx(want, abs=1e-12, rel=0)


def test_split_delta_refuses_coupling_and_bad_epsilons():
    model, pair = _label_swap(2, 1.0)
    config = GenerationConfig(1.0, 2)
    coupled = LogitModel(
        vocabulary=model.vocabulary, base_tables=model.base_tables, influence=model.influence,
        history_coupling=((0.0, 0.1), (0.2, 0.0)),
    )
    with pytest.raises(ArgumentError, match="without history coupling"):
        split_hockey_stick_curve(coupled, pair, config, (0.0,))
    for bad in (-0.5, math.nan, math.inf):
        with pytest.raises(ConfigError, match="epsilon must be finite"):
            split_hockey_stick_curve(model, pair, config, (bad,))


# ---------------------------------------------------------------------------
# full reports


def test_analyze_pair_produces_consistent_report():
    model, pair = epsilon_instance()
    report = analyze_pair(model, pair, GenerationConfig(1.0, 2))
    assert report.delta_logit == pytest.approx(1.0)
    assert report.exact_message_epsilon == pytest.approx(1.2402290139, abs=1e-9)
    assert report.worst_message == ("b", "b")
    assert report.worst_context == "default"
    assert report.message_epsilon_bound == pytest.approx(4.0)
    curve = dict(report.hockey_stick_delta_at)
    assert curve[report.exact_message_epsilon] <= 1e-12
    payload = report.to_jsonable()
    assert payload["worst_message"] == ["b", "b"]


def test_analyze_pair_takes_worst_over_contexts():
    model = LogitModel(
        vocabulary=Vocabulary(("a", "b")),
        base_tables={"flat": ((0.0, 0.0),), "steep": ((0.0, 3.0),)},
        influence=LabelBonusRule(beta=1.0),
    )
    left = Dataset((Record("a", 1.0, "r"),))
    pair = NeighborPair(left=left, right=left.replace(0, Record("b", 1.0, "r")), differing_index=0)
    config = GenerationConfig(0.5, 2)
    report = analyze_pair(model, pair, config)
    per_context = {
        cid: message_epsilon_exact(model.with_context(cid), pair, config)[0]
        for cid in model.context_ids
    }
    assert report.worst_context == max(per_context, key=per_context.get)
    assert report.exact_message_epsilon == pytest.approx(max(per_context.values()))


def test_report_construction_rejects_bound_violations():
    from dpgenlab import PrivacyReport

    with pytest.raises(WorkbenchError):
        PrivacyReport(
            temperature=1.0,
            length=2,
            delta_logit=0.1,
            sensitivity_attained_at="analytic",
            token_epsilon_bound=0.2,
            message_epsilon_bound=0.4,
            exact_message_epsilon=1.0,
            worst_message=("a", "a"),
            worst_context="default",
            per_step_exact_epsilons=(0.1, 0.1),
            hockey_stick_delta_at=((0.0, 0.1),),
        )
