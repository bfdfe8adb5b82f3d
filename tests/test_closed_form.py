"""Coupling-free models against their zero-coupling twins.

Every comparison runs the same quantity on a coupling-free model (one shared
row per level, closed-form utility moments over its (L, V) logit rows) and
on its zero-coupling twin (one row per lattice composition, enumeration of
the same law).
"""

import numpy as np
import pytest

from dpgenlab import (
    Dataset,
    EnumerationCapError,
    GenerationConfig,
    LabelBonusRule,
    LogitModel,
    NeighborPair,
    OptimizationProblem,
    Record,
    SolverError,
    UtilitySpec,
    Vocabulary,
    analyze_pair,
    enumerate_message_distribution,
    message_epsilon_exact,
    objective_curve,
    optimal_temperature,
    per_step_max_epsilons,
    regularized_objective,
    utility_moments,
    utility_temperature_derivative,
)
from .helpers import make_random_instance, zero_coupling_twin

SEEDS = range(8)
TEMPERATURES = (0.2, 0.7, 1.5)
SCORE_UTILITIES = (
    UtilitySpec.exp_logit_plus_length(0.1),
    UtilitySpec.affine(0.7, intercept=0.3),
    UtilitySpec.constant_value(2.0),
)


def free_instance(seed):
    rng = np.random.default_rng(7000 + seed)
    model, pair, length = make_random_instance(rng, max_vocab=5, max_length=4, with_coupling=False)
    return model, zero_coupling_twin(model), pair, length


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("temperature", TEMPERATURES)
def test_message_and_per_step_epsilons_match_enumeration(seed, temperature):
    model, twin, pair, length = free_instance(seed)
    config = GenerationConfig(temperature, length)
    for cid in model.context_ids:
        free, coupled = model.with_context(cid), twin.with_context(cid)
        eps, witness = message_epsilon_exact(free, pair, config)
        want, _ = message_epsilon_exact(coupled, pair, config)
        assert eps == pytest.approx(want, abs=1e-12)
        p = enumerate_message_distribution(coupled, pair.left, config)
        q = enumerate_message_distribution(coupled, pair.right, config)
        assert abs(p.log_prob(witness) - q.log_prob(witness)) == pytest.approx(eps, abs=1e-12)
        assert per_step_max_epsilons(free, pair, config) == pytest.approx(
            per_step_max_epsilons(coupled, pair, config), abs=1e-12
        )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("temperature", TEMPERATURES)
def test_analyze_report_matches_enumeration(seed, temperature):
    model, twin, pair, length = free_instance(seed)
    config = GenerationConfig(temperature, length)
    got, want = analyze_pair(model, pair, config), analyze_pair(twin, pair, config)
    assert got.exact_message_epsilon == pytest.approx(want.exact_message_epsilon, abs=1e-12)
    assert got.per_step_exact_epsilons == pytest.approx(want.per_step_exact_epsilons, abs=1e-12)
    assert got.worst_context == want.worst_context
    assert [e for e, _ in got.hockey_stick_delta_at] == pytest.approx(
        [0.0, got.exact_message_epsilon / 2, got.exact_message_epsilon]
    )
    for (_, delta), (_, want_delta) in zip(got.hockey_stick_delta_at, want.hockey_stick_delta_at):
        assert delta == pytest.approx(want_delta, abs=1e-12)


def test_witness_tie_takes_the_lexicographically_smaller_message():
    # Left logits (1, 0) against right (0, 1): both signs reach the same
    # epsilon, with witnesses "aa" and "bb"; enumeration reports "aa" first.
    model = LogitModel(
        vocabulary=Vocabulary(("a", "b")),
        base_tables={"default": ((0.0, 0.0),)},
        influence=LabelBonusRule(beta=1.0),
    )
    left = Dataset((Record("a", 1.0, ""),))
    pair = NeighborPair(left=left, right=left.replace(0, Record("b", 1.0, "")), differing_index=0)
    config = GenerationConfig(1.0, 2)
    for m in (model, zero_coupling_twin(model)):
        _, witness = message_epsilon_exact(m, pair, config)
        assert witness.render(model.vocabulary) == ("a", "a")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("utility", SCORE_UTILITIES, ids=lambda u: u.kind)
def test_utility_moments_match_enumeration(seed, utility):
    model, twin, pair, length = free_instance(seed)
    got = utility_moments(model, pair.left, length, utility)
    want = utility_moments(twin, pair.left, length, utility)
    for temperature in TEMPERATURES:
        (e_nu, cov), (want_e_nu, want_cov) = got(temperature), want(temperature)
        assert e_nu == pytest.approx(want_e_nu, rel=1e-9, abs=1e-12)
        # The enumeration forms Cov as E[nu U] - E[nu] E[U], which cancels
        # away absolute accuracy in proportion to E[nu].
        assert cov == pytest.approx(want_cov, rel=1e-9, abs=1e-12 * max(1.0, abs(want_e_nu)))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("utility", SCORE_UTILITIES, ids=lambda u: u.kind)
def test_optimal_temperature_matches_enumeration(seed, utility):
    model, twin, pair, length = free_instance(seed)
    # lambda = L * Cov_1 puts a stationary point at T = 1 for monotone utilities.
    _, cov = utility_moments(twin, pair.left, length, utility)(1.0)
    lam = max(length * cov, 0.05)
    got = optimal_temperature(OptimizationProblem(model, pair.left, length, utility, lam))
    want = optimal_temperature(OptimizationProblem(twin, pair.left, length, utility, lam))
    assert got[0] == pytest.approx(want[0], abs=1e-6)
    assert got[1].chosen.objective == pytest.approx(want[1].chosen.objective, rel=1e-9, abs=1e-12)


def _cap_cases():
    model = LogitModel(
        vocabulary=Vocabulary(("a", "b", "c")),
        base_tables={"default": ((0.3, 0.0, -0.2),)},
        influence=LabelBonusRule(beta=1.0),
    )
    return {"free": model, "twin": zero_coupling_twin(model)}


@pytest.mark.parametrize("kind", ["free", "twin"])
def test_enumeration_cap_holds_on_both_paths(kind):
    # Each path answers at a cap equal to the count of what it builds and
    # raises EnumerationCapError, naming that count, one below. V = 3, L = 5:
    # 243 messages, 27 half-table atoms, 3 * C(7, 3) = 105 logits in lattice
    # rows and 3 * 5 = 15 logits in step rows.
    model = _cap_cases()[kind]
    left = Dataset((Record("a", 1.0, ""),))
    pair = NeighborPair(left=left, right=left.replace(0, Record("b", 1.0, "")), differing_index=0)
    nu = UtilitySpec.exp_logit_plus_length(0.1)
    table = UtilitySpec.table(range(243))
    free = kind == "free"
    walk = (15, "logits in step rows") if free else (105, "logits in lattice rows")
    messages = (243, "messages")
    moments = walk if free else messages

    def config(cap):
        return GenerationConfig(1.0, 5, cap)

    def problem(utility, cap):
        return OptimizationProblem(model, left, 5, utility, 0.1, enum_cap=cap)

    cases = [
        (lambda cap: analyze_pair(model, pair, config(cap)),
         (27, "half-table atoms") if free else messages),
        (lambda cap: per_step_max_epsilons(model, pair, config(cap)), walk),
        (lambda cap: message_epsilon_exact(model, pair, config(cap)), walk),
        (lambda cap: optimal_temperature(problem(nu, cap)), moments),
        (lambda cap: objective_curve(problem(nu, cap), 5), moments),
        (lambda cap: utility_temperature_derivative(model, left, 5, nu, 1.0, enum_cap=cap),
         moments),
        # The table utility and the message tables count V^L on both paths.
        (lambda cap: optimal_temperature(problem(table, cap)), messages),
        (lambda cap: enumerate_message_distribution(model, left, config(cap)), messages),
    ]
    for call, (count, counted) in cases:
        call(count)
        message = f" {count} {counted} but the cap is {count - 1};"
        with pytest.raises(EnumerationCapError, match=message):
            call(count - 1)


@pytest.mark.parametrize("coupled", [False, True])
def test_overflowing_exp_utility_raises_on_both_paths(coupled):
    # U reaches 2 * 400 = 800 > log(max float), so e^U overflows.
    model = LogitModel(
        vocabulary=Vocabulary(("a", "b")),
        base_tables={"default": ((400.0, 0.0),)},
        influence=LabelBonusRule(beta=0.0),
    )
    if coupled:
        model = zero_coupling_twin(model)
    empty = Dataset(())
    nu = UtilitySpec.exp_logit_plus_length(0.1)
    problem = OptimizationProblem(model, empty, 2, nu, 0.1)
    for call in (
        lambda: optimal_temperature(problem),
        lambda: regularized_objective(problem, 1.0),
        lambda: utility_temperature_derivative(model, empty, 2, nu, 1.0),
    ):
        with pytest.raises(SolverError, match="utility evaluated to a non-finite value"):
            call()
