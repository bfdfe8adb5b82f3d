import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpgenlab import (
    ArgumentError,
    ConfigError,
    Dataset,
    GenerationConfig,
    GibbsDistribution,
    LabelBonusRule,
    LogitModel,
    OptimizationProblem,
    SolverError,
    UtilitySpec,
    Vocabulary,
    enumerate_cumulative_scores,
    expected_utility,
    gibbs_autoregressive_gap,
    gibbs_distribution,
    objective_curve,
    optimal_temperature,
    regularized_objective,
    utility_covariance,
    utility_moments,
    utility_temperature_derivative,
)
from .helpers import (
    central_difference,
    dense_grid_max,
    longdouble_gibbs_covariance,
    make_random_instance,
    naive_softmax,
    zero_coupling_twin,
)

EMPTY = Dataset(())


def two_point_model():
    return LogitModel(
        vocabulary=Vocabulary(("a", "b")),
        base_tables={"default": ((1.0, 0.0),)},
        influence=LabelBonusRule(beta=0.0),
    )


# ---------------------------------------------------------------------------
# utility specs


def test_utility_kinds_evaluate():
    scores = np.array([1.0, 0.0])
    exp = UtilitySpec.exp_logit_plus_length(0.1)
    np.testing.assert_allclose(exp.values_for(scores, 2), [math.e + 0.2, 1.2])
    affine = UtilitySpec.affine(2.0, intercept=1.0)
    np.testing.assert_allclose(affine.values_for(scores, 2), [3.0, 1.0])
    const = UtilitySpec.constant_value(4.0)
    np.testing.assert_allclose(const.values_for(scores, 2), [4.0, 4.0])
    table = UtilitySpec.table([5.0, 6.0, 7.0, 8.0])
    np.testing.assert_allclose(
        table.values_for(np.zeros(3), 2, message_indices=np.array([3, 0, 3])), [8.0, 5.0, 8.0]
    )


def test_utility_validation():
    with pytest.raises(ConfigError):
        UtilitySpec(kind="mystery")
    with pytest.raises(ConfigError):
        UtilitySpec(kind="table")
    with pytest.raises(ConfigError):
        UtilitySpec.table([1.0, float("inf")])
    table = UtilitySpec.table([1.0, 2.0])
    with pytest.raises(ArgumentError):
        table.values_for(np.zeros(3), 1)
    with pytest.raises(ArgumentError):
        table.values_for(np.zeros(1), 1, message_indices=np.array([5]))


# ---------------------------------------------------------------------------
# Gibbs distributions


def test_gibbs_two_point_matches_softmax():
    dist = gibbs_distribution(two_point_model(), EMPTY, 1, 1.0)
    np.testing.assert_allclose(dist.probs(), naive_softmax([1.0, 0.0], 1.0), atol=1e-15)


@given(st.floats(min_value=0.05, max_value=20.0))
def test_gibbs_normalizes_at_any_temperature(temperature):
    dist = GibbsDistribution(scores=np.array([2.0, -1.0, 0.5]), temperature=temperature)
    assert math.isclose(float(dist.probs().sum()), 1.0, abs_tol=1e-9)


def test_gibbs_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        GibbsDistribution(scores=np.array([1.0, 0.0]), temperature=0.0)
    with pytest.raises(SolverError):
        GibbsDistribution(scores=np.array([np.inf, 0.0]), temperature=1.0)


def test_gap_is_zero_without_coupling_and_positive_with_it():
    flat = two_point_model()
    assert gibbs_autoregressive_gap(flat, EMPTY, GenerationConfig(0.7, 3)) <= 1e-10
    coupled = LogitModel(
        vocabulary=Vocabulary(("a", "b")),
        base_tables={"default": ((0.5, 0.0),)},
        influence=LabelBonusRule(beta=0.0),
        history_coupling=((0.3, -0.2), (0.1, 0.4)),
    )
    assert gibbs_autoregressive_gap(coupled, EMPTY, GenerationConfig(0.7, 2)) > 1e-4


# ---------------------------------------------------------------------------
# moments and the closed-form derivative


def test_frozen_two_point_moments():
    dist = gibbs_distribution(two_point_model(), EMPTY, 1, 1.0)
    nu = UtilitySpec.exp_logit_plus_length(0.0)
    assert expected_utility(dist, nu, 1) == pytest.approx(2.2561646712, abs=1e-9)
    assert expected_utility(
        dist, UtilitySpec.exp_logit_plus_length(0.1), 2
    ) == pytest.approx(2.4561646712, abs=1e-9)
    assert utility_covariance(dist, UtilitySpec.affine(1.0), 1) == pytest.approx(
        0.1966119332, abs=1e-9
    )
    assert utility_covariance(dist, nu, 1) == pytest.approx(0.3378347121, abs=1e-9)


def test_constant_utility_has_zero_covariance_and_derivative():
    model = two_point_model()
    dist = gibbs_distribution(model, EMPTY, 2, 0.7)
    assert utility_covariance(dist, UtilitySpec.constant_value(3.0), 2) == pytest.approx(
        0.0, abs=1e-12
    )
    assert utility_temperature_derivative(
        model, EMPTY, 2, UtilitySpec.constant_value(3.0), 0.7
    ) == pytest.approx(0.0, abs=1e-12)


def test_derivative_frozen_value_and_sign():
    model = two_point_model()
    nu = UtilitySpec.exp_logit_plus_length(0.0)
    got = utility_temperature_derivative(model, EMPTY, 1, nu, 1.0)
    assert got == pytest.approx(-0.3378347121, abs=1e-9)


def test_extreme_temperatures_give_a_finite_slope_or_a_solver_error():
    # At T = 1e300, T^2 overflows and the slope is 0, not an OverflowError.
    # At T = 1e-300, T^2 underflows: the curve rejects its rows, and the
    # derivative reports a non-finite value without a RuntimeWarning.
    model = two_point_model()
    nu = UtilitySpec.exp_logit_plus_length(0.0)
    assert utility_temperature_derivative(model, EMPTY, 1, nu, 1e300) == 0.0
    assert not math.isfinite(utility_temperature_derivative(model, EMPTY, 1, nu, 1e-300))
    high = OptimizationProblem(model, EMPTY, 1, nu, 0.5, bracket=(1.0, 1e300))
    assert all(math.isfinite(v) for row in objective_curve(high, 5) for v in row)
    low = OptimizationProblem(model, EMPTY, 1, nu, 0.5, bracket=(1e-300, 1.0))
    with pytest.raises(SolverError, match="objective curve has a non-finite value"):
        objective_curve(low, 5)


@pytest.mark.parametrize("coupled", [True, False], ids=["coupled", "free"])
def test_objective_at_a_subnormal_temperature_is_finite_or_a_solver_error(coupled):
    # At T = 1e-310, 1/T overflows. The enumerated Gibbs law keeps its T -> 0
    # limit, the best message; the closed form's tempered softmax has no
    # value. Neither may emit a RuntimeWarning.
    coupling = ((0.1, 0.0), (0.0, 0.2)) if coupled else None
    model = LogitModel(
        vocabulary=Vocabulary(("a", "b")),
        base_tables={"default": ((1.0, 0.0),)},
        influence=LabelBonusRule(beta=0.0),
        history_coupling=coupling,
    )
    problem = OptimizationProblem(model, EMPTY, 2, UtilitySpec.exp_logit_plus_length(0.1), 0.5)
    if coupled:
        assert regularized_objective(problem, 1e-310) == pytest.approx(math.exp(2.1) + 0.2)
    else:
        with pytest.raises(SolverError, match="objective is non-finite at T = 1e-310"):
            regularized_objective(problem, 1e-310)


@pytest.mark.parametrize("temperature", [1e-300, 1e-17, 1e-3, 0.5, 2.0])
def test_closed_form_exp_moments_match_the_zero_coupling_twin(temperature):
    # Once 1 + 1/T rounds to 1/T, a ratio of tilted to plain normalisers
    # cancels to E[e^U] = 1; the product of per-step means keeps e^2.
    model = two_point_model()
    utility = UtilitySpec.exp_logit_plus_length(0.1)
    got = utility_moments(model, EMPTY, 2, utility)(temperature)
    want = utility_moments(zero_coupling_twin(model), EMPTY, 2, utility)(temperature)
    assert got == pytest.approx(want, rel=1e-12)
    if temperature <= 1e-3:
        assert got[0] == pytest.approx(math.exp(2.0) + 0.2, rel=1e-12)


def test_enumerated_covariance_matches_a_long_double_oracle():
    rng = np.random.default_rng(0)
    V, L = 10, 5
    model = LogitModel(
        vocabulary=Vocabulary(tuple(f"t{i}" for i in range(V))),
        base_tables={"default": tuple(tuple(rng.uniform(-4.0, 4.0, V)) for _ in range(L))},
        influence=LabelBonusRule(beta=0.0),
        history_coupling=tuple(tuple(rng.uniform(-0.3, 0.3, V)) for _ in range(V)),
    )
    moments = utility_moments(model, EMPTY, L, UtilitySpec.exp_logit_plus_length(0.1))
    scores = enumerate_cumulative_scores(model, EMPTY, L)
    values = np.exp(scores.astype(np.longdouble)) + np.longdouble(0.1) * L
    for temperature in np.geomspace(0.1, 2.0, 101):
        _, cov = moments(float(temperature))
        want = longdouble_gibbs_covariance(scores, values, temperature)
        assert abs(cov - want) <= 1e-11 * max(1.0, abs(want))


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("temperature", [0.3, 0.5, 1.0, 2.0])
def test_derivative_matches_finite_differences(seed, temperature):
    rng = np.random.default_rng(4000 + seed)
    model, pair, length = make_random_instance(rng, max_vocab=4, max_length=3)
    nu = UtilitySpec.exp_logit_plus_length(0.1)

    def expectation(T):
        return expected_utility(gibbs_distribution(model, pair.left, length, T), nu, length)

    analytic = utility_temperature_derivative(model, pair.left, length, nu, temperature)
    fd = central_difference(expectation, temperature)
    scale = max(abs(fd), abs(analytic), 1e-8)
    assert abs(analytic - fd) / scale <= 1e-5


@pytest.mark.parametrize("slope", [0.0, 0.5, 2.0])
def test_nondecreasing_utility_has_nonnegative_covariance(slope):
    rng = np.random.default_rng(4321)
    for _ in range(10):
        model, pair, length = make_random_instance(rng)
        nu = UtilitySpec.affine(slope)
        for temperature in (0.1, 0.4, 1.0, 2.0):
            dist = gibbs_distribution(model, pair.left, length, temperature)
            assert utility_covariance(dist, nu, length) >= -1e-12


def test_expected_utility_is_nonincreasing_in_temperature_for_exp_utility():
    rng = np.random.default_rng(99)
    model, pair, length = make_random_instance(rng)
    nu = UtilitySpec.exp_logit_plus_length(0.1)
    values = [
        expected_utility(gibbs_distribution(model, pair.left, length, t), nu, length)
        for t in [round(0.1 * i, 10) for i in range(1, 21)]
    ]
    assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# the temperature solver


def test_objective_frozen_value():
    model = two_point_model()
    nu = UtilitySpec.exp_logit_plus_length(0.0)
    lam = utility_covariance(gibbs_distribution(model, EMPTY, 1, 1.0), nu, 1)
    problem = OptimizationProblem(model, EMPTY, 1, nu, lam)
    assert regularized_objective(problem, 1.0) == pytest.approx(2.5939993833, abs=1e-9)


def test_solver_finds_interior_stationary_point_and_global_maximum():
    model = two_point_model()
    nu = UtilitySpec.exp_logit_plus_length(0.0)
    lam = utility_covariance(gibbs_distribution(model, EMPTY, 1, 1.0), nu, 1)
    problem = OptimizationProblem(model, EMPTY, 1, nu, lam, bracket=(0.1, 2.0))
    t_star, diagnostics = optimal_temperature(problem)
    interior = [c.temperature for c in diagnostics.candidates if c.interior]
    assert any(abs(t - 1.0) <= 1e-6 for t in interior)
    best_grid = dense_grid_max(lambda t: regularized_objective(problem, t), 0.1, 2.0)
    assert regularized_objective(problem, t_star) >= best_grid - 1e-8
    assert diagnostics.chosen.temperature == t_star


def test_solver_boundary_cases():
    model = two_point_model()
    nu = UtilitySpec.exp_logit_plus_length(0.0)
    low, _ = optimal_temperature(OptimizationProblem(model, EMPTY, 1, nu, 0.0))
    assert low == pytest.approx(0.1, abs=1e-12)
    high, _ = optimal_temperature(OptimizationProblem(model, EMPTY, 1, nu, 100.0))
    assert high == pytest.approx(2.0, abs=1e-12)


def test_solver_flat_objective_is_handled():
    # A constant utility makes the objective flat up to rounding; any candidate
    # is acceptable but residuals must all vanish.
    model = two_point_model()
    problem = OptimizationProblem(model, EMPTY, 1, UtilitySpec.constant_value(1.0), 0.0)
    t_star, diagnostics = optimal_temperature(problem)
    assert 0.1 <= t_star <= 2.0
    objectives = [c.objective for c in diagnostics.candidates]
    assert max(objectives) - min(objectives) <= 1e-12
    assert all(c.foc_residual <= 1e-12 for c in diagnostics.candidates)


def test_solver_diagnostics_are_jsonable_and_sorted():
    model = two_point_model()
    nu = UtilitySpec.exp_logit_plus_length(0.0)
    _, diagnostics = optimal_temperature(OptimizationProblem(model, EMPTY, 1, nu, 0.2))
    payload = diagnostics.to_jsonable()
    temps = [c["temperature"] for c in payload["candidates"]]
    assert temps == sorted(temps)
    assert payload["chosen"]["temperature"] in temps


def test_problem_validation():
    model = two_point_model()
    nu = UtilitySpec.exp_logit_plus_length(0.0)
    with pytest.raises(ConfigError):
        OptimizationProblem(model, EMPTY, 0, nu, 0.1)
    with pytest.raises(ConfigError):
        OptimizationProblem(model, EMPTY, 1, nu, -0.1)
    with pytest.raises(ConfigError):
        OptimizationProblem(model, EMPTY, 1, nu, 0.1, bracket=(2.0, 0.1))
    with pytest.raises(ConfigError):
        OptimizationProblem(model, EMPTY, 1, nu, 0.1, bracket=(0.0, 1.0))
