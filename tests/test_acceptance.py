"""Acceptance suite: one test per shipping criterion.

Run ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion. Tolerances are asserted exactly as stated; none are loosened.
"""

import itertools
import json
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from dpgenlab import (
    Dataset,
    GenerationConfig,
    LabelBonusRule,
    LogitModel,
    NeighborPair,
    OptimizationProblem,
    Record,
    TagTableRule,
    UtilitySpec,
    Vocabulary,
    derive_rng,
    empirical_epsilon,
    enumerate_cumulative_scores,
    enumerate_message_distribution,
    estimate_cell,
    exact_smoothed_distribution,
    expected_utility,
    gibbs_distribution,
    hockey_stick_delta,
    js_divergence,
    logit_sensitivity,
    make_label_space,
    message_epsilon_bound,
    message_epsilon_exact,
    optimal_temperature,
    per_step_max_epsilons,
    regularized_objective,
    run_selftest,
    run_sweep,
    token_epsilon_bound,
    token_epsilon_exact,
    total_variation,
    utility_covariance,
    utility_temperature_derivative,
)
from dpgenlab.cli import main as cli_main

from .helpers import (
    TEMPERATURE_GRID,
    central_difference,
    dense_grid_max,
    make_random_instance,
    subset_hockey_stick,
)

EMPTY = Dataset(())


@pytest.fixture(scope="module")
def family():
    """200 randomized instances: |V| <= 5, L <= 3, beta <= 2, T on the grid."""
    rng = np.random.default_rng(20260814)
    instances = []
    for _ in range(200):
        model, pair, length = make_random_instance(rng)
        temperature = float(rng.choice(TEMPERATURE_GRID))
        instances.append((model, pair, length, temperature))
    return instances


def toy_pair():
    model = LogitModel(
        vocabulary=Vocabulary(("a", "b")),
        base_tables={"default": ((1.0, 0.0),)},
        influence=LabelBonusRule(beta=1.0),
    )
    left = Dataset((Record("a", 1.0, "r0"),))
    return model, NeighborPair(left, left.replace(0, Record("b", 1.0, "r0")), 0)


def test_criterion_1_token_epsilon_within_closed_form_bound(family):
    start = time.monotonic()
    assert len(family) >= 200
    checked = 0
    for model, pair, length, temperature in family:
        config = GenerationConfig(temperature=temperature, length=length)
        delta = logit_sensitivity(model, pair).delta_logit
        cap = token_epsilon_bound(delta, temperature) + 1e-9
        V = model.vocabulary.size
        for cid in model.base_tables:
            active = model.with_context(cid)
            for step in range(1, length + 1):
                for history in itertools.product(range(V), repeat=step - 1):
                    eps = token_epsilon_exact(active, pair, history, step, config)
                    assert eps <= cap, (
                        f"token epsilon {eps} exceeds bound {cap} at "
                        f"history={history}, step={step}"
                    )
                    checked += 1
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0, f"criterion 1 took {elapsed:.1f}s"
    print(f"criterion 1 PASS: {checked} per-history checks over {len(family)} instances")


def test_criterion_2_message_epsilon_within_both_bounds(family):
    for model, pair, length, temperature in family:
        config = GenerationConfig(temperature=temperature, length=length)
        delta = logit_sensitivity(model, pair).delta_logit
        closed_form = message_epsilon_bound(delta, temperature, length)
        for cid in model.base_tables:
            active = model.with_context(cid)
            eps, _ = message_epsilon_exact(active, pair, config)
            assert eps <= closed_form + 1e-9
            assert eps <= sum(per_step_max_epsilons(active, pair, config)) + 1e-9
    print(f"criterion 2 PASS: message bounds hold on {len(family)} instances")


def test_criterion_3_hockey_stick_matches_subset_brute_force(family):
    qualifying = [
        inst for inst in family if inst[0].vocabulary.size ** inst[2] <= 12
    ]
    assert len(qualifying) >= 30, "family too small for the brute-force subset check"
    for model, pair, length, temperature in qualifying:
        config = GenerationConfig(temperature=temperature, length=length)
        left = enumerate_message_distribution(model, pair.left, config)
        right = enumerate_message_distribution(model, pair.right, config)
        eps_exact, _ = message_epsilon_exact(model, pair, config)
        for eps in (0.0, 0.5 * eps_exact, eps_exact):
            for p, q in ((left, right), (right, left)):
                got = hockey_stick_delta(p, q, eps)
                brute = subset_hockey_stick(p.probs(), q.probs(), eps)
                assert abs(got - brute) <= 1e-12
        assert hockey_stick_delta(left, right, eps_exact) <= 1e-12
        assert hockey_stick_delta(right, left, eps_exact) <= 1e-12
    print(f"criterion 3 PASS: subset oracle agreement on {len(qualifying)} instances")


def _rescaled(model, factor):
    """Scale every logit source by ``factor``; cumulative scores scale exactly."""
    tables = {
        cid: tuple(tuple(factor * v for v in row) for row in rows)
        for cid, rows in model.base_tables.items()
    }
    rule = model.influence
    if isinstance(rule, LabelBonusRule):
        rule = LabelBonusRule(beta=factor * rule.beta)
    elif isinstance(rule, TagTableRule):
        rule = TagTableRule(
            beta=factor * rule.beta,
            table={tag: tuple(factor * v for v in row) for tag, row in rule.table.items()},
        )
    coupling = model.history_coupling
    if coupling is not None:
        coupling = tuple(tuple(factor * v for v in row) for row in coupling)
    return LogitModel(
        vocabulary=model.vocabulary,
        base_tables=tables,
        influence=rule,
        history_coupling=coupling,
        context=model.context,
    )


def test_criterion_4_analytic_derivative_matches_finite_differences():
    # Score spreads are normalized into [1, 4] so the finite-difference
    # reference itself stays trustworthy: with a tiny spread the quotient is
    # dominated by round-off, with a huge one by truncation, and neither
    # failure says anything about the analytic formula.
    rng = np.random.default_rng(20260404)
    nu = UtilitySpec.exp_logit_plus_length(0.1)
    instances = []
    while len(instances) < 100:
        model, pair, length = make_random_instance(rng, max_vocab=4)
        scores = enumerate_cumulative_scores(model, pair.left, length)
        spread = float(scores.max() - scores.min())
        if spread < 0.25:
            continue
        target = float(rng.uniform(1.0, 4.0))
        instances.append((_rescaled(model, target / spread), pair, length))

    for model, pair, length in instances:
        for temperature in (0.3, 0.5, 1.0, 2.0):
            analytic = utility_temperature_derivative(
                model, pair.left, length, nu, temperature
            )

            def expectation(T):
                return expected_utility(
                    gibbs_distribution(model, pair.left, length, T), nu, length
                )

            fd = central_difference(expectation, temperature, h=1e-4)
            scale = max(abs(analytic), abs(fd))
            assert scale > 0.0
            assert abs(analytic - fd) / scale <= 1e-5
    print("criterion 4 PASS: derivative identity on 100 instances x 4 temperatures")


def _shifted(model, delta):
    """Subtract ``delta`` from every base-logit entry; distributions are
    unchanged, cumulative scores drop by ``delta`` per step."""
    tables = {
        cid: tuple(tuple(v - delta for v in row) for row in rows)
        for cid, rows in model.base_tables.items()
    }
    return LogitModel(
        vocabulary=model.vocabulary,
        base_tables=tables,
        influence=model.influence,
        history_coupling=model.history_coupling,
        context=model.context,
    )


def test_criterion_5_monotone_utility_gives_nonnegative_covariance():
    # Instances are tamed to O(1) scores: the covariance of an exp utility is
    # nonnegative mathematically at any scale, but evaluating it at e^30
    # magnitudes turns the -1e-12 tolerance into pure cancellation noise.
    rng = np.random.default_rng(20260505)
    utilities = (
        UtilitySpec.exp_logit_plus_length(0.1),
        UtilitySpec.affine(0.7, intercept=0.3),
        UtilitySpec.constant_value(2.0),
    )
    collected = 0
    while collected < 25:
        model, pair, length = make_random_instance(rng)
        scores = enumerate_cumulative_scores(model, pair.left, length)
        spread = float(scores.max() - scores.min())
        if spread < 0.25:
            continue
        model = _rescaled(model, float(rng.uniform(1.0, 4.0)) / spread)
        scores = enumerate_cumulative_scores(model, pair.left, length)
        model = _shifted(model, float(scores.max()) / length)
        collected += 1
        for nu in utilities:
            values = []
            for temperature in TEMPERATURE_GRID:
                dist = gibbs_distribution(model, pair.left, length, temperature)
                assert utility_covariance(dist, nu, length) >= -1e-12
                values.append(expected_utility(dist, nu, length))
            assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))
    print("criterion 5 PASS: covariance sign and E(T) monotonicity on the grid")


def test_criterion_6_solver_recovers_constructed_stationary_point():
    model = LogitModel(
        vocabulary=Vocabulary(("a", "b")),
        base_tables={"default": ((1.0, 0.0),)},
        influence=LabelBonusRule(beta=0.0),
    )
    nu = UtilitySpec.exp_logit_plus_length(0.0)
    lam = utility_covariance(gibbs_distribution(model, EMPTY, 1, 1.0), nu, 1)
    problem = OptimizationProblem(model, EMPTY, 1, nu, lam, bracket=(0.1, 2.0))
    t_star, diagnostics = optimal_temperature(problem)

    interior = [c.temperature for c in diagnostics.candidates if c.interior]
    assert min(abs(t - 1.0) for t in interior) <= 1e-6

    grid_best = dense_grid_max(
        lambda t: regularized_objective(problem, t), 0.1, 2.0, points=10_000
    )
    assert regularized_objective(problem, t_star) >= grid_best - 1e-8

    low, _ = optimal_temperature(OptimizationProblem(model, EMPTY, 1, nu, 0.0))
    assert low == pytest.approx(0.1, abs=1e-12)
    high, _ = optimal_temperature(OptimizationProblem(model, EMPTY, 1, nu, 100.0))
    assert high == pytest.approx(2.0, abs=1e-12)
    print("criterion 6 PASS: interior stationary point, grid dominance, boundaries")


def test_criterion_7_estimator_matches_exact_smoothing_at_scale():
    start = time.monotonic()
    model, pair = toy_pair()
    temperature, length, samples = 2.0, 2, 100_000
    config = GenerationConfig(temperature=temperature, length=length)
    label_space = make_label_space("identity", model.vocabulary, length)

    exact_left = exact_smoothed_distribution(
        model, pair.left, config, label_space, samples, 1.0
    )
    exact_right = exact_smoothed_distribution(
        model, pair.right, config, label_space, samples, 1.0
    )
    want_eps = empirical_epsilon(exact_left, exact_right)
    want_tv = total_variation(exact_left, exact_right)
    want_js = js_divergence(exact_left, exact_right)

    cell = estimate_cell(
        model, pair, temperature, length, samples, 1.0, "identity",
        UtilitySpec.exp_logit_plus_length(),
        derive_rng(812, 0, 0, 0, 0), derive_rng(812, 0, 0, 0, 1),
    )
    assert abs(cell.empirical_epsilon - want_eps) <= 0.02
    assert abs(cell.tv - want_tv) <= 0.01
    assert abs(cell.js - want_js) <= 0.01
    elapsed = time.monotonic() - start
    assert elapsed <= 120.0, f"criterion 7 took {elapsed:.1f}s"
    print(
        f"criterion 7 PASS: eps {cell.empirical_epsilon:.4f} vs {want_eps:.4f}, "
        f"tv {cell.tv:.4f} vs {want_tv:.4f}, js {cell.js:.4f} vs {want_js:.4f}"
    )


def test_criterion_8_trend_reproduction_at_toy_scale():
    model, pair = toy_pair()
    result = run_sweep(model, pair, jobs=2)  # defaults: 20-point grid, n=250, R=10, seed 0

    for length in (2, 5, 10):
        for metric in ("empirical_epsilon", "tv", "js"):
            temps, means, _ = result.curve(length, metric)
            rho = spearmanr(temps, means).statistic
            assert rho <= -0.9, f"{metric} at L={length}: Spearman {rho:.3f}"
        for metric in ("mean_U", "mean_info_score"):
            _, means, _ = result.curve(length, metric)
            # decreasing: no adjacent increase (exact ties happen on the
            # saturated low-T plateau) plus a strict overall drop
            assert np.all(np.diff(means) <= 0.0), f"{metric} rises at L={length}"
            assert means[-1] < means[0]
        _, covs, _ = result.curve(length, "cov_nu_U")
        assert np.all(covs >= 0.0)

    for temperature in TEMPERATURE_GRID:
        eps_by_length = [
            message_epsilon_exact(
                model, pair, GenerationConfig(temperature=temperature, length=length)
            )[0]
            for length in (2, 5, 10)
        ]
        assert eps_by_length[0] <= eps_by_length[1] + 1e-12
        assert eps_by_length[1] <= eps_by_length[2] + 1e-12
    print("criterion 8 PASS: monotone trends and covariance sign at toy scale")


def test_criterion_9_reproducibility_and_selftest(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    data_path = tmp_path / "data.json"
    model_path.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "vocabulary": ["a", "b"],
                "contexts": [{"id": "default", "base_logits": [[1.0, 0.0]]}],
                "influence": {"kind": "label_bonus", "beta": 1.0},
                "history_coupling": None,
            }
        )
    )
    data_path.write_text(json.dumps({"schema_version": 1, "records": [["a", 1.0, "r0"]]}))
    out = tmp_path / "sweep.csv"
    argv = [
        "sweep", "--model", str(model_path), "--data", str(data_path),
        "--neighbor-index", "0", "--neighbor-record", "b,1.0,r0",
        "--grid", "0.1:1.0:0.3", "--L", "2,5", "--samples", "40",
        "--repeats", "3", "--out", str(out),
    ]
    assert cli_main(argv) == 0
    first_csv = out.read_bytes()
    first_manifest = (tmp_path / "sweep.csv.manifest.json").read_bytes()
    assert cli_main(argv) == 0
    capsys.readouterr()
    assert (tmp_path / "sweep.csv.manifest.json").read_bytes() == first_manifest
    assert out.read_bytes() == first_csv

    results = run_selftest()
    failures = [r for r in results if not r.passed]
    assert not failures, f"selftest failures: {[r.name for r in failures]}"
    assert len(results) >= 20
    print(
        f"criterion 9 PASS: byte-identical replay, selftest {len(results)}/"
        f"{len(results)} checks"
    )
