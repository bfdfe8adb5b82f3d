"""Built-in oracle suite: worked examples recomputed from first principles.

Every check pairs a library call with an independent recomputation (plain
``math`` arithmetic, explicit subset enumeration, finite differences, or a
dense objective grid) and fails loudly on disagreement. The CLI exposes the
suite as the ``selftest`` subcommand; the test suite runs it as well.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .generation import (
    Dataset,
    GenerationConfig,
    LabelBonusRule,
    LogitModel,
    Message,
    MessageDistribution,
    Record,
    TagTableRule,
    Vocabulary,
    cumulative_logit_scores,
    derive_rng,
    enumerate_message_distribution,
    message_at_index,
    message_log_probability,
    sample_messages,
    token_distribution,
)
from .lab import (
    LabelSpace,
    estimate_cell,
    exact_smoothed_distribution,
    laplace_smooth,
    empirical_epsilon,
    js_divergence,
    total_variation,
)
from .privacy import (
    NeighborPair,
    hockey_stick_delta,
    logit_sensitivity,
    message_epsilon_bound,
    message_epsilon_exact,
    token_epsilon_bound,
    token_epsilon_exact,
)
from .utility import (
    OptimizationProblem,
    UtilitySpec,
    expected_utility,
    gibbs_autoregressive_gap,
    gibbs_distribution,
    optimal_temperature,
    regularized_objective,
    utility_covariance,
    utility_moments,
    utility_temperature_derivative,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _close(got: float, want: float, tol: float, what: str) -> None:
    if not math.isfinite(got) or abs(got - want) > tol:
        raise AssertionError(f"{what}: got {got!r}, want {want!r} within {tol}")


def _true(condition: bool, what: str) -> None:
    if not condition:
        raise AssertionError(what)


# ---------------------------------------------------------------------------
# shared toy instances


def _plain_model(base_row: tuple[float, ...], vocab: tuple[str, ...] = ("a", "b")) -> LogitModel:
    return LogitModel(
        vocabulary=Vocabulary(vocab),
        base_tables={"default": (base_row,)},
        influence=LabelBonusRule(beta=0.0),
    )


def _epsilon_instance() -> tuple[LogitModel, NeighborPair]:
    """Left logits (1, 0), right logits (0, 0), via a tag-indexed influence."""
    model = LogitModel(
        vocabulary=Vocabulary(("a", "b")),
        base_tables={"default": ((0.0, 0.0),)},
        influence=TagTableRule(beta=1.0, table={"boost": (1.0, 0.0)}),
    )
    left = Dataset((Record("a", 1.0, "boost"),))
    right = Dataset((Record("a", 1.0, "plain"),))
    return model, NeighborPair(left=left, right=right, differing_index=0)


def _coupled_model() -> LogitModel:
    return LogitModel(
        vocabulary=Vocabulary(("a", "b")),
        base_tables={"default": ((0.5, 0.0),)},
        influence=LabelBonusRule(beta=0.0),
        history_coupling=((0.3, -0.2), (0.1, 0.4)),
    )


def _softmax(logits, T):
    z = [math.exp(x / T) for x in logits]
    s = sum(z)
    return [x / s for x in z]


EMPTY = Dataset(())


# ---------------------------------------------------------------------------
# generation checks


def check_softmax_two_point() -> None:
    dist = token_distribution(_plain_model((1.0, 0.0)), EMPTY, (), 1, GenerationConfig(1.0, 1))
    want = _softmax([1.0, 0.0], 1.0)
    _close(dist.probs()[0], want[0], 1e-12, "P(a)")
    _close(dist.probs()[1], want[1], 1e-12, "P(b)")
    _close(dist.probs()[0], 0.7310585786, 1e-9, "P(a) frozen")
    _close(dist.probs()[1], 0.2689414214, 1e-9, "P(b) frozen")


def check_softmax_high_temperature() -> None:
    dist = token_distribution(_plain_model((5.0, 0.0)), EMPTY, (), 1, GenerationConfig(100.0, 1))
    _close(dist.probs()[0], 0.5124973965, 1e-9, "P(a) frozen")
    _close(dist.probs()[1], 0.4875026035, 1e-9, "P(b) frozen")


def check_message_log_probability() -> None:
    model = _plain_model((1.0, 0.0))
    got = message_log_probability(model, EMPTY, Message((0, 0)), GenerationConfig(1.0, 2))
    pa = _softmax([1.0, 0.0], 1.0)[0]
    _close(got, 2 * math.log(pa), 1e-12, "log P(aa)")
    _close(got, -0.6265233750, 1e-9, "log P(aa) frozen")


def check_enumeration_table() -> None:
    model = _plain_model((1.0, 0.0))
    dist = enumerate_message_distribution(model, EMPTY, GenerationConfig(1.0, 2))
    pa, pb = _softmax([1.0, 0.0], 1.0)
    want = [pa * pa, pa * pb, pb * pa, pb * pb]
    for i, w in enumerate(want):
        _close(dist.probs()[i], w, 1e-12, f"P(message {i})")
    frozen = (0.5344466454, 0.1966119332, 0.1966119332, 0.0723294881)
    for i, w in enumerate(frozen):
        _close(dist.probs()[i], w, 1e-9, f"P(message {i}) frozen")


def check_cumulative_score() -> None:
    model = _plain_model((1.0, 0.0))
    u_aa, u_ab = cumulative_logit_scores(model, EMPTY, np.array([[0, 0], [0, 1]]))
    _close(u_aa, 2.0, 1e-12, "U(aa)")
    _close(u_ab, 1.0, 1e-12, "U(ab)")


def check_low_temperature_sampling() -> None:
    model = _plain_model((20.0, 0.0))
    config = GenerationConfig(0.1, 3)
    msgs = sample_messages(model, EMPTY, config, derive_rng(7, 0), 10_000)
    _true(bool((msgs == 0).all()), "a 200-logit gap at T=0.1 must sample only token a")


def check_uniform_sampling_frequency() -> None:
    model = _plain_model((0.0, 0.0))
    msgs = sample_messages(model, EMPTY, GenerationConfig(1.0, 1), derive_rng(11, 0), 100_000)
    freq_a = float((msgs == 0).mean())
    _close(freq_a, 0.5, 0.005, "frequency of token a under the uniform model")


# ---------------------------------------------------------------------------
# privacy checks


def check_label_bonus_sensitivity() -> None:
    model = LogitModel(
        vocabulary=Vocabulary(("a", "b")),
        base_tables={"default": ((0.0, 0.0),)},
        influence=LabelBonusRule(beta=0.4),
    )
    pair = NeighborPair(
        left=Dataset((Record("a", 1.0, "r0"),)),
        right=Dataset((Record("b", 1.0, "r0"),)),
        differing_index=0,
    )
    config = GenerationConfig(1.0, 2)
    _close(logit_sensitivity(model, pair, config).delta_logit, 0.4, 1e-12, "analytic delta")
    _close(
        logit_sensitivity(model, pair, config, method="enumerate").delta_logit,
        0.4,
        1e-12,
        "enumerated delta",
    )
    same = NeighborPair(
        left=Dataset((Record("a", 1.0, "r0"),)),
        right=Dataset((Record("a", 1.0, "other"),)),
        differing_index=0,
    )
    _close(logit_sensitivity(model, same, config).delta_logit, 0.0, 1e-12, "same-label delta")


def check_sensitivity_paths_agree() -> None:
    rng = np.random.default_rng(2024)
    for _ in range(20):
        V = int(rng.integers(2, 5))
        L = int(rng.integers(1, 4))
        tokens = tuple(f"t{i}" for i in range(V))
        tags = ["g0", "g1", "g2"]
        table = {tag: tuple(rng.uniform(-1.0, 1.0, V)) for tag in tags}
        beta = max(abs(v) for row in table.values() for v in row) + 0.1
        coupling = tuple(tuple(rng.uniform(-0.5, 0.5, V)) for _ in range(V))
        model = LogitModel(
            vocabulary=Vocabulary(tokens),
            base_tables={"default": tuple(tuple(rng.uniform(-2, 2, V)) for _ in range(L))},
            influence=TagTableRule(beta=beta, table=table),
            history_coupling=coupling,
        )
        records = tuple(
            Record(tokens[int(rng.integers(V))], 1.0, tags[int(rng.integers(3))])
            for _ in range(3)
        )
        replacement = Record(tokens[int(rng.integers(V))], 1.0, tags[int(rng.integers(3))])
        pair = NeighborPair(
            left=Dataset(records),
            right=Dataset(records).replace(1, replacement),
            differing_index=1,
        )
        config = GenerationConfig(1.0, L)
        analytic = logit_sensitivity(model, pair, config).delta_logit
        enumerated = logit_sensitivity(model, pair, config, method="enumerate").delta_logit
        _close(analytic, enumerated, 1e-12, "analytic vs enumerated sensitivity")


def check_token_epsilon() -> None:
    model, pair = _epsilon_instance()
    config = GenerationConfig(1.0, 1)
    got = token_epsilon_exact(model, pair, (), 1, config)
    P = _softmax([1.0, 0.0], 1.0)
    Q = _softmax([0.0, 0.0], 1.0)
    want = max(abs(math.log(p / q)) for p, q in zip(P, Q))
    _close(got, want, 1e-12, "token epsilon")
    _close(got, 0.6201145070, 1e-9, "token epsilon frozen")
    delta = logit_sensitivity(model, pair, config).delta_logit
    _true(got <= token_epsilon_bound(delta, 1.0) + 1e-9, "token epsilon must respect 2*Delta/T")
    _close(token_epsilon_bound(delta, 1.0), 2.0, 1e-12, "token bound value")


def check_message_epsilon() -> None:
    model, pair = _epsilon_instance()
    config = GenerationConfig(1.0, 2)
    eps, witness = message_epsilon_exact(model, pair, config)
    P = _softmax([1.0, 0.0], 1.0)
    Q = _softmax([0.0, 0.0], 1.0)
    want = max(
        abs(math.log((P[i] * P[j]) / (Q[i] * Q[j])))
        for i, j in itertools.product(range(2), repeat=2)
    )
    _close(eps, want, 1e-12, "message epsilon")
    _close(eps, 1.2402290139, 1e-9, "message epsilon frozen")
    _true(witness.render(model.vocabulary) == ("b", "b"), "witness message should be bb")
    tok = token_epsilon_exact(model, pair, (), 1, GenerationConfig(1.0, 1))
    _close(eps, 2 * tok, 1e-9, "two-step epsilon equals twice the per-step epsilon")
    delta = logit_sensitivity(model, pair, config).delta_logit
    _true(
        eps <= message_epsilon_bound(delta, 1.0, 2) + 1e-9,
        "message epsilon must respect 2*Delta*L/T",
    )


def check_hockey_stick() -> None:
    vocab = Vocabulary(("a", "b"))
    p = MessageDistribution(vocab, 1, np.log([0.75, 0.25]))
    q = MessageDistribution(vocab, 1, np.log([0.25, 0.75]))
    got = hockey_stick_delta(p, q, math.log(2.0))
    _close(got, 0.25, 1e-12, "hockey-stick delta at eps = ln 2")
    # independent subset-enumeration oracle
    best = 0.0
    for mask in range(4):
        ps = sum(pp for i, pp in enumerate([0.75, 0.25]) if mask >> i & 1)
        qs = sum(qq for i, qq in enumerate([0.25, 0.75]) if mask >> i & 1)
        best = max(best, ps - 2.0 * qs)
    _close(got, best, 1e-12, "hockey-stick vs subset enumeration")


def check_hockey_stick_zero_at_exact_epsilon() -> None:
    model, pair = _epsilon_instance()
    config = GenerationConfig(1.0, 2)
    eps, _ = message_epsilon_exact(model, pair, config)
    p = enumerate_message_distribution(model, pair.left, config)
    q = enumerate_message_distribution(model, pair.right, config)
    _true(
        hockey_stick_delta(p, q, eps) <= 1e-12,
        "delta at the exact epsilon must vanish",
    )


# ---------------------------------------------------------------------------
# utility checks


def check_gibbs_two_point() -> None:
    dist = gibbs_distribution(_plain_model((1.0, 0.0)), EMPTY, 1, 1.0)
    want = _softmax([1.0, 0.0], 1.0)
    _close(dist.probs()[0], want[0], 1e-12, "Gibbs P(a)")
    _close(dist.probs()[1], want[1], 1e-12, "Gibbs P(b)")


def check_gibbs_gap() -> None:
    flat = _plain_model((1.0, 0.0))
    _true(
        gibbs_autoregressive_gap(flat, EMPTY, GenerationConfig(1.0, 3)) <= 1e-10,
        "history-independent models have no Gibbs gap",
    )
    model = _coupled_model()
    config = GenerationConfig(0.7, 2)
    gap = gibbs_autoregressive_gap(model, EMPTY, config)
    # oracle: recompute both laws message by message
    V, L = 2, 2
    product, gibbs_raw = [], []
    for idx in range(V**L):
        m = message_at_index(idx, V, L)
        product.append(math.exp(message_log_probability(model, EMPTY, m, config)))
        score = cumulative_logit_scores(model, EMPTY, np.array([m.tokens]))[0]
        gibbs_raw.append(math.exp(score / 0.7))
    z = sum(gibbs_raw)
    want = 0.5 * sum(abs(p - g / z) for p, g in zip(product, gibbs_raw))
    _close(gap, want, 1e-12, "Gibbs gap vs naive recomputation")
    _true(gap > 1e-4, "history coupling should open a nonzero Gibbs gap")


def check_expected_utility() -> None:
    dist = gibbs_distribution(_plain_model((1.0, 0.0)), EMPTY, 1, 1.0)
    got = expected_utility(dist, UtilitySpec.exp_logit_plus_length(0.0), 1)
    _close(got, 2.2561646712, 1e-9, "E[e^U] frozen")
    got_with_length = expected_utility(dist, UtilitySpec.exp_logit_plus_length(0.1), 2)
    _close(got_with_length, got + 0.2, 1e-12, "length bonus adds 0.1 * L")


def check_covariances() -> None:
    dist = gibbs_distribution(_plain_model((1.0, 0.0)), EMPTY, 1, 1.0)
    var_u = utility_covariance(dist, UtilitySpec.affine(1.0, 0.0), 1)
    _close(var_u, 0.1966119332, 1e-9, "Var(U) frozen")
    cov = utility_covariance(dist, UtilitySpec.exp_logit_plus_length(0.0), 1)
    _close(cov, 0.3378347121, 1e-9, "Cov(e^U, U) frozen")


def check_temperature_derivative() -> None:
    model = _plain_model((1.0, 0.0))
    utility = UtilitySpec.exp_logit_plus_length(0.0)
    got = utility_temperature_derivative(model, EMPTY, 1, utility, 1.0)
    _close(got, -0.3378347121, 1e-9, "dE/dT frozen")
    h = 1e-4
    upper = expected_utility(gibbs_distribution(model, EMPTY, 1, 1.0 + h), utility, 1)
    lower = expected_utility(gibbs_distribution(model, EMPTY, 1, 1.0 - h), utility, 1)
    fd = (upper - lower) / (2 * h)
    _true(abs(got - fd) / abs(fd) <= 1e-5, "closed form must match central differences")


def check_regularized_objective() -> None:
    model = _plain_model((1.0, 0.0))
    utility = UtilitySpec.exp_logit_plus_length(0.0)
    dist = gibbs_distribution(model, EMPTY, 1, 1.0)
    lam = utility_covariance(dist, utility, 1)
    problem = OptimizationProblem(model, EMPTY, 1, utility, lam)
    got = regularized_objective(problem, 1.0)
    _close(got, 2.5939993833, 1e-9, "objective at T=1 frozen")
    _close(got, expected_utility(dist, utility, 1) + lam, 1e-12, "objective decomposition")


def check_optimizer_interior_candidate() -> None:
    model = _plain_model((1.0, 0.0))
    utility = UtilitySpec.exp_logit_plus_length(0.0)
    lam = utility_covariance(gibbs_distribution(model, EMPTY, 1, 1.0), utility, 1)
    problem = OptimizationProblem(model, EMPTY, 1, utility, lam, bracket=(0.1, 2.0))
    t_star, diagnostics = optimal_temperature(problem)
    interior = [c for c in diagnostics.candidates if c.interior]
    _true(
        any(abs(c.temperature - 1.0) <= 1e-6 for c in interior),
        "the constructed first-order condition must yield an interior candidate at T=1",
    )
    for c in interior:
        _true(c.foc_residual <= 1e-6, f"interior candidate at {c.temperature} has a large residual")
    grid = np.geomspace(0.1, 2.0, 10_000)
    best_grid = max(regularized_objective(problem, float(t)) for t in grid)
    _true(
        regularized_objective(problem, t_star) >= best_grid - 1e-8,
        "returned temperature must beat a dense objective grid",
    )


def check_optimizer_boundaries() -> None:
    model = _plain_model((1.0, 0.0))
    utility = UtilitySpec.exp_logit_plus_length(0.0)
    low = OptimizationProblem(model, EMPTY, 1, utility, 0.0, bracket=(0.1, 2.0))
    t_low, _ = optimal_temperature(low)
    _close(t_low, 0.1, 1e-12, "lambda = 0 must return the lower bracket edge")
    high = OptimizationProblem(model, EMPTY, 1, utility, 100.0, bracket=(0.1, 2.0))
    t_high, _ = optimal_temperature(high)
    _close(t_high, 2.0, 1e-12, "a dominant lambda must return the upper bracket edge")


def check_closed_form_matches_enumeration() -> None:
    """A coupling-free model has one shared row per level and closed-form
    utility moments; its zero-coupling twin has the same law but one row per
    prefix and an enumerated score table."""
    vocab = Vocabulary(("a", "b", "c"))
    tables = {"default": ((0.4, 0.0, -0.3), (0.1, 0.5, 0.0), (-0.2, 0.3, 0.6))}
    rule = TagTableRule(beta=1.0, table={"up": (1.0, 0.0, -0.5), "down": (-0.5, 0.0, 1.0)})
    free = LogitModel(vocabulary=vocab, base_tables=tables, influence=rule)
    twin = LogitModel(
        vocabulary=vocab, base_tables=tables, influence=rule, history_coupling=((0.0,) * 3,) * 3
    )
    left = Dataset((Record("a", 1.0, "up"), Record("b", 1.0, "down")))
    pair = NeighborPair(
        left=left, right=left.replace(0, Record("a", 1.0, "down")), differing_index=0
    )
    config = GenerationConfig(0.8, 3)
    eps, _ = message_epsilon_exact(free, pair, config)
    _close(eps, message_epsilon_exact(twin, pair, config)[0], 1e-12, "message epsilon")
    free_delta, twin_delta = (
        hockey_stick_delta(
            enumerate_message_distribution(m, pair.left, config),
            enumerate_message_distribution(m, pair.right, config),
            eps / 2,
        )
        for m in (free, twin)
    )
    _true(free_delta > 0.0, "delta at eps/2 should be positive")
    _close(free_delta, twin_delta, 1e-12, "hockey-stick delta at eps/2")
    utility = UtilitySpec.exp_logit_plus_length(0.1)
    e_nu, cov = utility_moments(free, left, 3, utility)(0.8)
    want_e_nu, want_cov = utility_moments(twin, left, 3, utility)(0.8)
    _close(e_nu, want_e_nu, 1e-12, "E[nu]")
    _close(cov, want_cov, 1e-12, "Cov(nu, U)")


# ---------------------------------------------------------------------------
# empirical-lab checks


def _two_label_space() -> LabelSpace:
    return LabelSpace("first_token", Vocabulary(("a", "b")), 1)


def check_laplace_smoothing() -> None:
    smoothed = laplace_smooth(np.array([3.0, 1.0]), 4, 1.0, _two_label_space())
    _close(smoothed.probs[0], 2.0 / 3.0, 1e-12, "smoothed P(a)")
    _close(smoothed.probs[1], 1.0 / 3.0, 1e-12, "smoothed P(b)")
    uniform = laplace_smooth(np.zeros(2), 0, 1.0, _two_label_space())
    _close(uniform.probs[0], 0.5, 1e-12, "zero counts smooth to uniform")


def check_divergences() -> None:
    space = _two_label_space()
    p = laplace_smooth(np.array([3.0, 1.0]), 4, 1.0, space)
    q = laplace_smooth(np.array([1.0, 3.0]), 4, 1.0, space)
    _close(empirical_epsilon(p, q), math.log(2.0), 1e-12, "empirical epsilon at (2/3, 1/3)")
    _close(total_variation(p, q), 1.0 / 3.0, 1e-12, "TV of the smoothed pair")
    flip_p = np.array([0.75, 0.25])
    flip_q = np.array([0.25, 0.75])
    _close(total_variation(flip_p, flip_q), 0.5, 1e-12, "TV of the 0.75/0.25 flip")
    _close(js_divergence(flip_p, flip_q), 0.1308120359, 1e-9, "JS of the flip frozen")
    m = 0.5 * (flip_p + flip_q)
    want = 0.5 * sum(p * math.log(p / mm) for p, mm in zip(flip_p, m)) + 0.5 * sum(
        q * math.log(q / mm) for q, mm in zip(flip_q, m)
    )
    _close(js_divergence(flip_p, flip_q), want, 1e-12, "JS vs direct formula")
    _close(
        js_divergence(np.array([1.0, 0.0]), np.array([0.0, 1.0])),
        math.log(2.0),
        1e-12,
        "JS of disjoint distributions",
    )


def check_shared_seed_zeroes_metrics() -> None:
    model, _ = _epsilon_instance()
    left = Dataset((Record("a", 1.0, "boost"),))
    pair = NeighborPair(left=left, right=left, differing_index=0)
    rng_l = derive_rng(5, 0, 0, 0, 0)
    rng_r = derive_rng(5, 0, 0, 0, 0)
    cell = estimate_cell(
        model, pair, 0.8, 2, 200, 1.0, "identity",
        UtilitySpec.exp_logit_plus_length(), rng_l, rng_r,
    )
    _true(cell.empirical_epsilon == 0.0, "shared seeds on identical arms must give epsilon 0")
    _true(cell.tv == 0.0 and cell.js == 0.0, "shared seeds on identical arms must give TV=JS=0")


def check_estimator_matches_exact_smoothing() -> None:
    model, pair = _epsilon_instance()
    samples, alpha = 100_000, 1.0
    config_grid = [round(0.1 * i, 10) for i in range(1, 21)]
    space = LabelSpace("identity", model.vocabulary, 2)
    for t_idx, temperature in enumerate(config_grid):
        config = GenerationConfig(temperature, 2)
        exact = exact_smoothed_distribution(model, pair.left, config, space, samples, alpha)
        for repeat in range(20):
            rng = derive_rng(4242, t_idx, repeat)
            msgs = sample_messages(model, pair.left, config, rng, samples)
            counts = np.bincount(space.project_batch(msgs), minlength=space.size).astype(float)
            empirical = laplace_smooth(counts, samples, alpha, space)
            tv = total_variation(empirical, exact)
            _true(
                tv <= 0.01,
                f"empirical smoothing drifted from exact at T={temperature}, "
                f"repeat {repeat}: TV={tv}",
            )


CHECKS: tuple[tuple[str, Callable[[], None]], ...] = (
    ("softmax_two_point", check_softmax_two_point),
    ("softmax_high_temperature", check_softmax_high_temperature),
    ("message_log_probability", check_message_log_probability),
    ("enumeration_table", check_enumeration_table),
    ("cumulative_score", check_cumulative_score),
    ("low_temperature_sampling", check_low_temperature_sampling),
    ("uniform_sampling_frequency", check_uniform_sampling_frequency),
    ("label_bonus_sensitivity", check_label_bonus_sensitivity),
    ("sensitivity_paths_agree", check_sensitivity_paths_agree),
    ("token_epsilon", check_token_epsilon),
    ("message_epsilon", check_message_epsilon),
    ("hockey_stick", check_hockey_stick),
    ("hockey_stick_zero_at_exact_epsilon", check_hockey_stick_zero_at_exact_epsilon),
    ("gibbs_two_point", check_gibbs_two_point),
    ("gibbs_gap", check_gibbs_gap),
    ("expected_utility", check_expected_utility),
    ("covariances", check_covariances),
    ("temperature_derivative", check_temperature_derivative),
    ("regularized_objective", check_regularized_objective),
    ("optimizer_interior_candidate", check_optimizer_interior_candidate),
    ("optimizer_boundaries", check_optimizer_boundaries),
    ("closed_form_matches_enumeration", check_closed_form_matches_enumeration),
    ("laplace_smoothing", check_laplace_smoothing),
    ("divergences", check_divergences),
    ("shared_seed_zeroes_metrics", check_shared_seed_zeroes_metrics),
    ("estimator_matches_exact_smoothing", check_estimator_matches_exact_smoothing),
)


def run_selftest() -> list[CheckResult]:
    results = []
    for name, check in CHECKS:
        try:
            check()
        except Exception as exc:  # noqa: BLE001 - report, don't crash the suite
            results.append(CheckResult(name=name, passed=False, detail=str(exc)))
        else:
            results.append(CheckResult(name=name, passed=True))
    return results
