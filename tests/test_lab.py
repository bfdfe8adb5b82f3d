import math

import numpy as np
import pytest

from dpgenlab import (
    ArgumentError,
    ConfigError,
    Dataset,
    GenerationConfig,
    LabelBonusRule,
    LabelSpace,
    LogitModel,
    NeighborPair,
    Record,
    SmoothedDistribution,
    UtilitySpec,
    Vocabulary,
    derive_rng,
    empirical_epsilon,
    enumerate_message_distribution,
    estimate_cell,
    exact_smoothed_distribution,
    js_divergence,
    laplace_smooth,
    make_label_space,
    run_sweep,
    total_variation,
)

VOCAB = Vocabulary(("a", "b"))


def toy_pair():
    model = LogitModel(
        vocabulary=VOCAB,
        base_tables={"default": ((1.0, 0.0),)},
        influence=LabelBonusRule(beta=1.0),
    )
    left = Dataset((Record("a", 1.0, "r0"),))
    return model, NeighborPair(left, left.replace(0, Record("b", 1.0, "r0")), 0)


def space(length=1, kind="identity"):
    return make_label_space(kind, VOCAB, length)


# ---------------------------------------------------------------------------
# smoothing and divergences


def test_laplace_frozen_example():
    dist = laplace_smooth(np.array([3.0, 1.0]), 4, 1.0, space())
    np.testing.assert_allclose(dist.probs, [2 / 3, 1 / 3])


def test_laplace_zero_counts_is_uniform():
    dist = laplace_smooth(np.array([0.0, 0.0]), 0, 1.0, space())
    np.testing.assert_allclose(dist.probs, [0.5, 0.5])


def test_laplace_validation():
    with pytest.raises(ConfigError):
        laplace_smooth(np.array([1.0, 1.0]), 2, 0.0, space())
    with pytest.raises(ArgumentError):
        laplace_smooth(np.array([1.0, 1.0, 1.0]), 3, 1.0, space())
    with pytest.raises(ArgumentError):
        laplace_smooth(np.array([-1.0, 2.0]), 1, 1.0, space())
    with pytest.raises(ArgumentError):
        laplace_smooth(np.array([1.0, 1.0]), 5, 1.0, space())


def test_divergence_frozen_values():
    p = laplace_smooth(np.array([3.0, 1.0]), 4, 1.0, space())
    q = laplace_smooth(np.array([1.0, 3.0]), 4, 1.0, space())
    assert empirical_epsilon(p, q) == pytest.approx(math.log(2), abs=1e-12)
    assert total_variation(p, q) == pytest.approx(1 / 3, abs=1e-12)
    flip_p, flip_q = np.array([0.75, 0.25]), np.array([0.25, 0.75])
    assert total_variation(flip_p, flip_q) == pytest.approx(0.5, abs=1e-12)
    assert js_divergence(flip_p, flip_q) == pytest.approx(0.1308120359, abs=1e-9)
    assert js_divergence([1.0, 0.0], [0.0, 1.0]) == pytest.approx(math.log(2), abs=1e-12)


def test_divergences_vanish_on_identical_distributions():
    p = laplace_smooth(np.array([5.0, 2.0]), 7, 1.0, space())
    assert empirical_epsilon(p, p) == 0.0
    assert total_variation(p, p) == 0.0
    assert js_divergence(p, p) == pytest.approx(0.0, abs=1e-15)


def test_divergences_reject_mismatched_inputs():
    p = laplace_smooth(np.array([1.0, 1.0]), 2, 1.0, space())
    q = laplace_smooth(np.array([1.0, 1.0, 1.0, 1.0]), 4, 1.0, space(length=2))
    with pytest.raises(ArgumentError):
        total_variation(p, q)
    with pytest.raises(ArgumentError):
        total_variation([0.5, 0.5], [0.25, 0.25, 0.5])


def test_smoothed_distribution_validation():
    for probs in ([0.9, 0.3], [0.5, 0.25, 0.25], [1.0, 0.0]):  # sum, shape, floor
        with pytest.raises(ArgumentError):
            SmoothedDistribution(
                label_space=space(), probs=np.array(probs), sample_count=1, alpha=1.0
            )


def test_empirical_epsilon_on_exact_vectors_with_zero_labels():
    # a label no arm can produce counts 0; one only a single arm produces is inf
    assert empirical_epsilon([0.5, 0.5, 0.0], [0.25, 0.75, 0.0]) == pytest.approx(
        math.log(2), abs=1e-12
    )
    assert empirical_epsilon([0.5, 0.5, 0.0], [0.5, 0.25, 0.25]) == math.inf
    assert empirical_epsilon([1.0, 0.0], [1.0, 0.0]) == 0.0


# ---------------------------------------------------------------------------
# label spaces


def test_identity_labels_are_lexicographic():
    joined = space(length=2)
    assert joined.labels == ("a,a", "a,b", "b,a", "b,b")
    assert joined.project_batch(np.array([[0, 1], [1, 1]])).tolist() == [1, 3]


def test_first_token_projection_marginalizes():
    model, pair = toy_pair()
    config = GenerationConfig(temperature=0.8, length=2)
    dist = enumerate_message_distribution(model, pair.left, config)
    ident = space(length=2).project_distribution(dist)
    first = space(length=2, kind="first_token").project_distribution(dist)
    np.testing.assert_allclose(first, ident.reshape(2, 2).sum(axis=1), atol=1e-15)
    assert space(length=2, kind="first_token").labels == ("a", "b")


def test_identity_cap_is_enforced():
    with pytest.raises(ConfigError, match="first_token"):
        make_label_space("identity", VOCAB, 13)


def test_unknown_label_kind():
    with pytest.raises(ConfigError):
        make_label_space("last_token", VOCAB, 2)


def test_label_space_validation():
    with pytest.raises(ConfigError, match="unknown label space"):
        LabelSpace("last_token", VOCAB, 2)
    with pytest.raises(ConfigError, match="first_token"):
        LabelSpace("identity", VOCAB, 13)
    assert LabelSpace("identity", VOCAB, 12).size == 4096
    assert LabelSpace("first_token", VOCAB, 13).size == 2
    assert LabelSpace("identity", VOCAB, 2) == space(length=2)
    with pytest.raises(ArgumentError):
        space(length=2).project_batch(np.zeros((3, 1), dtype=int))


@pytest.mark.parametrize("kind", ["identity", "first_token"])
def test_label_strings_match_projected_indices(kind):
    vocab = Vocabulary(("x", "y,z", "w"))
    rng = np.random.default_rng(0)
    for length in (1, 2, 4):
        label_space = LabelSpace(kind, vocab, length)
        assert len(label_space.labels) == label_space.size
        messages = rng.integers(0, vocab.size, size=(50, length))
        labelled = messages if kind == "identity" else messages[:, :1]
        want = [",".join(vocab.tokens[t] for t in m) for m in labelled]
        assert [label_space.labels[i] for i in label_space.project_batch(messages)] == want


def test_sampling_path_never_renders_label_strings(monkeypatch):
    def refuse(self):
        raise AssertionError("label strings were rendered")

    monkeypatch.setattr(LabelSpace, "labels", property(refuse))
    small_sweep()
    small_sweep(label_kind="first_token")
    model, pair = toy_pair()
    for kind in ("identity", "first_token"):
        estimate_cell(
            model, pair, 0.5, 2, 50, 1.0, kind, UtilitySpec.table(range(4)),
            derive_rng(0, 0, 0, 0, 0), derive_rng(0, 0, 0, 0, 1),
        )


# ---------------------------------------------------------------------------
# single cells


def test_estimate_cell_is_deterministic():
    model, pair = toy_pair()
    runs = [
        estimate_cell(
            model, pair, 0.5, 2, 200, 1.0, "identity",
            UtilitySpec.exp_logit_plus_length(),
            derive_rng(7, 0, 0, 0, 0), derive_rng(7, 0, 0, 0, 1),
        )
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_shared_seed_zeroes_distribution_metrics():
    model, pair = toy_pair()
    same = NeighborPair(pair.left, pair.left.replace(0, Record("a", 1.0, "r0")), 0)
    cell = estimate_cell(
        model, same, 0.5, 2, 100, 1.0, "identity",
        UtilitySpec.exp_logit_plus_length(),
        derive_rng(5, 0, 0, 0, 0), derive_rng(5, 0, 0, 0, 0),
    )
    assert cell.empirical_epsilon == 0.0
    assert cell.tv == 0.0
    assert cell.js == pytest.approx(0.0, abs=1e-15)


def test_cell_covariance_nonnegative_for_monotone_utility():
    model, pair = toy_pair()
    for repeat in range(5):
        cell = estimate_cell(
            model, pair, 0.9, 3, 250, 1.0, "identity",
            UtilitySpec.exp_logit_plus_length(),
            derive_rng(11, 0, 0, repeat, 0), derive_rng(11, 0, 0, repeat, 1),
        )
        assert cell.cov_nu_U >= 0.0


def test_cell_table_utility_reads_the_message_rank():
    model, pair = toy_pair()
    cell = estimate_cell(
        model, pair, 0.8, 2, 300, 1.0, "first_token", UtilitySpec.table(range(4)),
        derive_rng(9, 0, 0, 0, 0), derive_rng(9, 0, 0, 0, 1),
    )
    from dpgenlab import sample_messages

    msgs = sample_messages(
        model, pair.left, GenerationConfig(0.8, 2), derive_rng(9, 0, 0, 0, 0), 300
    )
    assert cell.mean_info_score == float(space(length=2).project_batch(msgs).mean())


def test_table_utility_of_the_wrong_size_is_rejected_up_front(monkeypatch):
    import dpgenlab.lab as lab

    model, pair = toy_pair()
    for values in ((1.0, 2.0, 3.0), range(7)):
        with pytest.raises(ArgumentError, match="entries but the message space has 4"):
            estimate_cell(
                model, pair, 0.5, 2, 1, 1.0, "identity", UtilitySpec.table(values),
                derive_rng(0, 0, 0, 0, 0), derive_rng(0, 0, 0, 0, 1),
            )
    monkeypatch.setattr(lab, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "workers", [])
    with pytest.raises(ArgumentError, match="entries"):
        small_sweep(lengths=(2,), utility=UtilitySpec.table((1.0, 2.0, 3.0)), jobs=2)
    assert RecordingPool.workers == []


def test_cell_rejects_empty_sample():
    model, pair = toy_pair()
    with pytest.raises(ConfigError):
        estimate_cell(
            model, pair, 0.5, 2, 0, 1.0, "identity",
            UtilitySpec.exp_logit_plus_length(),
            derive_rng(0, 0, 0, 0, 0), derive_rng(0, 0, 0, 0, 1),
        )


def test_exact_smoothed_distribution_formula():
    model, pair = toy_pair()
    config = GenerationConfig(temperature=1.0, length=1)
    label_space = space()
    exact = exact_smoothed_distribution(model, pair.left, config, label_space, 10, 1.0)
    p = label_space.project_distribution(
        enumerate_message_distribution(model, pair.left, config)
    )
    np.testing.assert_allclose(exact.probs, (10 * p + 1.0) / 12.0, atol=1e-15)


def test_estimator_converges_to_exact_smoothing():
    model, pair = toy_pair()
    config = GenerationConfig(temperature=0.7, length=2)
    label_space = space(length=2)
    exact = exact_smoothed_distribution(model, pair.left, config, label_space, 100_000, 1.0)
    cell = estimate_cell(
        model, pair, 0.7, 2, 100_000, 1.0, "identity",
        UtilitySpec.exp_logit_plus_length(),
        derive_rng(31, 0, 0, 0, 0), derive_rng(31, 0, 0, 0, 1),
    )
    # the left arm's smoothed estimate enters empirical_epsilon; rebuild it here
    from dpgenlab import sample_messages

    msgs = sample_messages(model, pair.left, config, derive_rng(31, 0, 0, 0, 0), 100_000)
    counts = np.bincount(label_space.project_batch(msgs), minlength=4).astype(float)
    smoothed = laplace_smooth(counts, 100_000, 1.0, label_space)
    assert total_variation(smoothed, exact) <= 0.01
    assert cell.empirical_epsilon >= 0.0


# ---------------------------------------------------------------------------
# sweeps


def small_sweep(**kwargs):
    model, pair = toy_pair()
    defaults = dict(
        lengths=(1, 2), temperatures=(0.5, 1.0), samples=40, repeats=3, root_seed=3
    )
    defaults.update(kwargs)
    return run_sweep(model, pair, **defaults)


def test_sweep_row_count_and_uniqueness():
    result = small_sweep()
    assert len(result.rows) == 2 * 2 * 6
    keys = {(r.temperature, r.length, r.metric) for r in result.rows}
    assert len(keys) == len(result.rows)


def test_sweep_is_deterministic_and_parallel_safe():
    serial = small_sweep().to_csv()
    assert small_sweep().to_csv() == serial
    assert small_sweep(jobs=2).to_csv() == serial


def test_sweep_single_repeat_has_zero_std():
    result = small_sweep(repeats=1)
    assert all(r.std == 0.0 for r in result.rows)


def test_sweep_csv_shape():
    result = small_sweep(repeats=1)
    lines = result.to_csv().splitlines()
    assert lines[0] == "temperature,length,metric,mean,std,repeats,samples,alpha,seed"
    assert len(lines) == 1 + len(result.rows)
    first = lines[1].split(",")
    assert first[0] == repr(0.5) and first[1] == "1"
    assert first[5:] == ["1", "40", "1.0", "3"]


def test_sweep_curve_is_sorted_by_temperature():
    result = small_sweep(temperatures=(1.0, 0.2, 0.6), repeats=1)
    temps, means, stds = result.curve(2, "tv")
    assert temps.tolist() == [0.2, 0.6, 1.0]
    assert means.shape == stds.shape == (3,)


def test_sweep_rejects_degenerate_requests():
    model, pair = toy_pair()
    with pytest.raises(ConfigError):
        run_sweep(model, pair, lengths=(), temperatures=(1.0,))
    with pytest.raises(ConfigError):
        run_sweep(model, pair, lengths=(1,), temperatures=())
    with pytest.raises(ConfigError):
        run_sweep(model, pair, lengths=(1,), temperatures=(1.0,), repeats=0)
    for jobs in (0, -1):
        with pytest.raises(ConfigError, match="jobs"):
            run_sweep(model, pair, lengths=(1,), temperatures=(1.0,), jobs=jobs)


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs serially."""

    workers: list[int] = []

    def __init__(self, max_workers):
        RecordingPool.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


def test_sweep_workers_are_clamped_to_the_cell_count(monkeypatch):
    import dpgenlab.lab as lab

    monkeypatch.setattr(lab, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "workers", [])
    serial = small_sweep(lengths=(1,), temperatures=(0.5,), repeats=2).to_csv()
    clamped = small_sweep(lengths=(1,), temperatures=(0.5,), repeats=2, jobs=10_000)
    assert RecordingPool.workers == [2]
    assert clamped.to_csv() == serial
    small_sweep(lengths=(1,), temperatures=(0.5,), repeats=1, jobs=8)
    assert RecordingPool.workers == [2]  # one cell runs in this process


def test_sweep_result_rejects_duplicate_rows():
    from dpgenlab import SweepResult, SweepRow

    row = SweepRow(temperature=1.0, length=1, metric="tv", mean=0.0, std=0.0, repeats=1)
    with pytest.raises(ArgumentError):
        SweepResult(rows=(row, row), samples=1, alpha=1.0, root_seed=0)
