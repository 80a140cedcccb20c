import numpy as np
import pytest

from curricula.errors import ConfigError, CoverageError, MetricMismatchError
from curricula.metrics import PairScore, ScoreTable
from curricula.ordering import (
    OrderingPlan,
    Strategy,
    make_ordering,
    parse_strategy,
    schedule_batches,
    table_one_strategies,
    verify_plan,
)


def table(metric, values, fingerprint="none"):
    return ScoreTable(
        metric, fingerprint, tuple(PairScore(i, v) for i, v in values.items())
    )


def test_ascending_sort_breaks_ties_by_index():
    scores = table("ppl", {0: 3.2, 1: 1.1, 2: 3.2})
    plan = make_ordering(Strategy("ppl", direction="asc"), scores, (0, 1, 2), 1)
    assert plan.epoch_permutations[0].tolist() == [1, 0, 2]


def test_descending_sort_keeps_tie_order():
    scores = table("ppl", {0: 3.2, 1: 1.1, 2: 3.2})
    plan = make_ordering(Strategy("ppl", direction="desc"), scores, (0, 1, 2), 1)
    assert plan.epoch_permutations[0].tolist() == [0, 2, 1]


def test_plan_from_a_reloaded_score_table_matches_the_original():
    # equal to the 11th digit, so the two pairs tie in a 9-digit score file
    scores = table("ppl", {0: 1.00000000002, 1: 1.00000000001, 2: 0.5})
    reloaded = ScoreTable.from_text(scores.to_text())
    assert reloaded == scores
    strategy = Strategy("ppl", direction="asc")
    plan = make_ordering(strategy, scores, (0, 1, 2), 1)
    assert plan.to_text() == make_ordering(strategy, reloaded, (0, 1, 2), 1).to_text()
    assert plan.epoch_permutations[0].tolist() == [2, 0, 1]


def test_shuffle_once_repeats_one_permutation():
    plan = make_ordering(Strategy("shuffle_once"), None, range(10), 3, seed=5)
    p0, p1, p2 = plan.epoch_permutations
    assert np.array_equal(p0, p1) and np.array_equal(p1, p2)
    again = make_ordering(Strategy("shuffle_once"), None, range(10), 3, seed=5)
    assert np.array_equal(p0, again.epoch_permutations[0])


def test_shuffle_every_epoch_varies_but_reproduces():
    plan = make_ordering(Strategy("shuffle_every_epoch"), None, range(50), 4, seed=5)
    perms = plan.epoch_permutations
    assert any(not np.array_equal(perms[0], p) for p in perms[1:])
    again = make_ordering(Strategy("shuffle_every_epoch"), None, range(50), 4, seed=5)
    for a, b in zip(perms, again.epoch_permutations):
        assert np.array_equal(a, b)


def test_shuffle_epoch_streams_share_prefix_across_run_lengths():
    short = make_ordering(Strategy("shuffle_every_epoch"), None, range(20), 2, seed=9)
    long = make_ordering(Strategy("shuffle_every_epoch"), None, range(20), 5, seed=9)
    for a, b in zip(short.epoch_permutations, long.epoch_permutations):
        assert np.array_equal(a, b)


def test_metric_strategy_requires_matching_table():
    with pytest.raises(MetricMismatchError):
        make_ordering(Strategy("ppl", direction="asc"), None, (0, 1), 1)
    wrong = table("bleu", {0: 0.5, 1: 0.25})
    with pytest.raises(MetricMismatchError):
        make_ordering(Strategy("ppl", direction="asc"), wrong, (0, 1), 1)
    length_table = table("length:source", {0: 3.0, 1: 5.0})
    with pytest.raises(MetricMismatchError):
        make_ordering(
            Strategy("length", side="target", direction="asc"), length_table, (0, 1), 1
        )


def test_incomplete_score_coverage_rejected():
    scores = table("ppl", {0: 1.0, 1: 2.0})
    with pytest.raises(CoverageError):
        make_ordering(Strategy("ppl", direction="asc"), scores, (0, 1, 2), 1)


def test_sorted_scores_are_monotone_along_permutation():
    rng = np.random.default_rng(0)
    values = {i: float(v) for i, v in enumerate(rng.integers(0, 5, 40))}
    scores = table("bleu", {i: v / 5 for i, v in values.items()})
    asc = make_ordering(Strategy("bleu", direction="asc"), scores, range(40), 2)
    desc = make_ordering(Strategy("bleu", direction="desc"), scores, range(40), 2)
    vmap = scores.value_map()
    along_asc = [vmap[int(i)] for i in asc.epoch_permutations[0]]
    along_desc = [vmap[int(i)] for i in desc.epoch_permutations[0]]
    assert along_asc == sorted(along_asc)
    assert along_desc == sorted(along_desc, reverse=True)


def test_tie_free_asc_desc_are_exact_reverses():
    rng = np.random.default_rng(3)
    values = rng.permutation(30).astype(float)  # all distinct
    scores = table("ppl", {i: float(v) for i, v in enumerate(values)})
    asc = make_ordering(Strategy("ppl", direction="asc"), scores, range(30), 1)
    desc = make_ordering(Strategy("ppl", direction="desc"), scores, range(30), 1)
    assert asc.epoch_permutations[0].tolist() == desc.epoch_permutations[0][::-1].tolist()


def test_schedule_chunks_sequentially():
    plan = OrderingPlan(
        Strategy("shuffle_once"), 0,
        (np.array([4, 2, 0, 1, 3]),),
    )
    schedule = schedule_batches(plan, 2)
    assert [b.tolist() for b in schedule.epochs[0]] == [[4, 2], [0, 1], [3]]


def test_schedule_batch_count_at_paper_scale():
    perm = np.arange(60000)
    plan = OrderingPlan(Strategy("shuffle_once"), 0, (perm,))
    schedule = schedule_batches(plan, 128)
    batches = schedule.epochs[0]
    assert len(batches) == 469
    assert all(len(b) == 128 for b in batches[:-1])
    assert len(batches[-1]) == 96


def test_schedule_oversized_batch_is_whole_epoch():
    plan = OrderingPlan(Strategy("shuffle_once"), 0, (np.array([2, 0, 1]),))
    schedule = schedule_batches(plan, 100)
    assert [b.tolist() for b in schedule.epochs[0]] == [[2, 0, 1]]
    with pytest.raises(ConfigError):
        schedule_batches(plan, 0)


def test_schedule_concatenation_reproduces_permutation():
    plan = make_ordering(Strategy("shuffle_every_epoch"), None, range(37), 3, seed=1)
    schedule = schedule_batches(plan, 5)
    for perm, batches in zip(plan.epoch_permutations, schedule.epochs):
        flat = np.concatenate(batches)
        assert np.array_equal(flat, perm)


def test_verify_plan_passes_constructed_plans():
    scores = table("ppl", {i: float(i % 3) for i in range(20)})
    for strategy in table_one_strategies():
        metric = strategy.required_metric
        if metric == "ppl":
            plan = make_ordering(strategy, scores, range(20), 3, seed=2)
            assert verify_plan(plan, range(20), scores).ok
        elif metric is None:
            plan = make_ordering(strategy, None, range(20), 3, seed=2)
            assert verify_plan(plan, range(20)).ok


def test_verify_plan_reports_missing_index():
    plan = OrderingPlan(
        Strategy("shuffle_every_epoch"), 0,
        (np.array([0, 1, 2]), np.array([0, 1, 1])),
    )
    check = verify_plan(plan, (0, 1, 2))
    assert not check.ok and "1" in check.violation


def test_verify_plan_reports_fixed_strategy_drift():
    plan = OrderingPlan(
        Strategy("shuffle_once"), 0,
        (np.array([0, 1, 2]), np.array([2, 1, 0])),
    )
    check = verify_plan(plan, (0, 1, 2))
    assert not check.ok and "drift" in check.violation


def test_plan_file_round_trip_is_bit_exact(tmp_path):
    scores = table("length:source", {i: float(i % 4) for i in range(15)})
    plan = make_ordering(
        Strategy("length", side="source", direction="desc"), scores, range(15), 3
    )
    plan.save(tmp_path / "plan.txt")
    text = (tmp_path / "plan.txt").read_text()
    assert text.startswith("CURRICULA-ORDER v1 length:source:desc ")
    loaded = OrderingPlan.load(tmp_path / "plan.txt")
    assert loaded.to_text() == text
    assert loaded.strategy == plan.strategy
    for a, b in zip(loaded.epoch_permutations, plan.epoch_permutations):
        assert np.array_equal(a, b)


def test_strategy_tokens_round_trip():
    for strategy in table_one_strategies():
        assert parse_strategy(strategy.token()) == strategy


@pytest.mark.parametrize(
    "kind, side, direction",
    [
        ("length", None, "asc"),
        ("length", "both", "asc"),
        ("ppl", None, None),
        ("ppl", "source", "asc"),
        ("shuffle_once", None, "asc"),
        ("foo", None, None),
    ],
)
def test_strategy_outside_the_ten_patterns_is_refused(kind, side, direction):
    with pytest.raises(ConfigError):
        Strategy(kind, side=side, direction=direction)


def test_strategy_labels_match_reporting_names():
    labels = [s.label() for s in table_one_strategies()]
    assert labels[0] == "Random Shuffle every epoch"
    assert labels[1] == "Random Shuffle once"
    assert labels[2] == "Ascending Sequence Length Order for source language"
    assert labels[6] == "Ascending PPL Order"
    assert labels[9] == "Descending BLEU Order"


def test_plan_serialization_deterministic():
    a = make_ordering(Strategy("shuffle_every_epoch"), None, range(25), 4, seed=8)
    b = make_ordering(Strategy("shuffle_every_epoch"), None, range(25), 4, seed=8)
    assert a.to_text() == b.to_text()
