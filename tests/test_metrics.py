"""Exploration metrics: hand-enumerated exact values and random properties."""

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttexplore.metrics import (
    EmptyTrajectoryError,
    ExplorationMetrics,
    SummaryTable,
    aggregate,
    compute_metrics,
    diversity,
    episode_metrics,
    top_k_repetition,
)

TOL = 1e-9

# (sequence, expected diversity, expected top-3 repetition), all hand-derived
HAND_CASES = [
    (["a"], 1.0, 1.0),
    (["a", "a"], 0.5, 1.0),
    (["a", "b"], 1.0, 1.0),
    (["a", "a", "b", "c", "d"], 4 / 5, 4 / 5),
    (["a", "b", "c", "d"], 1.0, 3 / 4),
    (["a", "a", "a", "b", "b", "c", "d", "e"], 5 / 8, 6 / 8),
    ([" a ", "a", "b"], 2 / 3, 1.0),
    (["x", "y", "x", "y", "z", "w", "w"], 4 / 7, 6 / 7),
    (["p", "q", "r", "q", "p", "s", "t", "u", "v", "p"], 7 / 10, 6 / 10),
]


@pytest.mark.parametrize("seq,div,rep", HAND_CASES)
def test_hand_enumerated_values(seq, div, rep):
    assert math.isclose(diversity(seq), div, abs_tol=TOL)
    assert math.isclose(top_k_repetition(seq, k=3), rep, abs_tol=TOL)


def test_empty_sequence_raises():
    with pytest.raises(EmptyTrajectoryError):
        diversity([])
    with pytest.raises(EmptyTrajectoryError):
        top_k_repetition([])


def test_invalid_k_raises():
    with pytest.raises(ValueError):
        top_k_repetition(["a"], k=0)


def test_whitespace_trimmed_before_comparison():
    assert diversity(["go ", " go", "go"]) == pytest.approx(1 / 3, abs=TOL)


def test_tie_break_is_lexicographic():
    # counts: a=2, b=2, c=2, d=2; k=3 keeps a, b, c regardless of input order
    seq = ["d", "d", "c", "c", "b", "b", "a", "a"]
    assert top_k_repetition(seq, k=3) == pytest.approx(6 / 8, abs=TOL)


def test_compute_metrics_bundles_both_sequences():
    m = compute_metrics(["a", "a", "b"], ["o1", "o2", "o2"], k=3)
    assert m.action_diversity == pytest.approx(2 / 3, abs=TOL)
    assert m.observation_diversity == pytest.approx(2 / 3, abs=TOL)
    assert m.k == 3


# --- independent oracle used by the property tests -------------------------

def oracle_diversity(seq):
    trimmed = [s.strip() for s in seq]
    return len(set(trimmed)) / len(trimmed)


def oracle_repetition(seq, k):
    trimmed = [s.strip() for s in seq]
    counts = Counter(trimmed)
    remaining = dict(counts)
    total = 0
    for _ in range(min(k, len(remaining))):
        # max count, lexicographically smallest among tied entries
        best = min(remaining, key=lambda s: (-remaining[s], s))
        total += remaining.pop(best)
    return total / len(trimmed)


tokens = st.text(alphabet="ab c", min_size=0, max_size=4)
sequences = st.lists(tokens, min_size=1, max_size=30)


@settings(max_examples=200)
@given(sequences)
def test_diversity_matches_oracle(seq):
    assert math.isclose(diversity(seq), oracle_diversity(seq), abs_tol=TOL)


@settings(max_examples=200)
@given(sequences, st.integers(min_value=1, max_value=5))
def test_repetition_matches_oracle(seq, k):
    assert math.isclose(top_k_repetition(seq, k),
                        oracle_repetition(seq, k), abs_tol=TOL)


@settings(max_examples=200)
@given(sequences)
def test_bounds_and_degenerate_cases(seq):
    div = diversity(seq)
    rep = top_k_repetition(seq, k=3)
    assert 0 < div <= 1
    assert 0 < rep <= 1
    trimmed = {s.strip() for s in seq}
    if len(trimmed) <= 3:
        assert math.isclose(rep, 1.0, abs_tol=TOL)
    if len(trimmed) == len(seq):
        assert math.isclose(div, 1.0, abs_tol=TOL)


def test_episode_without_steps_reads_zero():
    assert episode_metrics([], [], k=2) == ExplorationMetrics(0.0, 0.0, 0.0, 0.0, 2)
    assert episode_metrics(["a", "a"], ["x", "y"]) == \
        compute_metrics(["a", "a"], ["x", "y"])


# --- aggregation ------------------------------------------------------------

def test_summary_table_text_and_jsonl_round_trip():
    table = SummaryTable(count=2, success_rate=50.0, mean_process_score=66.67,
                         mean_wall_s=0.1, mean_action_diversity=0.5,
                         mean_action_repetition=0.9,
                         mean_observation_diversity=0.4,
                         mean_observation_repetition=0.8)
    text = table.to_text()
    assert "success_rate" in text and "50.0" in text
    import json
    assert json.loads(table.to_jsonl())["count"] == 2


def test_aggregate_rounds_each_mean_half_up():
    solved = ExplorationMetrics(1.0, 0.5, 0.75, 0.25)
    table = aggregate([(True, 100.0, solved, 0.125),
                       (False, 33.33, ExplorationMetrics(0.0, 0.0, 0.0, 0.0), 0.0)])
    assert table == SummaryTable(
        count=2, success_rate=50.0, mean_process_score=66.67, mean_wall_s=0.06,
        mean_action_diversity=0.5, mean_action_repetition=0.25,
        mean_observation_diversity=0.38, mean_observation_repetition=0.13)
    with pytest.raises(EmptyTrajectoryError):
        aggregate([])
