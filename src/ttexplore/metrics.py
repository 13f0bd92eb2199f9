"""Exploration-behavior metrics over trajectories, plus batch aggregation.

Trajectory length is the number of environment steps taken, including
rejected ones; deep thoughts are not steps and never enter the sequences.
Strings are compared exactly after whitespace trimming.

`ExplorationMetrics` and `SummaryTable` are `typing.NamedTuple`s: immutable,
`_asdict()` is the field mapping a manifest stores, and `_replace(...)` a
changed copy. As tuples they encode as JSON arrays, and one compares equal
to a plain tuple of the same values.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Iterable, NamedTuple, Sequence

DEFAULT_K = 3


class EmptyTrajectoryError(ValueError):
    pass


class ExplorationMetrics(NamedTuple):
    action_diversity: float
    action_repetition: float
    observation_diversity: float
    observation_repetition: float
    k: int = DEFAULT_K


def _trimmed(values: Sequence[str]) -> list[str]:
    out = [v.strip() for v in values]
    if not out:
        raise EmptyTrajectoryError("metrics need a non-empty trajectory")
    return out


def diversity(values: Sequence[str]) -> float:
    values = _trimmed(values)
    return len(set(values)) / len(values)


def top_k_repetition(values: Sequence[str], k: int = DEFAULT_K) -> float:
    if k < 1:
        raise ValueError("k must be >= 1")
    values = _trimmed(values)
    counts = Counter(values)
    # ties at the k-th rank broken lexicographically for determinism
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    top = sum(count for _, count in ranked[:k])
    return top / len(values)


def compute_metrics(actions: Sequence[str], observations: Sequence[str],
                    k: int = DEFAULT_K) -> ExplorationMetrics:
    return ExplorationMetrics(
        action_diversity=diversity(actions),
        action_repetition=top_k_repetition(actions, k),
        observation_diversity=diversity(observations),
        observation_repetition=top_k_repetition(observations, k),
        k=k,
    )


def episode_metrics(actions: Sequence[str], observations: Sequence[str],
                    k: int = DEFAULT_K) -> ExplorationMetrics:
    """The metrics of one episode; an episode that ended before its first
    step (a policy backend failed) reads 0 on every metric."""
    if not actions:
        return ExplorationMetrics(0.0, 0.0, 0.0, 0.0, k)
    return compute_metrics(actions, observations, k)


def _mean2(values: Iterable[float]) -> float:
    from decimal import ROUND_HALF_UP, Decimal  # at the first mean, not at start-up
    values = list(values)
    total = sum(Decimal(str(v)) for v in values) / Decimal(len(values))
    return float(total.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


class SummaryTable(NamedTuple):
    count: int
    success_rate: float  # percent
    mean_process_score: float
    mean_wall_s: float
    mean_action_diversity: float
    mean_action_repetition: float
    mean_observation_diversity: float
    mean_observation_repetition: float

    def to_jsonl(self) -> str:
        return json.dumps(self._asdict(), ensure_ascii=False)

    def to_text(self) -> str:
        rows = list(self._asdict().items())
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name.ljust(width)}  {value}" for name, value in rows)


Episode = tuple[bool, float, ExplorationMetrics, float]


def aggregate_deterministic(episodes: Sequence[Episode]) -> dict:
    """Aggregate stats safe to persist in a reproducible manifest: everything
    from the summary table except wall-clock timing."""
    table = aggregate(episodes)._asdict()
    table.pop("mean_wall_s")
    return table


def aggregate(episodes: Sequence[Episode]) -> SummaryTable:
    """Aggregate (success, process score, metrics, wall seconds) per episode."""
    if not episodes:
        raise EmptyTrajectoryError("cannot aggregate an empty result list")
    success, scores, ms, wall_s = zip(*episodes)
    return SummaryTable(
        count=len(episodes),
        success_rate=_mean2(100.0 if s else 0.0 for s in success),
        mean_process_score=_mean2(scores),
        mean_wall_s=_mean2(wall_s),
        mean_action_diversity=_mean2(m.action_diversity for m in ms),
        mean_action_repetition=_mean2(m.action_repetition for m in ms),
        mean_observation_diversity=_mean2(m.observation_diversity for m in ms),
        mean_observation_repetition=_mean2(m.observation_repetition for m in ms),
    )
