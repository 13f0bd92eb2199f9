"""Thinker-training data factory.

Stages: divide a strong trajectory into sub-tasks at process-score
milestones, probe each sub-task's difficulty with a weak policy, drop the
easy ones, keep the probe's state and history after its x-th weak step as
each kept sub-task's shared rollout context, sample the trainable thinker m
times per context, score each thought by letting a frozen actor continue
from the context's state, and export the grouped records for
policy-gradient training. `export_sft` turns ttexplore-mode trajectories
into thinker SFT pairs. The multi-node ablation, `build_multinode_contexts`,
runs whole capped episodes outside `forge`.

Each sub-task's prefix is folded from reset once. The probe and every
continuation then run on the episode loop, `orchestrator.run_steps`, with
the sub-task's start score as the floor: a sub-task is completed at the
first step whose score rises above it. A policy backend failure anywhere in
`forge`, the strong run's included, raises `BackendFailure` naming the task
and seed; `forge` returns nothing partial.

Thought seeds come from `orchestrator.sample_seed`: a rollout context's
from its strong run's seed and prefix length, each thought request's from
the context's seed and the request's index. The strong run, the probe and
the continuations run on the episode seed.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .orchestrator import (
    RunConfig,
    StepRecord,
    Trajectory,
    repeated,
    run_mode,
    run_steps,
    sample_seed,
    write_jsonl,
)
from .policies import PolicyHandle, RemoteError, complete
from .prompts import (
    DEFAULT_CHAR_BUDGET,
    DeepThought,
    HistoryView,
    ParseError,
    parse_thinker_output,
    render_thinker_prompt,
)
from .world import TaskSpec, TextWorld, WorldState

log = logging.getLogger(__name__)

EASY = "easy"
MEDIUM = "medium"
HARD = "hard"
UNSET = "unset"

BINARY = "binary"
STEP_PENALTY = "step_penalty"
RETRY_BUDGET = 3  # thinker parse failures that a thought group survives


class PipelineError(RuntimeError):
    pass


class BackendFailure(PipelineError):
    """A policy backend failed during `forge`; the message names the task,
    the seed and the failure."""


class IntegrityError(PipelineError):
    """Replaying a recorded prefix did not reproduce its recorded score."""


@dataclass(frozen=True)
class PipelineConfig:
    """The `forge` values; like `RunConfig`, checked when made."""
    x: int = 5
    y: int = 15
    m: int = 4
    reward_mode: str = BINARY
    penalty_rate: float = 0.05
    run: RunConfig = field(default_factory=RunConfig)

    def __post_init__(self) -> None:
        if not (0 < self.x < self.y):
            raise ValueError("thresholds must satisfy 0 < x < y")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not 0 <= self.penalty_rate < math.inf:  # JSON takes neither nan nor inf
            raise ValueError(f"penalty_rate must be >= 0 and finite, "
                             f"got {self.penalty_rate}")
        if self.reward_mode not in (BINARY, STEP_PENALTY):
            raise ValueError(f"unknown reward mode {self.reward_mode!r}")


@dataclass
class SubTask:
    parent_task_id: str
    seed: int
    prefix_actions: list[str]
    start_score: float
    target_score: float
    difficulty: str = UNSET
    weak_actions: list[str] = field(default_factory=list)
    # the probe's state and history after x weak steps; None when easy
    context: Optional[tuple[WorldState, HistoryView]] = None


@dataclass
class RolloutContext:
    context_id: str
    sub: SubTask
    seed: int  # the seed its thought samples derive from
    prompt: str
    history: HistoryView
    state: WorldState  # after the prefix and x weak steps; never mutated


@dataclass
class RewardRecord:
    thought: DeepThought
    continuation: list[StepRecord]
    reward: float
    improved_at: Optional[int] = None  # 1-based continuation step


@dataclass
class RolloutGroup:
    context_id: str
    prompt: str
    records: list[RewardRecord]
    difficulty: str = UNSET


# ---------------------------------------------------------------------------
# Sub-task division and filtering
# ---------------------------------------------------------------------------

def divide_subtasks(world: TextWorld, task: TaskSpec,
                    strong_traj: Trajectory) -> list[SubTask]:
    """One sub-task per strict process-score increase; sub-task j starts at
    milestone j-1, so its prefix is the strong trajectory up to and including
    the step that reached the previous milestone. The first sub-task starts
    at the task's initial score."""
    start = world.process_score(task.initial_world, task)
    scores = [s.score_after for s in strong_traj.steps]
    actions = strong_traj.actions()
    increases = [i for i in range(len(scores))
                 if scores[i] > (scores[i - 1] if i > 0 else start)]
    if not increases:
        log.warning("strong trajectory for %s is flat; no sub-tasks",
                    strong_traj.task_id)
        return []
    subs: list[SubTask] = []
    prev_end = 0  # steps included in the prefix
    prev_score = start
    for i in increases:
        subs.append(SubTask(
            parent_task_id=task.id,
            seed=strong_traj.seed,
            prefix_actions=actions[:prev_end],
            start_score=prev_score,
            target_score=scores[i],
        ))
        prev_end = i + 1
        prev_score = scores[i]
    return subs


def replay_with_history(world: TextWorld, task: TaskSpec, seed: int,
                        actions: list[str]) -> tuple[WorldState, HistoryView, float]:
    """Fold the actions from reset into (state, view, process score)."""
    state, obs0 = world.reset(task, seed)
    view = HistoryView(task.id, obs0.text)
    score = world.process_score(state, task)
    for action in actions:
        state, obs, score, _ = world.step(state, action, task)
        view.add_step(action, obs.text)
    return state, view, score


def classify_difficulty(world: TextWorld, task: TaskSpec, sub: SubTask,
                        weak: PolicyHandle, cfg: PipelineConfig) -> SubTask:
    """Run the weak policy from the replayed prefix for up to y steps;
    completion within x steps is easy, within (x, y] medium, never is hard;
    a sub-task still open after x steps keeps that step as its context."""
    state, view, score = replay_with_history(world, task, sub.seed,
                                             sub.prefix_actions)
    if score != sub.start_score:
        raise IntegrityError(
            f"prefix replay of {sub.parent_task_id} gave {score}, "
            f"recorded start is {sub.start_score}")
    steps: list[StepRecord] = []
    state = run_steps(world, weak, task, state, view, steps, cfg.x, sub.seed,
                      cfg.run, floor=sub.start_score)
    if steps[-1].score_after <= sub.start_score:
        sub.context = (state, view.copy())
        run_steps(world, weak, task, state, view, steps, cfg.y - cfg.x,
                  sub.seed, cfg.run, floor=sub.start_score)
    completed = steps[-1].score_after > sub.start_score
    sub.weak_actions = [s.action for s in steps]
    sub.difficulty = (HARD if not completed
                      else EASY if len(steps) <= cfg.x else MEDIUM)
    return sub


def filter_subtasks(subs: list[SubTask]) -> list[SubTask]:
    for sub in subs:
        if sub.difficulty == UNSET:
            raise PipelineError(
                f"sub-task of {sub.parent_task_id} is unclassified")
    return [s for s in subs if s.difficulty != EASY]


# ---------------------------------------------------------------------------
# Rollout contexts, thought sampling, reward computation
# ---------------------------------------------------------------------------

def build_rollout_context(task: TaskSpec, sub: SubTask,
                          cfg: PipelineConfig) -> RolloutContext:
    """The shared context of a kept sub-task: its probe's state and history
    after x weak steps, with the thinker prompt rendered from them."""
    if sub.context is None:
        raise PipelineError("sub-task has no rollout context; classify it "
                            "first (easy sub-tasks have none)")
    state, view = sub.context
    prompt = render_thinker_prompt(task, view, char_budget=cfg.run.char_budget)
    prefix = len(sub.prefix_actions)  # at most the strong run's max_steps
    seed = sample_seed(sub.seed, prefix, task.max_steps_default + 1)
    return RolloutContext(context_id=f"{task.id}-s{sub.seed}-p{prefix}", sub=sub,
                          seed=seed, prompt=prompt, history=view, state=state)


class GroupDiscarded(PipelineError):
    """A context whose thought group could not be filled; never padded."""


def sample_thoughts(thinker: PolicyHandle, context: RolloutContext,
                    m: int) -> list[DeepThought]:
    anchor = len(context.history.steps)
    thoughts: list[DeepThought] = []
    failures = 0
    while len(thoughts) < m:
        # this request's index, below m + RETRY_BUDGET
        seed = sample_seed(context.seed, len(thoughts) + failures,
                           m + RETRY_BUDGET + 1)
        raw = complete(thinker, context.prompt, seed=seed)
        try:
            text = parse_thinker_output(raw)
        except ParseError:
            failures += 1
            if failures > RETRY_BUDGET:
                raise GroupDiscarded(
                    f"context {context.context_id}: thought sampling failed "
                    f"{failures} times")
            continue
        thoughts.append(DeepThought(text=text, anchor_step=anchor))
    return thoughts


def continuation_reward(mode: str, improved_at: Optional[int],
                        rate: float = 0.05) -> float:
    """Reward for completing the unit being evaluated (a sub-task in `forge`,
    the whole task in `build_multinode_contexts`) at 1-based step
    `improved_at` (None = not completed). A step-penalty reward is rounded
    to the 4 places of the forge manifest's `mean_reward`, so it carries no
    float noise (`1 - 0.05 * 14` is 0.3, not 0.29999999999999993)."""
    if improved_at is None:
        return 0.0
    if mode == BINARY:
        return 1.0
    if mode == STEP_PENALTY:
        return round(max(0.0, 1.0 - rate * (improved_at - 1)), 4)
    raise ValueError(f"unknown reward mode {mode!r}")


def evaluate_thought(world: TextWorld, actor_frozen: PolicyHandle,
                     task: TaskSpec, context: RolloutContext,
                     thought: DeepThought, cfg: PipelineConfig) -> RewardRecord:
    """Let the frozen actor continue from the context's state for up to
    (y - x) steps with the thought injected at the context boundary."""
    view = context.history.copy()
    view.add_thought(thought.text)
    start = context.sub.start_score
    continuation: list[StepRecord] = []
    run_steps(world, actor_frozen, task, context.state, view, continuation,
              cfg.y - cfg.x, context.sub.seed, cfg.run, floor=start)
    improved_at = (len(continuation) if continuation[-1].score_after > start
                   else None)
    reward = continuation_reward(cfg.reward_mode, improved_at, cfg.penalty_rate)
    return RewardRecord(thought=thought, continuation=continuation,
                        reward=reward, improved_at=improved_at)


def rollout_group(world: TextWorld, task: TaskSpec, context: RolloutContext,
                  thinker: PolicyHandle, actor_frozen: PolicyHandle,
                  cfg: PipelineConfig) -> RolloutGroup:
    thoughts = sample_thoughts(thinker, context, cfg.m)
    records = [evaluate_thought(world, actor_frozen, task, context, thought, cfg)
               for thought in thoughts]
    return RolloutGroup(context_id=context.context_id, prompt=context.prompt,
                        records=records, difficulty=context.sub.difficulty)


# ---------------------------------------------------------------------------
# Multi-node ablation contexts
# ---------------------------------------------------------------------------

ROLLOUT_MAX_STEPS = 25
NODE_INTERVALS = {2: 9, 4: 6}  # trigger intervals under ROLLOUT_MAX_STEPS


def build_multinode_contexts(world: TextWorld, task: TaskSpec,
                             thinker: PolicyHandle, actor_frozen: PolicyHandle,
                             cfg: PipelineConfig, nodes: int,
                             base_seed: int = 0) -> list[tuple[Trajectory, float]]:
    """`cfg.m` (trajectory, reward) pairs, rollout j on the seed
    `sample_seed(base_seed, j, m)`. Every thinking node of a rollout shares
    its task-level reward: an episode that completes the task is rewarded at
    its completing step, any other episode gets 0. A trajectory's thought
    anchors are its trigger steps.
    A policy backend failure in a rollout raises `BackendFailure` naming
    the task and the rollout's seed, as in `forge`.
    Node counts of 2 and 4 map to trigger intervals of 9 and 6 under the
    rollout step cap; a node count of 1 is the standard single-node path."""
    if nodes == 1:
        raise ValueError("single-node data comes from the standard pipeline; "
                         "use divide/classify/rollout instead")
    if nodes not in NODE_INTERVALS:
        raise ValueError(f"unsupported node count: {nodes}")
    run_cfg = RunConfig(mode="ttexplore", n_trigger=NODE_INTERVALS[nodes],
                        max_steps=ROLLOUT_MAX_STEPS,
                        char_budget=cfg.run.char_budget)
    rollouts = []
    for j in range(cfg.m):
        seed = sample_seed(base_seed, j, cfg.m)
        traj = run_mode(world, actor_frozen, task, run_cfg, thinker, seed)
        if traj.error is not None:
            raise BackendFailure(f"{task.id} seed {seed}: {traj.error}")
        # a successful episode ends at the step that completes the task
        reward = continuation_reward(cfg.reward_mode,
                                     traj.final.steps_used if traj.final.success
                                     else None,
                                     cfg.penalty_rate)
        rollouts.append((traj, reward))
    return rollouts


# ---------------------------------------------------------------------------
# Exports and the end-to-end forge driver
# ---------------------------------------------------------------------------

def export_grpo(groups: list[RolloutGroup], path: str | Path) -> dict:
    write_jsonl(Path(path), [{
        "context_id": group.context_id,
        "prompt": group.prompt,
        "completions": [r.thought.text for r in group.records],
        "rewards": [r.reward for r in group.records],
        "meta": {
            "difficulty": group.difficulty,
            "improved_at": [r.improved_at for r in group.records],
        },
    } for group in groups])
    return {"groups": len(groups)}


def export_sft(world: TextWorld, tasks: dict[str, TaskSpec],
               trajectories: list[Trajectory], path: str | Path,
               char_budget: int = DEFAULT_CHAR_BUDGET) -> dict:
    """One record per deep thought: the thinker prompt at the anchor and the
    thought text as completion. Each trajectory grows one view; an episode
    anchors at most one thought per step, so each prompt sees the steps up
    to its anchor and the thoughts anchored before it."""
    records = []
    for traj in trajectories:
        task = tasks[traj.task_id]
        view = HistoryView(traj.task_id, traj.initial_observation)
        for thought in traj.thoughts:
            for step in traj.steps[len(view.steps):thought.anchor_step]:
                view.add_step(step.action, step.observation)
            prompt = render_thinker_prompt(task, view, char_budget=char_budget)
            view.add_thought(thought.text)
            records.append({"prompt": prompt, "completion": thought.text})
    write_jsonl(Path(path), records)
    return {"records": len(records)}


@dataclass
class ForgeResult:
    strong_trajectories: list[Trajectory]
    subtasks: list[SubTask]
    groups: list[RolloutGroup]
    skipped: list[str]
    manifest: dict


def forge(world: TextWorld, tasks: list[TaskSpec], strong: PolicyHandle,
          weak: PolicyHandle, thinker: PolicyHandle,
          actor_frozen: PolicyHandle, cfg: PipelineConfig,
          seeds: Optional[list[int]] = None) -> ForgeResult:
    """Run the full data factory over the given tasks; a task id or a seed
    given twice raises `ValueError` before the first strong run."""
    seeds = seeds if seeds is not None else [0]
    for name, values in (("tasks", [t.id for t in tasks]), ("seeds", seeds)):
        if (twice := repeated(values)) is not None:
            raise ValueError(f"{name} holds {twice!r} twice")
    strong_trajs: list[Trajectory] = []
    all_subs: list[SubTask] = []
    groups: list[RolloutGroup] = []
    skipped: list[str] = []

    try:
        for task in tasks:
            for seed in seeds:
                run_cfg = RunConfig(mode="react", max_steps=task.max_steps_default,
                                    char_budget=cfg.run.char_budget)
                strong_traj = run_mode(world, strong, task, run_cfg, seed=seed)
                if strong_traj.error is not None:
                    raise BackendFailure(f"{task.id} seed {seed}: "
                                         f"{strong_traj.error}")
                strong_trajs.append(strong_traj)
                subs = divide_subtasks(world, task, strong_traj)
                if not subs:
                    skipped.append(f"{task.id}-s{seed}: strong trajectory flat")
                    continue
                for sub in subs:
                    classify_difficulty(world, task, sub, weak, cfg)
                all_subs.extend(subs)
                for sub in filter_subtasks(subs):
                    context = build_rollout_context(task, sub, cfg)
                    try:
                        groups.append(rollout_group(world, task, context, thinker,
                                                    actor_frozen, cfg))
                    except GroupDiscarded as exc:
                        skipped.append(str(exc))
    except RemoteError as exc:  # a policy backend failed
        raise BackendFailure(f"{task.id} seed {seed}: "
                             f"{type(exc).__name__}: {exc}") from exc

    difficulty_counts = {EASY: 0, MEDIUM: 0, HARD: 0}
    for sub in all_subs:
        difficulty_counts[sub.difficulty] += 1
    rewards = [r.reward for g in groups for r in g.records]
    histogram: dict[str, int] = {}
    for r in rewards:
        key = f"{r:.2f}"
        histogram[key] = histogram.get(key, 0) + 1
    manifest = {
        "tasks": [t.id for t in tasks],
        "seeds": seeds,
        "config": {
            "x": cfg.x, "y": cfg.y, "m": cfg.m,
            "reward_mode": cfg.reward_mode,
            "penalty_rate": cfg.penalty_rate,
        },
        "subtasks": len(all_subs),
        "difficulty_counts": difficulty_counts,
        "groups": len(groups),
        "skipped": skipped,
        "mean_reward": (round(sum(rewards) / len(rewards), 4) if rewards else None),
        "reward_histogram": histogram,
    }
    return ForgeResult(strong_trajectories=strong_trajs, subtasks=all_subs,
                       groups=groups, skipped=skipped, manifest=manifest)
