"""Training-data pipeline: division, difficulty filtering, rewards, exports."""

import copy
import json

import pytest
import yaml

from ttexplore import load_builtin_world, pipeline
from ttexplore.orchestrator import (
    Final,
    RunConfig,
    StepRecord,
    Trajectory,
    _act,
    run_mode,
    sample_seed,
)
from ttexplore.pipeline import (
    BINARY,
    EASY,
    HARD,
    MEDIUM,
    STEP_PENALTY,
    BackendFailure,
    GroupDiscarded,
    IntegrityError,
    PipelineConfig,
    PipelineError,
    RewardRecord,
    SubTask,
    build_multinode_contexts,
    build_rollout_context,
    classify_difficulty,
    continuation_reward,
    divide_subtasks,
    export_grpo,
    export_sft,
    filter_subtasks,
    forge,
    replay_with_history,
    rollout_group,
    RETRY_BUDGET,
    sample_thoughts,
)
from ttexplore.policies import SCRIPTED_POLICIES, ConfigError, RemoteError, scripted
from ttexplore.prompts import TRUNCATION_MARKER, HistoryView, render_thinker_prompt
from ttexplore.world import builtin_world_path, load_world


def synthetic_trajectory(task_id, actions, scores, seed=0):
    traj = Trajectory(task_id=task_id, seed=seed, mode="react",
                      initial_observation="obs")
    for action, score in zip(actions, scores):
        traj.steps.append(StepRecord(action=action, observation="ok",
                                     score_after=score))
    traj.final = Final(success=scores[-1] == 100.0, process_score=scores[-1],
                       steps_used=len(actions))
    return traj


# --- sub-task division ------------------------------------------------------

def test_divide_at_strict_increases(minihouse2):
    task = minihouse2.tasks["minihouse-2"]
    actions = [f"a{i}" for i in range(1, 7)]
    traj = synthetic_trajectory(task.id, actions,
                                [0.0, 0.0, 33.33, 33.33, 66.67, 100.0])
    subs = divide_subtasks(minihouse2, task, traj)
    assert [len(s.prefix_actions) for s in subs] == [0, 3, 5]
    assert [(s.start_score, s.target_score) for s in subs] == \
        [(0.0, 33.33), (33.33, 66.67), (66.67, 100.0)]
    assert subs[1].prefix_actions == ["a1", "a2", "a3"]


def test_divide_flat_trajectory_yields_nothing(minihouse2):
    task = minihouse2.tasks["minihouse-2"]
    traj = synthetic_trajectory(task.id, ["a", "b"], [0.0, 0.0])
    assert divide_subtasks(minihouse2, task, traj) == []


def test_divide_first_step_increase(minihouse2):
    task = minihouse2.tasks["minihouse-2"]
    traj = synthetic_trajectory(task.id, ["a", "b"], [50.0, 100.0])
    subs = divide_subtasks(minihouse2, task, traj)
    assert [len(s.prefix_actions) for s in subs] == [0, 1]
    assert subs[0].start_score == 0.0


def test_divide_starts_at_the_initial_score(open_fridge, oracle):
    world = open_fridge
    task = world.tasks["minihouse-1"]
    strong = run_mode(world, oracle, task, RunConfig(mode="react"))
    subs = divide_subtasks(world, task, strong)
    assert [(s.start_score, s.target_score) for s in subs] == \
        [(33.33, 66.67), (66.67, 100.0)]
    assert subs[1].prefix_actions
    weak = scripted("actor", "wanderer-actor")
    for s in subs:  # the prefix replay reproduces each start score
        classify_difficulty(world, task, s, weak, PipelineConfig())


# --- difficulty classification ----------------------------------------------

@pytest.fixture
def classified_subs(minihouse2, oracle):
    task = minihouse2.tasks["minihouse-2"]
    strong = run_mode(minihouse2, oracle, task, RunConfig(mode="react"))
    subs = divide_subtasks(minihouse2, task, strong)
    cfg = PipelineConfig()
    weak = scripted("actor", "wanderer-actor")
    return [classify_difficulty(minihouse2, task, s, weak, cfg) for s in subs], cfg


def test_wanderer_probe_labels(classified_subs):
    subs, _ = classified_subs
    assert [s.difficulty for s in subs] == [HARD, MEDIUM, EASY]
    # a completed probe ends at its completing step
    assert [len(s.weak_actions) for s in subs[1:]] == [6, 1]


def test_filter_drops_easy_only(classified_subs):
    subs, _ = classified_subs
    kept = filter_subtasks(subs)
    assert [s.difficulty for s in kept] == [HARD, MEDIUM]


def test_filter_rejects_unclassified():
    sub = SubTask(parent_task_id="t", seed=0, prefix_actions=[],
                  start_score=0.0, target_score=50.0)
    with pytest.raises(PipelineError, match="unclassified"):
        filter_subtasks([sub])


def test_classification_integrity_check(minihouse2):
    task = minihouse2.tasks["minihouse-2"]
    sub = SubTask(parent_task_id=task.id, seed=0, prefix_actions=[],
                  start_score=33.33, target_score=66.67)  # wrong start score
    with pytest.raises(IntegrityError):
        classify_difficulty(minihouse2, task, sub,
                            scripted("actor", "wanderer-actor"),
                            PipelineConfig())


# --- rollout contexts and rewards -------------------------------------------

def test_rollout_context_takes_x_weak_steps(minihouse2, classified_subs):
    subs, cfg = classified_subs
    task = minihouse2.tasks["minihouse-2"]
    ctx = build_rollout_context(task, subs[1], cfg)
    assert [a for a, _ in ctx.history.steps] == \
        subs[1].prefix_actions + subs[1].weak_actions[:cfg.x]
    assert len(subs[1].weak_actions) > cfg.x
    assert ctx.context_id == "minihouse-2-s0-p3"


def test_context_requires_classified_sub(minihouse2, classified_subs):
    task = minihouse2.tasks["minihouse-2"]
    subs, cfg = classified_subs
    unclassified = SubTask(parent_task_id=task.id, seed=0, prefix_actions=[],
                           start_score=0.0, target_score=33.33)
    easy = subs[2]
    assert easy.difficulty == EASY and easy.weak_actions
    for sub in (unclassified, easy):
        with pytest.raises(PipelineError, match="classify"):
            build_rollout_context(task, sub, cfg)


@pytest.mark.parametrize("t,expected", [(None, 0.0), (1, 1.0), (4, 1.0)])
def test_binary_reward(t, expected):
    assert continuation_reward(BINARY, t) == expected


@pytest.mark.parametrize("t", range(1, 11))
def test_step_penalty_reward_law(t):
    assert continuation_reward(STEP_PENALTY, t, rate=0.05) == \
        pytest.approx(1.0 - 0.05 * (t - 1), abs=1e-12)


def test_step_penalty_reward_carries_no_float_noise():
    assert 1.0 - 0.05 * 14 != 0.3
    assert continuation_reward(STEP_PENALTY, 15) == 0.3
    for t in range(1, 22):
        assert repr(continuation_reward(STEP_PENALTY, t)) == repr((21 - t) / 20)


def test_step_penalty_floor_at_zero():
    assert continuation_reward(STEP_PENALTY, 30, rate=0.05) == 0.0


def test_rollout_group_rewards_follow_thought_quality(minihouse2, classified_subs):
    subs, cfg = classified_subs
    task = minihouse2.tasks["minihouse-2"]
    ctx = build_rollout_context(task, subs[1], cfg)
    frozen = scripted("actor", "obedient-actor")
    good = rollout_group(minihouse2, task, ctx,
                         scripted("thinker", "oracle-thinker"), frozen, cfg)
    assert all(r.reward == 1.0 for r in good.records)
    assert all(r.improved_at == 3 for r in good.records)
    bad = rollout_group(minihouse2, task, ctx,
                        scripted("thinker", "null-thinker"), frozen, cfg)
    assert all(r.reward == 0.0 for r in bad.records)
    mixed = rollout_group(minihouse2, task, ctx,
                          scripted("thinker", "noisy-thinker"), frozen, cfg)
    assert len(mixed.records) == cfg.m
    assert {r.reward for r in mixed.records} == {0.0, 1.0}


def test_continuation_capped_at_y_minus_x(minihouse2, classified_subs):
    subs, cfg = classified_subs
    task = minihouse2.tasks["minihouse-2"]
    ctx = build_rollout_context(task, subs[0], cfg)
    group = rollout_group(minihouse2, task, ctx,
                          scripted("thinker", "null-thinker"),
                          scripted("actor", "obedient-actor"), cfg)
    for record in group.records:
        assert len(record.continuation) == cfg.y - cfg.x


def test_unfillable_group_is_discarded_not_padded(minihouse2, classified_subs,
                                                  monkeypatch):
    subs, cfg = classified_subs
    task = minihouse2.tasks["minihouse-2"]
    ctx = build_rollout_context(task, subs[1], cfg)
    seeds = []

    def tagless(prompt, seed):
        seeds.append(seed)
        return "no tags"

    monkeypatch.setitem(SCRIPTED_POLICIES, "tagless-thinker", tagless)
    with pytest.raises(GroupDiscarded,
                       match=f"failed {RETRY_BUDGET + 1} times$"):
        sample_thoughts(scripted("thinker", "tagless-thinker"), ctx, cfg.m)
    # request k draws the context's k-th sample seed
    assert seeds == [sample_seed(ctx.seed, k, cfg.m + RETRY_BUDGET + 1)
                     for k in range(RETRY_BUDGET + 1)]


def test_forge_draws_each_thought_on_its_own_seed(minihouse2, monkeypatch):
    """No two thought requests of a forge run share a seed, across the
    contexts of one seed and across seeds."""
    seeds = []

    def recording(prompt, seed):
        seeds.append(seed)
        return SCRIPTED_POLICIES["noisy-thinker"](prompt, seed)

    monkeypatch.setitem(SCRIPTED_POLICIES, "recording-thinker", recording)
    result = forge(minihouse2, [minihouse2.tasks["minihouse-2"]],
                   strong=scripted("actor", "oracle-actor"),
                   weak=scripted("actor", "wanderer-actor"),
                   thinker=scripted("thinker", "recording-thinker"),
                   actor_frozen=scripted("actor", "obedient-actor"),
                   cfg=PipelineConfig(), seeds=[-1, 0, 1, 2])
    assert len(seeds) == 4 * len(result.groups) > 4
    assert len(set(seeds)) == len(seeds)


def reference_evaluate_thought(world, actor_frozen, task, context, thought, cfg):
    """Thought evaluation as it was before contexts kept their state: replay
    the prefix and the weak steps from reset for every thought."""
    sub = context.sub
    state, view, _ = replay_with_history(
        world, task, sub.seed, sub.prefix_actions + sub.weak_actions[:cfg.x])
    view.add_thought(thought.text)
    continuation, improved_at = [], None
    for t in range(1, cfg.y - cfg.x + 1):
        action = _act(actor_frozen, task, view, sub.seed, cfg.run)
        state, obs, score, done = world.step(state, action, task)
        continuation.append(StepRecord(action=action, observation=obs.text,
                                       score_after=score, done=done))
        view.add_step(action, obs.text)
        if score > sub.start_score:
            improved_at = t
            break
    reward = continuation_reward(cfg.reward_mode, improved_at, cfg.penalty_rate)
    return RewardRecord(thought=thought, continuation=continuation,
                        reward=reward, improved_at=improved_at)


@pytest.mark.parametrize("world_name", ["minihouse1", "minihouse2", "keymaze1"])
def test_snapshot_evaluation_matches_replay_from_reset(world_name, monkeypatch):
    """Each context is the probe's state after x weak steps and each thought
    continues from it; both equal a fold from reset."""
    world = load_builtin_world(world_name)
    cfg = PipelineConfig()
    pairs, contexts = [], []
    real_evaluate = pipeline.evaluate_thought
    real_build = pipeline.build_rollout_context

    def checked(world, actor_frozen, task, context, thought, cfg):
        record = real_evaluate(world, actor_frozen, task, context, thought, cfg)
        pairs.append((record, reference_evaluate_thought(
            world, actor_frozen, task, context, thought, cfg)))
        return record

    def built(task, sub, cfg):
        context = real_build(task, sub, cfg)
        contexts.append((task, context))
        return context

    monkeypatch.setattr(pipeline, "evaluate_thought", checked)
    monkeypatch.setattr(pipeline, "build_rollout_context", built)
    result = forge(world, list(world.tasks.values()),
                   strong=scripted("actor", "oracle-actor"),
                   weak=scripted("actor", "wanderer-actor"),
                   thinker=scripted("thinker", "noisy-thinker"),
                   actor_frozen=scripted("actor", "obedient-actor"),
                   cfg=cfg, seeds=[0, 1])
    assert result.groups
    assert len(pairs) == sum(len(g.records) for g in result.groups)
    for record, reference in pairs:
        assert record == reference
    assert len(contexts) == len(result.groups)
    for task, context in contexts:
        sub = context.sub
        state, view, _ = replay_with_history(
            world, task, sub.seed, sub.prefix_actions + sub.weak_actions[:cfg.x])
        assert context.state == state
        assert context.history == view
        assert context.prompt == render_thinker_prompt(
            task, view, char_budget=cfg.run.char_budget)


def test_rollout_group_leaves_the_context_untouched(minihouse2, classified_subs):
    subs, cfg = classified_subs
    task = minihouse2.tasks["minihouse-2"]
    ctx = build_rollout_context(task, subs[1], cfg)
    state, history = copy.deepcopy(ctx.state), copy.deepcopy(ctx.history)
    group = rollout_group(minihouse2, task, ctx,
                          scripted("thinker", "oracle-thinker"),
                          scripted("actor", "obedient-actor"), cfg)
    assert all(r.improved_at for r in group.records)  # the actor did move
    assert ctx.state == state
    assert ctx.history == history


def test_forge_folds_each_context_once(minihouse2, monkeypatch):
    calls = []
    real = pipeline.replay_with_history

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(pipeline, "replay_with_history", counting)
    result = forge(minihouse2, [minihouse2.tasks["minihouse-2"]],
                   strong=scripted("actor", "oracle-actor"),
                   weak=scripted("actor", "wanderer-actor"),
                   thinker=scripted("thinker", "noisy-thinker"),
                   actor_frozen=scripted("actor", "obedient-actor"),
                   cfg=PipelineConfig(), seeds=[0])
    # one fold per sub-task: its rollout context comes from the probe
    assert result.manifest["groups"] == 2
    assert len(calls) == result.manifest["subtasks"] == 3


@pytest.mark.parametrize("world_name", ["minihouse1", "minihouse2", "keymaze1"])
def test_forge_writes_groups_at_the_least_budget_a_forge_config_takes(world_name):
    """1,147 characters is the largest thinker prompt with no history of the
    built-in worlds; the oracle's truncated prompts still show a step of its
    script, so its strong runs succeed and forge has sub-tasks to group."""
    world = load_builtin_world(world_name)
    result = forge(world, list(world.tasks.values()),
                   strong=scripted("actor", "oracle-actor"),
                   weak=scripted("actor", "wanderer-actor"),
                   thinker=scripted("thinker", "noisy-thinker"),
                   actor_frozen=scripted("actor", "obedient-actor"),
                   cfg=PipelineConfig(run=RunConfig(char_budget=1147)))
    assert all(t.final.success for t in result.strong_trajectories)
    assert result.groups and not result.skipped


# --- multi-node rollouts -----------------------------------------------------

def test_multinode_interval_mapping(minihouse2):
    task = minihouse2.tasks["minihouse-2"]
    thinker = scripted("thinker", "oracle-thinker")
    actor = scripted("actor", "greedy-actor")
    for nodes, interval in ((2, 9), (4, 6)):
        cfg = PipelineConfig(m=2)
        rollouts = build_multinode_contexts(minihouse2, task, thinker, actor,
                                            cfg, nodes)
        assert len(rollouts) == cfg.m
        for traj, reward in rollouts:
            assert traj.final.steps_used <= 25
            assert all(t.anchor_step % interval == 0 for t in traj.thoughts)
            assert reward in (0.0, 1.0)


def test_multinode_rejects_unsupported_counts(minihouse2):
    task = minihouse2.tasks["minihouse-2"]
    thinker = scripted("thinker", "oracle-thinker")
    actor = scripted("actor", "greedy-actor")
    for nodes in (1, 3):
        with pytest.raises(ValueError):
            build_multinode_contexts(minihouse2, task, thinker, actor,
                                     PipelineConfig(), nodes)


def test_multinode_raises_on_a_failed_backend(minihouse2, monkeypatch):
    """An aborted rollout is never rewarded: the first one stops the group."""
    def explode(prompt, seed):
        raise RemoteError("backend gone", attempts=1)
    monkeypatch.setitem(SCRIPTED_POLICIES, "crash-thinker", explode)
    task = minihouse2.tasks["minihouse-2"]
    with pytest.raises(BackendFailure,
                       match=r"^minihouse-2 seed 14: RemoteError: backend gone$"):
        build_multinode_contexts(minihouse2, task,
                                 scripted("thinker", "crash-thinker"),
                                 scripted("actor", "greedy-actor"),
                                 PipelineConfig(m=2), 2, base_seed=7)


@pytest.mark.parametrize("error,raised", [
    (RemoteError("backend gone", attempts=1), BackendFailure),
    (ConfigError("a bad setting"), ConfigError),
])
def test_forge_reports_only_a_remote_error_as_a_backend_failure(
        minihouse2, monkeypatch, error, raised):
    def explode(prompt, seed):
        raise error
    monkeypatch.setitem(SCRIPTED_POLICIES, "crash-thinker", explode)
    with pytest.raises(raised):
        forge(minihouse2, list(minihouse2.tasks.values()),
              strong=scripted("actor", "oracle-actor"),
              weak=scripted("actor", "wanderer-actor"),
              thinker=scripted("thinker", "crash-thinker"),
              actor_frozen=scripted("actor", "obedient-actor"),
              cfg=PipelineConfig(m=2))


def test_multinode_reward_counts_from_the_initial_score(open_fridge):
    task = open_fridge.tasks["minihouse-1"]
    rollouts = build_multinode_contexts(open_fridge, task,
                                        scripted("thinker", "null-thinker"),
                                        scripted("actor", "loop-actor"),
                                        PipelineConfig(m=2), 2)
    for traj, reward in rollouts:
        assert traj.final.process_score == 33.33
        assert reward == 0.0


@pytest.mark.parametrize("nodes,successes", [(2, [False, False, True, True]),
                                              (4, [False] * 4)])
def test_multinode_reward_is_the_task_outcome(keymaze1, nodes, successes):
    """A rollout that reaches a subgoal (33.33) without completing the task
    earns nothing; a completing one is rewarded at its completing step."""
    task = keymaze1.tasks["keymaze-1"]
    args = (keymaze1, task, scripted("thinker", "noisy-thinker"),
            scripted("actor", "greedy-actor"))
    binary = build_multinode_contexts(*args, PipelineConfig(), nodes)
    finals = [traj.final for traj, _ in binary]
    assert [f.success for f in finals] == successes
    assert [f.process_score for f in finals] == [100.0 if s else 33.33 for s in successes]
    assert [reward for _, reward in binary] == [1.0 if s else 0.0 for s in successes]
    penalty = build_multinode_contexts(*args, PipelineConfig(reward_mode=STEP_PENALTY),
                                       nodes)
    assert [traj.final for traj, _ in penalty] == finals
    # the task completes at step 18: 1 - 0.05 * 17
    assert [f.steps_used for f in finals if f.success] == [18] * sum(successes)
    assert [reward for _, reward in penalty] == \
        [pytest.approx(0.15) if s else 0.0 for s in successes]


# --- exports and the driver --------------------------------------------------

def test_export_grpo_schema(minihouse2, classified_subs, tmp_path):
    subs, cfg = classified_subs
    task = minihouse2.tasks["minihouse-2"]
    ctx = build_rollout_context(task, subs[1], cfg)
    group = rollout_group(minihouse2, task, ctx,
                          scripted("thinker", "noisy-thinker"),
                          scripted("actor", "obedient-actor"), cfg)
    out = tmp_path / "grpo.jsonl"
    stats = export_grpo([group], out)
    assert stats == {"groups": 1}
    record = json.loads(out.read_text().splitlines()[0])
    assert record["context_id"] == ctx.context_id
    assert record["prompt"] == ctx.prompt
    assert len(record["completions"]) == cfg.m
    assert len(record["rewards"]) == cfg.m
    assert record["meta"]["difficulty"] == MEDIUM


def test_export_sft_one_record_per_thought(minihouse2, greedy, oracle_thinker,
                                           tmp_path):
    task = minihouse2.tasks["minihouse-2"]
    traj = run_mode(minihouse2, greedy, task, RunConfig(mode="ttexplore"),
                    oracle_thinker)
    out = tmp_path / "sft.jsonl"
    stats = export_sft(minihouse2, minihouse2.tasks, [traj], out)
    assert stats == {"records": len(traj.thoughts)} and stats["records"] >= 1
    for line in out.read_text().splitlines():
        record = json.loads(line)
        assert record["completion"]
        assert "You are a Thinker Agent" in record["prompt"]


def reference_export_sft(world, tasks, trajectories, path, char_budget=100_000):
    """SFT export as it was before one view per trajectory: rebuild the view
    from the first step for every thought."""
    lines = []
    for traj in trajectories:
        task = tasks[traj.task_id]
        for thought in traj.thoughts:
            view = HistoryView(
                traj.task_id, traj.initial_observation,
                steps=[(s.action, s.observation)
                       for s in traj.steps[:thought.anchor_step]],
                thoughts=[(t.anchor_step, t.text) for t in traj.thoughts
                          if t.anchor_step < thought.anchor_step],
            )
            prompt = render_thinker_prompt(task, view, char_budget=char_budget)
            lines.append(json.dumps({"prompt": prompt,
                                     "completion": thought.text},
                                    ensure_ascii=False))
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


@pytest.mark.parametrize("char_budget", [100_000, 1500])
def test_export_sft_matches_a_per_thought_rebuild(keymaze1, char_budget,
                                                  tmp_path):
    task = keymaze1.tasks["keymaze-1"]
    thinker = scripted("thinker", "oracle-thinker")
    trajs = [run_mode(keymaze1, scripted("actor", actor), task,
                      RunConfig(mode="ttexplore"), thinker, seed=seed)
             for actor in ("loop-actor", "greedy-actor") for seed in (0, 1)]
    assert all(len(t.thoughts) > 1 for t in trajs)
    out, ref = tmp_path / "sft.jsonl", tmp_path / "reference.jsonl"
    stats = export_sft(keymaze1, keymaze1.tasks, trajs, out,
                       char_budget=char_budget)
    reference_export_sft(keymaze1, keymaze1.tasks, trajs, ref,
                         char_budget=char_budget)
    assert stats == {"records": sum(len(t.thoughts) for t in trajs)}
    assert out.read_bytes() == ref.read_bytes()
    truncated = TRUNCATION_MARKER in out.read_text(encoding="utf-8")
    assert truncated == (char_budget == 1500)


@pytest.mark.parametrize("tasks,seeds,message", [
    (2, [0], "tasks holds 'minihouse-2' twice"),
    (1, [0, 1, 0], "seeds holds 0 twice"),
    (2, [0, 0], "tasks holds 'minihouse-2' twice"),
])
def test_forge_rejects_a_task_or_seed_given_twice(minihouse2, monkeypatch,
                                                  tasks, seeds, message):
    """A repeated task or seed would forge each group twice: it fails before
    the first strong run."""
    monkeypatch.setattr(pipeline, "run_mode", lambda *a, **k: pytest.fail("ran"))
    with pytest.raises(ValueError, match=message):
        forge(minihouse2, [minihouse2.tasks["minihouse-2"]] * tasks,
              strong=scripted("actor", "oracle-actor"),
              weak=scripted("actor", "wanderer-actor"),
              thinker=scripted("thinker", "noisy-thinker"),
              actor_frozen=scripted("actor", "obedient-actor"),
              cfg=PipelineConfig(), seeds=seeds)


def test_forge_end_to_end(minihouse2, tmp_path):
    result = forge(minihouse2, [minihouse2.tasks["minihouse-2"]],
                   strong=scripted("actor", "oracle-actor"),
                   weak=scripted("actor", "wanderer-actor"),
                   thinker=scripted("thinker", "noisy-thinker"),
                   actor_frozen=scripted("actor", "obedient-actor"),
                   cfg=PipelineConfig(), seeds=[0])
    assert result.manifest["subtasks"] == 3
    assert result.manifest["difficulty_counts"] == {EASY: 1, MEDIUM: 1, HARD: 1}
    assert result.manifest["groups"] == 2
    assert result.manifest["skipped"] == []
    rewards = [r.reward for g in result.groups for r in g.records]
    assert set(rewards) <= {0.0, 1.0}
    assert 0.0 in rewards and 1.0 in rewards


def test_forge_runs_tasks_with_max_steps_at_the_trigger_interval(minihouse2,
                                                                 tmp_path):
    # the strong run is ReAct, so the default n_trigger of 6 does not bound it
    doc = yaml.safe_load(builtin_world_path("minihouse2").read_text(encoding="utf-8"))
    doc["tasks"][0]["max_steps"] = 6
    path = tmp_path / "six-steps.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    short = load_world(path)
    results = [forge(world, [world.tasks["minihouse-2"]],
                     strong=scripted("actor", "oracle-actor"),
                     weak=scripted("actor", "wanderer-actor"),
                     thinker=scripted("thinker", "noisy-thinker"),
                     actor_frozen=scripted("actor", "obedient-actor"),
                     cfg=PipelineConfig(), seeds=[0])
               for world in (short, minihouse2)]
    assert short.tasks["minihouse-2"].max_steps_default == 6
    assert results[0].manifest == results[1].manifest
    assert results[0].manifest["groups"] == 2
    assert results[0].manifest["difficulty_counts"] == {EASY: 1, MEDIUM: 1, HARD: 1}
    assert results[0].manifest["mean_reward"] == 0.75


def test_forge_skips_flat_strong_runs(minihouse2):
    result = forge(minihouse2, [minihouse2.tasks["minihouse-2"]],
                   strong=scripted("actor", "loop-actor"),
                   weak=scripted("actor", "wanderer-actor"),
                   thinker=scripted("thinker", "noisy-thinker"),
                   actor_frozen=scripted("actor", "obedient-actor"),
                   cfg=PipelineConfig(), seeds=[0])
    assert result.groups == []
    assert any("flat" in s for s in result.skipped)


def test_forge_reports_a_flat_run_that_starts_above_zero(open_fridge):
    result = forge(open_fridge, [open_fridge.tasks["minihouse-1"]],
                   strong=scripted("actor", "loop-actor"),
                   weak=scripted("actor", "wanderer-actor"),
                   thinker=scripted("thinker", "noisy-thinker"),
                   actor_frozen=scripted("actor", "obedient-actor"),
                   cfg=PipelineConfig(), seeds=[0])
    assert result.strong_trajectories[0].final.process_score == 33.33
    assert result.manifest["subtasks"] == 0
    assert result.skipped == ["minihouse-1-s0: strong trajectory flat"]


def test_pipeline_config_validation():
    with pytest.raises(ValueError):
        PipelineConfig(x=5, y=5)
    with pytest.raises(ValueError):
        PipelineConfig(m=0)
    with pytest.raises(ValueError):
        PipelineConfig(reward_mode="bonus")
    with pytest.raises(AttributeError):  # frozen, so it stays checked
        PipelineConfig().m = 0


@pytest.mark.parametrize("rate", [float("nan"), float("inf")])
def test_a_penalty_rate_that_is_not_finite_is_rejected(rate):
    """`max(0.0, nan)` is 0.0, so a NaN rate would zero every step-penalty
    reward, and the forge manifest would hold a value JSON cannot carry."""
    with pytest.raises(ValueError, match=f"^penalty_rate must be >= 0 and "
                                         f"finite, got {rate}$"):
        PipelineConfig(reward_mode=STEP_PENALTY, penalty_rate=rate)
