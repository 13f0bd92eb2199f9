"""Episode runners, thinker triggering, retry harnesses, and the run store."""

import dataclasses
import json
import os

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from ttexplore import orchestrator
from ttexplore.config import _RUN_TYPES
from ttexplore.orchestrator import (
    FALLBACK_ACTION,
    RunConfig,
    RunStoreError,
    read_transcript,
    run_batch,
    run_mode,
    sample_seed,
    select_best,
    write_json_atomic,
    write_jsonl,
)
from ttexplore.policies import (
    SCRIPTED_POLICIES,
    SOLUTIONS,
    ConfigError,
    RemoteError,
    scripted,
)
from ttexplore.world import TextWorld, builtin_world_path, load_world


# --- configuration validation ----------------------------------------------

@pytest.mark.parametrize("kwargs", [
    {"mode": "warp"},
    {"inner_mode": "warp"},
    {"n_trigger": 0},
    {"max_steps": 0},
    {"n_trigger": 50, "max_steps": 50, "mode": "ttexplore"},
    {"max_steps": 6, "mode": "reflexion"},
    {"max_steps": 6, "mode": "bestofn"},
    {"retries_N": 0},
    {"samples_N": 0},
    {"char_budget": 0},
])
def test_invalid_config_rejected(kwargs):
    with pytest.raises(ValueError):
        RunConfig(**kwargs)
    # a frozen config is checked again on every copy
    with pytest.raises(ValueError):
        dataclasses.replace(RunConfig(), **kwargs)
    with pytest.raises(dataclasses.FrozenInstanceError):
        RunConfig().max_steps = 0


def test_react_episodes_ignore_the_trigger_bound(minihouse1, oracle):
    # a ReAct episode never triggers the thinker, so n_trigger does not bound it
    RunConfig(mode="reflexion", inner_mode="react", max_steps=6)
    traj = run_mode(minihouse1, oracle, minihouse1.tasks["minihouse-1"],
                    RunConfig(mode="react", max_steps=6))
    assert traj.final.success and traj.final.steps_used == 6


@settings(max_examples=60, deadline=None)
@given(mode=st.sampled_from(orchestrator.MODES),
       inner_mode=st.sampled_from(orchestrator.EPISODE_KINDS),
       n_trigger=st.integers(1, 4), max_steps=st.integers(1, 5),
       retries_N=st.integers(0, 3), samples_N=st.integers(0, 3),
       char_budget=st.sampled_from([-1, 0, 1, 500, 100_000]))
def test_a_config_that_exists_can_run(**values):
    # a config either fails when it is made or runs an episode to its end
    try:
        cfg = RunConfig(**values)
    except ValueError:
        return
    world = load_world(builtin_world_path("minihouse1"))
    traj = run_mode(world, scripted("actor", "greedy-actor"),
                    world.tasks["minihouse-1"], cfg,
                    thinker=scripted("thinker", "oracle-thinker"))
    assert traj.error is None
    assert 1 <= traj.final.steps_used <= cfg.max_steps


# --- plain episodes ---------------------------------------------------------

def test_react_oracle_succeeds_in_six_steps(minihouse1, oracle):
    traj = run_mode(minihouse1, oracle, minihouse1.tasks["minihouse-1"],
                    RunConfig(mode="react"))
    assert traj.final.success
    assert traj.final.steps_used == 6
    assert [s.score_after for s in traj.steps] == \
        [0.0, 0.0, 33.33, 66.67, 66.67, 100.0]
    assert traj.thoughts == []


def test_multi_task_world_episode_ends_at_full_score(tmp_path, oracle):
    # the engine scores the task it is given, so a world with two tasks
    # still ends its episode when that task is done
    doc = yaml.safe_load(builtin_world_path("minihouse1").read_text(encoding="utf-8"))
    doc["tasks"].append({**doc["tasks"][0], "id": "minihouse-1-copy"})
    path = tmp_path / "two_tasks.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    world = load_world(path)
    assert len(world.tasks) == 2
    cfg = RunConfig(mode="react", max_steps=20)
    traj = run_mode(world, oracle, world.tasks["minihouse-1"], cfg)
    assert traj.final.success
    assert traj.final.steps_used == 6
    assert traj.steps[-1].done and traj.steps[-1].score_after == 100.0


def test_react_exhausts_budget_without_success(minihouse1, greedy):
    cfg = RunConfig(mode="react", max_steps=20, n_trigger=6)
    traj = run_mode(minihouse1, greedy, minihouse1.tasks["minihouse-1"], cfg)
    assert not traj.final.success
    assert traj.final.steps_used == 20
    assert traj.final.process_score == 0.0


def test_ttexplore_recovers_where_react_fails(minihouse1, greedy, oracle_thinker):
    cfg = RunConfig(mode="ttexplore")
    traj = run_mode(minihouse1, greedy, minihouse1.tasks["minihouse-1"], cfg,
                    oracle_thinker)
    assert traj.final.success
    assert [t.anchor_step for t in traj.thoughts] == [6]


def test_ttexplore_requires_thinker(minihouse1, greedy):
    with pytest.raises(ValueError):
        run_mode(minihouse1, greedy, minihouse1.tasks["minihouse-1"],
                 RunConfig(mode="ttexplore"), None)


@pytest.mark.parametrize("mode", ["reflexion", "bestofn"])
def test_inner_mode_picks_the_episode_kind(minihouse1, greedy, oracle_thinker,
                                           mode):
    task = minihouse1.tasks["minihouse-1"]
    cfg = RunConfig(mode=mode, inner_mode="ttexplore", retries_N=2,
                    samples_N=2)
    with pytest.raises(ValueError, match="thinker"):
        run_mode(minihouse1, greedy, task, cfg)
    traj = run_mode(minihouse1, greedy, task, cfg, oracle_thinker)
    assert traj.thoughts and traj.final.success
    # a ReAct episode ignores the thinker it is handed
    cfg = dataclasses.replace(cfg, inner_mode="react")
    traj = run_mode(minihouse1, greedy, task, cfg, oracle_thinker)
    assert traj.thoughts == [] and traj.final.process_score == 0.0


def test_react_mode_ignores_the_thinker(minihouse1, greedy, oracle_thinker):
    traj = run_mode(minihouse1, greedy, minihouse1.tasks["minihouse-1"],
                    RunConfig(mode="react", inner_mode="ttexplore"),
                    oracle_thinker)
    assert traj.mode == "react" and traj.thoughts == []


# --- trigger arithmetic -----------------------------------------------------

@pytest.mark.parametrize("n", [3, 6, 9, 12])
@pytest.mark.parametrize("max_steps", [25, 50])
def test_full_length_episode_trigger_count(minihouse1, oracle_thinker, n, max_steps):
    cfg = RunConfig(mode="ttexplore", n_trigger=n, max_steps=max_steps)
    looper = scripted("actor", "loop-actor")
    traj = run_mode(minihouse1, looper, minihouse1.tasks["minihouse-1"], cfg,
                    oracle_thinker)
    assert traj.final.steps_used == max_steps  # the looper never finishes
    assert len(traj.thoughts) == (max_steps - 1) // n
    assert [t.anchor_step for t in traj.thoughts] == \
        [n * i for i in range(1, (max_steps - 1) // n + 1)]


def test_no_trigger_after_success(minihouse1, oracle, oracle_thinker):
    cfg = RunConfig(mode="ttexplore", n_trigger=6)
    traj = run_mode(minihouse1, oracle, minihouse1.tasks["minihouse-1"], cfg,
                    oracle_thinker)
    assert traj.final.steps_used == 6
    assert traj.thoughts == []  # success at step 6 preempts the trigger


# --- malformed output handling ---------------------------------------------

def tagless_first(policy):
    """`policy` with a tagless answer on its first call only."""
    calls = []

    def answer(prompt, seed):
        calls.append(prompt)
        return "no tags" if len(calls) == 1 else policy(prompt, seed)
    return answer


def parse_warnings(caplog):
    # the benchmark counts these records as parse fallbacks
    return [r for r in caplog.records if r.name == "ttexplore.orchestrator"
            and r.levelname == "WARNING"]


def test_actor_parse_failure_falls_back(minihouse1, monkeypatch, caplog):
    monkeypatch.setitem(SCRIPTED_POLICIES, "broken-actor",
                        lambda prompt, seed: "no tags here")
    cfg = RunConfig(mode="react", max_steps=3, n_trigger=2)
    traj = run_mode(minihouse1, scripted("actor", "broken-actor"),
                    minihouse1.tasks["minihouse-1"], cfg)
    assert traj.actions() == [FALLBACK_ACTION] * 3
    assert traj.error is None
    assert len(parse_warnings(caplog)) == 2 * 3  # one per failed attempt
    caplog.clear()
    monkeypatch.setitem(SCRIPTED_POLICIES, "broken-actor",
                        tagless_first(SCRIPTED_POLICIES["oracle-actor"]))
    traj = run_mode(minihouse1, scripted("actor", "broken-actor"),
                    minihouse1.tasks["minihouse-1"], cfg)
    assert traj.actions() == SOLUTIONS[minihouse1.tasks["minihouse-1"]
                                       .instruction][:3]
    assert len(parse_warnings(caplog)) == 1  # the retry recovered


def test_thinker_parse_failure_skips_thought(minihouse1, monkeypatch, caplog):
    monkeypatch.setitem(SCRIPTED_POLICIES, "broken-thinker",
                        lambda prompt, seed: "still no tags")
    cfg = RunConfig(mode="ttexplore", n_trigger=2, max_steps=5)
    traj = run_mode(minihouse1, scripted("actor", "loop-actor"),
                    minihouse1.tasks["minihouse-1"], cfg,
                    scripted("thinker", "broken-thinker"))
    assert traj.thoughts == []
    assert traj.final.steps_used == 5
    assert traj.error is None
    assert len(parse_warnings(caplog)) == 2 * 2  # two triggers, two attempts
    caplog.clear()
    monkeypatch.setitem(SCRIPTED_POLICIES, "broken-thinker",
                        tagless_first(SCRIPTED_POLICIES["null-thinker"]))
    traj = run_mode(minihouse1, scripted("actor", "loop-actor"),
                    minihouse1.tasks["minihouse-1"], cfg,
                    scripted("thinker", "broken-thinker"))
    assert [t.anchor_step for t in traj.thoughts] == [2, 4]
    assert len(parse_warnings(caplog)) == 1  # the retry recovered


def test_backend_crash_recorded_as_episode_error(minihouse1, monkeypatch):
    def explode(prompt, seed):
        raise RemoteError("backend gone", attempts=1)
    monkeypatch.setitem(SCRIPTED_POLICIES, "crash-actor", explode)
    traj = run_mode(minihouse1, scripted("actor", "crash-actor"),
                    minihouse1.tasks["minihouse-1"],
                    RunConfig(mode="react"))
    assert traj.error is not None
    assert "backend gone" in traj.error
    assert not traj.final.success


def test_abort_before_the_first_step_keeps_the_initial_score(open_fridge,
                                                              monkeypatch):
    def explode(prompt, seed):
        raise RemoteError("backend gone", attempts=1)
    monkeypatch.setitem(SCRIPTED_POLICIES, "crash-actor", explode)
    traj = run_mode(open_fridge, scripted("actor", "crash-actor"),
                    open_fridge.tasks["minihouse-1"],
                    RunConfig(mode="react"))
    assert traj.error is not None
    assert traj.final.steps_used == 0
    assert traj.final.process_score == 33.33


def test_own_bug_crashes_instead_of_aborting(minihouse1, greedy):
    # built directly, so load_world's guard check never sees the bad rule
    world = TextWorld(minihouse1.id, list(minihouse1.rooms), minihouse1.entities,
                      minihouse1.agent, {"r": "no-such-guard"})
    world.tasks = minihouse1.tasks
    with pytest.raises(KeyError, match="no-such-guard"):
        run_mode(world, greedy, world.tasks["minihouse-1"],
                 RunConfig(mode="react"))


@pytest.mark.parametrize("mode,fails", [
    ("react", lambda calls, prompt: calls == 3),
    ("reflexion", lambda calls, prompt: prompt.startswith("Reflection Request:")),
])
def test_a_config_error_inside_a_policy_crashes_instead_of_aborting(
        minihouse1, monkeypatch, tmp_path, mode, fails):
    # only a RemoteError is a backend failure; here the react actor raises at
    # its third step, and the reflexion actor when asked to reflect
    greedy_actor = SCRIPTED_POLICIES["greedy-actor"]
    calls = []

    def misconfigured(prompt, seed):
        calls.append(prompt)
        if fails(len(calls), prompt):
            raise ConfigError("a bad setting")
        return greedy_actor(prompt, seed)

    monkeypatch.setitem(SCRIPTED_POLICIES, "misconfigured-actor", misconfigured)
    cfg = RunConfig(mode=mode, inner_mode="react", retries_N=2, max_steps=5)
    with pytest.raises(ConfigError, match="a bad setting"):
        run_batch(minihouse1, [(minihouse1.tasks["minihouse-1"], 0)], cfg,
                  scripted("actor", "misconfigured-actor"), store_dir=tmp_path)
    assert len(calls) == (3 if mode == "react" else 6)  # mid-episode
    assert not (tmp_path / "manifest.json").exists()


# --- reflect-and-retry ------------------------------------------------------

def test_reflexion_improves_staged_actor(minihouse1):
    cfg = RunConfig(mode="reflexion", inner_mode="react", retries_N=5,
                    max_steps=10, n_trigger=6)
    traj = run_mode(minihouse1, scripted("actor", "staged-actor"),
                    minihouse1.tasks["minihouse-1"], cfg)
    assert traj.mode == "reflexion"
    assert traj.final.success  # third attempt reaches all six script steps


def test_reflexion_returns_best_attempt_when_all_fail(minihouse1, greedy):
    cfg = RunConfig(mode="reflexion", inner_mode="react", retries_N=2,
                    max_steps=5, n_trigger=3)
    traj = run_mode(minihouse1, greedy, minihouse1.tasks["minihouse-1"], cfg)
    assert not traj.final.success
    assert traj.final.process_score == 0.0


def test_reflection_backend_failure_aborts_the_episode_not_the_batch(
        minihouse1, monkeypatch, tmp_path):
    greedy_actor = SCRIPTED_POLICIES["greedy-actor"]

    def fails_to_reflect(prompt, seed):
        if prompt.startswith("Reflection Request:"):
            raise RemoteError("backend gone", attempts=3, status=503)
        return greedy_actor(prompt, seed)

    monkeypatch.setitem(SCRIPTED_POLICIES, "reflect-crash-actor", fails_to_reflect)
    cfg = RunConfig(mode="reflexion", inner_mode="react", retries_N=2,
                    max_steps=5)
    results = run_batch(minihouse1, [(minihouse1.tasks["minihouse-1"], 0)], cfg,
                        scripted("actor", "reflect-crash-actor"),
                        store_dir=tmp_path)
    [result] = results
    traj = result.trajectory
    assert traj.error == "RemoteError: backend gone"
    assert traj.mode == "reflexion"
    assert traj.final.steps_used == 5  # the first attempt, the only one run
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert [e["error"] for e in manifest["episodes"]] == ["RemoteError: backend gone"]


# --- best-of-N --------------------------------------------------------------

def test_best_of_n_single_sample_is_identity(minihouse1, greedy, oracle_thinker):
    cfg_one = RunConfig(mode="bestofn", inner_mode="ttexplore", samples_N=1)
    best = run_mode(minihouse1, greedy, minihouse1.tasks["minihouse-1"],
                    cfg_one, oracle_thinker, seed=4)
    direct = run_mode(minihouse1, greedy, minihouse1.tasks["minihouse-1"],
                      RunConfig(mode="ttexplore"), oracle_thinker, seed=4)
    assert best.actions() == direct.actions()
    assert best.final.process_score == direct.final.process_score


def test_best_of_n_episodes_of_consecutive_seeds_share_no_sample(minihouse2,
                                                                greedy):
    """Sample i of a best-of-N episode on seed s runs on s * N + i, so the
    episodes of seeds 0-5 each keep a sample of their own."""
    task = minihouse2.tasks["minihouse-2"]
    results = run_batch(minihouse2, [(task, seed) for seed in range(6)],
                        RunConfig(mode="bestofn", samples_N=5), greedy,
                        thinker=scripted("thinker", "noisy-thinker"))
    assert [r.trajectory.seed for r in results] == [0, 5, 10, 15, 21, 25]


@settings(max_examples=300, deadline=None)
@given(st.integers(-10**12, 10**12), st.integers(-10**4, 10**4),
       st.integers(1, 10**4))
def test_sample_seed_is_injective(seed, index, count):
    """For one count, `divmod` recovers (seed, index) from the derived seed
    whenever 0 <= index < count, negative seeds included, so no two such
    pairs share it; any other index raises."""
    if not 0 <= index < count:
        with pytest.raises(ValueError, match="outside range"):
            sample_seed(seed, index, count)
        return
    assert divmod(sample_seed(seed, index, count), count) == (seed, index)


def test_select_best_prefers_score_then_lowest_index():
    from ttexplore.orchestrator import Final, Trajectory

    def traj(score, steps):
        t = Trajectory(task_id="t", seed=0, mode="react", initial_observation="o")
        t.final = Final(success=score == 100.0, process_score=score,
                        steps_used=steps)
        return t

    chosen = select_best([traj(33.33, 5), traj(66.67, 9), traj(66.67, 9)])
    assert chosen.final.process_score == 66.67
    # strict comparison keeps the first of the two tied samples
    samples = [traj(50.0, 4), traj(50.0, 4)]
    assert select_best(samples) is samples[0]
    # fewer steps breaks a score tie
    samples = [traj(50.0, 9), traj(50.0, 4)]
    assert select_best(samples) is samples[1]
    # the samples keep the label their episodes gave them
    assert [t.mode for t in samples] == ["react", "react"]


# --- run store --------------------------------------------------------------

def test_run_batch_store_layout(minihouse1, greedy, oracle_thinker, tmp_path):
    task = minihouse1.tasks["minihouse-1"]
    cfg = RunConfig(mode="ttexplore")
    results = run_batch(minihouse1, [(task, 0), (task, 1)], cfg, greedy,
                        thinker=oracle_thinker, store_dir=tmp_path,
                        world_file="minihouse1")
    assert len(results) == 2
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == ["manifest.json", "timings.json", "transcripts.jsonl"]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["world_file"] == "minihouse1"
    assert len(manifest["episodes"]) == 2
    assert manifest["episodes"][0]["success"] is True
    assert "mean_wall_s" not in manifest["aggregate"]
    transcripts = read_transcript(tmp_path / "transcripts.jsonl")
    assert len(transcripts) == 2
    records = transcripts[0]
    assert records[0]["step"] == 1
    assert records[-1]["done"] is True


def test_run_batch_parallel_preserves_order(minihouse1, oracle, tmp_path):
    task = minihouse1.tasks["minihouse-1"]
    cfg = RunConfig(mode="react")
    items = [(task, s) for s in range(4)]
    serial = run_batch(minihouse1, items, cfg, oracle)
    parallel = run_batch(minihouse1, items, cfg, oracle, parallelism=4)
    assert [r.trajectory.seed for r in parallel] == \
        [r.trajectory.seed for r in serial] == [0, 1, 2, 3]


def test_run_batch_rejects_an_item_given_twice(minihouse2, greedy, tmp_path,
                                              monkeypatch):
    """A repeated (task, seed) item would run one episode twice and count it
    twice: it fails before any episode runs or the store is touched."""
    task = minihouse2.tasks["minihouse-2"]
    (tmp_path / "manifest.json").write_text("{}")
    monkeypatch.setattr(orchestrator, "run_mode", lambda *a: pytest.fail("ran"))
    with pytest.raises(ValueError, match="task 'minihouse-2' seed 0 is given twice"):
        run_batch(minihouse2, [(task, 0), (task, 1), (task, 0)],
                  RunConfig(mode="react"), greedy, store_dir=tmp_path / "new")
    assert not (tmp_path / "new").exists()
    with pytest.raises(ValueError, match="given twice"):
        run_batch(minihouse2, [(task, 0), (task, 0)], RunConfig(mode="react"),
                  greedy, store_dir=tmp_path)
    assert (tmp_path / "manifest.json").read_text() == "{}"


def test_a_parallel_store_is_byte_identical_to_a_serial_one(
        minihouse1, greedy, oracle_thinker, tmp_path):
    items = [(task, s) for task in minihouse1.tasks.values() for s in range(5)]
    cfg = RunConfig(mode="ttexplore")
    for parallelism in (1, 3):
        run_batch(minihouse1, items, cfg, greedy, thinker=oracle_thinker,
                  store_dir=tmp_path / str(parallelism),
                  parallelism=parallelism, world_file="minihouse1")
    for name in ("manifest.json", "transcripts.jsonl"):
        assert (tmp_path / "1" / name).read_bytes() == \
            (tmp_path / "3" / name).read_bytes(), name


@pytest.mark.parametrize("name", ["transcripts.jsonl", "timings.json",
                                  "manifest.json"])
def test_a_failed_store_write_raises_a_run_store_error_naming_the_file(
        minihouse1, oracle, tmp_path, monkeypatch, name):
    writers = {"write_jsonl": orchestrator.write_jsonl,
               "write_json_atomic": orchestrator.write_json_atomic}

    def failing(writer):
        def write(path, data):
            if path.name == name:
                raise OSError("disk full")
            writers[writer](path, data)
        return write
    for writer in writers:
        monkeypatch.setattr(orchestrator, writer, failing(writer))
    with pytest.raises(RunStoreError, match=rf"{name}: cannot write the run "
                                            r"store: disk full"):
        run_batch(minihouse1, [(minihouse1.tasks["minihouse-1"], 0)],
                  RunConfig(mode="react"), oracle, store_dir=tmp_path)
    assert not (tmp_path / "manifest.json").exists()


def test_write_jsonl_writes_json_dumps_lines_that_read_back(tmp_path):
    # U+2028 is a line separator to str.splitlines, and JSON leaves it raw
    records = [[{"action": "take crème 1", "observation": "a\u2028b"}], [],
               {"score": 33.33}]
    path = tmp_path / "t.jsonl"
    write_jsonl(path, records)
    assert path.read_text(encoding="utf-8") == "".join(
        json.dumps(r, ensure_ascii=False) + "\n" for r in records)
    assert read_transcript(path) == records


def test_failed_json_write_keeps_the_old_file(minihouse1, oracle, tmp_path,
                                              monkeypatch):
    task = minihouse1.tasks["minihouse-1"]
    run_batch(minihouse1, [(task, 0)], RunConfig(mode="react"), oracle,
              store_dir=tmp_path)
    path = tmp_path / "manifest.json"
    old = path.read_bytes()
    files = sorted(tmp_path.iterdir())
    with pytest.raises(TypeError):  # json.dumps fails before any write
        write_json_atomic(path, {"episodes": object()})

    def broken_replace(src, dst):
        raise OSError("disk gone")
    monkeypatch.setattr(os, "replace", broken_replace)
    with pytest.raises(OSError, match="disk gone"):  # fails after the temp write
        write_json_atomic(path, {"episodes": []})
    assert path.read_bytes() == old
    assert sorted(tmp_path.iterdir()) == files


def test_manifest_is_written_after_the_timings(minihouse1, oracle, tmp_path,
                                               monkeypatch):
    write = orchestrator.write_json_atomic

    def failing_timings(path, data):
        if path.name == "timings.json":
            raise OSError("disk full")
        write(path, data)
    monkeypatch.setattr(orchestrator, "write_json_atomic", failing_timings)
    task = minihouse1.tasks["minihouse-1"]
    with pytest.raises(RunStoreError, match="timings.json.*disk full"):
        run_batch(minihouse1, [(task, 0)], RunConfig(mode="react"),
                  oracle, store_dir=tmp_path)
    assert not (tmp_path / "manifest.json").exists()


def test_read_transcript_corruption_names_file_and_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"step": 1}\nnot json at all\n', encoding="utf-8")
    with pytest.raises(RunStoreError, match=r"bad\.jsonl:2"):
        read_transcript(path)


def test_run_mode_dispatch(minihouse1, oracle, oracle_thinker):
    task = minihouse1.tasks["minihouse-1"]
    for mode in ("react", "ttexplore", "reflexion", "bestofn"):
        cfg = RunConfig(mode=mode, samples_N=2, retries_N=2)
        traj = run_mode(minihouse1, oracle, task, cfg, thinker=oracle_thinker)
        assert traj.final.success
        assert traj.mode == mode


def test_the_manifest_config_holds_exactly_the_run_values(minihouse1, oracle,
                                                         tmp_path):
    # the seeds are the episodes', not the config's
    run_batch(minihouse1, [(minihouse1.tasks["minihouse-1"], 3)],
              RunConfig(mode="react"), oracle, store_dir=tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"].keys() == _RUN_TYPES.keys()
    assert manifest["episodes"][0]["seed"] == 3


@pytest.mark.parametrize("mode", orchestrator.MODES)
def test_a_batch_episode_is_run_mode_on_its_seed(minihouse2, greedy, mode):
    task = minihouse2.tasks["minihouse-2"]
    thinker = scripted("thinker", "noisy-thinker")
    cfg = RunConfig(mode=mode, samples_N=3, retries_N=2)
    results = run_batch(minihouse2, [(task, 3), (task, 4)], cfg, greedy,
                        thinker=thinker)
    direct = [run_mode(minihouse2, greedy, task, cfg, thinker, seed=seed)
              for seed in (3, 4)]
    assert [r.trajectory for r in results] == direct
    for traj, seed in zip(direct, (3, 4)):
        # a best-of-N episode records its chosen sample's seed
        samples = range(cfg.samples_N) if mode == "bestofn" else [0]
        assert traj.seed in [sample_seed(seed, i, len(samples)) for i in samples]
