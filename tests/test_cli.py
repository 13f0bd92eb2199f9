"""Command-line interface behavior: stores, exit codes, verification."""

import datetime
import json
import os
import subprocess
import sys
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from types import SimpleNamespace

import pytest
import yaml
from click.testing import CliRunner

from ttexplore import cli, load_builtin_world, orchestrator, pipeline
from ttexplore.cli import main
from ttexplore.config import ConfigValidationError, load_config
from ttexplore.orchestrator import RunConfig, run_batch
from ttexplore.policies import (
    SCRIPTED_POLICIES,
    PolicyHandle,
    RemoteBackend,
    RemoteError,
    scripted,
)
from ttexplore.prompts import format_actor_tags
from ttexplore.world import builtin_world_path


@pytest.fixture
def runner():
    return CliRunner()


def config_doc(**overrides):
    doc = {
        "world": "minihouse2",
        "tasks": ["minihouse-2"],
        "actor": {"backend": "scripted", "name": "greedy-actor"},
        "thinker": {"backend": "scripted", "name": "oracle-thinker"},
        "weak": {"backend": "scripted", "name": "wanderer-actor"},
        "strong": {"backend": "scripted", "name": "oracle-actor"},
        "run": {"mode": "ttexplore", "n_trigger": 6, "max_steps": 50},
        "seeds": [0],
        "store_dir": "runs",
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc=None, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc or config_doc()), encoding="utf-8")
    return path


def run_store(runner, tmp_path, doc=None):
    cfg = write_config(tmp_path, doc)
    result = runner.invoke(main, ["run", "--config", str(cfg),
                                  "--store-dir", str(tmp_path / "runs")])
    assert result.exit_code == 0, result.output
    return next((tmp_path / "runs").iterdir())


def tamper_record(store, episode, index, edit):
    """Apply `edit` to step record `index` of `episode` in the store's
    transcripts.jsonl; `edit` returns the value that replaces the record."""
    path = store / "transcripts.jsonl"
    lines = path.read_text().splitlines()
    records = json.loads(lines[episode])
    records[index] = edit(records[index])
    lines[episode] = json.dumps(records)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def stored_summary(store):
    """The manifest's aggregate plus the mean of the wall times in
    timings.json, rounded half-up to two decimals like every summary mean."""
    manifest = json.loads((store / "manifest.json").read_text())
    wall_s = json.loads((store / "timings.json").read_text())["episodes"]
    mean = sum(Decimal(str(w)) for w in wall_s) / len(wall_s)
    return {**manifest["aggregate"],
            "mean_wall_s": float(mean.quantize(Decimal("0.01"), ROUND_HALF_UP))}


# --- run ---------------------------------------------------------------------

def test_run_creates_fresh_store(runner, tmp_path):
    store = run_store(runner, tmp_path)
    assert (store / "manifest.json").exists()
    assert (store / "timings.json").exists()
    assert list(store.glob("*.jsonl"))


def test_run_never_reuses_a_store(runner, tmp_path):
    cfg = write_config(tmp_path)
    for _ in range(2):
        result = runner.invoke(main, ["run", "--config", str(cfg),
                                      "--store-dir", str(tmp_path / "runs"),
                                      "--label", "same"])
        assert result.exit_code == 0, result.output
    stores = list((tmp_path / "runs").iterdir())
    assert len(stores) == 2
    assert len({s.name for s in stores}) == 2


def test_fresh_store_skips_a_store_created_after_the_check(tmp_path, monkeypatch):
    now = datetime.datetime(2026, 1, 2, 3, 4, 5, tzinfo=datetime.timezone.utc)
    monkeypatch.setattr(cli, "_dt", SimpleNamespace(
        datetime=SimpleNamespace(now=lambda tz: now), timezone=datetime.timezone))
    # another process creates the first candidate after any existence check
    monkeypatch.setattr(Path, "exists", lambda self: False)
    (tmp_path / "20260102T030405-x").mkdir()
    store = cli._fresh_store(tmp_path, "x")
    assert store == tmp_path / "20260102T030405-x-1"
    assert store.is_dir() and not any(store.iterdir())


def test_run_unknown_config_key_fails_naming_it(runner, tmp_path):
    doc = config_doc()
    doc["max_stepz"] = 10
    cfg = write_config(tmp_path, doc)
    result = runner.invoke(main, ["run", "--config", str(cfg)])
    assert result.exit_code != 0
    assert "max_stepz" in result.output


def test_run_unknown_run_key_fails_naming_it(runner, tmp_path):
    doc = config_doc()
    doc["run"]["n_triggerr"] = 6
    cfg = write_config(tmp_path, doc)
    result = runner.invoke(main, ["run", "--config", str(cfg)])
    assert result.exit_code != 0
    assert "n_triggerr" in result.output


@pytest.mark.parametrize("key", ["completion_rule", "nodes_per_trajectory",
                                 "rollout_max_steps"])
def test_removed_pipeline_keys_are_rejected(tmp_path, key):
    path = write_config(tmp_path, config_doc(pipeline={"x": 5, key: 1}))
    with pytest.raises(ConfigValidationError, match=key):
        load_config(path)


@pytest.mark.parametrize("key", ["include_prior_thoughts", "metrics_k"])
def test_removed_run_keys_are_rejected(tmp_path, key):
    path = write_config(tmp_path, config_doc(run={"mode": "react", key: 1}))
    with pytest.raises(ConfigValidationError, match=key):
        load_config(path)


@pytest.mark.parametrize("command,out", [("run", "--store-dir"),
                                         ("forge", "--out")])
def test_an_output_root_that_cannot_hold_a_directory_names_it(runner, tmp_path,
                                                              command, out):
    (tmp_path / "file").write_text("")
    result = runner.invoke(main, [command, "--config", str(write_config(tmp_path)),
                                  out, str(tmp_path / "file" / "runs")])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert f"error: {tmp_path / 'file' / 'runs'}" in result.output
    assert "cannot create the directory" in result.output


def test_run_missing_world_no_partial_store(runner, tmp_path):
    doc = config_doc(world="no-such-world")
    cfg = write_config(tmp_path, doc)
    result = runner.invoke(main, ["run", "--config", str(cfg),
                                  "--store-dir", str(tmp_path / "runs")])
    assert result.exit_code != 0
    assert "no-such-world" in result.output
    assert not (tmp_path / "runs").exists()


def test_run_invalid_flag_combination(runner, tmp_path):
    cfg = write_config(tmp_path)
    result = runner.invoke(main, ["run", "--config", str(cfg),
                                  "--n-trigger", "50", "--max-steps", "50"])
    assert result.exit_code != 0
    assert "n_trigger" in result.output
    assert "command-line values --n-trigger 50 --max-steps 50" in result.output


def test_run_flag_that_fails_validation_names_the_command_line(runner, tmp_path):
    cfg = write_config(tmp_path)
    result = runner.invoke(main, ["run", "--config", str(cfg), "--max-steps", "0",
                                  "--store-dir", str(tmp_path / "runs")])
    assert result.exit_code == 2, result.output
    assert "max_steps must be positive" in result.output
    assert "command-line values --max-steps 0" in result.output
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("doc,flags,error", [
    (config_doc(), ["--mode", "react", "--max-steps", "0"],
     "n_trigger and max_steps must be positive"),
    (config_doc(thinker=None, run={"mode": "react"}), ["--mode", "bestofn"],
     "mode 'bestofn' with inner_mode 'ttexplore' needs a thinker policy"),
    (config_doc(), ["--mode", "reflexion", "--retries-n", "0"],
     "retries_N must be positive, got 0"),
    (config_doc(), ["--mode", "bestofn", "--samples-n", "0"],
     "samples_N must be positive, got 0"),
], ids=["max-steps", "thinker", "retries-n", "samples-n"])
def test_a_flag_that_breaks_a_run_rule_names_the_file_and_the_flags(
        runner, tmp_path, doc, flags, error):
    cfg = write_config(tmp_path, doc)
    result = runner.invoke(main, ["run", "--config", str(cfg), *flags,
                                  "--store-dir", str(tmp_path / "runs")])
    assert result.exit_code == 2, result.output
    assert (f"exp.yaml:run: {error} (with the command-line values "
            f"{' '.join(flags)})") in result.output
    assert not (tmp_path / "runs").exists()


def test_run_flags_apply_before_the_file_is_validated(runner, tmp_path):
    # the file alone breaks a run rule, and the flag mends it
    cfg = write_config(tmp_path, config_doc(
        run={"mode": "ttexplore", "n_trigger": 6, "max_steps": 5}))
    with pytest.raises(ConfigValidationError, match=r"exp\.yaml:run: n_trigger"):
        load_config(cfg)
    assert load_config(cfg, {"max_steps": 8, "mode": None}).run.max_steps == 8
    result = runner.invoke(main, ["run", "--config", str(cfg), "--max-steps", "8",
                                  "--store-dir", str(tmp_path / "runs")])
    assert result.exit_code == 0, result.output


def test_load_config_loads_the_world_and_selects_the_tasks(tmp_path):
    exp = load_config(write_config(tmp_path))
    assert exp.world.id == "minihouse-2-world"
    assert exp.tasks == [exp.world.tasks["minihouse-2"]]
    doc = config_doc()
    del doc["tasks"]
    exp = load_config(write_config(tmp_path, doc))
    assert exp.tasks == list(exp.world.tasks.values())


@pytest.mark.parametrize("command,out", [("validate", None), ("run", "--store-dir"),
                                         ("forge", "--out")])
def test_an_unknown_task_fails_at_load(runner, tmp_path, command, out):
    cfg = write_config(tmp_path, config_doc(tasks=["minihouse-2", "no-such-task"]))
    args = [command, "--config", str(cfg)]
    if out is not None:
        args += [out, str(tmp_path / "runs")]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "exp.yaml: task 'no-such-task' not found in world" in result.output
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("command,out", [("validate", None), ("run", "--store-dir"),
                                         ("forge", "--out")])
@pytest.mark.parametrize("key,values,shown", [
    ("seeds", [0, 1, 0], "0"),
    ("seeds", [-3, -3], "-3"),
    ("tasks", ["minihouse-2", "minihouse-2"], "'minihouse-2'"),
])
def test_a_value_listed_twice_fails_at_load(runner, tmp_path, command, out,
                                            key, values, shown):
    """A repeated seed or task would run one episode twice and count it
    twice in the aggregate, or write each of its groups twice."""
    cfg = write_config(tmp_path, config_doc(**{key: values}))
    args = [command, "--config", str(cfg)]
    if out is not None:
        args += [out, str(tmp_path / "runs")]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert f"exp.yaml: {key} holds {shown} twice" in result.output
    assert not (tmp_path / "runs").exists()


def test_run_rejects_a_seed_flag_given_twice(runner, tmp_path):
    cfg = write_config(tmp_path, config_doc(seeds=[0, 1, 2]))
    result = runner.invoke(main, ["run", "--config", str(cfg), "--seed", "1",
                                  "--seed", "2", "--seed", "1",
                                  "--store-dir", str(tmp_path / "runs")])
    assert result.exit_code == 2, result.output
    assert "--seed 1 is given twice" in result.output
    assert not (tmp_path / "runs").exists()
    # distinct flags replace the file's seeds
    result = runner.invoke(main, ["run", "--config", str(cfg), "--seed", "2",
                                  "--seed", "1", "--store-dir", str(tmp_path / "runs")])
    assert result.exit_code == 0, result.output
    store = next((tmp_path / "runs").iterdir())
    manifest = json.loads((store / "manifest.json").read_text())
    assert [e["seed"] for e in manifest["episodes"]] == [2, 1]


def test_run_rejects_a_parallelism_flag_below_one(runner, tmp_path):
    cfg = write_config(tmp_path)
    result = runner.invoke(main, ["run", "--config", str(cfg), "--parallelism", "-2",
                                  "--store-dir", str(tmp_path / "runs")])
    assert result.exit_code == 2, result.output
    assert "--parallelism" in result.output and "-2" in result.output
    assert not (tmp_path / "runs").exists()


def test_run_checks_the_thinker_before_creating_a_store(runner, tmp_path):
    # the file alone is valid: its react episodes need no thinker
    doc = config_doc()
    del doc["thinker"]
    doc["run"]["mode"] = "react"
    cfg = write_config(tmp_path, doc)
    result = runner.invoke(main, ["run", "--config", str(cfg), "--mode", "bestofn",
                                  "--store-dir", str(tmp_path / "runs")])
    assert result.exit_code != 0
    assert "thinker" in result.output and "inner_mode" in result.output
    assert not (tmp_path / "runs").exists()
    # ReAct episodes need no thinker
    doc["run"]["inner_mode"] = "react"
    cfg = write_config(tmp_path, doc)
    result = runner.invoke(main, ["run", "--config", str(cfg), "--mode", "bestofn",
                                  "--store-dir", str(tmp_path / "runs")])
    assert result.exit_code == 0, result.output


def test_run_flags_override_config(runner, tmp_path):
    cfg = write_config(tmp_path)
    result = runner.invoke(main, ["run", "--config", str(cfg),
                                  "--mode", "react", "--max-steps", "8",
                                  "--store-dir", str(tmp_path / "runs")])
    assert result.exit_code == 0, result.output
    store = next((tmp_path / "runs").iterdir())
    manifest = json.loads((store / "manifest.json").read_text())
    assert manifest["config"]["mode"] == "react"
    assert manifest["config"]["max_steps"] == 8


def test_run_help_documents_defaults(runner):
    result = runner.invoke(main, ["run", "--help"])
    assert result.exit_code == 0
    assert "default: 6" in result.output   # trigger interval
    assert "default: 50" in result.output  # step budget
    assert "default: 5" in result.output   # best-of-N samples


def test_forge_help_documents_defaults(runner):
    result = runner.invoke(main, ["forge", "--help"])
    assert result.exit_code == 0
    assert "x=5" in result.output
    assert "y=15" in result.output
    assert "0.05" in result.output


# --- metrics -----------------------------------------------------------------

def test_metrics_recomputes_from_transcripts(runner, tmp_path):
    store = run_store(runner, tmp_path)
    result = runner.invoke(main, ["metrics", str(store)])
    assert result.exit_code == 0, result.output
    assert "mean_action_diversity" in result.output
    # a wall time that does not round to 0, so the summary must read it
    (store / "timings.json").write_text('{"episodes": [1.235], "total_s": 1.235}')
    result = runner.invoke(main, ["metrics", str(store), "--jsonl"])
    summary = json.loads(result.output.strip())
    assert summary["count"] == 1
    assert summary["success_rate"] == 100.0
    assert summary["mean_wall_s"] == 1.24
    assert summary == stored_summary(store)


def test_metrics_on_a_store_aborted_before_the_first_step(runner, tmp_path,
                                                           monkeypatch):
    def explode(prompt, seed):
        raise RemoteError("backend gone", attempts=1)
    monkeypatch.setitem(SCRIPTED_POLICIES, "crash-actor", explode)
    world = load_builtin_world("minihouse1")
    store = tmp_path / "store"
    run_batch(world, [(world.tasks["minihouse-1"], 0)], RunConfig(mode="react"),
              scripted("actor", "crash-actor"), store_dir=store,
              world_file="minihouse1")
    assert (store / "transcripts.jsonl").read_text() == "[]\n"
    assert runner.invoke(main, ["replay", str(store)]).exit_code == 0
    result = runner.invoke(main, ["metrics", str(store), "--jsonl"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output) == stored_summary(store)


def test_metrics_rejects_a_k_below_one(runner, tmp_path):
    store = run_store(runner, tmp_path)
    result = runner.invoke(main, ["metrics", str(store), "--k", "0"])
    assert result.exit_code == 2, result.output
    assert "Invalid value for '--k'" in result.output
    assert "Traceback" not in result.output


def test_metrics_on_non_store_fails(runner, tmp_path):
    (tmp_path / "empty").mkdir()
    result = runner.invoke(main, ["metrics", str(tmp_path / "empty")])
    assert result.exit_code != 0
    assert "manifest.json" in result.output


@pytest.mark.parametrize("timings", ['{"episodes": [', '{"episodes": []}',
                                     '{"episodes": [1.0, 2.0]}', '[]'])
def test_metrics_rejects_timings_that_do_not_match_the_manifest(runner, tmp_path,
                                                                timings):
    store = run_store(runner, tmp_path)
    (store / "timings.json").write_text(timings, encoding="utf-8")
    result = runner.invoke(main, ["metrics", str(store)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert "timings.json" in result.output


@pytest.mark.parametrize("wall_s", ['"fast"', "true", "null", "Infinity", "NaN"])
def test_metrics_rejects_a_wall_time_that_is_not_a_finite_number(runner, tmp_path,
                                                                 wall_s):
    store = run_store(runner, tmp_path)
    path = store / "timings.json"
    path.write_text(f'{{"episodes": [{wall_s}], "total_s": 1.0}}', encoding="utf-8")
    result = runner.invoke(main, ["metrics", str(store)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert f"error: {path}: episode 0: wall_s must be" in result.output


def test_metrics_corrupt_transcript_names_file_and_line(runner, tmp_path):
    store = run_store(runner, tmp_path, config_doc(seeds=[0, 1, 2]))
    transcript = store / "transcripts.jsonl"
    lines = transcript.read_text().splitlines()
    lines[2] = "{broken"
    transcript.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = runner.invoke(main, ["metrics", str(store)])
    assert result.exit_code != 0
    assert f"{transcript.name}:3" in result.output


# --- replay ------------------------------------------------------------------

def test_replay_pass_on_untouched_store(runner, tmp_path):
    store = run_store(runner, tmp_path)
    result = runner.invoke(main, ["replay", str(store)])
    assert result.exit_code == 0, result.output
    assert "replay PASS" in result.output


def test_replay_fails_on_tampered_score(runner, tmp_path):
    store = run_store(runner, tmp_path)
    tamper_record(store, 0, 4, lambda record: {**record, "score": 99.99})
    result = runner.invoke(main, ["replay", str(store)])
    assert result.exit_code != 0
    assert "FAIL" in result.output
    assert "step 5" in result.output
    assert "99.99" in result.output


def test_replay_fails_on_tampered_action(runner, tmp_path):
    store = run_store(runner, tmp_path)
    # step 7 is the first accepted action; replacing it with a rejected verb
    # changes the replayed observation
    tamper_record(store, 0, 6, lambda record: {**record, "action": "dance"})
    result = runner.invoke(main, ["replay", str(store)])
    assert result.exit_code != 0
    assert "step 7" in result.output


def test_replay_missing_transcript_names_the_file(runner, tmp_path):
    store = run_store(runner, tmp_path)
    transcript = store / "transcripts.jsonl"
    transcript.unlink()
    result = runner.invoke(main, ["replay", str(store)])
    assert result.exit_code != 0
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert transcript.name in result.output


@pytest.mark.parametrize("command", ["metrics", "replay"])
@pytest.mark.parametrize("damage", ["missing", "short", "not-a-list"])
def test_a_transcripts_file_without_a_list_per_episode_names_the_file(
        runner, tmp_path, command, damage):
    store = run_store(runner, tmp_path, config_doc(seeds=[0, 1]))
    path = store / "transcripts.jsonl"
    lines = path.read_text().splitlines()
    if damage == "missing":
        path.unlink()
        named = f"{store}: transcripts.jsonl is missing"
    elif damage == "short":
        path.write_text(lines[0] + "\n")
        named = f"{path}: 1 episode transcripts, the manifest lists 2 episodes"
    else:
        path.write_text(lines[0] + "\n" + json.dumps(json.loads(lines[1])[0]) + "\n")
        named = f"{path}:2: episode 1 is not a list of records"
    result = runner.invoke(main, [command, str(store)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert f"error: {named}" in result.output


def test_replay_and_metrics_name_each_episode_by_index_task_and_seed(runner,
                                                                    tmp_path):
    store = run_store(runner, tmp_path, config_doc(seeds=[0, 3]))
    result = runner.invoke(main, ["replay", str(store)])
    assert result.output.splitlines() == [
        "PASS episode 0 (minihouse-2 s0)", "PASS episode 1 (minihouse-2 s3)",
        "replay PASS"]
    result = runner.invoke(main, ["metrics", str(store)])
    assert result.exit_code == 0, result.output
    labels = [line.split(": ")[0] for line in result.output.splitlines()[:2]]
    assert labels == ["episode 0 (minihouse-2 s0)", "episode 1 (minihouse-2 s3)"]


@pytest.mark.parametrize("mode", ["react", "ttexplore", "reflexion", "bestofn"])
def test_a_run_store_holds_three_files(runner, tmp_path, mode):
    store = run_store(runner, tmp_path, config_doc(
        seeds=[0, 1], run={"mode": mode, "max_steps": 20, "samples_N": 2,
                           "retries_N": 2}))
    assert sorted(p.name for p in store.iterdir()) == [
        "manifest.json", "timings.json", "transcripts.jsonl"]
    manifest = json.loads((store / "manifest.json").read_text())
    transcripts = (store / "transcripts.jsonl").read_text().splitlines()
    assert len(transcripts) == len(manifest["episodes"]) == 2
    for entry, line in zip(manifest["episodes"], transcripts):
        assert len(json.loads(line)) == entry["steps_used"]


def test_a_failed_rerun_into_a_used_store_leaves_no_manifest(runner, tmp_path,
                                                             monkeypatch):
    # a rerun whose episode 0 differs from the first run's, then fails
    def fails_on_seed_1(prompt, seed):
        if seed == 1:
            raise KeyError("seed 1")
        return format_actor_tags("wait", "look around")
    monkeypatch.setitem(SCRIPTED_POLICIES, "seed-1-bug-actor", fails_on_seed_1)
    world = load_builtin_world("minihouse1")
    items = [(world.tasks["minihouse-1"], seed) for seed in (0, 1)]
    store = tmp_path / "store"
    run_batch(world, items, RunConfig(mode="react"),
              scripted("actor", "oracle-actor"), store_dir=store,
              world_file="minihouse1")
    assert "replay PASS" in runner.invoke(main, ["replay", str(store)]).output
    with pytest.raises(KeyError):
        run_batch(world, items, RunConfig(mode="react"),
                  scripted("actor", "seed-1-bug-actor"), store_dir=store,
                  world_file="minihouse1")
    for command in ("replay", "metrics"):
        result = runner.invoke(main, [command, str(store)])
        assert result.exit_code == 2
        assert f"error: {store}: not a run store (no manifest.json)" in result.output


def test_run_exits_2_naming_a_store_file_it_cannot_write(runner, tmp_path,
                                                         monkeypatch):
    def full_disk(path, records):
        raise OSError(28, "No space left on device")
    monkeypatch.setattr(orchestrator, "write_jsonl", full_disk)
    result = runner.invoke(main, ["run", "--config", str(write_config(tmp_path)),
                                  "--store-dir", str(tmp_path / "runs")])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback
    store = next((tmp_path / "runs").iterdir())
    assert result.output.startswith(
        f"error: {store / 'transcripts.jsonl'}: cannot write the run store: ")
    assert "No space left on device" in result.output
    assert list(store.iterdir()) == []


@pytest.mark.parametrize("command", ["metrics", "replay"])
def test_corrupt_manifest_names_the_file(runner, tmp_path, command):
    store = run_store(runner, tmp_path)
    (store / "manifest.json").write_text('{"episodes": [', encoding="utf-8")
    result = runner.invoke(main, [command, str(store)])
    assert result.exit_code != 0
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert "manifest.json" in result.output


@pytest.mark.parametrize("command, name", [
    ("metrics", "manifest.json"), ("replay", "manifest.json"),
    ("metrics", "transcripts.jsonl"), ("replay", "transcripts.jsonl"),
    # replay does not read the wall times
    ("metrics", "timings.json")])
@pytest.mark.parametrize("damage", ["non-utf8", "directory"])
def test_unreadable_store_file_names_the_file(runner, tmp_path, command, name,
                                              damage):
    store = run_store(runner, tmp_path)
    path = store / name
    if damage == "non-utf8":
        path.write_bytes(b"\xff\xfe{")
    else:
        path.unlink()
        path.mkdir()
    result = runner.invoke(main, [command, str(store)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.output.startswith(f"error: {path}: ")


@pytest.mark.parametrize("command", ["metrics", "replay"])
@pytest.mark.parametrize("shape", ["list", "episodes-mapping",
                                   "episode-number"])
def test_misshapen_manifest_names_the_file(runner, tmp_path, command, shape):
    store = run_store(runner, tmp_path)
    path = store / "manifest.json"
    manifest = json.loads(path.read_text())
    entry = manifest["episodes"][0]
    if shape == "list":
        manifest = []
    elif shape == "episodes-mapping":
        manifest["episodes"] = {"0": entry}
    else:
        manifest["episodes"].append(1)
    path.write_text(json.dumps(manifest))
    result = runner.invoke(main, [command, str(store)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert f"error: {path}: " in result.output


@pytest.mark.parametrize("command", ["metrics", "replay"])
@pytest.mark.parametrize("episodes", [[], None], ids=["empty", "missing"])
def test_a_manifest_with_no_episodes_names_the_file(runner, tmp_path, command,
                                                    episodes):
    # episodes None: the manifest has no episodes key
    store = run_store(runner, tmp_path)
    path = store / "manifest.json"
    manifest = json.loads(path.read_text())
    if episodes is None:
        del manifest["episodes"]
    else:
        manifest["episodes"] = episodes
    path.write_text(json.dumps(manifest))
    result = runner.invoke(main, [command, str(store)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert f"error: {path}: the manifest lists no episodes" in result.output
    assert "replay PASS" not in result.output


@pytest.mark.parametrize("command", ["metrics", "replay"])
@pytest.mark.parametrize("where,key", [
    *[("manifest", key) for key in ("task_id", "seed", "success", "process_score",
                                    "steps_used", "initial_observation")],
    *[("transcript", key) for key in ("step", "action", "observation", "score",
                                      "done", None)],
])
def test_a_missing_store_key_names_the_file(runner, tmp_path, command, where,
                                            key):
    # key None: the transcript line is not a mapping at all
    store = run_store(runner, tmp_path)
    path = store / "manifest.json"
    manifest = json.loads(path.read_text())
    if where == "manifest":
        del manifest["episodes"][0][key]
        path.write_text(json.dumps(manifest))
        named = f"{path}: episode 0 has no '{key}'"
    else:
        tamper_record(store, 0, 1, lambda record: [] if key is None else
                      {k: v for k, v in record.items() if k != key})
        named = f"{store / 'transcripts.jsonl'}:1: episode 0 record 2 " + \
            ("is not a mapping" if key is None else f"has no '{key}'")
    result = runner.invoke(main, [command, str(store)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert f"error: {named}" in result.output


@pytest.mark.parametrize("command", ["metrics", "replay"])
@pytest.mark.parametrize("where,key,value", [
    ("manifest", "process_score", "high"),
    ("manifest", "process_score", float("inf")),
    ("manifest", "success", 1),
    ("manifest", "seed", 0.5),
    ("manifest", "steps_used", 12.0),
    ("manifest", "initial_observation", None),
    ("transcript", "score", "33.33"),
    ("transcript", "score", float("nan")),
    ("transcript", "action", None),
    ("transcript", "done", "false"),
])
def test_a_store_value_of_the_wrong_type_names_the_file_and_key(
        runner, tmp_path, command, where, key, value):
    store = run_store(runner, tmp_path)
    path = store / "manifest.json"
    manifest = json.loads(path.read_text())
    if where == "manifest":
        manifest["episodes"][0][key] = value
        path.write_text(json.dumps(manifest))
        named = f"{path}: episode 0: {key} must be"
    else:
        tamper_record(store, 0, 1, lambda record: {**record, key: value})
        named = f"{store / 'transcripts.jsonl'}:1: episode 0 record 2: {key} must be"
    result = runner.invoke(main, [command, str(store)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert f"error: {named}" in result.output


def test_replay_fails_on_a_tampered_manifest_outcome(runner, tmp_path):
    store = run_store(runner, tmp_path)
    path = store / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["episodes"][0]["process_score"] = 66.67
    path.write_text(json.dumps(manifest))
    result = runner.invoke(main, ["replay", str(store)])
    assert result.exit_code != 0
    assert "manifest outcome mismatch" in result.output


def edit_episode(store, edit, episode=0):
    """Apply `edit` to a manifest episode of the store in place."""
    path = store / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest["episodes"][episode])
    path.write_text(json.dumps(manifest))


@pytest.mark.parametrize("edit,named", [
    (lambda e: e.update(steps_used=3),
     "steps_used 3 but the transcript holds 12 records"),
    (lambda e: e.update(initial_observation="You are on the moon."),
     "initial observation mismatch, stored 'You are on the moon.'"),
    (lambda e: e["thoughts"].append({"anchor_step": 999, "text": "late"}),
     "thought anchors [6, 999] are not non-decreasing integers in [0, 12]"),
    (lambda e: e["thoughts"].append({"anchor_step": 3, "text": "early"}),
     "thought anchors [6, 3] are not non-decreasing integers in [0, 12]"),
    (lambda e: e["thoughts"][0].update(anchor_step=-1),
     "thought anchors [-1] are not non-decreasing integers in [0, 12]"),
    (lambda e: e["thoughts"][0].update(anchor_step="6"),
     "thought anchors ['6'] are not non-decreasing integers in [0, 12]"),
    (lambda e: e.update(mode="react"),
     'mode mismatch, stored "react", replay derives "ttexplore"'),
    (lambda e: e.update(error="RemoteError: made up"),
     "error 'RemoteError: made up' on an episode whose last step completed "
     "the task"),
    (lambda e: e["metrics"].update(action_diversity=0.123),
     "metrics.action_diversity mismatch, stored 0.123, replay derives "),
], ids=["steps-used", "initial-observation", "anchor-past-the-end",
        "anchors-decreasing", "anchor-negative", "anchor-not-an-int", "mode",
        "error-on-a-completed-episode", "metrics"])
def test_replay_fails_on_a_manifest_that_contradicts_its_transcript(
        runner, tmp_path, edit, named):
    """The manifest's step count, initial observation, thought anchors,
    mode, error and metrics must agree with the transcript, the world and
    the config, not only its outcome."""
    store = run_store(runner, tmp_path)
    manifest = json.loads((store / "manifest.json").read_text())
    entry = manifest["episodes"][0]
    assert (entry["steps_used"], [t["anchor_step"] for t in entry["thoughts"]]) \
        == (12, [6])
    edit_episode(store, edit)
    result = runner.invoke(main, ["replay", str(store)])
    assert result.exit_code == 1
    assert f"FAIL episode 0 (minihouse-2 s0): {named}" in result.output
    assert "replay PASS" not in result.output


def test_replay_fails_on_an_aggregate_that_its_transcripts_do_not_give(
        runner, tmp_path):
    store = run_store(runner, tmp_path)
    path = store / "manifest.json"
    manifest = json.loads(path.read_text())
    assert manifest["aggregate"]["count"] == 1
    manifest["aggregate"]["count"] = 42
    path.write_text(json.dumps(manifest))
    result = runner.invoke(main, ["replay", str(store)])
    assert result.exit_code == 1
    assert "PASS episode 0 (minihouse-2 s0)" in result.output
    assert "FAIL aggregate.count mismatch, stored 42, replay derives 1" \
        in result.output
    assert "replay PASS" not in result.output


def test_replay_rejects_a_manifest_whose_config_has_no_mode(runner, tmp_path):
    store = run_store(runner, tmp_path)
    path = store / "manifest.json"
    manifest = json.loads(path.read_text())
    del manifest["config"]["mode"]
    path.write_text(json.dumps(manifest))
    result = runner.invoke(main, ["replay", str(store)])
    assert result.exit_code == 2
    assert f"error: {path}: config has no mode" in result.output


@pytest.mark.parametrize("mode", ["ttexplore", "react", "reflexion", "bestofn"])
def test_replay_passes_every_mode_over_the_budget(runner, tmp_path, mode):
    """Stores of every mode pass, with truncated prompts too; a reflexion
    episode is its best attempt and a bestofn one its chosen sample."""
    doc = config_doc(seeds=[0, 1, 2])
    doc["run"] = {"mode": mode, "n_trigger": 3, "max_steps": 20,
                  "char_budget": 1500, "retries_N": 2, "samples_N": 3}
    store = run_store(runner, tmp_path, doc)
    result = runner.invoke(main, ["replay", str(store)])
    assert result.exit_code == 0, result.output
    assert "replay PASS" in result.output


# --- forge -------------------------------------------------------------------

def test_forge_produces_exports(runner, tmp_path):
    doc = config_doc()
    doc["actor"] = {"backend": "scripted", "name": "obedient-actor"}
    doc["thinker"] = {"backend": "scripted", "name": "noisy-thinker"}
    cfg = write_config(tmp_path, doc)
    result = runner.invoke(main, ["forge", "--config", str(cfg),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    out = next((tmp_path / "out").iterdir())
    assert (out / "grpo.jsonl").exists()
    # the strong policy's ReAct runs have no thoughts to export as SFT pairs
    assert not (out / "sft.jsonl").exists()
    manifest = json.loads((out / "forge_manifest.json").read_text())
    assert manifest["groups"] == 2
    assert manifest["difficulty_counts"] == {"easy": 1, "medium": 1, "hard": 1}


@pytest.mark.parametrize("role", ["strong", "thinker"])
def test_forge_exits_1_naming_a_failed_backend(runner, tmp_path, stub, role):
    # the strong run records its failure, the thinker raises it
    stub.statuses = [500]
    doc = config_doc()
    doc[role] = {**REMOTE, "endpoint": stub.handle().backend.endpoint,
                 "max_retries": 0}
    out = tmp_path / "out"
    result = runner.invoke(main, ["forge", "--config",
                                  str(write_config(tmp_path, doc)),
                                  "--out", str(out)])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    [line] = [l for l in result.output.splitlines() if l.startswith("error: ")]
    assert line.startswith("error: minihouse-2 seed 0: RemoteError: ")
    assert "500" in line
    assert not out.exists()  # nothing written for a failed forge


@pytest.mark.parametrize("module,writer,failing,kept", [
    (pipeline, "write_jsonl", "grpo.jsonl", []),
    (cli, "write_json_atomic", "forge_manifest.json", ["grpo.jsonl"]),
], ids=["grpo", "manifest"])
def test_forge_exits_2_naming_an_export_file_it_cannot_write(
        runner, tmp_path, monkeypatch, module, writer, failing, kept):
    def full_disk(path, records):
        raise OSError(28, "No space left on device")
    monkeypatch.setattr(module, writer, full_disk)
    result = runner.invoke(main, ["forge", "--config", str(write_config(tmp_path)),
                                  "--out", str(tmp_path / "out")])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)  # no traceback
    out = next((tmp_path / "out").iterdir())
    assert result.output.startswith(
        f"error: {out / failing}: cannot write the run store: ")
    assert "No space left on device" in result.output
    # the manifest is written last, so a failed export leaves none
    assert sorted(p.name for p in out.iterdir()) == kept


def test_forge_requires_all_policies(runner, tmp_path):
    doc = config_doc()
    del doc["weak"]
    cfg = write_config(tmp_path, doc)
    result = runner.invoke(main, ["forge", "--config", str(cfg)])
    assert result.exit_code != 0
    assert "weak" in result.output


# --- validate ----------------------------------------------------------------

def test_validate_config_and_world(runner, tmp_path):
    cfg = write_config(tmp_path)
    from ttexplore.world import builtin_world_path
    result = runner.invoke(main, [
        "validate", "--config", str(cfg),
        "--world", str(builtin_world_path("keymaze1"))])
    assert result.exit_code == 0, result.output
    assert "config ok" in result.output
    assert "world ok" in result.output


def test_validate_unknown_task_selector(runner, tmp_path):
    doc = config_doc(tasks=["no-such-task"])
    cfg = write_config(tmp_path, doc)
    result = runner.invoke(main, ["validate", "--config", str(cfg)])
    assert result.exit_code != 0
    assert "no-such-task" in result.output


def test_validate_needs_an_argument(runner):
    result = runner.invoke(main, ["validate"])
    assert result.exit_code != 0


def test_validate_broken_world_file(runner, tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump({"id": "w"}), encoding="utf-8")
    result = runner.invoke(main, ["validate", "--world", str(bad)])
    assert result.exit_code != 0
    assert "rooms" in result.output


def test_type_check_names_the_first_wrong_value_whatever_the_hash_seed():
    # one process has one string-hash seed, so the check runs in several
    code = ("from ttexplore.config import ConfigValidationError, _check_types\n"
            "try:\n"
            "    _check_types({'c': 1, 'b': 2, 'a': 3},"
            " {'a': str, 'b': str, 'c': str}, 'where')\n"
            "except ConfigValidationError as exc:\n"
            "    print(exc)\n")
    src = Path(cli.__file__).parents[1]
    for hash_seed in range(6):
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": str(src),
                             "PYTHONHASHSEED": str(hash_seed)}).stdout
        assert out == "where: a must be of type str, got 3\n"


def test_scripted_policy_rejects_decode_settings(runner, tmp_path):
    doc = config_doc(actor={"backend": "scripted", "name": "greedy-actor",
                            "temperature": 0.9})
    result = runner.invoke(main, ["validate", "--config",
                                  str(write_config(tmp_path, doc))])
    assert result.exit_code == 2
    assert "temperature" in result.output
    assert "config ok" not in result.output


def _world_yaml(edit):
    doc = yaml.safe_load(builtin_world_path("minihouse1").read_text(
        encoding="utf-8"))
    edit(doc)
    return yaml.safe_dump(doc)


def _config_yaml(**overrides):
    return yaml.safe_dump(config_doc(**overrides))


REMOTE = {"backend": "remote", "model": "m",
          "endpoint": "http://127.0.0.1:9/v1/chat/completions"}


@pytest.mark.parametrize("option,text,named", [
    ("--world", None, []),  # no such file
    ("--world", "", ["mapping"]),
    ("--world", _world_yaml(lambda d: d["entities"]["apple 1"].pop("kind")),
     ["apple 1", "'kind'"]),
    ("--world", _world_yaml(lambda d: d["rules"][1].pop("guard")),
     ["closed-blocks-access", "'guard'"]),
    ("--world", _world_yaml(lambda d: d["tasks"][0].pop("instruction")),
     ["minihouse-1", "'instruction'"]),
    ("--world", _world_yaml(lambda d: d["tasks"][0]["subgoals"].append("x")),
     ["minihouse-1", "subgoal 3"]),
    ("--world", _world_yaml(lambda d: d["tasks"][0].update(max_steps="many")),
     ["minihouse-1", "max_steps"]),
    ("--world", "id: [unclosed\n", []),
    ("--config", "world: minihouse1\nactor: {backend: scripted\n", []),
    ("--config", _config_yaml(world=["minihouse1"]), ["world"]),
    ("--config", _config_yaml(run=[1, 2]), ["run", "mapping"]),
    ("--config", _config_yaml(run={"n_trigger": "six"}), ["n_trigger", "int"]),
    ("--config", _config_yaml(run={"max_steps": True}), ["max_steps", "int"]),
    ("--config", _config_yaml(pipeline={"x": "5"}), ["pipeline", "x", "int"]),
    ("--config", _config_yaml(pipeline={"penalty_rate": "0.1"}),
     ["penalty_rate", "float"]),
    # a false first condition once hid the second from the load-time score
    ("--world", _world_yaml(lambda d: d["tasks"][0]["subgoals"][0]["all"]
                            .append({"kind": "on_top"})),
     ["minihouse-1", "subgoal 0", "on_top"]),
    ("--world", _world_yaml(lambda d: d["tasks"][0]["subgoals"][2]["all"][0]
                            .pop("container")),
     ["minihouse-1", "subgoal 2", "located", "'container'"]),
    ("--config", _config_yaml(seeds=["a"]), ["seeds", "int"]),
    ("--config", _config_yaml(parallelism="two"), ["parallelism", "int"]),
    ("--config", _config_yaml(actor={**REMOTE, "max_retries": "a"}),
     ["actor", "max_retries", "int"]),
    ("--config", _config_yaml(tasks="minihouse-2"), ["tasks", "list"]),
    ("--config", _config_yaml(store_dir=5), ["store_dir", "str"]),
    ("--config", _config_yaml(seeds=[]), ["seeds", "non-empty"]),
    ("--config", _config_yaml(tasks=[]), ["tasks", "non-empty"]),
    ("--config", _config_yaml(seeds=3), ["seeds", "list"]),
    ("--config", _config_yaml(actor={**REMOTE, "timeout_s": "60"}),
     ["actor", "timeout_s", "float"]),
    ("--config", _config_yaml(run={"seed": 3}), ["run", "seed"]),
    ("--config", _config_yaml(pipeline={"sample_retry_budget": 3}),
     ["pipeline", "sample_retry_budget"]),
    ("--config", _config_yaml(actor={"backend": "scripted", "name": "grredy-actor"}),
     ["bad.yaml:actor", "grredy-actor", *SCRIPTED_POLICIES]),
    ("--config", _config_yaml(actor={**REMOTE, "endpoint": "localhost:8000/v1"}),
     ["bad.yaml:actor", "endpoint", "localhost:8000"]),
    ("--config", _config_yaml(run={"mode": "warp"}), ["bad.yaml:run", "warp"]),
    ("--config", _config_yaml(pipeline={"x": 15}), ["bad.yaml:pipeline", "0 < x < y"]),
    ("--config", _config_yaml(parallelism=-2), ["parallelism", ">= 1", "-2"]),
    ("--config", _config_yaml(parallelism=0), ["parallelism", ">= 1", "0"]),
    ("--config", _config_yaml(thinker=None),
     ["bad.yaml:run", "'ttexplore'", "thinker"]),
    ("--config", _config_yaml(actor={"backend": "scripted", "name": "oracle-thinker"}),
     ["bad.yaml:actor", "oracle-thinker", "'thinker'", "'actor'"]),
    ("--config", _config_yaml(thinker={"backend": "scripted", "name": "greedy-actor"}),
     ["bad.yaml:thinker", "greedy-actor", "'actor'", "'thinker'"]),
    ("--config", _config_yaml(strong={"backend": "scripted", "name": "null-thinker"}),
     ["bad.yaml:strong", "null-thinker", "'thinker'", "'actor'"]),
    ("--config", _config_yaml(run={"mode": "reflexion", "retries_N": 0}),
     ["bad.yaml:run", "retries_N must be positive, got 0"]),
    ("--config", _config_yaml(run={"mode": "bestofn", "samples_N": 0}),
     ["bad.yaml:run", "samples_N must be positive, got 0"]),
    ("--config", _config_yaml(run={"char_budget": 0}),
     ["bad.yaml:run", "char_budget must be positive, got 0"]),
    ("--config", _config_yaml(actor={**REMOTE, "max_retries": -1}),
     ["bad.yaml:actor", "max_retries must be >= 0, got -1"]),
    ("--config", _config_yaml(actor={**REMOTE, "timeout_s": 0}),
     ["bad.yaml:actor", "timeout_s must be positive and finite, got 0"]),
    ("--config", _config_yaml(actor={**REMOTE, "timeout_s": float("inf")}),
     ["bad.yaml:actor", "timeout_s", "inf"]),
    ("--config", _config_yaml(actor={**REMOTE, "max_output_tokens": 0}),
     ["bad.yaml:actor", "max_output_tokens must be >= 1, got 0"]),
    ("--config", _config_yaml(actor={**REMOTE, "temperature": float("nan")}),
     ["bad.yaml:actor", "temperature must be >= 0 and finite, got nan"]),
    ("--config", _config_yaml(actor={**REMOTE, "temperature": -0.5}),
     ["bad.yaml:actor", "temperature must be >= 0 and finite, got -0.5"]),
    ("--world", _world_yaml(lambda d: d["rules"].append(
        {"id": "must-face-target", "guard": "locked-needs-key"})),
     ["rule 'must-face-target': id is already in use"]),
    ("--config", _config_yaml(pipeline={"reward_mode": "step_penalty",
                                        "penalty_rate": float("nan")}),
     ["bad.yaml:pipeline", "penalty_rate must be >= 0 and finite, got nan"]),
    ("--config", _config_yaml(pipeline={"penalty_rate": float("inf")}),
     ["bad.yaml:pipeline", "penalty_rate must be >= 0 and finite, got inf"]),
], ids=["missing-world", "empty-world", "entity-without-kind",
        "rule-without-guard", "task-without-instruction", "subgoal-not-a-mapping",
        "task-max-steps-not-an-int", "world-yaml-syntax", "config-yaml-syntax",
        "config-world-list", "run-list", "run-str-for-int", "run-bool-for-int",
        "pipeline-str-for-int", "pipeline-str-for-float",
        "condition-unknown-kind", "condition-missing-key", "seeds-str-item",
        "parallelism-str", "remote-max-retries-str", "tasks-str",
        "store-dir-int", "seeds-empty", "tasks-empty", "seeds-scalar",
        "remote-timeout-str", "run-seed", "pipeline-sample-retry-budget",
        "scripted-name-misspelled", "remote-endpoint-without-scheme",
        "run-unknown-mode", "pipeline-x-not-below-y",
        "parallelism-negative", "parallelism-zero", "ttexplore-without-thinker",
        "thinker-in-actor-slot", "actor-in-thinker-slot", "thinker-in-strong-slot",
        "run-retries-zero", "run-samples-zero", "run-char-budget-zero",
        "remote-max-retries-negative", "remote-timeout-zero",
        "remote-timeout-infinite", "remote-max-output-tokens-zero",
        "remote-temperature-nan", "remote-temperature-negative",
        "rule-id-twice", "pipeline-penalty-rate-nan",
        "pipeline-penalty-rate-infinite"])
def test_validate_malformed_input_fails_naming_the_file_and_key(
        runner, tmp_path, option, text, named):
    path = tmp_path / "bad.yaml"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    result = runner.invoke(main, ["validate", option, str(path)])
    assert result.exit_code == 2, result.output
    assert result.output.startswith("error: ")
    for word in ["bad.yaml", *named]:
        assert word in result.output


@pytest.mark.parametrize("edit,named", [
    ({"run": {"mode": "reflexion", "retries_N": 0}}, "exp.yaml:run: retries_N"),
    ({"run": {"mode": "bestofn", "samples_N": 0}}, "exp.yaml:run: samples_N"),
    ({"run": {"char_budget": 0}}, "exp.yaml:run: char_budget"),
    ({"actor": {**REMOTE, "max_retries": -1}}, "exp.yaml:actor: max_retries"),
], ids=["retries-zero", "samples-zero", "char-budget-zero",
        "remote-max-retries-negative"])
def test_run_rejects_a_value_that_cannot_run_before_creating_a_store(
        runner, tmp_path, edit, named):
    cfg = write_config(tmp_path, config_doc(**edit))
    result = runner.invoke(main, ["run", "--config", str(cfg),
                                  "--store-dir", str(tmp_path / "runs")])
    assert result.exit_code == 2, result.output
    assert named in result.output
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("role,need", [("thinker", 1146), ("actor", 877)])
def test_validate_rejects_a_budget_that_no_prompt_can_meet(runner, tmp_path,
                                                          role, need):
    """minihouse-2's prompts with no history are 877 characters for the
    actor and 1,146 for the thinker; the largest that the config's policies
    render is the least budget it accepts."""
    doc = config_doc()
    if role == "actor":  # a ReAct config with no thinker
        doc.update(thinker=None, run={"mode": "react", "max_steps": 50})
    for budget, code in ((need, 0), (need - 1, 2)):
        doc["run"] = {**doc["run"], "char_budget": budget}
        result = runner.invoke(main, ["validate", "--config",
                                      str(write_config(tmp_path, doc))])
        assert result.exit_code == code, result.output
    assert (f"exp.yaml:run: char_budget must be at least {need}, the length "
            f"of the {role} prompt of task 'minihouse-2' with no history, "
            f"got {need - 1}") in result.output


def test_remote_policy_loads_from_a_config_file(tmp_path):
    doc = config_doc(actor=REMOTE, thinker={
        **REMOTE, "model": "t", "api_key_env": "OTHER_KEY", "max_retries": 0,
        "timeout_s": 5, "temperature": 0.7, "max_output_tokens": 64})
    exp = load_config(write_config(tmp_path, doc))
    # only endpoint and model given: every other value is the dataclass default
    assert exp.actor == PolicyHandle(
        role="actor", backend=RemoteBackend(REMOTE["endpoint"], "m"))
    assert exp.thinker.backend == RemoteBackend(
        REMOTE["endpoint"], "t", api_key_env="OTHER_KEY", max_retries=0,
        timeout_s=5.0, temperature=0.7, max_output_tokens=64)


def test_run_exits_1_naming_the_aborted_episodes(runner, tmp_path, stub):
    stub.statuses = [500]
    actor = {**REMOTE, "endpoint": stub.handle().backend.endpoint,
             "max_retries": 0}
    doc = config_doc(actor=actor, run={"mode": "react", "max_steps": 5})
    result = runner.invoke(main, ["run", "--config",
                                  str(write_config(tmp_path, doc)),
                                  "--store-dir", str(tmp_path / "runs")])
    assert result.exit_code == 1, result.output
    assert stub.requests == 1  # max_retries: 0 sends one request
    assert "1 episode(s) aborted" in result.output
    assert "minihouse-2 seed 0: RemoteError" in result.output
    store = next((tmp_path / "runs").iterdir())
    [entry] = json.loads((store / "manifest.json").read_text())["episodes"]
    assert entry["error"].startswith("RemoteError: ")
    assert entry["steps_used"] == 0
