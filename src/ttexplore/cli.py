"""Command-line interface.

Subcommands: run (batch episodes into a fresh run store), metrics
(recompute summary statistics from a store's `transcripts.jsonl`), replay
(verify a stored run against the world), forge (build thinker training
data), and validate (check configs and world files without running
anything).
"""

from __future__ import annotations

import datetime as _dt
import json
import math
import sys
from pathlib import Path

import click

from . import __version__
from .config import (
    ConfigValidationError,
    ExperimentConfig,
    _check_types,
    load_config,
    resolve_world_path,
)
from .metrics import DEFAULT_K, aggregate, episode_metrics
from .orchestrator import (
    MODES,
    RunStoreError,
    _persist,
    read_transcript,
    repeated,
    run_batch,
    write_json_atomic,
)
from .pipeline import BackendFailure, export_grpo, forge
from .world import TextWorld, WorldValidationError, load_world


def _fail(message: str, code: int = 2) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _fresh_store(root: Path, label: str | None) -> Path:
    """A new, never-existing subdirectory of the store root. Existing stores
    are never reused or overwritten; the create itself refuses an existing
    directory, so there is no window between a check and the create."""
    stamp = _dt.datetime.now(_dt.timezone.utc).strftime("%Y%m%dT%H%M%S")
    base = f"{stamp}-{label}" if label else stamp
    candidate = root / base
    suffix = 0
    while True:
        try:
            candidate.mkdir(parents=True, exist_ok=False)
            return candidate
        except FileExistsError:
            suffix += 1
            candidate = root / f"{base}-{suffix}"
        except OSError as exc:
            _fail(f"{candidate}: cannot create the directory: {exc}")


# the keys of a manifest episode and of a transcript record that `metrics`
# and `replay` read, with the types `run_batch` writes
_EPISODE_TYPES = {"task_id": str, "seed": int, "success": bool,
                  "process_score": float, "steps_used": int,
                  "initial_observation": str}
_RECORD_TYPES = {"step": int, "action": str, "observation": str,
                 "score": float, "done": bool}


def _check_entry(entry: dict, types: dict, where: str) -> None:
    """`entry` has every key of `types`, each value of its key's type; a
    float is finite, since the summary means cannot round anything else."""
    for key in types:
        if key not in entry:
            _fail(f"{where} has no {key!r}")
    try:
        _check_types(entry, types, where)
    except ConfigValidationError as exc:
        _fail(str(exc))
    for key, want in types.items():
        if want is float and not math.isfinite(entry[key]):
            _fail(f"{where}: {key} must be finite, got {entry[key]!r}")


def _read_store(store: Path) -> tuple[dict, list[list[dict]]]:
    """A run store's manifest and the step records of each episode; a
    missing or corrupt store file, one without a key that `metrics` or
    `replay` reads or with a value of the wrong type, a manifest that lists
    no episodes, or a `transcripts.jsonl` without one list of records per
    manifest episode, fails naming the file."""
    manifest_path = store / "manifest.json"
    if not manifest_path.exists():
        _fail(f"{store}: not a run store (no manifest.json)")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, UnicodeError, json.JSONDecodeError) as exc:
        _fail(f"{manifest_path}: corrupt manifest: {exc}")
    if not isinstance(manifest, dict):
        _fail(f"{manifest_path}: the manifest is not a mapping")
    episodes = manifest.get("episodes", [])
    if not (isinstance(episodes, list)
            and all(isinstance(e, dict) for e in episodes)):
        _fail(f"{manifest_path}: episodes is not a list of mappings")
    if not episodes:
        _fail(f"{manifest_path}: the manifest lists no episodes")
    for i, entry in enumerate(episodes):
        _check_entry(entry, _EPISODE_TYPES, f"{manifest_path}: episode {i}")
    path = store / "transcripts.jsonl"
    if not path.exists():
        _fail(f"{store}: transcripts.jsonl is missing")
    try:
        transcripts = read_transcript(path)
    except RunStoreError as exc:
        _fail(str(exc))
    if len(transcripts) != len(episodes):
        _fail(f"{path}: {len(transcripts)} episode transcripts, the manifest "
              f"lists {len(episodes)} episodes")
    for i, records in enumerate(transcripts):
        where = f"{path}:{i + 1}: episode {i}"
        if not isinstance(records, list):
            _fail(f"{where} is not a list of records")
        for j, record in enumerate(records, 1):
            if not isinstance(record, dict):
                _fail(f"{where} record {j} is not a mapping")
            _check_entry(record, _RECORD_TYPES, f"{where} record {j}")
    return manifest, transcripts


def _label(index: int, entry: dict) -> str:
    return f"episode {index} ({entry['task_id']} s{entry['seed']})"


def _load_experiment(config_path: str,
                     run_flags: dict | None = None) -> ExperimentConfig:
    try:
        return load_config(config_path, run_flags)
    except (ConfigValidationError, WorldValidationError, ValueError) as exc:
        _fail(str(exc))
    raise AssertionError("unreachable")


@click.group()
@click.version_option(__version__)
def main() -> None:
    """Test-time exploration over text worlds: episode runners, exploration
    metrics, and the thinker training-data pipeline."""


@main.command("run")
@click.option("--config", "config_path", required=True,
              type=click.Path(), help="Experiment config YAML.")
@click.option("--mode", type=click.Choice(MODES), default=None,
              help="Override the run mode from the config.")
@click.option("--n-trigger", type=int, default=None,
              help="Thinker trigger interval (config default: 6).")
@click.option("--max-steps", type=int, default=None,
              help="Episode step budget (config default: 50).")
@click.option("--samples-n", type=int, default=None,
              help="Best-of-N sample count (config default: 5).")
@click.option("--retries-n", type=int, default=None,
              help="Reflect-and-retry attempt count (config default: 5).")
@click.option("--seed", "seeds", type=int, multiple=True,
              help="Seed(s) to run; repeatable. Overrides config seeds.")
@click.option("--store-dir", type=click.Path(), default=None,
              help="Run store root; a fresh subdirectory is created inside.")
@click.option("--label", default=None,
              help="Suffix for the new run directory name.")
@click.option("--parallelism", type=click.IntRange(min=1), default=None,
              help="Episodes to run concurrently (config default: 1).")
def cmd_run(config_path, mode, n_trigger, max_steps, samples_n, retries_n,
            seeds, store_dir, label, parallelism) -> None:
    """Run a batch of episodes and persist transcripts plus a manifest."""
    if (twice := repeated(seeds)) is not None:
        _fail(f"--seed {twice} is given twice")
    exp = _load_experiment(config_path, {
        "mode": mode, "n_trigger": n_trigger, "max_steps": max_steps,
        "samples_N": samples_n, "retries_N": retries_n})
    run_seeds = list(seeds) if seeds else exp.seeds
    items = [(task, seed) for task in exp.tasks for seed in run_seeds]
    root = Path(store_dir) if store_dir else exp.store_dir
    store = _fresh_store(root, label)
    try:
        results = run_batch(
            exp.world, items, exp.run, exp.actor, thinker=exp.thinker,
            store_dir=store,
            parallelism=parallelism if parallelism is not None else exp.parallelism,
            world_file=exp.world_file)
    except RunStoreError as exc:
        _fail(str(exc))

    table = aggregate([r.summary() for r in results])
    click.echo(f"store: {store}")
    click.echo(table.to_text())
    aborted = [r.trajectory for r in results if r.trajectory.error]
    if aborted:
        click.echo(f"{len(aborted)} episode(s) aborted on policy backend "
                   f"failures:", err=True)
        for traj in aborted:
            click.echo(f"  {traj.task_id} seed {traj.seed}: {traj.error}",
                       err=True)
        sys.exit(1)


@main.command("metrics")
@click.argument("store", type=click.Path(exists=True, file_okay=False))
@click.option("--k", type=click.IntRange(min=1), default=DEFAULT_K,
              show_default=True, help="Top-k window for the repetition metric.")
@click.option("--jsonl", "as_jsonl", is_flag=True,
              help="Emit the summary as a single JSON line.")
def cmd_metrics(store, k, as_jsonl) -> None:
    """Recompute exploration metrics from stored transcripts."""
    store = Path(store)
    manifest, transcripts = _read_store(store)
    episodes = manifest["episodes"]
    timings_path = store / "timings.json"
    if not timings_path.exists():
        _fail(f"{store}: timings.json is missing")
    try:
        walls = json.loads(timings_path.read_text(encoding="utf-8"))["episodes"]
        count = len(walls)
    except (OSError, UnicodeError, json.JSONDecodeError, LookupError,
            TypeError) as exc:
        _fail(f"{timings_path}: corrupt timings: {exc}")
    if count != len(episodes):
        _fail(f"{timings_path}: {count} episode timings, the manifest lists "
              f"{len(episodes)} episodes")
    for i, wall_s in enumerate(walls):
        _check_entry({"wall_s": wall_s}, {"wall_s": float},
                     f"{timings_path}: episode {i}")

    metrics = [episode_metrics([r["action"] for r in records],
                               [r["observation"] for r in records], k=k)
               for records in transcripts]
    # success and process score come from the manifest, which replay
    # verifies against the transcripts
    table = aggregate([(entry["success"], entry["process_score"], m, wall_s)
                       for entry, m, wall_s
                       in zip(episodes, metrics, walls)])
    if as_jsonl:
        click.echo(table.to_jsonl())
    else:
        for i, (entry, records, m) in enumerate(zip(episodes, transcripts,
                                                    metrics)):
            click.echo(f"{_label(i, entry)}: steps={len(records)} "
                       f"score={entry['process_score']} "
                       f"adiv={m.action_diversity:.4f} "
                       f"arep={m.action_repetition:.4f} "
                       f"odiv={m.observation_diversity:.4f} "
                       f"orep={m.observation_repetition:.4f}")
        click.echo(table.to_text())


@main.command("replay")
@click.argument("store", type=click.Path(exists=True, file_okay=False))
@click.option("--world", "world_override", type=click.Path(exists=True),
              default=None,
              help="World file to replay against (default: the one recorded "
                   "in the manifest).")
def cmd_replay(store, world_override) -> None:
    """Re-execute every stored episode and verify each recorded score."""
    store = Path(store)
    manifest, transcripts = _read_store(store)
    world_file = world_override or manifest.get("world_file")
    if not world_file:
        _fail("manifest records no world file; pass --world")
    try:
        world = load_world(resolve_world_path(world_file))
    except (ConfigValidationError, WorldValidationError) as exc:
        _fail(str(exc))

    failures = 0
    for i, (entry, records) in enumerate(zip(manifest["episodes"], transcripts)):
        task = world.tasks.get(entry["task_id"])
        if task is None:
            click.echo(f"FAIL {_label(i, entry)}: task {entry['task_id']!r} "
                       f"not in world {world.id!r}")
            failures += 1
            continue
        mismatch = _verify_episode(world, task, entry, records)
        if mismatch is None:
            click.echo(f"PASS {_label(i, entry)}")
        else:
            click.echo(f"FAIL {_label(i, entry)}: {mismatch}")
            failures += 1
    if failures:
        click.echo(f"{failures} episode(s) failed verification", err=True)
        sys.exit(1)
    click.echo("replay PASS")


def _verify_episode(world: TextWorld, task, entry: dict,
                    records: list[dict]) -> str | None:
    """Replay the recorded actions and return a description of the first
    part of the manifest entry or step the replay contradicts, or None when
    everything matches. The entry's step count is its transcript's, its
    initial observation is the reset's, and its thought anchors are
    non-decreasing integers in [0, len(records)]."""
    if entry["steps_used"] != len(records):
        return (f"steps_used {entry['steps_used']} but the transcript holds "
                f"{len(records)} records")
    state, obs0 = world.reset(task, entry["seed"])
    if obs0.text != entry["initial_observation"]:
        return (f"initial observation mismatch, stored "
                f"{entry['initial_observation']!r}, reset gave {obs0.text!r}")
    thoughts = entry.get("thoughts", [])
    anchors = ([t.get("anchor_step") if isinstance(t, dict) else None
                for t in thoughts] if isinstance(thoughts, list) else [None])
    bounds = [0, *anchors, len(records)]
    if not (all(type(a) is int for a in anchors)
            and all(a <= b for a, b in zip(bounds, bounds[1:]))):
        return (f"thought anchors {anchors} are not non-decreasing integers "
                f"in [0, {len(records)}]")
    score, done = world.process_score(state, task), False
    for record in records:
        step = record["step"]
        state, obs, score, done = world.step(state, record["action"], task)
        if obs.text != record["observation"]:
            return (f"step {step}: observation mismatch, stored "
                    f"{record['observation']!r}, replay gave {obs.text!r}")
        if score != record["score"]:
            return (f"step {step}: score mismatch, stored {record['score']}, "
                    f"replay gave {score}")
        if done != record["done"]:
            return (f"step {step}: done mismatch, stored {record['done']}, "
                    f"replay gave {done}")
    if (entry["process_score"], entry["success"]) != (score, done):
        return (f"manifest outcome mismatch, stored score "
                f"{entry['process_score']} success {entry['success']}, replay "
                f"gave {score} {done}")
    return None


@main.command("forge")
@click.option("--config", "config_path", required=True, type=click.Path(),
              help="Experiment config YAML with strong, weak, thinker, and "
                   "actor policies.")
@click.option("--out", "out_dir", type=click.Path(), default=None,
              help="Output root; a fresh subdirectory is created inside "
                   "(default: the config's store_dir).")
@click.option("--label", default=None,
              help="Suffix for the new output directory name.")
def cmd_forge(config_path, out_dir, label) -> None:
    """Build grouped thinker training data.

    Difficulty thresholds default to x=5 and y=15 weak-policy steps; the
    step-penalty reward rate defaults to 0.05 per extra step.
    """
    exp = _load_experiment(config_path)
    for name, handle in (("strong", exp.strong), ("weak", exp.weak),
                         ("thinker", exp.thinker), ("actor", exp.actor)):
        if handle is None:
            _fail(f"forge needs a {name!r} policy in the config")
    try:
        result = forge(exp.world, exp.tasks, exp.strong, exp.weak, exp.thinker,
                       exp.actor, exp.pipeline, seeds=exp.seeds)
    except BackendFailure as exc:
        _fail(str(exc), code=1)
    out = _fresh_store(Path(out_dir) if out_dir else exp.store_dir, label)
    try:
        _persist(out / "grpo.jsonl", lambda path: export_grpo(result.groups, path))
        # the manifest comes last, so a failed export leaves none
        _persist(out / "forge_manifest.json", write_json_atomic, result.manifest)
    except RunStoreError as exc:
        _fail(str(exc))
    click.echo(f"store: {out}")
    click.echo(json.dumps(result.manifest, indent=2, sort_keys=True))
    if result.manifest["groups"] == 0:
        click.echo("warning: no rollout groups were produced", err=True)


@main.command("validate")
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="Experiment config YAML to check.")
@click.option("--world", "world_path", type=click.Path(), default=None,
              help="World file to check.")
def cmd_validate(config_path, world_path) -> None:
    """Validate a config file and/or a world file without running anything."""
    if config_path is None and world_path is None:
        _fail("pass --config and/or --world")
    if config_path is not None:
        _load_experiment(config_path)
        click.echo(f"config ok: {config_path}")
    if world_path is not None:
        try:
            world = load_world(Path(world_path))
        except WorldValidationError as exc:
            _fail(str(exc))
        click.echo(f"world ok: {world.id} "
                   f"({len(world.tasks)} task(s), {len(world.rules)} rule(s))")


if __name__ == "__main__":
    main()
