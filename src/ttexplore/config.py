"""Experiment configuration loading.

One structured YAML file is the source of truth; the `ttexplore run` flags
override its `run:` values. `load_config` is the one path from a file to a
runnable experiment: it applies the flags, type-checks every value once, and
loads the world and selects the tasks. Unknown keys are errors so typos
never pass silently, and every value passes one type check, with the types
of the `RunConfig`, `PipelineConfig` and backend fields: a policy's keys are
its backend's fields, a remote policy's decode settings included. Configs
and backends check their own rules when they are made (positive run values,
a known scripted name, an http(s) endpoint), and their errors fail naming
the file and the section or policy key. A `run.char_budget` below the
largest prompt with no history of the selected tasks fails too: no prompt
of such a run could fit it. So does a `tasks` or `seeds` list that holds a
value twice, which would run one episode twice.
API keys come from environment variables only, never from config files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, get_args, get_origin, get_type_hints

import yaml

from .pipeline import PipelineConfig
from .policies import ConfigError, PolicyHandle, RemoteBackend, ScriptedBackend
from .orchestrator import RunConfig, repeated
from .prompts import HistoryView, render_actor_prompt, render_thinker_prompt
from .world import TaskSpec, TextWorld, builtin_world_path, load_world, read_yaml


class ConfigValidationError(ValueError):
    pass


def _fields(cls, *omit: str) -> dict[str, type]:
    """The settable fields of a config dataclass and their types."""
    return {k: t for k, t in get_type_hints(cls).items() if k not in omit}


_RUN_TYPES = _fields(RunConfig)
_PIPELINE_TYPES = _fields(PipelineConfig, "run")

_TOP_TYPES = {"world": str, "tasks": list[str], "seeds": list[int],
              "parallelism": int, "store_dir": str}
_TOP_KEYS = {*_TOP_TYPES, "actor", "thinker", "weak", "strong", "run", "pipeline"}


def _check_keys(data: dict, allowed: set, where: str) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise ConfigValidationError(
            f"unknown key(s) in {where}: {', '.join(sorted(map(str, unknown)))}")


def _of_type(value, want: type) -> bool:
    return type(value) is want or (want is float and type(value) is int)


def _check_types(data: dict, types: dict, where: str) -> None:
    """Each value of `data` whose key `types` lists has that type: an int
    passes for a float, a bool never passes for an int, and `list[T]` means
    a non-empty list of `T`. The first wrong value in `types` order is
    reported, so the message does not vary with string hashing."""
    for name in [k for k in types if k in data]:
        value, want = data[name], types[name]
        if get_origin(want) is list:
            (item,) = get_args(want)
            ok = (type(value) is list and value != []
                  and all(_of_type(v, item) for v in value))
            what = f"a non-empty list of {item.__name__}"
        else:
            ok, what = _of_type(value, want), f"of type {want.__name__}"
        if not ok:
            raise ConfigValidationError(
                f"{where}: {name} must be {what}, got {value!r}")


def _section(section, types: dict, where: str) -> dict:
    """`section`, a mapping with only the keys of `types`, each value of its
    key's type."""
    if not isinstance(section, dict):
        raise ConfigValidationError(f"{where}: must be a mapping")
    _check_keys(section, set(types), where)
    _check_types(section, types, where)
    return section


def parse_policy(data: dict, role: str, where: str) -> PolicyHandle:
    if not isinstance(data, dict) or "backend" not in data:
        raise ConfigValidationError(f"{where}: policy needs a 'backend' key")
    kind = data["backend"]
    if kind not in ("scripted", "remote"):
        raise ConfigValidationError(
            f"{where}: backend must be 'scripted' or 'remote', got {kind!r}")
    # a policy's keys are its backend's fields: a scripted policy is a pure
    # function of (prompt, seed), so decode settings would never reach it
    cls = ScriptedBackend if kind == "scripted" else RemoteBackend
    _section(data, {"backend": str, **_fields(cls)}, where)
    for key in ("name",) if kind == "scripted" else ("endpoint", "model"):
        if key not in data:
            raise ConfigValidationError(f"{where}: {kind} policy needs {key!r}")
    try:
        backend = cls(**{k: v for k, v in data.items() if k != "backend"})
    except ConfigError as exc:  # the backend rejects a value it cannot run
        raise ConfigValidationError(f"{where}: {exc}") from None
    if kind == "scripted":
        # a config's name ends in its role; `scripted()` also takes
        # registered variants, such as `loop-actor+reference`
        named_role = backend.name.rsplit("-", 1)[1]
        if named_role != role:
            raise ConfigValidationError(
                f"{where}: scripted policy {backend.name!r} has role "
                f"{named_role!r}, but this key needs role {role!r}")
    return PolicyHandle(role=role, backend=backend)


@dataclass
class ExperimentConfig:
    world_file: str
    world: TextWorld
    tasks: list[TaskSpec]
    actor: PolicyHandle
    thinker: Optional[PolicyHandle]
    weak: Optional[PolicyHandle]
    strong: Optional[PolicyHandle]
    run: RunConfig
    pipeline: PipelineConfig
    store_dir: Path
    seeds: list[int]
    parallelism: int


def _least_budget(world: TextWorld, tasks: list[TaskSpec],
                  thinker: Optional[PolicyHandle]) -> tuple[int, str]:
    """The length of the largest prompt with no history among the tasks'
    actor prompts, and their thinker prompts when a thinker is set, and
    which prompt it is: no smaller `char_budget` can be met."""
    sizes = []
    for task in tasks:
        # a seed only reorders the initial observation, not its length
        view = HistoryView(task.id, world.reset(task, 0)[1].text)
        sizes.append((len(render_actor_prompt(task, view)),
                      f"the actor prompt of task {task.id!r}"))
        if thinker is not None:
            sizes.append((len(render_thinker_prompt(task, view)),
                          f"the thinker prompt of task {task.id!r}"))
    return max(sizes)


def resolve_world_path(name_or_path: str) -> Path:
    path = Path(name_or_path)
    if path.exists():
        return path
    builtin = builtin_world_path(name_or_path)
    if builtin.exists():
        return builtin
    raise ConfigValidationError(
        f"world {name_or_path!r}: no such file and no builtin world by that name")


def load_config(path: str | Path,
                run_flags: Optional[dict] = None) -> ExperimentConfig:
    """The experiment of the config file at `path`, with its world loaded and
    its tasks selected. `run_flags` maps `RunConfig` fields to the values of
    the `ttexplore run` flags of the same names (`samples_N` is
    `--samples-n`); a None value was not given. The given ones replace the
    file's before the configs are made, and a run rule they break fails
    naming the file, the section and the flags."""
    path = Path(path)
    if not path.exists():
        raise ConfigValidationError(f"config file not found: {path}")
    try:
        data = read_yaml(path) or {}
    except (OSError, UnicodeError, yaml.YAMLError) as exc:
        raise ConfigValidationError(f"{path}: cannot load config: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigValidationError(f"{path}: config must be a mapping")
    _check_keys(data, _TOP_KEYS, str(path))
    _check_types(data, _TOP_TYPES, str(path))
    if "world" not in data:
        raise ConfigValidationError(f"{path}: missing required key 'world'")
    if data.get("actor") is None:
        raise ConfigValidationError(f"{path}: missing required key 'actor'")
    if data.get("parallelism", 1) < 1:
        raise ConfigValidationError(
            f"{path}: parallelism must be >= 1, got {data['parallelism']}")
    for key in ("tasks", "seeds"):
        if (twice := repeated(data.get(key, []))) is not None:
            raise ConfigValidationError(f"{path}: {key} holds {twice!r} twice")
    world = load_world(resolve_world_path(data["world"]))
    task_ids = data.get("tasks", list(world.tasks))
    for tid in task_ids:
        if tid not in world.tasks:
            raise ConfigValidationError(
                f"{path}: task {tid!r} not found in world {world.id!r} "
                f"(available: {', '.join(sorted(world.tasks))})")

    flags = {k: v for k, v in (run_flags or {}).items() if v is not None}
    given = " ".join(f"--{k.lower().replace('_', '-')} {v}"
                     for k, v in flags.items())
    with_flags = f" (with the command-line values {given})" if given else ""

    def check(key: str, make, suffix: str = ""):
        try:
            return make()
        except ValueError as exc:
            raise ConfigValidationError(f"{path}:{key}: {exc}{suffix}") from None

    # outside `check`: a section's own errors already name the file
    run_values = {**_section(data.get("run") or {}, _RUN_TYPES, f"{path}:run"),
                  **flags}
    pipeline_values = _section(data.get("pipeline") or {}, _PIPELINE_TYPES,
                               f"{path}:pipeline")
    run = check("run", lambda: RunConfig(**run_values), with_flags)
    pipeline = check("pipeline",
                     lambda: PipelineConfig(**pipeline_values, run=run))

    def policy(key: str, role: str) -> Optional[PolicyHandle]:
        if data.get(key) is None:
            return None
        return parse_policy(data[key], role, f"{path}:{key}")

    thinker = policy("thinker", "thinker")
    check("run", lambda: run.episode_thinker(thinker), with_flags)
    tasks = [world.tasks[tid] for tid in task_ids]
    need, prompt = _least_budget(world, tasks, thinker)
    if run.char_budget < need:
        raise ConfigValidationError(
            f"{path}:run: char_budget must be at least {need}, the length of "
            f"{prompt} with no history, got {run.char_budget}{with_flags}")

    return ExperimentConfig(
        world_file=data["world"],
        world=world,
        tasks=tasks,
        actor=parse_policy(data["actor"], "actor", f"{path}:actor"),
        thinker=thinker,
        weak=policy("weak", "actor"),
        strong=policy("strong", "actor"),
        run=run,
        pipeline=pipeline,
        store_dir=Path(data.get("store_dir", "runs")),
        seeds=data.get("seeds", [0]),
        parallelism=data.get("parallelism", 1),
    )
