"""Experiment configuration loading.

One structured YAML file is the source of truth; CLI flags override it.
Unknown keys are errors so typos never pass silently, and every value passes
one type check, with the types of the `RunConfig`, `PipelineConfig`,
`RemoteBackend` and `DecodeParams` fields. API keys come from environment
variables only, never from config files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, get_args, get_origin, get_type_hints

import yaml

from .pipeline import PipelineConfig
from .policies import (
    SCRIPTED_POLICIES,
    DecodeParams,
    PolicyHandle,
    RemoteBackend,
    ScriptedBackend,
)
from .orchestrator import RunConfig
from .world import TextWorld, builtin_world_path, load_world


class ConfigValidationError(ValueError):
    pass


def _fields(cls, *omit: str) -> dict[str, type]:
    """The settable fields of a config dataclass and their types."""
    return {k: t for k, t in get_type_hints(cls).items() if k not in omit}


# a scripted policy is a pure function of (prompt, seed): decode settings
# would never reach it
_SCRIPTED_TYPES = {"backend": str, "name": str}
_REMOTE_TYPES = {"backend": str, **_fields(RemoteBackend), **_fields(DecodeParams)}

# RunConfig.seed is set per episode from `seeds`
_RUN_TYPES = _fields(RunConfig, "seed")
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
    if data["backend"] == "scripted":
        _section(data, _SCRIPTED_TYPES, where)
        if "name" not in data:
            raise ConfigValidationError(f"{where}: scripted policy needs 'name'")
        name = data["name"]
        if name not in SCRIPTED_POLICIES:
            raise ConfigValidationError(
                f"{where}: unknown scripted policy {name!r} "
                f"(known: {', '.join(SCRIPTED_POLICIES)})")
        named_role = name.rsplit("-", 1)[1]  # every name ends in its role
        if named_role != role:
            raise ConfigValidationError(
                f"{where}: scripted policy {name!r} has role {named_role!r}, "
                f"but this key needs role {role!r}")
        return PolicyHandle(role=role, backend=ScriptedBackend(name))
    if data["backend"] == "remote":
        _section(data, _REMOTE_TYPES, where)
        for key in ("endpoint", "model"):
            if key not in data:
                raise ConfigValidationError(f"{where}: remote policy needs {key!r}")

        def given(cls) -> dict:
            return {k: data[k] for k in _fields(cls) if k in data}

        return PolicyHandle(role=role, backend=RemoteBackend(**given(RemoteBackend)),
                            decode=DecodeParams(**given(DecodeParams)))
    raise ConfigValidationError(
        f"{where}: backend must be 'scripted' or 'remote', got {data['backend']!r}")


@dataclass
class ExperimentConfig:
    world_file: str
    task_ids: Optional[list[str]]
    actor: PolicyHandle
    thinker: Optional[PolicyHandle]
    weak: Optional[PolicyHandle]
    strong: Optional[PolicyHandle]
    run: RunConfig
    pipeline: PipelineConfig
    store_dir: Path
    seeds: list[int]
    parallelism: int

    def load_world(self) -> TextWorld:
        return load_world(resolve_world_path(self.world_file))


def resolve_world_path(name_or_path: str) -> Path:
    path = Path(name_or_path)
    if path.exists():
        return path
    builtin = builtin_world_path(name_or_path)
    if builtin.exists():
        return builtin
    raise ConfigValidationError(
        f"world {name_or_path!r}: no such file and no builtin world by that name")


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigValidationError(f"config file not found: {path}")
    try:
        data = yaml.safe_load(path.read_text(encoding="utf-8")) or {}
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
    resolve_world_path(data["world"])  # existence check at load time

    run = RunConfig(**_section(data.get("run") or {}, _RUN_TYPES, f"{path}:run"))
    pipeline = PipelineConfig(**_section(data.get("pipeline") or {},
                                         _PIPELINE_TYPES, f"{path}:pipeline"))
    pipeline.run = run
    for key, section in (("run", run), ("pipeline", pipeline)):
        try:
            section.validate()
        except ValueError as exc:
            raise ConfigValidationError(f"{path}:{key}: {exc}") from None

    def policy(key: str, role: str) -> Optional[PolicyHandle]:
        if data.get(key) is None:
            return None
        return parse_policy(data[key], role, f"{path}:{key}")

    thinker = policy("thinker", "thinker")
    try:
        run.episode_thinker(thinker)
    except ValueError as exc:
        raise ConfigValidationError(f"{path}:run: {exc}") from None

    return ExperimentConfig(
        world_file=data["world"],
        task_ids=data.get("tasks"),
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


def select_tasks(world: TextWorld, task_ids: Optional[list[str]]):
    if task_ids is None:
        return list(world.tasks.values())
    tasks = []
    for tid in task_ids:
        if tid not in world.tasks:
            raise ConfigValidationError(
                f"task {tid!r} not found in world {world.id!r} "
                f"(available: {', '.join(sorted(world.tasks))})")
        tasks.append(world.tasks[tid])
    return tasks
