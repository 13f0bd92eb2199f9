"""Experiment configuration loading.

One structured YAML file is the source of truth; CLI flags override it.
Unknown keys are errors so typos never pass silently. API keys come from
environment variables only, never from config files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, get_type_hints

import yaml

from .pipeline import PipelineConfig
from .policies import DecodeParams, PolicyHandle, RemoteBackend, ScriptedBackend
from .orchestrator import RunConfig
from .world import TextWorld, builtin_world_path, load_world


class ConfigValidationError(ValueError):
    pass


# a scripted policy is a pure function of (prompt, seed): decode settings
# would never reach it
_POLICY_KEYS_SCRIPTED = {"backend", "name"}
_POLICY_KEYS_REMOTE = {"backend", "endpoint", "model", "api_key_env",
                       "max_retries", "timeout_s", "temperature",
                       "max_output_tokens"}


def _check_keys(data: dict, allowed: set, where: str) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise ConfigValidationError(
            f"unknown key(s) in {where}: {', '.join(sorted(map(str, unknown)))}")


def parse_policy(data: dict, role: str, where: str) -> PolicyHandle:
    if not isinstance(data, dict) or "backend" not in data:
        raise ConfigValidationError(f"{where}: policy needs a 'backend' key")
    if data["backend"] == "scripted":
        _check_keys(data, _POLICY_KEYS_SCRIPTED, where)
        if "name" not in data:
            raise ConfigValidationError(f"{where}: scripted policy needs 'name'")
        return PolicyHandle(role=role, backend=ScriptedBackend(data["name"]))
    if data["backend"] == "remote":
        _check_keys(data, _POLICY_KEYS_REMOTE, where)
        decode = DecodeParams(
            temperature=float(data.get("temperature", 0.0)),
            max_output_tokens=int(data.get("max_output_tokens", 1024)),
        )
        for key in ("endpoint", "model"):
            if key not in data:
                raise ConfigValidationError(f"{where}: remote policy needs {key!r}")
        backend = RemoteBackend(
            endpoint=data["endpoint"],
            model=data["model"],
            api_key_env=data.get("api_key_env", "TTEXPLORE_API_KEY"),
            max_retries=int(data.get("max_retries", 2)),
            timeout_s=float(data.get("timeout_s", 60.0)),
        )
        return PolicyHandle(role=role, backend=backend, decode=decode)
    raise ConfigValidationError(
        f"{where}: backend must be 'scripted' or 'remote', got {data['backend']!r}")


_RUN_TYPES = get_type_hints(RunConfig)

_PIPELINE_TYPES = {k: t for k, t in get_type_hints(PipelineConfig).items()
                   if k != "run"}

_TOP_KEYS = {"world", "tasks", "actor", "thinker", "weak", "strong",
             "run", "pipeline", "store_dir", "seeds", "parallelism"}


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
    seeds: list[int] = field(default_factory=lambda: [0])
    parallelism: int = 1

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


def _section(data: dict, key: str, types: dict[str, type], where: str) -> dict:
    """The `key:` mapping of a config, each value of its field's type; an int
    passes for a float, a bool never passes for an int."""
    section = data.get(key) or {}
    if not isinstance(section, dict):
        raise ConfigValidationError(f"{where}: {key!r} must be a mapping")
    _check_keys(section, set(types), f"{where}:{key}")
    for name, value in section.items():
        want = types[name]
        if type(value) is not want and not (want is float and type(value) is int):
            raise ConfigValidationError(f"{where}:{key}: {name} must be of "
                                        f"type {want.__name__}, got {value!r}")
    return section


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
    if "world" not in data:
        raise ConfigValidationError(f"{path}: missing required key 'world'")
    if "actor" not in data:
        raise ConfigValidationError(f"{path}: missing required key 'actor'")

    if not isinstance(data["world"], str):
        raise ConfigValidationError(f"{path}: 'world' must be a name or a path")
    resolve_world_path(data["world"])  # existence check at load time

    run = RunConfig(**_section(data, "run", _RUN_TYPES, str(path)))
    run.validate()

    pipeline = PipelineConfig(**_section(data, "pipeline", _PIPELINE_TYPES,
                                         str(path)))
    pipeline.run = run
    pipeline.validate()

    def policy(key: str, role: str) -> Optional[PolicyHandle]:
        if key not in data or data[key] is None:
            return None
        return parse_policy(data[key], role, f"{path}:{key}")

    actor = policy("actor", "actor")
    assert actor is not None
    seeds = data.get("seeds", [run.seed])
    if not isinstance(seeds, list):
        seeds = [seeds]

    return ExperimentConfig(
        world_file=data["world"],
        task_ids=data.get("tasks"),
        actor=actor,
        thinker=policy("thinker", "thinker"),
        weak=policy("weak", "actor"),
        strong=policy("strong", "actor"),
        run=run,
        pipeline=pipeline,
        store_dir=Path(data.get("store_dir", "runs")),
        seeds=[int(s) for s in seeds],
        parallelism=int(data.get("parallelism", 1)),
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
