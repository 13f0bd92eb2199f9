"""Spans around the calls into each ttexplore layer, recorded from outside.

The traced run replaces each traced function at the name its caller looks it
up by (``ttexplore.orchestrator.render_actor_prompt`` and
``ttexplore.pipeline.render_thinker_prompt`` are separate names) and wraps
``TextWorld`` methods on the class itself. A span is
``[name, start, end, parent, unit, tag]``: ``parent`` indexes the enclosing
span (-1 at the root), ``unit`` is the episode, forge item or rollout-group id
(inherited from the parent span), and ``tag`` carries what the metric needs
to know about the call's outcome.
Spans stay in memory until the run ends. Only the main thread is traced; the
loopback stub's thread calls the scripted policies untraced.

If a traced name no longer exists, every metric that needs it is reported
missing by name instead of crashing or silently disappearing.
"""

from __future__ import annotations

import functools
import importlib
import json
import logging
import threading
import time
from pathlib import Path
from typing import Callable, Optional

from stats import percentile

# the program's visible output text, which tags a call's outcome
TRUNCATION_MARKER = "[... earlier steps truncated ...]"
SENTINEL = "Nothing happened."


def _tag_step(args, kwargs, result):
    return "rejected" if result[1].text == SENTINEL else "allowed"


def _tag_render(args, kwargs, result):
    return ("over" if TRUNCATION_MARKER in result else "within", len(result))


def _tag_complete(args, kwargs, result):
    policy = args[0]
    remote = type(policy.backend).__name__ == "RemoteBackend"
    return (policy.role, remote)


def _unit_counter(prefix: str):
    def unit(tracer: "Tracer", args, kwargs):
        tracer.units += 1
        return f"{prefix}{tracer.units}"
    return unit


def _unit_group(tracer: "Tracer", args, kwargs):
    context = args[2] if len(args) > 2 else kwargs["context"]
    return context.context_id


# (module, attribute path at the caller's import site, span name, tag, unit)
TRACED: list[tuple[str, str, str, Optional[Callable], Optional[Callable]]] = [
    ("ttexplore.world", "TextWorld.step", "world.step", _tag_step, None),
    ("ttexplore.world", "TextWorld.reset", "world.reset", None, None),
    ("ttexplore.world", "TextWorld.process_score", "world.process_score", None, None),
    ("ttexplore.world", "TextWorld.replay", "world.replay", None, None),
    ("ttexplore.world", "load_world", "world.load_world", None, None),
    ("ttexplore.orchestrator", "render_actor_prompt", "prompts.render_actor",
     _tag_render, None),
    ("ttexplore.orchestrator", "render_thinker_prompt", "prompts.render_thinker",
     _tag_render, None),
    ("ttexplore.pipeline", "render_thinker_prompt", "prompts.render_thinker",
     _tag_render, None),
    ("ttexplore.policies", "parse_prompt", "prompts.parse_prompt", None, None),
    ("ttexplore.orchestrator", "parse_actor_output", "prompts.parse_actor_output",
     None, None),
    ("ttexplore.orchestrator", "complete", "policies.complete", _tag_complete, None),
    ("ttexplore.pipeline", "complete", "policies.complete", _tag_complete, None),
    ("ttexplore.orchestrator", "run_batch", "orchestrator.run_batch", None, None),
    ("ttexplore.orchestrator", "run_mode", "orchestrator.loop", None,
     _unit_counter("episode-")),
    ("ttexplore.orchestrator", "_think", "orchestrator.think", None, None),
    ("ttexplore.metrics", "compute_metrics", "metrics.compute_metrics", None, None),
    ("ttexplore.metrics", "aggregate", "metrics.aggregate", None, None),
    ("ttexplore.pipeline", "replay_with_history", "pipeline.replay_with_history",
     None, None),
    ("ttexplore.pipeline", "classify_difficulty", "pipeline.classify_difficulty",
     None, None),
    ("ttexplore.pipeline", "build_rollout_context",
     "pipeline.build_rollout_context", None, None),
    ("ttexplore.pipeline", "sample_thoughts", "pipeline.sample_thoughts", None, None),
    ("ttexplore.pipeline", "evaluate_thought", "pipeline.evaluate_thought", None, None),
    ("ttexplore.pipeline", "forge", "pipeline.forge", None, _unit_counter("forge-")),
    ("ttexplore.pipeline", "rollout_group", "pipeline.rollout_group", None, _unit_group),
    ("ttexplore.pipeline", "export_grpo", "pipeline.export", None, None),
    ("ttexplore.pipeline", "export_sft", "pipeline.export", None, None),
    # the benchmark's own speed reference inside an episode, so that it counts
    # as a child and not as self time of the call around it
    ("speed", "reference_s", "bench.reference", None, None),
]

REPLAY_PARENTS = ("pipeline.replay_with_history", "world.replay")


class _CountWarnings(logging.Handler):
    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.count += 1


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.missing: dict[str, str] = {}  # span name -> "module.attr" not found
        self.units = 0
        self._stack: list[int] = []
        self._main = threading.get_ident()
        self.fallbacks = _CountWarnings()
        self._replaced: list[tuple[object, str, Callable]] = []

    def install(self) -> None:
        """Wrap every traced name; ``uninstall`` puts the originals back."""
        for module_name, attr_path, span, tag, unit in TRACED:
            owner = importlib.import_module(module_name)
            *owner_path, attr = attr_path.split(".")
            try:
                for part in owner_path:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except AttributeError:
                self.missing[span] = f"{module_name}.{attr_path}"
                continue
            self._replaced.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, span, tag, unit))
        # every warning the episode loop logs today is a parse failure
        logging.getLogger("ttexplore.orchestrator").addHandler(self.fallbacks)

    def uninstall(self) -> None:
        logging.getLogger("ttexplore.orchestrator").removeHandler(self.fallbacks)
        # in reverse, so a name wrapped twice ends as its original
        while self._replaced:
            owner, attr, fn = self._replaced.pop()
            setattr(owner, attr, fn)

    def _wrap(self, fn, name, tag, unit_of):
        spans, stack, main, tracer = self.spans, self._stack, self._main, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != main:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            if unit_of is not None:
                unit = unit_of(tracer, args, kwargs)
            else:
                unit = spans[parent][4] if parent >= 0 else None
            span = [name, 0.0, 0.0, parent, unit, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if tag is not None:
                span[5] = tag(args, kwargs, result)
            return result

        return traced

    def clear(self) -> None:
        self.spans.clear()
        self.units = 0
        self.fallbacks.count = 0

    def write(self, path: Path, count: int) -> None:
        """Write the first ``count`` spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, unit, tag in self.spans[:count]:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "unit": unit,
                                     "tag": tag}) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# name -> (unit, span names it needs)
PER_LAYER: dict[str, tuple[str, tuple[str, ...]]] = {
    "world.step.calls": ("count", ("world.step",)),
    "world.step.allowed_us_p50": ("us", ("world.step",)),
    "world.step.rejected_us_p50": ("us", ("world.step",)),
    "world.step.self_ms": ("ms", ("world.step", "world.process_score")),
    "world.reset.calls": ("count", ("world.reset",)),
    "world.reset.us_p50": ("us", ("world.reset",)),
    "world.process_score.calls_per_step": ("ratio", ("world.process_score",
                                                     "world.step")),
    "world.process_score.us_p50": ("us", ("world.process_score",)),
    "world.load_world.ms": ("ms", ("world.load_world",)),
    "prompts.render_actor.within_budget_ms_p50": ("ms", ("prompts.render_actor",)),
    "prompts.render_actor.over_budget_ms_p50": ("ms", ("prompts.render_actor",)),
    "prompts.render_thinker.over_budget_ms_p50": ("ms", ("prompts.render_thinker",)),
    "prompts.over_budget_share": ("ratio", ("prompts.render_actor",
                                            "prompts.render_thinker")),
    "prompts.prompt_chars_p50": ("chars", ("prompts.render_actor",
                                           "prompts.render_thinker")),
    "prompts.prompt_chars_max": ("chars", ("prompts.render_actor",
                                           "prompts.render_thinker")),
    "prompts.parse_prompt.calls": ("count", ("prompts.parse_prompt",)),
    "prompts.parse_prompt.ms_p50": ("ms", ("prompts.parse_prompt",)),
    "prompts.parse_prompt.self_ms": ("ms", ("prompts.parse_prompt",)),
    "prompts.parse_actor_output.us_p50": ("us", ("prompts.parse_actor_output",)),
    "policies.complete.actor_calls": ("count", ("policies.complete",)),
    "policies.complete.thinker_calls": ("count", ("policies.complete",)),
    "policies.complete.self_ms": ("ms", ("policies.complete", "prompts.parse_prompt")),
    "policies.remote.round_trip_ms_p50": ("ms", ("policies.complete",)),
    "policies.remote.round_trip_ms_p90": ("ms", ("policies.complete",)),
    "policies.remote.stub_ms_p50": ("ms", ()),
    "policies.remote.client_ms_p50": ("ms", ("policies.complete",)),
    "policies.remote.connections_per_call": ("ratio", ("policies.complete",)),
    "policies.remote.attempts_per_call": ("ratio", ("policies.complete",)),
    "orchestrator.run_batch.self_ms": ("ms", ("orchestrator.run_batch",
                                              "orchestrator.loop",
                                              "metrics.compute_metrics",
                                              "metrics.aggregate")),
    "orchestrator.loop.self_ms": ("ms", ("orchestrator.loop",)),
    "orchestrator.think.calls_per_episode": ("ratio", ("orchestrator.think",
                                                       "orchestrator.loop")),
    "orchestrator.parse_fallbacks": ("count", ()),
    "metrics.compute_metrics.us_p50": ("us", ("metrics.compute_metrics",)),
    "metrics.aggregate.ms": ("ms", ("metrics.aggregate",)),
    "pipeline.env_steps_per_group": ("steps", ("world.step",)),
    "pipeline.replayed_step_share": ("ratio", ("world.step",) + REPLAY_PARENTS),
    "pipeline.replayed_steps": ("count", ("world.step",) + REPLAY_PARENTS),
    "pipeline.classify_difficulty.ms_p50": ("ms", ("pipeline.classify_difficulty",)),
    "pipeline.build_rollout_context.ms_p50": ("ms", ("pipeline.build_rollout_context",)),
    "pipeline.sample_thoughts.ms_p50": ("ms", ("pipeline.sample_thoughts",)),
    "pipeline.evaluate_thought.ms_p50": ("ms", ("pipeline.evaluate_thought",)),
    "pipeline.export.ms": ("ms", ("pipeline.export",)),
    "pipeline.thinker_calls_per_group": ("ratio", ("policies.complete",)),
    "trace.overhead_share": ("ratio", ()),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, rounds: int, groups: int, load_ms: list[float],
              stub_rounds: list[list[tuple[int, float]]],
              overhead_share: float) -> tuple[dict[str, float], list[str]]:
    """Per-layer values from the spans of ``rounds`` traced rounds.

    Counts and self times are per round; percentiles are over every call.
    A percentile of a call type that did not occur reads 0. ``stub_rounds``
    holds the loopback stub's records of each traced round. Returns the
    values and the names of the metrics whose spans are missing.
    """
    spans = tracer.spans
    child_ms = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ms[parent] += (end - start) * 1000.0
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def ms(i: int) -> float:
        return (spans[i][2] - spans[i][1]) * 1000.0

    def durations(name: str, keep=lambda tag: True, scale: float = 1.0) -> list[float]:
        return [ms(i) * scale for i in by_name.get(name, []) if keep(spans[i][5])]

    def self_per_round(name: str) -> float:
        return sum(ms(i) - child_ms[i] for i in by_name.get(name, [])) / rounds

    def calls(name: str, keep=lambda tag: True) -> int:
        return sum(1 for i in by_name.get(name, []) if keep(spans[i][5]))

    steps = by_name.get("world.step", [])
    replayed = sum(1 for i in steps
                   if spans[i][3] >= 0 and spans[spans[i][3]][0] in REPLAY_PARENTS)
    # a call that raised has no tag
    renders = [i for i in by_name.get("prompts.render_actor", [])
               + by_name.get("prompts.render_thinker", []) if spans[i][5]]
    chars = [spans[i][5][1] for i in renders]
    over = sum(1 for i in renders if spans[i][5][0] == "over")
    remote_rt = durations("policies.complete", lambda tag: tag and tag[1])
    stub_records = [rec for records in stub_rounds for rec in records]
    stub_ms = [handler_ms for _, handler_ms in stub_records]
    # ports are counted per round, since the OS may reuse one in a later round
    connections = sum(len({port for port, _ in records}) for records in stub_rounds)
    if remote_rt and len(remote_rt) == len(stub_ms):
        client_ms = [rt - s for rt, s in zip(remote_rt, stub_ms)]
    else:
        client_ms = [percentile(remote_rt, 50) - percentile(stub_ms, 50)]
    pipeline_thinker_calls = sum(
        1 for i in by_name.get("policies.complete", [])
        if spans[i][5] and spans[i][5][0] == "thinker"
        and _inside(spans, i, "pipeline.sample_thoughts"))
    episodes = len(by_name.get("orchestrator.loop", []))
    us = 1000.0

    values = {
        "world.step.calls": len(steps) / rounds,
        "world.step.allowed_us_p50": percentile(
            durations("world.step", lambda tag: tag == "allowed", us), 50),
        "world.step.rejected_us_p50": percentile(
            durations("world.step", lambda tag: tag == "rejected", us), 50),
        "world.step.self_ms": self_per_round("world.step"),
        "world.reset.calls": calls("world.reset") / rounds,
        "world.reset.us_p50": percentile(durations("world.reset", scale=us), 50),
        "world.process_score.calls_per_step": _ratio(
            calls("world.process_score"), len(steps)),
        "world.process_score.us_p50": percentile(
            durations("world.process_score", scale=us), 50),
        "world.load_world.ms": percentile(load_ms, 50),
        "prompts.render_actor.within_budget_ms_p50": percentile(
            durations("prompts.render_actor", lambda tag: tag and tag[0] == "within"), 50),
        "prompts.render_actor.over_budget_ms_p50": percentile(
            durations("prompts.render_actor", lambda tag: tag and tag[0] == "over"), 50),
        "prompts.render_thinker.over_budget_ms_p50": percentile(
            durations("prompts.render_thinker", lambda tag: tag and tag[0] == "over"), 50),
        "prompts.over_budget_share": _ratio(over, len(renders)),
        "prompts.prompt_chars_p50": percentile(chars, 50),
        "prompts.prompt_chars_max": max(chars, default=0),
        "prompts.parse_prompt.calls": calls("prompts.parse_prompt") / rounds,
        "prompts.parse_prompt.ms_p50": percentile(durations("prompts.parse_prompt"), 50),
        "prompts.parse_prompt.self_ms": self_per_round("prompts.parse_prompt"),
        "prompts.parse_actor_output.us_p50": percentile(
            durations("prompts.parse_actor_output", scale=us), 50),
        "policies.complete.actor_calls": calls(
            "policies.complete", lambda tag: tag and tag[0] == "actor") / rounds,
        "policies.complete.thinker_calls": calls(
            "policies.complete", lambda tag: tag and tag[0] == "thinker") / rounds,
        "policies.complete.self_ms": self_per_round("policies.complete"),
        "policies.remote.round_trip_ms_p50": percentile(remote_rt, 50),
        "policies.remote.round_trip_ms_p90": percentile(remote_rt, 90),
        "policies.remote.stub_ms_p50": percentile(stub_ms, 50),
        "policies.remote.client_ms_p50": percentile(client_ms, 50) if remote_rt else 0.0,
        "policies.remote.connections_per_call": _ratio(connections, len(remote_rt)),
        "policies.remote.attempts_per_call": _ratio(len(stub_records), len(remote_rt)),
        "orchestrator.run_batch.self_ms": self_per_round("orchestrator.run_batch"),
        "orchestrator.loop.self_ms": self_per_round("orchestrator.loop"),
        "orchestrator.think.calls_per_episode": _ratio(
            calls("orchestrator.think"), episodes),
        "orchestrator.parse_fallbacks": tracer.fallbacks.count / rounds,
        "metrics.compute_metrics.us_p50": percentile(
            durations("metrics.compute_metrics", scale=us), 50),
        "metrics.aggregate.ms": percentile(durations("metrics.aggregate"), 50),
        "pipeline.env_steps_per_group": _ratio(len(steps), groups),
        "pipeline.replayed_step_share": _ratio(replayed, len(steps)),
        "pipeline.replayed_steps": replayed / rounds,
        "pipeline.classify_difficulty.ms_p50": percentile(
            durations("pipeline.classify_difficulty"), 50),
        "pipeline.build_rollout_context.ms_p50": percentile(
            durations("pipeline.build_rollout_context"), 50),
        "pipeline.sample_thoughts.ms_p50": percentile(
            durations("pipeline.sample_thoughts"), 50),
        "pipeline.evaluate_thought.ms_p50": percentile(
            durations("pipeline.evaluate_thought"), 50),
        "pipeline.export.ms": sum(durations("pipeline.export")) / rounds,
        "pipeline.thinker_calls_per_group": _ratio(pipeline_thinker_calls, groups),
        "trace.overhead_share": overhead_share,
    }
    missing = [name for name, (_, needs) in PER_LAYER.items()
               if any(n in tracer.missing for n in needs)]
    for name in missing:
        del values[name]
    return values, missing


def _inside(spans: list[list], i: int, ancestor: str) -> bool:
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == ancestor:
            return True
        parent = spans[parent][3]
    return False
