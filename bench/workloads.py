"""The benchmark workloads, driven through ttexplore's public API.

Every workload is single-process and closed-loop: the next call starts when
the previous one returns. A workload runs identical *rounds*; ``round()`` is
the timed part and ``check()`` verifies its outputs afterwards, untimed.
Scripted policies drive everything, so the benchmark times this code and not
a model. The ``--seed`` argument picks the episode text seeds. Text seeds only
reorder entity lists in observations, so the outcomes the checks compare do
not depend on them (``record_expected.py`` verifies that when it records).
``observed()`` lists those outcomes for one round as (key, value) pairs; the
checks compare them with ``expected.json`` and the recorder writes them there.

Traced layer functions are looked up through their modules at call time
(``orchestrator.run_batch``, ``pipeline.forge``), so the traced run's
wrappers see every call.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from click.testing import CliRunner

from ttexplore import cli, orchestrator, pipeline
from ttexplore.orchestrator import RunConfig
from ttexplore.policies import SCRIPTED_POLICIES, PolicyHandle, RemoteBackend, scripted
from ttexplore.prompts import HistoryView, render_actor_prompt
from ttexplore.world import load_builtin_world

from loopback import StubServer
from speed import Sampler

WORLDS = ("minihouse1", "minihouse2", "keymaze1")
MODES = ("react", "ttexplore", "reflexion", "bestofn")
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


@dataclass
class Round:
    """What one timed round did; ``payload`` is what ``check`` inspects."""
    units: int  # episodes, or exported rollout groups on forge_data
    steps: int  # agent steps: actor decisions that reached the world
    unit_s: list[float]  # per-episode (or per forged trajectory) wall time
    payload: object = None
    seconds: float = 0.0  # wall time of the round
    scale: float = 1.0  # speed correction, from speed.scale
    references: list[float] = field(default_factory=list)  # timed inside the round
    spans: int = 0  # spans recorded by the end of this round, when traced
    stub_records: list = field(default_factory=list)


def episode_seeds(seed: int, count: int) -> list[int]:
    return random.Random(seed).sample(range(1_000_000), count)


def outcome(traj) -> dict:
    """The seed-independent part of an episode that the checks compare."""
    return {
        "task": traj.task_id,
        "mode": traj.mode,
        "actions": traj.actions(),
        "scores": [s.score_after for s in traj.steps],
        "success": traj.final.success,
        "steps_used": traj.final.steps_used,
        "thought_anchors": [t.anchor_step for t in traj.thoughts],
    }


def final_actor_prompt(task, traj) -> dict:
    """The shape of the actor prompt after an episode's last step, which is
    what budget fitting produces once the history outgrows the budget."""
    view = HistoryView(traj.task_id, traj.initial_observation,
                       steps=[(s.action, s.observation) for s in traj.steps],
                       thoughts=[(t.anchor_step, t.text) for t in traj.thoughts])
    prompt = render_actor_prompt(task, view)
    return {"chars": len(prompt), "kept_steps": prompt.count("\nAction: ")}


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.worlds = {name: load_builtin_world(name) for name in WORLDS}
        self.rounds_run = 0

    def warmup(self, seconds: float = 1.0) -> None:
        t0 = time.perf_counter()
        while True:
            self.check(self.round())
            if time.perf_counter() - t0 >= seconds:
                return

    def round(self) -> Round:
        raise NotImplementedError

    def observed(self, rnd: Round) -> list[tuple[str, object]]:
        """The seed-independent outcomes of one round, as (key, value) pairs."""
        raise NotImplementedError

    def check(self, rnd: Round) -> tuple[int, int]:
        """(operations attempted, operations failed) for one round."""
        raise NotImplementedError

    def finish(self) -> tuple[int, int]:
        """Checks that run once, after the last round."""
        return 0, 0

    def close(self) -> None:
        pass


def _episode_checks(results, observed: list, expected: dict) -> tuple[int, int]:
    """One operation per episode: it fails if it raised or its outcome differs."""
    failed = sum(1 for r, (key, value) in zip(results, observed)
                 if r.trajectory.error is not None or expected.get(key) != value)
    return len(results), failed


class ExploreBatch(Workload):
    """All four modes x three worlds x K seeds, writing a run store."""
    name = "explore_batch"
    K = 5

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.seeds = episode_seeds(seed, self.K)
        self.actor = scripted("actor", "greedy-actor")
        self.thinker = scripted("thinker", "oracle-thinker")
        self.expected = load_expected()[self.name]
        self.kept_stores: list[Path] = []

    def round(self) -> Round:
        self.rounds_run += 1
        batches = []
        for mode in MODES:
            cfg = RunConfig(mode=mode, max_steps=50)
            for name, world in self.worlds.items():
                items = [(task, s) for task in world.tasks.values() for s in self.seeds]
                store = self.workdir / f"r{self.rounds_run}-{mode}-{name}"
                batches.append((store, orchestrator.run_batch(
                    world, items, cfg, self.actor, thinker=self.thinker,
                    store_dir=store, parallelism=1, world_file=name)))
        results = [r for _, batch in batches for r in batch]
        return Round(units=len(results),
                     steps=sum(r.trajectory.final.steps_used for r in results),
                     unit_s=[r.wall_s for r in results], payload=batches)

    def observed(self, rnd: Round) -> list[tuple[str, object]]:
        return [(f"{r.trajectory.mode}/{r.trajectory.task_id}", outcome(r.trajectory))
                for _, results in rnd.payload for r in results]

    def check(self, rnd: Round) -> tuple[int, int]:
        for store in self.kept_stores:
            shutil.rmtree(store)
        self.kept_stores = [store for store, _ in rnd.payload]
        results = [r for _, batch in rnd.payload for r in batch]
        return _episode_checks(results, self.observed(rnd), self.expected)

    def finish(self) -> tuple[int, int]:
        """``ttexplore replay`` must pass on every store of the last round."""
        runner = CliRunner()
        failed = 0
        for store in self.kept_stores:
            result = runner.invoke(cli.main, ["replay", str(store)])
            if result.exit_code != 0 or "replay PASS" not in result.output:
                failed += 1
        return len(self.kept_stores), failed


class LongHorizon(Workload):
    """One 800-step ttexplore episode on keymaze1 per round; the history
    passes the default character budget near step 630.

    An episode takes seconds, longer than the machine holds one speed, so the
    actor also times the speed reference every half second; the round's time
    leaves those out."""
    name = "long_horizon"
    MAX_STEPS = 800
    ACTOR = "loop-actor"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.world = self.worlds["keymaze1"]
        self.task = self.world.tasks["keymaze-1"]
        self.text_seed = episode_seeds(seed, 1)[0]
        self.sampler = Sampler(interval_s=0.5)
        sampled = f"{self.ACTOR}+reference"
        SCRIPTED_POLICIES[sampled] = self.sampler.wrap(SCRIPTED_POLICIES[self.ACTOR])
        self.actor = scripted("actor", sampled)
        self.thinker = scripted("thinker", "oracle-thinker")
        self.expected = load_expected()[self.name]

    def _run(self, max_steps: int):
        return orchestrator.run_batch(
            self.world, [(self.task, self.text_seed)],
            RunConfig(mode="ttexplore", max_steps=max_steps),
            self.actor, thinker=self.thinker)

    def warmup(self, seconds: float = 1.0) -> None:
        # a short episode loads every code path without paying for a full one
        self._run(100)

    def round(self) -> Round:
        self.sampler.take()
        results = self._run(self.MAX_STEPS)
        references = self.sampler.take()
        # one episode per round, so the whole round's references are its own
        return Round(units=len(results),
                     steps=sum(r.trajectory.final.steps_used for r in results),
                     unit_s=[r.wall_s - sum(references) for r in results],
                     payload=results, references=references)

    def observed(self, rnd: Round) -> list[tuple[str, object]]:
        return [pair for r in rnd.payload for pair in (
            ("outcome", outcome(r.trajectory)),
            ("final_actor_prompt", final_actor_prompt(self.task, r.trajectory)))]

    def check(self, rnd: Round) -> tuple[int, int]:
        # the episode and then the prompt it leaves behind, per episode
        results = [r for r in rnd.payload for _ in range(2)]
        return _episode_checks(results, self.observed(rnd), self.expected)


class ForgeData(Workload):
    """``forge`` over the three worlds x K seeds, then both exports."""
    name = "forge_data"
    K = 5

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.seeds = episode_seeds(seed, self.K)
        self.strong = scripted("actor", "oracle-actor")
        self.weak = scripted("actor", "wanderer-actor")
        self.thinker = scripted("thinker", "noisy-thinker")
        self.frozen = scripted("actor", "obedient-actor")
        self.cfg = pipeline.PipelineConfig()
        self.expected = load_expected()[self.name]

    def round(self) -> Round:
        self.rounds_run += 1
        forged, unit_s = [], []
        for name, world in self.worlds.items():
            for s in self.seeds:
                t0 = time.perf_counter()
                result = pipeline.forge(world, list(world.tasks.values()),
                                        self.strong, self.weak, self.thinker,
                                        self.frozen, self.cfg, seeds=[s])
                unit_s.append(time.perf_counter() - t0)
                forged.append((name, result))
        out = self.workdir / f"forge-r{self.rounds_run}"
        out.mkdir(parents=True)
        groups = [g for _, result in forged for g in result.groups]
        pipeline.export_grpo(groups, out / "grpo.jsonl")
        for name, world in self.worlds.items():
            pipeline.export_sft(world, world.tasks,
                                [t for n, result in forged if n == name
                                 for t in result.strong_trajectories],
                                out / f"sft-{name}.jsonl")
        steps = sum(
            sum(t.final.steps_used for t in result.strong_trajectories)
            + sum(len(sub.weak_actions) for sub in result.subtasks)
            + sum(len(r.continuation) for g in result.groups for r in g.records)
            for _, result in forged)
        return Round(units=len(groups), steps=steps, unit_s=unit_s,
                     payload=(forged, groups, out))

    def observed(self, rnd: Round) -> list[tuple[str, object]]:
        forged, _, out = rnd.payload
        pairs = [pair for name, result in forged for pair in (
            (f"{name}/groups", result.manifest["groups"]),
            (f"{name}/difficulty_counts", result.manifest["difficulty_counts"]))]
        for name in self.worlds:
            text = (out / f"sft-{name}.jsonl").read_text(encoding="utf-8")
            pairs.append((f"{name}/sft_records", len(text.splitlines())))
        return pairs

    def check(self, rnd: Round) -> tuple[int, int]:
        forged, groups, out = rnd.payload
        # every expected group is one operation, and discarded ones fail;
        # every observed count is one more
        observed = self.observed(rnd)
        attempted = len(observed) + sum(self.expected.get(f"{name}/groups", 0)
                                        for name, _ in forged)
        failed = sum(len(result.skipped) for _, result in forged)
        failed += sum(1 for key, value in observed if self.expected.get(key) != value)
        lines = (out / "grpo.jsonl").read_text(encoding="utf-8").splitlines()
        attempted += max(len(lines), len(groups))
        failed += abs(len(lines) - len(groups))
        m = self.cfg.m
        for line, group in zip(lines, groups):
            record = json.loads(line)
            if (record["context_id"] != group.context_id
                    or record["prompt"] != group.prompt
                    or len(record["completions"]) != m
                    or len(record["rewards"]) != m):
                failed += 1
        shutil.rmtree(out)
        return attempted, failed


class RemoteProbe(Workload):
    """ttexplore over the three worlds with remote actor and thinker backed by
    a loopback stub that runs the scripted policies. The traced explore_batch
    run takes the remote-path metrics from one round of it."""
    name = "remote_probe"
    K = 5

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.seeds = episode_seeds(seed, self.K)
        # requests would send even loopback calls to a proxy named in the environment
        os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1"
        self.stub = StubServer(SCRIPTED_POLICIES).start()
        self.actor = PolicyHandle("actor", RemoteBackend(self.stub.endpoint,
                                                         "greedy-actor"))
        self.thinker = PolicyHandle("thinker", RemoteBackend(self.stub.endpoint,
                                                             "oracle-thinker"))
        self.cfg = RunConfig(mode="ttexplore", max_steps=50)
        # the same episodes with the scripted backends are the reference
        self.reference = [
            _trajectory_fields(r.trajectory)
            for r in self._run(scripted("actor", "greedy-actor"),
                               scripted("thinker", "oracle-thinker"))]

    def _run(self, actor: PolicyHandle, thinker: PolicyHandle) -> list:
        return [r for world in self.worlds.values()
                for r in orchestrator.run_batch(
                    world, [(task, s) for task in world.tasks.values()
                            for s in self.seeds],
                    self.cfg, actor, thinker=thinker)]

    def round(self) -> Round:
        results = self._run(self.actor, self.thinker)
        return Round(units=len(results),
                     steps=sum(r.trajectory.final.steps_used for r in results),
                     unit_s=[r.wall_s for r in results], payload=results)

    def check(self, rnd: Round) -> tuple[int, int]:
        rnd.stub_records = self.stub.take_records()
        results = rnd.payload
        calls = sum(len(r.trajectory.steps) + len(r.trajectory.thoughts)
                    for r in results)
        failed = sum(1 for r, ref in zip(results, self.reference)
                     if r.trajectory.error is not None
                     or _trajectory_fields(r.trajectory) != ref)
        # a retried call reaches the stub more than once
        failed += abs(len(rnd.stub_records) - calls)
        failed += abs(len(results) - len(self.reference))
        return len(results) + calls, failed

    def close(self) -> None:
        self.stub.close()


def _trajectory_fields(traj) -> dict:
    return {
        **outcome(traj),
        "observations": traj.observations(),
        "thoughts": [t.text for t in traj.thoughts],
        "process_score": traj.final.process_score,
        "error": traj.error,
    }


WORKLOADS = {w.name: w for w in (ExploreBatch, LongHorizon, ForgeData)}
