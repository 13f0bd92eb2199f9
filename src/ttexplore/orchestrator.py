"""Episode execution and the run store.

`run_mode` runs one episode of any mode on its `seed` argument. An episode
is of one of two kinds: plain ReAct (actor only) or ttexplore (the actor
plus a thinker triggered every `n_trigger` steps). Mode `reflexion` retries
failed episodes on `seed` with reflections and `bestofn` keeps the best of
N episodes, sample i on `sample_seed(seed, i, N)`, which is `seed * N + i`;
for these two, `inner_mode` picks the episode kind. Thinker invocations
never consume the step budget. Episodes are strictly sequential inside; the
batch runner parallelizes across episodes only, on a thread pool that it
imports only when `parallelism` is above 1.

`run_steps` is the one actor loop: every episode runs on it, and so do
`forge`'s weak probes and frozen-actor continuations, which start from a
given state and history and stop at a score floor. `_act` and `_think`
share one parse-retry path: a parse failure is retried once, and each
failed attempt logs one warning on this module's logger.

`run_batch` runs a batch of episodes. Given a store directory, it writes the
run store after the last episode: `transcripts.jsonl`, whose line i+1 holds
episode i's step records, then `timings.json`, and `manifest.json` last. A
batch that fails leaves no manifest.
"""

from __future__ import annotations

import json
import logging
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

from . import metrics as metrics_mod
from .policies import PolicyHandle, RemoteError, complete
from .prompts import (
    DEFAULT_CHAR_BUDGET,
    DeepThought,
    HistoryView,
    ParseError,
    parse_actor_output,
    parse_thinker_output,
    render_actor_prompt,
    render_reflection_prompt,
    render_thinker_prompt,
)
from .world import TaskSpec, TextWorld, WorldState

log = logging.getLogger(__name__)

FALLBACK_ACTION = "look around"


EPISODE_KINDS = ("react", "ttexplore")
MODES = (*EPISODE_KINDS, "reflexion", "bestofn")


@dataclass(frozen=True)
class RunConfig:
    """The run values of an episode. A config checks every rule when it is
    made, `dataclasses.replace` included, so one that exists can run."""
    mode: str = "react"  # one of MODES
    inner_mode: str = "ttexplore"  # episode kind for reflexion and bestofn
    n_trigger: int = 6
    max_steps: int = 50
    retries_N: int = 5
    samples_N: int = 5
    char_budget: int = DEFAULT_CHAR_BUDGET

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.inner_mode not in EPISODE_KINDS:
            raise ValueError(f"unknown inner mode {self.inner_mode!r}")
        if self.n_trigger <= 0 or self.max_steps <= 0:
            raise ValueError("n_trigger and max_steps must be positive")
        if self.n_trigger >= self.max_steps and self.episode_kind == "ttexplore":
            raise ValueError("n_trigger must be smaller than max_steps")
        for name in ("retries_N", "samples_N", "char_budget"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")

    @property
    def episode_kind(self) -> str:
        """`inner_mode` for reflexion and bestofn, `mode` for the other two."""
        return (self.inner_mode if self.mode in ("reflexion", "bestofn")
                else self.mode)

    def episode_thinker(self, thinker: Optional[PolicyHandle]) -> Optional[PolicyHandle]:
        """The thinker each episode runs with: a ttexplore episode needs the
        thinker, a ReAct episode drops it."""
        if self.episode_kind == "react":
            return None
        if thinker is None:
            how = (f" with inner_mode {self.inner_mode!r}"
                   if self.mode != self.episode_kind else "")
            raise ValueError(f"mode {self.mode!r}{how} needs a thinker policy")
        return thinker


@dataclass
class StepRecord:
    action: str
    observation: str
    score_after: float
    done: bool = False


@dataclass
class Final:
    success: bool
    process_score: float
    steps_used: int


@dataclass
class Trajectory:
    task_id: str
    seed: int
    mode: str
    initial_observation: str
    steps: list[StepRecord] = field(default_factory=list)
    thoughts: list[DeepThought] = field(default_factory=list)
    final: Final = field(default_factory=lambda: Final(False, 0.0, 0))
    error: Optional[str] = None

    def actions(self) -> list[str]:
        return [s.action for s in self.steps]

    def observations(self) -> list[str]:
        return [s.observation for s in self.steps]


@dataclass
class EpisodeResult:
    trajectory: Trajectory
    metrics: metrics_mod.ExplorationMetrics
    wall_s: float

    def summary(self) -> tuple[bool, float, metrics_mod.ExplorationMetrics, float]:
        """What `metrics.aggregate` reads of the episode."""
        final = self.trajectory.final
        return final.success, final.process_score, self.metrics, self.wall_s


def _parsed_completion(policy: PolicyHandle, prompt: str, seed: int, parse,
                       on_failure: str):
    """`parse` of the policy's completion, retried once; each failed attempt
    logs one warning (the second ends in `on_failure`), and two give None."""
    for then in ("retrying once", on_failure):
        try:
            return parse(complete(policy, prompt, seed=seed))
        except ParseError as exc:
            log.warning("%s parse failure (%s); %s", policy.role,
                        exc.kind.value, then)
    return None


def _act(actor: PolicyHandle, task: TaskSpec, view: HistoryView, seed: int,
         cfg: RunConfig) -> str:
    """One actor decision; a persistent parse failure gives the no-op."""
    prompt = render_actor_prompt(task, view, char_budget=cfg.char_budget)
    output = _parsed_completion(actor, prompt, seed, parse_actor_output,
                                f"substituting {FALLBACK_ACTION!r}")
    return FALLBACK_ACTION if output is None else output.action


def _think(thinker: PolicyHandle, task: TaskSpec, view: HistoryView, seed: int,
           cfg: RunConfig) -> Optional[str]:
    """One thinker invocation; a persistent parse failure skips the thought."""
    prompt = render_thinker_prompt(task, view, char_budget=cfg.char_budget)
    return _parsed_completion(thinker, prompt, seed, parse_thinker_output,
                              "episode continues without a thought")


def run_steps(world: TextWorld, actor: PolicyHandle, task: TaskSpec,
              state: WorldState, view: HistoryView, steps: list[StepRecord],
              budget: int, seed: int, cfg: RunConfig,
              thinker: Optional[PolicyHandle] = None,
              floor: Optional[float] = None) -> WorldState:
    """The actor loop: from (state, view), act at most `budget` steps,
    appending each to `steps` and the view; stop after a step that completes
    the task or lifts the score above `floor`. A given thinker thinks after
    every `n_trigger`-th step but the last. Returns the last state."""
    for t in range(1, budget + 1):
        action = _act(actor, task, view, seed, cfg)
        state, obs, score, done = world.step(state, action, task)
        steps.append(StepRecord(action=action, observation=obs.text,
                                score_after=score, done=done))
        view.add_step(action, obs.text)
        if done or (floor is not None and score > floor):
            break
        if thinker is not None and t % cfg.n_trigger == 0 and t < budget:
            text = _think(thinker, task, view, seed, cfg)
            if text is not None:
                view.add_thought(text)
    return state


def _aborted(exc: Exception) -> str:
    """Log a policy backend failure; return it as a trajectory's `error`."""
    log.error("episode aborted: %s", exc)
    return f"{type(exc).__name__}: {exc}"


def _run_episode(world: TextWorld, actor: PolicyHandle, task: TaskSpec,
                 cfg: RunConfig, thinker: Optional[PolicyHandle], seed: int,
                 reflections: Optional[list[str]] = None) -> Trajectory:
    state, obs0 = world.reset(task, seed)
    view = HistoryView(task.id, obs0.text,
                       reflections=list(reflections or []))
    traj = Trajectory(task_id=task.id, seed=seed, mode=cfg.mode,
                      initial_observation=obs0.text)
    try:
        run_steps(world, actor, task, state, view, traj.steps, cfg.max_steps,
                  seed, cfg, thinker=thinker)
    except RemoteError as exc:  # a policy backend failed
        traj.error = _aborted(exc)
    traj.thoughts = [DeepThought(text=text, anchor_step=anchor)
                     for anchor, text in view.thoughts]
    if traj.steps:
        last = traj.steps[-1]
        traj.final = Final(last.done, last.score_after, len(traj.steps))
    else:
        traj.final = Final(False, world.process_score(state, task), 0)
    return traj


def _reflexion(world: TextWorld, actor: PolicyHandle, task: TaskSpec,
               cfg: RunConfig, thinker: Optional[PolicyHandle], seed: int) -> Trajectory:
    """Up to retries_N independent attempts; after each failure a reflection
    generated by the actor backend is prepended to the next attempt. A backend
    failure while reflecting ends the retries: the best attempt so far is
    returned with the failure as its `error`."""
    reflections: list[str] = []
    best: Optional[Trajectory] = None
    for attempt in range(cfg.retries_N):
        traj = _run_episode(world, actor, task, cfg, thinker, seed,
                            reflections=reflections)
        if best is None or traj.final.process_score > best.final.process_score:
            best = traj
        if traj.final.success:
            break
        if attempt < cfg.retries_N - 1:
            view = HistoryView(task.id, traj.initial_observation,
                               steps=zip(traj.actions(), traj.observations()))
            prompt = render_reflection_prompt(task, view, traj.final.process_score,
                                              cfg.char_budget)
            try:
                reflection = complete(actor, prompt, seed=seed).strip()
            except RemoteError as exc:  # a policy backend failed
                best.error = _aborted(exc)
                break
            reflections.append(reflection)
    return best  # set by the first of at least one attempt


def sample_seed(seed: int, index: int, count: int) -> int:
    """The seed of sample `index` of `count`: no two (seed, index) pairs of
    one count share it, since `index` is its remainder modulo `count`."""
    if not 0 <= index < count:
        raise ValueError(f"sample index {index} is outside range({count})")
    return seed * count + index


def _best_of_n(world: TextWorld, actor: PolicyHandle, task: TaskSpec,
               cfg: RunConfig, thinker: Optional[PolicyHandle], seed: int) -> Trajectory:
    """samples_N independent episodes, sample i on `sample_seed(seed, i, N)`."""
    n = cfg.samples_N
    return select_best([_run_episode(world, actor, task, cfg, thinker,
                                     sample_seed(seed, i, n)) for i in range(n)])


def select_best(samples: list[Trajectory]) -> Trajectory:
    """The sample with the highest process score; a tie goes to the fewest
    steps, then to the lowest sample index (`max` keeps the first)."""
    return max(samples, key=lambda t: (t.final.process_score, -t.final.steps_used))


def run_mode(world: TextWorld, actor: PolicyHandle, task: TaskSpec,
             cfg: RunConfig, thinker: Optional[PolicyHandle] = None,
             seed: int = 0) -> Trajectory:
    """One episode of `cfg.mode` on `seed`; `RunConfig.episode_thinker`
    decides whether the thinker runs. The trajectory records the seed its
    steps ran on: a `bestofn` episode's is its chosen sample's, `seed * N + i`."""
    thinker = cfg.episode_thinker(thinker)
    if cfg.mode == "reflexion":
        return _reflexion(world, actor, task, cfg, thinker, seed)
    if cfg.mode == "bestofn":
        return _best_of_n(world, actor, task, cfg, thinker, seed)
    return _run_episode(world, actor, task, cfg, thinker, seed)


# ---------------------------------------------------------------------------
# Run store
# ---------------------------------------------------------------------------

class RunStoreError(RuntimeError):
    pass


# one encoder for every JSONL line: `json.dumps` builds a new one per call
_JSON_LINE = json.JSONEncoder(ensure_ascii=False)


def write_json_atomic(path: Path, data: dict) -> None:
    """Write indented, key-sorted JSON to a temp file beside `path`, then
    rename it over `path`: readers see the old file or the new one, never a
    partial write."""
    text = json.dumps(data, indent=2, ensure_ascii=False, sort_keys=True) + "\n"
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_jsonl(path: Path, records: list) -> None:
    """One JSON line per record, in UTF-8; an empty list writes an empty
    file."""
    lines = [_JSON_LINE.encode(record) for record in records]
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def read_transcript(path: Path) -> list:
    """The JSON value of each line of `path`; a file that cannot be read as
    UTF-8 fails naming the file, and a line that is not JSON naming the file
    and the line. Only a newline ends a line: JSON leaves U+2028 and other
    line separators unescaped inside strings."""
    try:
        lines = path.read_text(encoding="utf-8").split("\n")
    except (OSError, UnicodeError) as exc:
        raise RunStoreError(f"{path}: cannot read transcripts: {exc}") from None
    if lines[-1] == "":
        lines.pop()
    values = []
    for lineno, line in enumerate(lines, 1):
        try:
            values.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise RunStoreError(f"{path}:{lineno}: corrupt transcript line: {exc}")
    return values


def _episode_manifest_entry(traj: Trajectory,
                            m: metrics_mod.ExplorationMetrics) -> dict:
    return {
        "task_id": traj.task_id,
        "seed": traj.seed,
        "mode": traj.mode,
        "success": traj.final.success,
        "process_score": traj.final.process_score,
        "steps_used": traj.final.steps_used,
        "initial_observation": traj.initial_observation,
        "thoughts": [{"anchor_step": t.anchor_step, "text": t.text}
                     for t in traj.thoughts],
        "metrics": m.as_dict(),
        "error": traj.error,
    }


def repeated(values: list | tuple) -> Optional[object]:
    """The first value of `values` that an earlier one equals, or None; the
    values are hashable, so a batch of any size is checked in one pass."""
    seen: set = set()
    return next((v for v in values if v in seen or seen.add(v)), None)


def _persist(path: Path, write, *args) -> None:
    """`write(path, *args)`; an OSError becomes a RunStoreError naming
    `path`."""
    try:
        write(path, *args)
    except OSError as exc:
        raise RunStoreError(f"{path}: cannot write the run store: {exc}") from exc


def run_batch(world: TextWorld, items: list[tuple[TaskSpec, int]], cfg: RunConfig,
              actor: PolicyHandle, thinker: Optional[PolicyHandle] = None,
              store_dir: Optional[Path] = None,
              parallelism: int = 1,
              world_file: Optional[str] = None) -> list[EpisodeResult]:
    """Run one episode per (task, seed) item; results keep input order. An
    item given twice raises `ValueError` before the store is touched. A
    `store_dir` loses any manifest before the first episode and gets the run
    store after the last; a failed store write raises `RunStoreError`."""
    if (twice := repeated([(task.id, seed) for task, seed in items])) is not None:
        raise ValueError(f"task {twice[0]!r} seed {twice[1]} is given twice")
    if store_dir is not None:
        store_dir = Path(store_dir)
        _persist(store_dir, lambda p: p.mkdir(parents=True, exist_ok=True))
        # a batch that fails leaves no manifest beside what it overwrote
        _persist(store_dir / "manifest.json", lambda p: p.unlink(missing_ok=True))

    def one(item: tuple[TaskSpec, int]) -> EpisodeResult:
        task, seed = item
        t0 = time.perf_counter()
        traj = run_mode(world, actor, task, cfg, thinker, seed)
        wall_s = time.perf_counter() - t0
        m = metrics_mod.episode_metrics(traj.actions(), traj.observations())
        return EpisodeResult(trajectory=traj, metrics=m, wall_s=wall_s)

    if parallelism > 1:
        from concurrent.futures import ThreadPoolExecutor  # serial runs skip it
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            results = list(pool.map(one, items))
    else:
        results = [one(item) for item in items]

    if store_dir is not None:
        # the manifest goes last, so a store with one has all of its files
        _persist(store_dir / "transcripts.jsonl", write_jsonl, [
            [{"step": i, "action": step.action, "observation": step.observation,
              "score": step.score_after, "done": step.done}
             for i, step in enumerate(r.trajectory.steps, start=1)]
            for r in results])
        _persist(store_dir / "timings.json", write_json_atomic, {
            "episodes": [round(r.wall_s, 6) for r in results],
            "total_s": round(sum(r.wall_s for r in results), 6),
        })
        _persist(store_dir / "manifest.json", write_json_atomic, {
            "config": asdict(cfg),
            "world_file": world_file,
            "world_id": world.id,
            "episodes": [_episode_manifest_entry(r.trajectory, r.metrics)
                         for r in results],
            "aggregate": metrics_mod.aggregate_deterministic(
                [r.summary() for r in results]),
        })
    return results
