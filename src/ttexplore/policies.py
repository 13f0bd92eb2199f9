"""Actor/thinker policy backends.

Two backend families:

* scripted — named, deterministic functions of (prompt, seed), so the whole
  test suite runs offline. Each reads the episode state that the prompt
  shows: the view a render carries, or a parse of a plain-string prompt.
  An actor is a function of that view and the seed to a (thought, action)
  pair, behind one adapter, `_actor`, that resolves the view, formats the
  pair and answers the Reflexion baseline's reflection request; a thinker
  takes the prompt itself, whose text `noisy-thinker` hashes. Each deep
  thought's `Plan:` lines are parsed once, into a bounded cache keyed by the
  thought's text, however many steps follow the thought. The behavior
  table lives in this module.
* remote — a chat-completions style HTTP endpoint; one single-turn request per
  call, API key taken from an environment variable. The decode settings
  (`temperature`, `max_output_tokens`) are fields of `RemoteBackend`, the one
  backend that sends them. A 3xx or 4xx response other than 429 fails at
  once; 5xx, 429, timeouts and malformed bodies are retried up to
  `max_retries` times. A retry waits 0.5 s times the attempt number, or,
  after a 429 with an integer `Retry-After`, that many seconds, at most
  `timeout_s`. The HTTP stack (`urllib.request`, `http.client`, and with
  them `email` and `ssl`) is imported at the first remote call, so a
  process that runs only scripted policies never loads it.

A backend checks itself when it is made: a scripted name that
`SCRIPTED_POLICIES` lacks, an endpoint that is not an http(s) URL with a
host, a negative `max_retries`, a `timeout_s` that is not positive and
finite, a `temperature` that is negative or not finite, or a
`max_output_tokens` below 1 raises `ConfigError` naming the field before
any episode runs. A `RemoteError` is then the one failure that aborts an
episode; any other exception a policy raises is a bug and propagates.

The two backends are frozen dataclasses, so `dataclasses.replace` re-runs
these checks; a `PolicyHandle`, a role and a backend, is a
`typing.NamedTuple`.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
import time
import urllib.parse
import zlib
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from .prompts import (
    REFLECTION_MARKER,
    Prompt,
    PromptView,
    format_actor_tags,
    format_thinker_output,
    parse_prompt,
)
from .world import SENTINEL, parse_action


class ConfigError(ValueError):
    pass


class RemoteError(RuntimeError):
    """A remote completion failed; `status` is the HTTP status of the last
    attempt, None when it got no response."""

    def __init__(self, message: str, attempts: int,
                 status: Optional[int] = None):
        super().__init__(message)
        self.attempts = attempts
        self.status = status


@dataclass(frozen=True)
class ScriptedBackend:
    name: str

    def __post_init__(self):
        if self.name not in SCRIPTED_POLICIES:
            raise ConfigError(f"unknown scripted policy {self.name!r} "
                              f"(known: {', '.join(SCRIPTED_POLICIES)})")


@dataclass(frozen=True)
class RemoteBackend:
    endpoint: str
    model: str
    api_key_env: str = "TTEXPLORE_API_KEY"
    max_retries: int = 2
    timeout_s: float = 60.0
    temperature: float = 0.0
    max_output_tokens: int = 1024

    def __post_init__(self):
        try:  # urlsplit itself raises ValueError on a malformed IPv6 host
            url = urllib.parse.urlsplit(self.endpoint)
            if url.scheme not in ("http", "https") or not url.hostname:
                raise ValueError
        except ValueError:
            raise ConfigError(f"endpoint must be an http or https URL with a "
                              f"host, got {self.endpoint!r}") from None
        for name, ok, rule in (  # neither a socket nor JSON takes nan or inf
                ("max_retries", self.max_retries >= 0, ">= 0"),
                ("timeout_s", 0 < self.timeout_s < math.inf, "positive and finite"),
                ("temperature", 0 <= self.temperature < math.inf, ">= 0 and finite"),
                ("max_output_tokens", self.max_output_tokens >= 1, ">= 1")):
            if not ok:
                raise ConfigError(f"{name} must be {rule}, got {getattr(self, name)}")


class PolicyHandle(NamedTuple):
    role: str  # "actor" | "thinker"
    backend: ScriptedBackend | RemoteBackend


def scripted(role: str, name: str) -> PolicyHandle:
    return PolicyHandle(role=role, backend=ScriptedBackend(name))


def complete(policy: PolicyHandle, prompt: str, seed: int = 0) -> str:
    """Run one completion. Scripted backends are pure in (prompt, seed);
    remote backends issue a single chat-completion call. Identical outputs for
    identical remote prompts are NOT guaranteed, even at temperature 0."""
    backend = policy.backend
    if isinstance(backend, ScriptedBackend):
        return SCRIPTED_POLICIES[backend.name](prompt, seed)
    return _complete_remote(backend, prompt)


def _complete_remote(backend: RemoteBackend, prompt: str) -> str:
    # imported on first use, so scripted runs never load the HTTP stack
    import http.client
    import urllib.error
    import urllib.request

    headers = {"Content-Type": "application/json"}
    api_key = os.environ.get(backend.api_key_env)
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    payload = json.dumps({
        "model": backend.model,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": backend.temperature,
        "max_tokens": backend.max_output_tokens,
    }).encode("utf-8")
    last_error: Optional[Exception] = None
    attempts = 0
    status: Optional[int] = None
    for attempt in range(backend.max_retries + 1):
        attempts = attempt + 1
        status = None
        wait_s = 0.5 * attempts
        try:
            request = urllib.request.Request(backend.endpoint, data=payload,
                                             headers=headers, method="POST")
            with urllib.request.urlopen(request, timeout=backend.timeout_s) as resp:
                status = resp.status
                body = json.loads(resp.read())
            content = body["choices"][0]["message"]["content"]
            if not isinstance(content, str):
                raise TypeError(f"message content is not a string: {content!r}")
            return content
        except urllib.error.HTTPError as exc:  # an answer with a 3xx-5xx status
            status, last_error = exc.code, exc
            retry_after = exc.headers.get("Retry-After", "")
            if status == 429 and retry_after.isascii() and retry_after.isdigit():
                wait_s = min(int(retry_after), backend.timeout_s)
            exc.close()
        except (OSError, http.client.HTTPException, LookupError, TypeError,
                ValueError) as exc:
            last_error = exc
        if status is not None and 300 <= status < 500 and status != 429:
            # a client error or an unfollowed redirect: retrying sends the
            # same request and gets the same answer
            break
        if attempt < backend.max_retries:
            time.sleep(wait_s)
    raise RemoteError(f"remote completion failed: {last_error}",
                      attempts=attempts, status=status)


# ---------------------------------------------------------------------------
# Scripted fixture policies
# ---------------------------------------------------------------------------

# Full known-good action scripts, keyed by task instruction.
SOLUTIONS: dict[str, list[str]] = {
    "put the apple on the table": [
        "go to kitchen",
        "go to fridge 1",
        "open fridge 1",
        "take apple 1 from fridge 1",
        "go to table 1",
        "put apple 1 on table 1",
    ],
    "put the soap on the table": [
        "go to kitchen",
        "go to cabinet 1",
        "open cabinet 1",
        "take soap 1 from cabinet 1",
        "go to table 1",
        "put soap 1 on table 1",
    ],
    "put the gem on the shelf": [
        "go to drawer 1",
        "open drawer 1",
        "take key 1 from drawer 1",
        "go to chest 1",
        "open chest 1",
        "put key 1 in chest 1",
        "take gem 1 from chest 1",
        "go to shelf 1",
        "put gem 1 on shelf 1",
    ],
}

# What a rule-ignorant subgoal chaser tries: interact with targets directly,
# no navigation, no opening of containers it has not thought about.
NAIVE_PLANS: dict[str, list[str]] = {
    "put the apple on the table": [
        "open fridge 1",
        "take apple 1 from fridge 1",
        "put apple 1 on table 1",
    ],
    "put the soap on the table": [
        "open cabinet 1",
        "take soap 1 from cabinet 1",
        "put soap 1 on table 1",
    ],
    "put the gem on the shelf": [
        "open chest 1",
        "take gem 1 from chest 1",
        "put gem 1 on shelf 1",
    ],
}

# Round-robin action cycles for the wanderer (the difficulty-probing weak
# policy of the data pipeline fixtures). The cycle position is the history
# length mod cycle length, so different replayed prefixes start at different
# points.
WANDER_CYCLES: dict[str, list[str]] = {
    "put the soap on the table": [
        "take soap 1 from cabinet 1",
        "look around",
        "go to table 1",
        "look around",
        "go to cabinet 1",
        "put soap 1 on table 1",
    ],
}

CANNED_REFLECTION = (
    "The previous attempt failed. Navigate to a target before interacting "
    "with it, and do not repeat actions that produced no effect."
)


def prompt_view(prompt: str) -> PromptView:
    """What `prompt` shows of the episode: the view a render carries, or the
    parse of a plain string, such as a prompt that came over the wire."""
    return prompt.view if isinstance(prompt, Prompt) else parse_prompt(prompt)


@functools.lru_cache(maxsize=256)
def _plan_lines(thought_text: str) -> tuple[str, ...]:
    """The `- ` lines after the thought's first `Plan:` line, stripped."""
    lines = thought_text.split("\n")
    plan: list[str] = []
    in_plan = False
    for line in lines:
        if line.strip() == "Plan:":
            in_plan = True
            continue
        if in_plan:
            if line.startswith("- "):
                plan.append(line[2:].strip())
            else:
                break
    return tuple(plan)


def _latest_plan_step(view: PromptView) -> Optional[str]:
    """Next unexecuted plan line of the latest deep thought, if any."""
    if not view.thoughts:
        return None
    anchor_pos, text = view.thoughts[-1]
    plan = _plan_lines(text)
    idx = len(view.steps) - anchor_pos
    if 0 <= idx < len(plan):
        return plan[idx]
    return None


def _repeat_last(view: PromptView) -> tuple[str, str]:
    """Repeat the last step's action, or look around before the first."""
    return "keep going", view.steps[-1][0] if view.steps else "look around"


def _actor(policy: Callable[[PromptView, int], tuple[str, str]]
           ) -> Callable[[str, int], str]:
    """The scripted actor of `policy`, a function of what a prompt shows
    and the seed to a (thought, action) pair: it answers a reflection
    request with the canned reflection, and any other prompt with the pair
    in tag form. Only the reflection render starts with the marker; an
    actor prompt can hold it elsewhere, in a world's action doc, say."""
    @functools.wraps(policy)
    def actor(prompt: str, seed: int) -> str:
        if prompt.startswith(REFLECTION_MARKER):
            return CANNED_REFLECTION
        return format_actor_tags(*policy(prompt_view(prompt), seed))
    return actor


@_actor
def loop_actor(view: PromptView, seed: int) -> tuple[str, str]:
    """Repeats its last action."""
    return _repeat_last(view)


@_actor
def greedy_actor(view: PromptView, seed: int) -> tuple[str, str]:
    """Subgoal chaser blind to the rules; follows the latest deep thought's plan
    lines when one is present."""
    planned = _latest_plan_step(view)
    if planned is not None:
        return "following the plan", planned
    naive = NAIVE_PLANS.get(view.instruction, ["look around"])
    attempted, done = set(), set()
    for action, observation in view.steps:
        attempted.add(action)
        if observation != SENTINEL:
            done.add(action)
    candidates = [a for a in naive if a not in done]
    if not candidates:
        return "nothing left to try", "look around"
    for action in candidates:
        if action not in attempted:
            return "trying the direct approach", action
    return "trying again", candidates[-1]


@_actor
def obedient_actor(view: PromptView, seed: int) -> tuple[str, str]:
    """Follows the latest thought's plan lines; with no plan it degenerates to
    repeating its last action."""
    planned = _latest_plan_step(view)
    if planned is not None:
        return "following the plan", planned
    return _repeat_last(view)


@_actor
def oracle_actor(view: PromptView, seed: int) -> tuple[str, str]:
    """Strong policy: plays the known-good script from the step after the
    last visible action that the script holds, so a truncated prompt does
    not restart it; from the count of visible steps when it sees none."""
    script = SOLUTIONS.get(view.instruction, [])
    idx = next((script.index(a) + 1 for a, _ in reversed(view.steps)
                if a in script), len(view.steps))
    if idx < len(script):
        return "executing the known solution", script[idx]
    return "done", "look around"


@_actor
def wanderer_actor(view: PromptView, seed: int) -> tuple[str, str]:
    """Weak policy: cycles a fixed action list, position keyed to history
    length so behavior depends on the replayed prefix."""
    cycle = WANDER_CYCLES.get(view.instruction)
    if not cycle:
        naive = NAIVE_PLANS.get(view.instruction, [])
        cycle = naive + ["look around"] if naive else ["look around"]
    return "wandering", cycle[len(view.steps) % len(cycle)]


@_actor
def staged_actor(view: PromptView, seed: int) -> tuple[str, str]:
    """Executes two more solution steps per reflection received; used to
    exercise the retry harness."""
    script = SOLUTIONS.get(view.instruction, [])
    limit = 2 * (len(view.reflections) + 1)
    idx = len(view.steps)
    if idx < min(limit, len(script)):
        return "one more stage", script[idx]
    return "out of ideas", "look around"


# keyed on exactly the guard ids of `world.GUARDS`
_RULE_EXPLANATIONS = {
    "must-face-target": "the agent must go to an object before interacting with it",
    "closed-blocks-access": "a closed container blocks access to its contents",
    "locked-needs-key": "a locked container only opens while its key is in hand",
}


def _blocked(rule: str) -> str:
    return (f"a hidden rule ({rule}) is blocking progress: "
            f"{_RULE_EXPLANATIONS[rule]}")


def _diagnose(view: PromptView, failed_action: str) -> str:
    """Why `failed_action` had no effect: a declared rule, named by its id,
    or an action the engine itself rejects, which names no rule."""
    action = parse_action(failed_action)
    if action.verb == "unknown":
        return ("the action is invalid: the environment only understands "
                "its documented verbs")
    facing = None
    for a, o in view.steps:
        parsed = parse_action(a)
        if o != SENTINEL and parsed.verb == "go" and parsed.target is not None:
            facing = parsed.target
        elif o != SENTINEL and parsed.verb == "go":
            facing = None
    target = action.item if action.verb == "open" else action.target
    if target is not None and facing != target:
        return _blocked("must-face-target")
    if action.verb == "take":
        takes = [a for a, o in view.steps if o != SENTINEL and a.startswith("take ")]
        puts = [a for a, o in view.steps if o != SENTINEL and a.startswith("put ")]
        if len(takes) > len(puts):
            return ("the action is invalid: the agent cannot hold two objects "
                    "at the same time")
        return _blocked("closed-blocks-access")
    if action.verb == "open":
        return _blocked("locked-needs-key")
    return _blocked("closed-blocks-access")


def _corrective_plan(instruction: str, succeeded: set[str]) -> list[str]:
    # navigation is never skipped: facing is transient, so a past "go to"
    # success does not mean the agent is still there
    script = SOLUTIONS.get(instruction, [])
    done = {a for a in succeeded
            if parse_action(a).verb in ("open", "take", "put")}
    return [a for a in script if a not in done]


def oracle_thinker(prompt: str, seed: int) -> str:
    """Names the violated fixture rule and emits a corrective plan."""
    view = prompt_view(prompt)
    failed, last_failed, succeeded = 0, "", set()
    for action, observation in view.steps:
        if observation == SENTINEL:
            failed += 1
            last_failed = action
        else:
            succeeded.add(action)
    plan = _corrective_plan(view.instruction, succeeded)
    lines: list[str]
    if failed:
        lines = [
            f"Summary: {failed} recent actions had no effect.",
            f"Hypothesis: {_diagnose(view, last_failed)}.",
        ]
    else:
        lines = ["Summary: all feedback so far looks consistent."]
    if plan:
        lines.append("Plan:")
        lines += [f"- {a}" for a in plan]
    else:
        lines.append("Plan:")
        lines.append("- look around")
    return format_thinker_output("\n".join(lines))


def null_thinker(prompt: str, seed: int) -> str:
    return format_thinker_output(
        "Summary: everything looks fine so far.\ncontinue")


def noisy_thinker(prompt: str, seed: int) -> str:
    """Stochastic trainable-thinker stand-in: seed decides between a helpful
    corrective thought and a useless one."""
    rng = random.Random(f"{zlib.crc32(prompt.encode('utf-8'))}:{seed}")
    if rng.random() < 0.5:
        return oracle_thinker(prompt, seed)
    return null_thinker(prompt, seed)


SCRIPTED_POLICIES: dict[str, Callable[[str, int], str]] = {
    "loop-actor": loop_actor,
    "greedy-actor": greedy_actor,
    "obedient-actor": obedient_actor,
    "oracle-actor": oracle_actor,
    "wanderer-actor": wanderer_actor,
    "staged-actor": staged_actor,
    "oracle-thinker": oracle_thinker,
    "null-thinker": null_thinker,
    "noisy-thinker": noisy_thinker,
}
