"""Prompt rendering and tagged-output parsing for the actor and thinker roles.

Rendering is pure: two renders of the same inputs produce identical bytes.
When a rendered prompt would exceed the character budget, the oldest
(action, observation) pairs are dropped first; the instruction, the initial
observation, and every deep thought are always retained. Fitting costs one
extra build, not one build per dropped step: the drop count comes from the
exact character cost of each step's two lines.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .world import TaskSpec


class ParseErrorKind(Enum):
    MissingThink = "missing-think"
    MissingAnswer = "missing-answer"
    EmptyAction = "empty-action"
    MissingDeepthink = "missing-deepthink"


class ParseError(ValueError):
    def __init__(self, kind: ParseErrorKind, message: str = ""):
        super().__init__(message or kind.value)
        self.kind = kind


class ContractViolation(ValueError):
    """A history view was rendered against the wrong task."""


@dataclass(frozen=True)
class ActorOutput:
    thought: str
    action: str


@dataclass(frozen=True)
class DeepThought:
    text: str
    anchor_step: int


@dataclass
class HistoryView:
    """Everything a prompt render needs about an episode in progress."""
    task_id: str
    initial_observation: str
    steps: list[tuple[str, str]] = field(default_factory=list)  # (action, observation)
    thoughts: list[tuple[int, str]] = field(default_factory=list)  # (anchor_step, text)
    reflections: list[str] = field(default_factory=list)


ACTOR_FORMAT_BLOCK = (
    "<think> put your thought here </think>\n"
    "<answer> put your action here </answer>"
)

THINKER_FORMAT_BLOCK = "<deepthink> put your thought here </deepthink>"

TRUNCATION_MARKER = "[... earlier steps truncated ...]"

DEFAULT_CHAR_BUDGET = 100_000


def _history_lines(view: HistoryView, drop_oldest: int = 0) -> list[str]:
    thoughts_at: dict[int, list[str]] = {}
    for anchor, text in view.thoughts:
        thoughts_at.setdefault(anchor, []).append(f"Deep Thought: {text}")
    lines = [TRUNCATION_MARKER] if drop_oldest > 0 else []
    lines += thoughts_at.get(0, [])  # anchor 0 thoughts precede the first step
    for i, (action, observation) in enumerate(view.steps, start=1):
        if i > drop_oldest:
            lines.append(f"Action: {action}")
            lines.append(f"Observation: {observation}")
        lines += thoughts_at.get(i, [])
    return lines


def _check_history(task: TaskSpec, view: HistoryView) -> None:
    if view.task_id != task.id:
        raise ContractViolation(
            f"history belongs to task {view.task_id!r}, not {task.id!r}")
    anchors = [a for a, _ in view.thoughts]
    for a in anchors:
        if a < 0 or a > len(view.steps):
            raise ContractViolation(f"thought anchor {a} outside history of "
                                    f"length {len(view.steps)}")


def render_actor_prompt(task: TaskSpec, view: HistoryView,
                        char_budget: int = DEFAULT_CHAR_BUDGET) -> str:
    _check_history(task, view)

    def build(drop: int) -> str:
        parts = [
            "You are an Action Agent responsible for achieving a text-based task.",
            "",
            "Now you need to finish a text-based task in an environment with "
            "multi-turn interaction.",
            "",
            "Task Examples:",
            "\n".join(e.rstrip() for e in task.examples),
            "",
            "Task Actions:",
            task.action_space_doc.rstrip(),
            "",
            f"The Task: {task.instruction}",
            "",
            f"Initial Observation: {view.initial_observation}",
        ]
        history = _history_lines(view, drop)
        if history:
            parts += ["", "History:"] + history
        if view.reflections:
            parts += ["", "Previous Reflections:"]
            parts += [f"- {r}" for r in view.reflections]
        parts += [
            "",
            "Attention:",
            "1. You MUST provide your thought (one or two lines) before taking action.",
            "2. You MUST issue only ONE action in each interaction stage.",
            "",
            "Please provide your response to the task following the format "
            "strictly. Use the following format:",
            ACTOR_FORMAT_BLOCK,
        ]
        return "\n".join(parts)

    return _fit_budget(build, view.steps, char_budget)


def render_thinker_prompt(task: TaskSpec, view: HistoryView,
                          char_budget: int = DEFAULT_CHAR_BUDGET) -> str:
    _check_history(task, view)

    def build(drop: int) -> str:
        history = _history_lines(view, drop)
        parts = [
            "You are a Thinker Agent responsible for uncovering the implicit "
            "rules of the environment. You must analyze the history trajectory "
            "carefully and reason about any confusing feedback from the "
            "environment.",
            "",
            "Here is the information about the task environment.",
            "",
            "Task Actions:",
            task.action_space_doc.rstrip(),
            "",
            f"The Task: {task.instruction}",
            "",
            f"Initial Observation: {view.initial_observation}",
            "",
            "History Trajectory:",
        ]
        parts += history if history else ["(no interaction yet)"]
        parts += [
            "",
            "Attention:",
            "1. If you think all the feedback in the history trajectory is "
            "reasonable, summarize the subgoals you have completed and provide "
            "your next plan.",
            "2. If you find the environment's feedback in the latest steps "
            "confusing, think carefully about possible reasons. Do not assume "
            "the environment is erroneous; instead, consider what hidden rules "
            "could explain the observations.",
            "3. For any uncertainties, try to formulate hypotheses and design "
            "plans to verify them.",
            "",
            "Use the following format for your response:",
            THINKER_FORMAT_BLOCK,
        ]
        return "\n".join(parts)

    return _fit_budget(build, view.steps, char_budget)


def _fit_budget(build, steps: list[tuple[str, str]], char_budget: int) -> str:
    """Build with the fewest oldest steps dropped that fits, or all of them.
    Only the dropped steps' lines and the truncation marker change the
    length, so the drop count follows from the full prompt's excess."""
    prompt = build(0)
    excess = len(prompt) - char_budget
    if excess <= 0 or not steps:
        return prompt
    excess += len(TRUNCATION_MARKER) + 1
    drop = 0
    while excess > 0 and drop < len(steps):
        action, observation = steps[drop]
        excess -= len("Action: \nObservation: \n") + len(action) + len(observation)
        drop += 1
    return build(drop)


_THINK_RE = re.compile(r"<think>(.*?)</think>", re.DOTALL)
_ANSWER_RE = re.compile(r"<answer>(.*?)</answer>", re.DOTALL)
_DEEPTHINK_RE = re.compile(r"<deepthink>(.*?)</deepthink>", re.DOTALL)


def parse_actor_output(raw: str) -> ActorOutput:
    """Extract the first think/answer block pair; surrounding junk is ignored."""
    think = _THINK_RE.search(raw)
    if think is None:
        raise ParseError(ParseErrorKind.MissingThink, "no <think> block found")
    answer = _ANSWER_RE.search(raw)
    if answer is None:
        raise ParseError(ParseErrorKind.MissingAnswer, "no <answer> block found")
    thought = think.group(1).strip()
    action = answer.group(1).strip()
    if not action:
        raise ParseError(ParseErrorKind.EmptyAction, "empty <answer> body")
    return ActorOutput(thought=thought or "(none)", action=action)


def parse_thinker_output(raw: str) -> str:
    """Extract the first deepthink block; any hidden-reasoning preamble before
    it (thinking-mode models) is discarded."""
    match = _DEEPTHINK_RE.search(raw)
    if match is None:
        raise ParseError(ParseErrorKind.MissingDeepthink, "no <deepthink> block found")
    return match.group(1).strip()


def format_actor_output(output: ActorOutput) -> str:
    """Canonical tag form; parse(format(x)) == x."""
    return f"<think>{output.thought}</think>\n<answer>{output.action}</answer>"


def format_thinker_output(text: str) -> str:
    return f"<deepthink>{text}</deepthink>"


# --- prompt introspection, used by the scripted fixture policies -----------

@dataclass
class PromptView:
    instruction: str = ""
    initial_observation: str = ""
    steps: list[tuple[str, str]] = field(default_factory=list)
    thoughts: list[tuple[int, str]] = field(default_factory=list)  # (step position, text)
    reflections: list[str] = field(default_factory=list)


# Every token starts at a line start. An empty line is a single-line token no
# branch acts on, so the extra empty match `finditer` yields right after a
# thought that ends on an empty line changes nothing.
_PROMPT_TOKEN_RE = re.compile(
    r"^(?:(?P<pairs>Action: [^\n]*\nObservation: [^\n]*"
    r"(?:\nAction: [^\n]*\nObservation: [^\n]*)*)"
    r"|Deep Thought: (?P<thought>[^\n]*(?:\n(?!Action: |Deep Thought: "
    r"|\n(?:Attention:|Previous Reflections:)$)[^\n]*)*)"
    r"|[^\n]*)",
    re.MULTILINE)
_PAIR_RE = re.compile(r"^Action: (.*)\nObservation: (.*)$", re.MULTILINE)


def parse_prompt(prompt: str) -> PromptView:
    """Recover the structured history from a rendered prompt.

    Scripted policies are pure functions of (prompt, seed); this is how they
    read the episode state back out of the text. One regex pass splits the
    prompt into three kinds of token:

    - a run of adjacent ``Action: `` / ``Observation: `` line pairs, whose
      steps come from one ``findall``;
    - a ``Deep Thought: `` line with its continuation lines, which end before
      an ``Action: `` or ``Deep Thought: `` line, or before an empty line
      followed by ``Attention:`` or ``Previous Reflections:``;
    - any other single line: the instruction, the initial observation, the
      reflections section and its ``- `` items, a lone ``Action: ``, and an
      ``Observation: `` that pairs with the pending action.
    """
    view = PromptView()
    pending_action: Optional[str] = None
    in_reflections = False
    for token in _PROMPT_TOKEN_RE.finditer(prompt):
        pairs, thought = token.group("pairs", "thought")
        if pairs is not None:
            view.steps += _PAIR_RE.findall(pairs)
            pending_action = None
        elif thought is not None:
            view.thoughts.append((len(view.steps), thought.rstrip()))
        else:
            line = token.group()
            if line.startswith("The Task: "):
                view.instruction = line[len("The Task: "):]
                in_reflections = False
            elif line.startswith("Initial Observation: "):
                view.initial_observation = line[len("Initial Observation: "):]
            elif line == "Previous Reflections:":
                in_reflections = True
            elif line == "Attention:":
                in_reflections = False
            elif in_reflections and line.startswith("- "):
                view.reflections.append(line[2:])
            elif line.startswith("Action: "):
                pending_action = line[len("Action: "):]
            elif line.startswith("Observation: ") and pending_action is not None:
                view.steps.append((pending_action, line[len("Observation: "):]))
                pending_action = None
    return view
