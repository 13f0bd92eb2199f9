"""Prompt rendering and tagged-output parsing for the actor and thinker roles,
and the Reflexion baseline's reflection request.

Rendering is pure: two renders of the same inputs produce identical bytes.
When a rendered prompt would exceed the character budget, the oldest
(action, observation) pairs are dropped first; the instruction, the initial
observation, and every deep thought are always retained.

A `HistoryView` renders each history line once, when it is appended, and
keeps a running prefix sum of the steps' character costs. The actor and
thinker renders take their fixed text before and after the history, their
frame, from a bounded LRU cache of 256 frames per role. A frame is keyed by
the content it shows: the task's examples (actor only), action doc and
instruction, the view's initial observation and reflections (actor only),
and whether the history is empty. It is never keyed by a task id, which two
tasks may share, or by the view, whose fields are public; so editing either
reaches the next render, and memory stays flat over any number of episodes
and seeds. A render then joins the prompt once, with no per-step Python:
the full prompt's length is the sum of its parts' lengths, so the drop
count comes from bisecting the prefix sums for its excess, and no prompt is
built only to be measured. What still grows with the history is C-speed
copying of what the prompt keeps: about the character budget, plus the
deep thoughts, which are never dropped.

A render returns a `Prompt`: the text, which is what a model reads, and
the `PromptView` of exactly what that text shows, which is what the
scripted fixtures read. A render makes the view of the append-only
`HistoryView`'s lists and `parse_prompt`, one regex pass over a plain
string, of the lists it collects; the fixtures fall back to the parse for a
prompt that is not a render, such as one a stub server received. A view's
`steps` and `thoughts` are computed on first read and stored on the view,
through a plain descriptor that takes no lock, so later reads are attribute
lookups.
"""

from __future__ import annotations

import functools
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

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
    """A history view was built with a thought outside its history, or
    rendered against the wrong task, or with thoughts into a reflection
    request."""


@dataclass(frozen=True)
class ActorOutput:
    thought: str
    action: str


@dataclass(frozen=True)
class DeepThought:
    text: str
    anchor_step: int


class _ReadOnlyList(list):
    """A list callers can read and compare but not change in place."""

    def _read_only(self, *args, **kwargs):
        raise TypeError("read-only: use HistoryView.add_step / add_thought")

    append = extend = insert = pop = remove = clear = sort = reverse = _read_only
    __setitem__ = __delitem__ = __iadd__ = __imul__ = _read_only

    def __reduce__(self):
        return type(self), (list(self),)


class HistoryView:
    """Everything a prompt render needs about an episode in progress.

    Each history line is rendered once, when it is appended: a step becomes
    ``Action: …\nObservation: …`` and a thought ``Deep Thought: …``. The view
    keeps the lines in render order, the thoughts and their lines again in
    anchor order, and a running prefix sum of each step's character cost, so
    a render and its budget fit join list slices without a per-step loop.
    ``add_step`` and ``add_thought`` are the one append path; ``steps`` and
    ``thoughts`` are read-only. A thought given to the constructor with an
    anchor outside ``[0, len(steps)]`` raises ``ContractViolation``.
    """

    def __init__(self, task_id: str, initial_observation: str,
                 steps: Iterable[tuple[str, str]] = (),
                 thoughts: Iterable[tuple[int, str]] = (),
                 reflections: Iterable[str] = ()):
        self.task_id = task_id
        self.initial_observation = initial_observation
        self.reflections = list(reflections)
        self._steps = _ReadOnlyList()  # (action, observation)
        self._thoughts = _ReadOnlyList()  # (anchor_step, text) in anchor order
        self._lines: list[str] = []  # render order with nothing dropped
        self._thought_lines: list[str] = []  # in anchor order
        self._cost = [0]  # characters of the first i steps' lines
        self._chars = 0  # characters of all lines
        steps = list(steps)
        thoughts = sorted(thoughts, key=lambda t: t[0])
        for anchor, _ in thoughts:
            if not 0 <= anchor <= len(steps):
                raise ContractViolation(f"thought anchor {anchor} outside "
                                        f"history of length {len(steps)}")
        for anchor, text in thoughts:
            for step in steps[len(self._steps):anchor]:
                self.add_step(*step)
            self.add_thought(text)
        for step in steps[len(self._steps):]:
            self.add_step(*step)

    @property
    def steps(self) -> list[tuple[str, str]]:
        return self._steps

    @property
    def thoughts(self) -> list[tuple[int, str]]:
        return self._thoughts

    def add_step(self, action: str, observation: str) -> None:
        line = f"Action: {action}\nObservation: {observation}"
        list.append(self._steps, (action, observation))
        self._lines.append(line)
        self._chars += len(line) + 1
        self._cost.append(self._cost[-1] + len(line) + 1)

    def add_thought(self, text: str) -> None:
        """A deep thought anchored after the latest step."""
        list.append(self._thoughts, (len(self._steps), text))
        line = f"Deep Thought: {text}"
        self._lines.append(line)
        self._chars += len(line) + 1
        self._thought_lines.append(line)

    def copy(self) -> "HistoryView":
        """An independent view: appends to the copy leave this one untouched."""
        new = object.__new__(HistoryView)
        new.__dict__ = {k: type(v)(v) if isinstance(v, list) else v
                        for k, v in vars(self).items()}
        return new

    def _history_lines(self, drop_oldest: int = 0) -> list[str]:
        """The history section with the oldest steps dropped. Thoughts
        anchored at dropped steps follow the truncation marker; the dropped
        steps and those thoughts are the first lines in render order."""
        if drop_oldest == 0:
            return self._lines
        thoughts = bisect_right(self._thoughts, drop_oldest, key=lambda t: t[0])
        return [TRUNCATION_MARKER, *self._thought_lines[:thoughts],
                *self._lines[drop_oldest + thoughts:]]

    def __eq__(self, other: object) -> bool:
        # the caches follow from the steps and thoughts
        return isinstance(other, HistoryView) and vars(self) == vars(other)

    def __repr__(self) -> str:
        return (f"HistoryView({self.task_id!r}, steps={self._steps!r}, "
                f"thoughts={self._thoughts!r})")


class _stored:
    """A lazy attribute that its first read stores on the instance."""

    def __init__(self, compute):
        self.compute, self.name = compute, compute.__name__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.compute(instance)
        return value


class PromptView:
    """What a prompt shows of an episode: the instruction, the initial
    observation, the (action, observation) steps, the deep thoughts at their
    step positions, and the reflections.

    A view records the lengths of the `steps` and `thoughts` lists it is
    given and the count of the oldest steps the prompt dropped, and builds
    the kept steps and thoughts on first read. So a render of an append-only
    `HistoryView` pays nothing for a view no one reads, and later appends to
    the history do not reach the view."""

    def __init__(self, steps: list[tuple[str, str]],
                 thoughts: list[tuple[int, str]], drop: int = 0,
                 instruction: str = "", initial_observation: str = "",
                 reflections: Iterable[str] = ()):
        self.instruction = instruction
        self.initial_observation = initial_observation
        self.reflections = list(reflections)
        self._all_steps, self._step_count = steps, len(steps)
        self._all_thoughts, self._thought_count = thoughts, len(thoughts)
        self._drop = drop

    @_stored
    def steps(self) -> list[tuple[str, str]]:
        return self._all_steps[self._drop:self._step_count]

    @_stored
    def thoughts(self) -> list[tuple[int, str]]:
        # a thought anchored at a dropped step follows the truncation marker
        drop = self._drop
        return [(max(0, anchor - drop), text)
                for anchor, text in self._all_thoughts[:self._thought_count]]

    def _shown(self) -> tuple:
        return (self.steps, self.thoughts, self.instruction,
                self.initial_observation, self.reflections)

    def __eq__(self, other: object) -> bool:
        # a render's view equals a parse's view that shows the same
        return isinstance(other, PromptView) and self._shown() == other._shown()

    def __repr__(self) -> str:
        return "PromptView({!r}, {!r}, 0, {!r}, {!r}, {!r})".format(*self._shown())


class Prompt(str):
    """A rendered prompt: its text, and as `view` the `PromptView` of what
    the text shows, which the scripted fixtures read instead of parsing the
    text back. It is `parse_prompt` of the text wherever no history line
    holds a tag line of its own."""

    view: PromptView


ACTOR_FORMAT_BLOCK = (
    "<think> put your thought here </think>\n"
    "<answer> put your action here </answer>"
)

THINKER_FORMAT_BLOCK = "<deepthink> put your thought here </deepthink>"

TRUNCATION_MARKER = "[... earlier steps truncated ...]"
# the reflection request is the one render that starts with this
REFLECTION_MARKER = "Reflection Request:"

DEFAULT_CHAR_BUDGET = 100_000


def _check_history(task: TaskSpec, view: HistoryView) -> None:
    if view.task_id != task.id:
        raise ContractViolation(
            f"history belongs to task {view.task_id!r}, not {task.id!r}")


def render_actor_prompt(task: TaskSpec, view: HistoryView,
                        char_budget: int = DEFAULT_CHAR_BUDGET) -> Prompt:
    _check_history(task, view)
    head, tail = _actor_frame(tuple(task.examples), task.action_space_doc,
                              task.instruction, view.initial_observation,
                              bool(view._lines), tuple(view.reflections))
    return _fit_budget(head, tail, view, char_budget, task.instruction,
                       view.initial_observation, view.reflections)


@functools.lru_cache(maxsize=256)
def _actor_frame(examples: tuple[str, ...], action_space_doc: str,
                 instruction: str, initial_observation: str, history: bool,
                 reflections: tuple[str, ...]) -> tuple[str, str]:
    """The actor prompt's text before and after the history."""
    head = [
        "You are an Action Agent responsible for achieving a text-based task.",
        "",
        "Now you need to finish a text-based task in an environment with "
        "multi-turn interaction.",
        "",
        "Task Examples:",
        "\n".join(e.rstrip() for e in examples),
        "",
        "Task Actions:",
        action_space_doc.rstrip(),
        "",
        f"The Task: {instruction}",
        "",
        f"Initial Observation: {initial_observation}",
    ]
    if history:
        head += ["", "History:"]
    tail = []
    if reflections:
        tail += ["", "Previous Reflections:", *(f"- {r}" for r in reflections)]
    tail += [
        "",
        "Attention:",
        "1. You MUST provide your thought (one or two lines) before taking action.",
        "2. You MUST issue only ONE action in each interaction stage.",
        "",
        "Please provide your response to the task following the format "
        "strictly. Use the following format:",
        ACTOR_FORMAT_BLOCK,
    ]
    return "\n".join(head), "\n".join(tail)


def render_thinker_prompt(task: TaskSpec, view: HistoryView,
                          char_budget: int = DEFAULT_CHAR_BUDGET) -> Prompt:
    _check_history(task, view)
    head, tail = _thinker_frame(task.action_space_doc, task.instruction,
                                view.initial_observation, bool(view._lines))
    return _fit_budget(head, tail, view, char_budget, task.instruction,
                       view.initial_observation)


@functools.lru_cache(maxsize=256)
def _thinker_frame(action_space_doc: str, instruction: str,
                   initial_observation: str, history: bool) -> tuple[str, str]:
    """The thinker prompt's text before and after the history."""
    head = [
        "You are a Thinker Agent responsible for uncovering the implicit "
        "rules of the environment. You must analyze the history trajectory "
        "carefully and reason about any confusing feedback from the "
        "environment.",
        "",
        "Here is the information about the task environment.",
        "",
        "Task Actions:",
        action_space_doc.rstrip(),
        "",
        f"The Task: {instruction}",
        "",
        f"Initial Observation: {initial_observation}",
        "",
        "History Trajectory:",
    ]
    if not history:
        head.append("(no interaction yet)")
    tail = [
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
    return "\n".join(head), "\n".join(tail)


def render_reflection_prompt(task: TaskSpec, view: HistoryView,
                             process_score: float,
                             char_budget: int = DEFAULT_CHAR_BUDGET) -> Prompt:
    """The request for a reflection on a failed attempt whose steps `view`
    holds; a view with thoughts raises `ContractViolation`."""
    _check_history(task, view)
    if view.thoughts:
        raise ContractViolation("a reflection request shows steps only, "
                                "but the history holds thoughts")
    head = [
        f"{REFLECTION_MARKER} the previous attempt at this task failed.",
        "",
        f"The Task: {task.instruction}",
        "",
        "Transcript:",
    ]
    tail = [
        "",
        f"Final score: {process_score}",
        "",
        "Write a short reflection on what went wrong and what to do "
        "differently in the next attempt.",
    ]
    return _fit_budget("\n".join(head), "\n".join(tail), view, char_budget,
                       task.instruction)


def _fit_budget(head: str, tail: str, view: HistoryView, char_budget: int,
                instruction: str, initial_observation: str = "",
                reflections: Iterable[str] = ()) -> Prompt:
    """`head`, the history and `tail` on their own lines, with the fewest
    oldest steps dropped that fits, or all of them. The full prompt's length
    follows from the lengths of its parts, and only the dropped steps' lines
    and the truncation marker change it, so the drop count is the first
    prefix of step costs that covers the excess plus the marker's line. The
    history is joined once, with that drop count. The prompt's view holds
    the kept history and the given instruction, initial observation and
    reflections, which are what the head and tail show of the episode."""
    drop = 0
    excess = len(head) + len(tail) + 1 + view._chars - char_budget
    if excess > 0 and view.steps:
        drop = min(bisect_left(view._cost, excess + len(TRUNCATION_MARKER) + 1, 1),
                   len(view.steps))
    prompt = Prompt("\n".join([head, *view._history_lines(drop), tail]))
    prompt.view = PromptView(view.steps, view.thoughts, drop, instruction,
                             initial_observation, reflections)
    return prompt


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
    return format_actor_tags(output.thought, output.action)


def format_actor_tags(thought: str, action: str) -> str:
    """A thought and an action in the actor's tag form."""
    return f"<think>{thought}</think>\n<answer>{action}</answer>"


def format_thinker_output(text: str) -> str:
    return f"<deepthink>{text}</deepthink>"


# --- reading a plain string back --------------------------------------------

# Matched over "\n" + prompt; `(?![^\n])` is a line end.
_PROMPT_TOKEN_RE = re.compile(
    r"\n(?:(?P<pairs>Action: [^\n]*\nObservation: [^\n]*"
    r"(?:\nAction: [^\n]*\nObservation: [^\n]*)*)"
    r"|Deep Thought: (?P<thought>[^\n]*(?:\n(?!Action: |Deep Thought: "
    r"|\n(?:Attention:|Previous Reflections:)(?![^\n]))[^\n]*)*)"
    r"|The Task: (?P<instruction>[^\n]*)"
    r"|Initial Observation: (?P<initial>[^\n]*)|- (?P<item>[^\n]*)"
    r"|Action: (?P<action>[^\n]*)|Observation: (?P<observation>[^\n]*)"
    r"|(?P<section>Previous Reflections:|Attention:)(?![^\n]))")
_PAIR_RE = re.compile(r"\nAction: ([^\n]*)\nObservation: ([^\n]*)")


def parse_prompt(prompt: str) -> PromptView:
    """Recover the structured history from a prompt's text: a plain string,
    such as one that a stub server received, or a hand-written prompt. A
    render's own view is `Prompt.view`.

    One regex pass yields a token, named by its group, at each line that
    starts with a tag:

    - a run of adjacent ``Action: `` / ``Observation: `` line pairs, whose
      steps come from one ``findall``;
    - a ``Deep Thought: `` line with its continuation lines, which end before
      an ``Action: `` or ``Deep Thought: `` line, or before an empty line
      followed by ``Attention:`` or ``Previous Reflections:``;
    - a single tagged line: the instruction, the initial observation, the
      ``Previous Reflections:`` and ``Attention:`` section lines, a ``- ``
      item, a lone ``Action: ``, and an ``Observation: `` line.

    The engine skips every other line, which cannot change the view.
    """
    steps, thoughts, reflections = [], [], []
    instruction = initial_observation = ""
    pending_action, in_reflections = None, False
    text = "\n" + prompt
    for token in _PROMPT_TOKEN_RE.finditer(text):
        kind = token.lastgroup
        if kind == "pairs":
            steps += _PAIR_RE.findall(text, token.start(), token.end())
            pending_action = None
            continue
        value = token.group(kind)
        if kind == "thought":
            thoughts.append((len(steps), value.rstrip()))
        elif kind == "action":
            pending_action = value
        elif kind == "observation" and pending_action is not None:
            steps.append((pending_action, value))
            pending_action = None
        elif kind == "item" and in_reflections:
            reflections.append(value)
        elif kind == "instruction":
            instruction = value
            in_reflections = False
        elif kind == "initial":
            initial_observation = value
        elif kind == "section":
            in_reflections = value == "Previous Reflections:"
    return PromptView(steps, thoughts, 0, instruction, initial_observation,
                      reflections)
