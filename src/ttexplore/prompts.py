"""Prompt rendering and tagged-output parsing for the actor and thinker roles,
and the Reflexion baseline's reflection request.

Rendering is pure: two renders of the same inputs produce identical bytes.
When a rendered prompt would exceed the character budget, the oldest
(action, observation) pairs are dropped first; the instruction, the initial
observation, and every deep thought are always retained.

A `HistoryView` renders each history line once, when it is appended, and
keeps a running prefix sum of the steps' character costs. A render states
its fixed text before and after the history and joins the prompt once, with
no per-step Python: the full prompt's length is the sum of its parts'
lengths, so the drop count comes from bisecting the prefix sums for its
excess, and no prompt is built only to be measured. What still grows with
the history is C-speed copying of what the prompt keeps: about the
character budget, plus the deep thoughts, which are never dropped.

Reading a prompt back, `parse_prompt` resumes where the thread's last
parse left a mark that the prompt shares: the end of that parse's final run
of step pairs, when a newline follows it and no thought does, or else the
latest deep thought. Below the budget a call so parses only the new steps,
thoughts and fixed tail, with or without thoughts in the history. Over it,
dropping a step shifts the prompt's head, but the history from some
thought on is text the last parse read at another position: the parse
takes that stretch from the last parse after one C-speed comparison, and
reads in Python only the head up to that thought and what follows the last
parse's final thought.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional

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
    rendered against the wrong task."""


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
    keeps the lines in render order, the thought lines again in anchor order,
    and a running prefix sum of each step's character cost, so a render and
    its budget fit join list slices without a per-step loop. ``add_step`` and
    ``add_thought`` are the one append path; ``steps`` and ``thoughts`` are
    read-only. A thought given to the constructor with an anchor outside
    ``[0, len(steps)]`` raises ``ContractViolation``.
    """

    def __init__(self, task_id: str, initial_observation: str,
                 steps: Iterable[tuple[str, str]] = (),
                 thoughts: Iterable[tuple[int, str]] = (),
                 reflections: Iterable[str] = ()):
        self.task_id = task_id
        self.initial_observation = initial_observation
        self.reflections = list(reflections)
        self._steps = _ReadOnlyList()  # (action, observation)
        self._thoughts = _ReadOnlyList(thoughts)  # (anchor_step, text)
        self._lines: list[str] = []  # render order with nothing dropped
        self._thought_lines: list[str] = []  # in anchor order
        self._anchors: list[int] = []
        self._cost = [0]  # characters of the first i steps' lines
        self._chars = 0  # characters of all lines
        steps = list(steps)
        for anchor, _ in self._thoughts:
            if not 0 <= anchor <= len(steps):
                raise ContractViolation(f"thought anchor {anchor} outside "
                                        f"history of length {len(steps)}")
        for anchor, text in sorted(self._thoughts, key=lambda t: t[0]):
            for step in steps[len(self._steps):anchor]:
                self.add_step(*step)
            self._put_thought(anchor, text)
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
        self._put_thought(len(self._steps), text)

    def _put_thought(self, anchor: int, text: str) -> None:
        line = f"Deep Thought: {text}"
        self._lines.append(line)
        self._chars += len(line) + 1
        self._thought_lines.append(line)
        self._anchors.append(anchor)

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
        thoughts = bisect_right(self._anchors, drop_oldest)
        return [TRUNCATION_MARKER, *self._thought_lines[:thoughts],
                *self._lines[drop_oldest + thoughts:]]

    def __eq__(self, other: object) -> bool:
        # the caches follow from the steps and thoughts
        return isinstance(other, HistoryView) and vars(self) == vars(other)

    def __repr__(self) -> str:
        return (f"HistoryView({self.task_id!r}, steps={self._steps!r}, "
                f"thoughts={self._thoughts!r})")


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
                        char_budget: int = DEFAULT_CHAR_BUDGET) -> str:
    _check_history(task, view)
    head = [
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
    if view._lines:
        head += ["", "History:"]
    tail = []
    if view.reflections:
        tail += ["", "Previous Reflections:", *(f"- {r}" for r in view.reflections)]
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
    return _fit_budget("\n".join(head), "\n".join(tail), view, char_budget)


def render_thinker_prompt(task: TaskSpec, view: HistoryView,
                          char_budget: int = DEFAULT_CHAR_BUDGET) -> str:
    _check_history(task, view)
    head = [
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
    if not view._lines:
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
    return _fit_budget("\n".join(head), "\n".join(tail), view, char_budget)


def render_reflection_prompt(task: TaskSpec, view: HistoryView,
                             process_score: float,
                             char_budget: int = DEFAULT_CHAR_BUDGET) -> str:
    """The request for a reflection on a failed attempt whose steps `view`
    holds; the view carries no thoughts."""
    _check_history(task, view)
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
    return _fit_budget("\n".join(head), "\n".join(tail), view, char_budget)


def _fit_budget(head: str, tail: str, view: HistoryView, char_budget: int) -> str:
    """`head`, the history and `tail` on their own lines, with the fewest
    oldest steps dropped that fits, or all of them. The full prompt's length
    follows from the lengths of its parts, and only the dropped steps' lines
    and the truncation marker change it, so the drop count is the first
    prefix of step costs that covers the excess plus the marker's line. The
    history is joined once, with that drop count."""
    drop = 0
    excess = len(head) + len(tail) + 1 + view._chars - char_budget
    if excess > 0 and view.steps:
        drop = min(bisect_left(view._cost, excess + len(TRUNCATION_MARKER) + 1, 1),
                   len(view.steps))
    return "\n".join([head, *view._history_lines(drop), tail])


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
#
# `parse_prompt` reads a prompt back at one Python step per tagged line and
# per run of step pairs; every token starts with a literal newline, so the
# regex engine tries a match only at line starts. Each thread keeps its last
# parse, and a prompt that shares its text with that parse through the
# newline after its final run of step pairs, or through a `Deep Thought: `
# tag, resumes there: below the character budget a scripted call reads only
# what follows the last step or the latest thought it shares. A run of pairs
# split at a pair boundary gives the same steps, and the newline must be
# shared, or the run's last observation could go on. Over the budget, the
# stretch that the last parse read up to its final thought is taken from it
# where the prompt still holds that text, moved. `last_action` parses only
# the text after the last `Action: ` line and leaves that state alone.

@dataclass
class PromptView:
    instruction: str = ""
    initial_observation: str = ""
    steps: list[tuple[str, str]] = field(default_factory=list)
    thoughts: list[tuple[int, str]] = field(default_factory=list)  # (step position, text)
    reflections: list[str] = field(default_factory=list)


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
_THOUGHT_TAG = "Deep Thought: "

# per thread: (prompt, its view, its thought marks, its end mark) of the
# last `parse_prompt`
_last_parse = threading.local()


def _scan(text: str, pos: int, view: PromptView,
          pending_action: Optional[str], in_reflections: bool,
          marks: list[tuple], ends: list[tuple],
          last: Optional[tuple] = None) -> PromptView:
    """Parse `text`, a newline and a prompt, from `pos` into `view`, given
    the parser state at `pos`. Each thought token appends a mark to `marks`:
    its position and the state just before it. Each run of step pairs that
    a newline follows appends an end mark to `ends`: the position of that
    newline and the state there, in the same layout.

    Given `last`, the thread's last parse, a thought token whose ordinal `i`
    is below that parse's last mark `L` takes the stretch from old mark `i`
    to mark `L` from it, wherever the stretch now lies, when the parser
    state equals mark `i`'s and the text from the token's line start equals
    the old text through mark `L`'s tag (`_relocate`). A cheap check of the
    text through mark `i + 1`'s tag comes first, and after one full
    comparison fails the scan goes on plainly."""
    for token in _PROMPT_TOKEN_RE.finditer(text, pos):
        kind = token.lastgroup
        if kind == "pairs":
            view.steps += _PAIR_RE.findall(text, token.start(), token.end())
            pending_action = None
            if text.startswith("\n", token.end()):
                ends.append((token.end(), len(view.steps), len(view.thoughts),
                             len(view.reflections), view.instruction,
                             view.initial_observation, None, in_reflections))
            continue
        value = token.group(kind)
        if kind == "thought":
            i = len(view.thoughts)
            mark = (token.start(), len(view.steps), i, len(view.reflections),
                    view.instruction, view.initial_observation,
                    pending_action, in_reflections)
            if last is not None and i < len(last[2]) - 1:
                old, _, old_marks, _ = last
                start, shift = old_marks[i][0], token.start() - old_marks[i][0]
                if (old_marks[i][4:] == mark[4:] and _moved(
                        text, old, start, old_marks[i + 1][0] + len(_THOUGHT_TAG),
                        shift)):
                    if _relocate(text, mark, view, marks, ends, last):
                        return view
                    last = None  # one failed full comparison per parse
            marks.append(mark)
            view.thoughts.append((len(view.steps), value.rstrip()))
        elif kind == "action":
            pending_action = value
        elif kind == "observation" and pending_action is not None:
            view.steps.append((pending_action, value))
            pending_action = None
        elif kind == "item" and in_reflections:
            view.reflections.append(value)
        elif kind == "instruction":
            view.instruction = value
            in_reflections = False
        elif kind == "initial":
            view.initial_observation = value
        elif kind == "section":
            in_reflections = value == "Previous Reflections:"
    return view


def _moved(text: str, old: str, start: int, end: int, shift: int) -> bool:
    """Whether `text`, a newline and a prompt, holds `old`'s text from
    `start` to `end` moved by `shift` characters."""
    return text.startswith(old[start:end], start + shift + 1)


def _relocate(text: str, mark: tuple, view: PromptView, marks: list[tuple],
              ends: list[tuple], last: tuple) -> bool:
    """At the thought token whose mark is `mark`, take the stretch of the
    last parse from its mark of the same thought ordinal `i` to its last
    mark `L`, and scan on from mark `L`'s moved position with its state, if
    `text` holds the old text through mark `L`'s tag there; otherwise change
    nothing and return False. The caller has compared the text through mark
    `i + 1`'s tag, and this compares the rest.

    The stretch parses as it did, because no token before a
    ``Deep Thought: `` line start reads past its tag: the old parse's tokens
    from mark `i` to mark `L` are this text's tokens, moved."""
    old, old_view, old_marks, _ = last
    at, steps, i, reflections = mark[:4]
    start, old_steps, _, old_reflections = old_marks[i][:4]
    stop = old_marks[-1]
    shift = at - start
    if not _moved(text, old, old_marks[i + 1][0] + len(_THOUGHT_TAG),
                  stop[0] + len(_THOUGHT_TAG), shift):
        return False
    step_shift, reflection_shift = steps - old_steps, reflections - old_reflections
    marks += [(p + shift, s + step_shift, t, r + reflection_shift, *state)
              for p, s, t, r, *state in old_marks[i:-1]]
    view.steps += old_view.steps[old_steps:stop[1]]
    view.thoughts += [(anchor + step_shift, thought)
                      for anchor, thought in old_view.thoughts[i:-1]]
    view.reflections += old_view.reflections[old_reflections:stop[3]]
    view.instruction, view.initial_observation = stop[4:6]
    _scan(text, stop[0] + shift, view, stop[6], stop[7], marks, ends)
    return True


def _shares(prompt: str, old: str, start: int, end: int) -> bool:
    """Whether `prompt` holds `old`'s text from `start` to `end`."""
    return prompt.startswith(old[start:end], start)


def _shared_marks(prompt: str, old: str, marks: list[tuple]) -> int:
    """How many of `old`'s marks `prompt` shares, with their line start and
    tag, found by bisection. A probe copies and compares only the text after
    the prefix already known to be shared."""
    lo, hi, known = 0, len(marks), 0
    while lo < hi:
        mid = (lo + hi) // 2
        end = marks[mid][0] + len(_THOUGHT_TAG)
        if _shares(prompt, old, known, end):
            lo, known = mid + 1, end
        else:
            hi = mid
    return lo


def parse_prompt(prompt: str) -> PromptView:
    """Recover the structured history from a rendered prompt.

    Scripted policies are pure functions of (prompt, seed); this is how they
    read the episode state back out of the text. One regex pass yields a
    token, named by its group, at each line that starts with a tag:

    - a run of adjacent ``Action: `` / ``Observation: `` line pairs, whose
      steps come from one ``findall``;
    - a ``Deep Thought: `` line with its continuation lines, which end before
      an ``Action: `` or ``Deep Thought: `` line, or before an empty line
      followed by ``Attention:`` or ``Previous Reflections:``;
    - a single tagged line: the instruction, the initial observation, the
      ``Previous Reflections:`` and ``Attention:`` section lines, a ``- ``
      item, a lone ``Action: ``, and an ``Observation: `` line.

    The engine skips every other line, which cannot change the view.

    The pass resumes at the end of this thread's last parse's final run of
    step pairs when the prompt shares that parse's text through the newline
    after the run, and no thought of that parse follows the run; one
    ``startswith`` checks the text. That is exact: no token before the run
    reads past its start, the run split at a pair boundary gives the same
    steps, and the shared newline ends its last observation, so the run in
    this prompt is the old run and zero or more further pairs. A run that
    ends the last prompt leaves no such mark.

    Otherwise the pass resumes at the latest thought token of the last
    parse whose text, through its tag, the prompt shares. That is exact:
    no token before a ``Deep Thought: `` line start reads past its tag (a
    thought stops there, and a run of step pairs cannot cross it), so the
    parser state there depends only on the shared text.

    For the same reason the tokens between two thought line starts depend
    only on the text between them and the state at the first. So when a
    truncated prompt drops steps, and with them moves the history that the
    last parse read, the pass takes the stretch from a thought through the
    last parse's final thought from that parse, shifted, once the text and
    the state at the thought are seen to match (see `_scan`). A call then
    reads in Python only the prompt's head and what follows that final
    thought, and compares the moved text in C.
    """
    view, pos, pending_action, in_reflections = PromptView(), 0, None, False
    marks: list[tuple] = []
    ends: list[tuple] = []
    last = getattr(_last_parse, "state", None)
    if last is not None:
        old, old_view, old_marks, end = last
        resume = None
        if end is not None and prompt.startswith(old[:end[0]]):
            resume, marks, ends = end, old_marks[:], [end]
        else:
            shared = _shared_marks(prompt, old, old_marks)
            if shared:
                resume, marks = old_marks[shared - 1], old_marks[:shared - 1]
        if resume is not None:
            (pos, steps, thoughts, reflections, view.instruction,
             view.initial_observation, pending_action, in_reflections) = resume
            view.steps = old_view.steps[:steps]
            view.thoughts = old_view.thoughts[:thoughts]
            view.reflections = old_view.reflections[:reflections]
    _scan("\n" + prompt, pos, view, pending_action, in_reflections, marks, ends,
          last)
    # an end mark with a thought mark after it is never the latest resume
    end = ends[-1] if ends and (not marks or marks[-1][0] < ends[-1][0]) else None
    _last_parse.state = (prompt, view, marks, end)
    # the caller gets its own lists, so that changing them cannot reach a resume
    return PromptView(view.instruction, view.initial_observation,
                      view.steps[:], view.thoughts[:], view.reflections[:])


def last_action(prompt: str) -> Optional[str]:
    """The action of `parse_prompt(prompt)`'s last step, or None when it has
    no step, from a parse of the text after the last ``Action: `` line.

    That line either lies in a run of step pairs, which the suffix parses to
    the same last step, or begins a token, since no thought or other line
    swallows it; the steps after such a token do not depend on the text
    before it. A suffix with no step (a lone action) leaves the last step to
    the text before that line. The suffix parse leaves the thread's last
    parse untouched.
    """
    end = len(prompt)
    while end > 0:
        start = prompt.rfind("\nAction: ", 0, end) + 1
        if start == 0 and not prompt.startswith("Action: ", 0, end):
            return None
        steps = _scan("\n" + prompt[start:end], 0, PromptView(), None, False,
                      [], []).steps
        if steps:
            return steps[-1][0]
        end = start
    return None
