"""Prompt rendering, tagged-output parsing, truncation, and introspection."""

import copy
import sys
import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttexplore import load_builtin_world, pipeline, policies, prompts
from ttexplore.orchestrator import RunConfig, run_mode
from ttexplore.policies import SCRIPTED_POLICIES, loop_actor, scripted
from ttexplore.prompts import (
    ACTOR_FORMAT_BLOCK,
    THINKER_FORMAT_BLOCK,
    TRUNCATION_MARKER,
    ActorOutput,
    ContractViolation,
    HistoryView,
    ParseError,
    ParseErrorKind,
    format_actor_output,
    format_thinker_output,
    last_action,
    parse_actor_output,
    parse_prompt,
    parse_thinker_output,
    render_actor_prompt,
    render_reflection_prompt,
    render_thinker_prompt,
)


@pytest.fixture
def task(minihouse1):
    return minihouse1.tasks["minihouse-1"]


@pytest.fixture
def view(task):
    return HistoryView(
        task_id=task.id,
        initial_observation="You are in the hallway.",
        steps=[("go to kitchen", "You are in the kitchen."),
               ("open fridge 1", "Nothing happened.")],
        thoughts=[(2, "Summary: something is off.\nPlan:\n- go to fridge 1")],
    )


# --- rendering -------------------------------------------------------------

def test_render_is_pure(task, view):
    assert render_actor_prompt(task, view) == render_actor_prompt(task, view)
    assert render_thinker_prompt(task, view) == render_thinker_prompt(task, view)


def test_actor_prompt_structure(task, view):
    prompt = render_actor_prompt(task, view)
    assert "You are an Action Agent responsible for achieving a text-based task." in prompt
    assert f"The Task: {task.instruction}" in prompt
    assert "Initial Observation: You are in the hallway." in prompt
    assert "Action: go to kitchen" in prompt
    assert "Observation: Nothing happened." in prompt
    assert "Deep Thought: Summary: something is off." in prompt
    assert prompt.endswith(ACTOR_FORMAT_BLOCK)


def test_thinker_prompt_structure(task, view):
    prompt = render_thinker_prompt(task, view)
    assert "You are a Thinker Agent responsible for uncovering the implicit rules" in prompt
    assert "History Trajectory:" in prompt
    assert "consider what hidden rules could explain the observations" in prompt
    assert prompt.endswith(THINKER_FORMAT_BLOCK)


def test_thinker_prompt_empty_history(task):
    view = HistoryView(task_id=task.id, initial_observation="obs")
    prompt = render_thinker_prompt(task, view)
    assert "(no interaction yet)" in prompt


def test_reflections_rendered(task):
    view = HistoryView(task_id=task.id, initial_observation="obs",
                       reflections=["try navigating first"])
    prompt = render_actor_prompt(task, view)
    assert "Previous Reflections:" in prompt
    assert "- try navigating first" in prompt


def test_wrong_task_id_raises(task, view):
    bad = HistoryView(task_id="other-task", initial_observation="obs")
    with pytest.raises(ContractViolation):
        render_actor_prompt(task, bad)
    assert view.task_id == task.id  # sanity on the fixture


def test_thought_anchor_out_of_range_raises(task):
    for anchor in (-1, 2):
        with pytest.raises(ContractViolation, match=f"anchor {anchor} "):
            HistoryView(task_id=task.id, initial_observation="obs",
                        steps=[("look around", "obs")],
                        thoughts=[(anchor, "text")])


# --- truncation ------------------------------------------------------------

def test_truncation_drops_oldest_pairs_keeps_invariants(task):
    steps = [(f"go to kitchen", f"observation number {i} with padding " + "x" * 40)
             for i in range(40)]
    view = HistoryView(task_id=task.id, initial_observation="the initial observation",
                       steps=steps,
                       thoughts=[(40, "an important deep thought")])
    full = render_actor_prompt(task, view, char_budget=10 ** 6)
    small = render_actor_prompt(task, view, char_budget=len(full) - 500)
    assert len(small) < len(full)
    assert TRUNCATION_MARKER in small
    assert f"The Task: {task.instruction}" in small
    assert "Initial Observation: the initial observation" in small
    assert "Deep Thought: an important deep thought" in small
    assert "observation number 0 " not in small  # oldest pair dropped first
    assert "observation number 39 " in small


def test_no_truncation_under_budget(task, view):
    prompt = render_actor_prompt(task, view)
    assert TRUNCATION_MARKER not in prompt


def _joined(head, tail, view, drop):
    """The prompt with the `drop` oldest steps dropped."""
    return "\n".join([head, *view._history_lines(drop), tail])


def _reference_fit_budget(head, tail, view, char_budget):
    """Drop one oldest step at a time and rebuild until the prompt fits."""
    prompt = _joined(head, tail, view, 0)
    drop = 0
    while len(prompt) > char_budget and drop < len(view.steps):
        drop += 1
        prompt = _joined(head, tail, view, drop)
    return prompt


TASK_ID = "minihouse-1"


@pytest.fixture(scope="module")
def mh1_task():
    return load_builtin_world("minihouse1").tasks[TASK_ID]


def _build_lengths(render, task, view):
    """Length of the prompt built with each drop count from 0 to every step."""
    def lengths(head, tail, view, _budget):
        return [len(_joined(head, tail, view, drop))
                for drop in range(len(view.steps) + 1)]
    with mock.patch.object(prompts, "_fit_budget", lengths):
        return render(task, view)


@st.composite
def histories(draw, text, thought_text):
    steps = draw(st.lists(st.tuples(text, text), max_size=12))
    n = len(steps)
    anchor = st.one_of(st.just(0), st.integers(0, n), st.just(n))
    return HistoryView(
        task_id=TASK_ID,
        initial_observation=draw(text),
        steps=steps,
        thoughts=draw(st.lists(st.tuples(anchor, thought_text), max_size=4)),
        reflections=draw(st.lists(text, max_size=3)),
    )


def budgets(lengths):
    """From nothing at all to more than the whole prompt, with every drop
    count's exact length and its neighbours."""
    exact = st.sampled_from(lengths).flatmap(lambda n: st.integers(max(0, n - 1), n + 1))
    return st.one_of(st.integers(0, lengths[0] + 50), exact)


# Any text, including empty and multi-line observations.
_ANY_TEXT = st.text(alphabet="ab :.\n", max_size=30)


@settings(max_examples=300, deadline=None)
@given(view=histories(_ANY_TEXT, _ANY_TEXT), data=st.data())
def test_fit_budget_matches_drop_one_at_a_time(mh1_task, view, data):
    for render in (render_actor_prompt, render_thinker_prompt):
        budget = data.draw(budgets(_build_lengths(render, mh1_task, view)))
        with mock.patch.object(prompts, "_fit_budget", _reference_fit_budget):
            expected = render(mh1_task, view, budget)
        assert render(mh1_task, view, budget) == expected


def _render_reflection(task, view, char_budget):
    return render_reflection_prompt(task, view, 33.33, char_budget)


@pytest.mark.parametrize("render", [render_actor_prompt, render_thinker_prompt,
                                    _render_reflection])
@pytest.mark.parametrize("fit", ["within", "over", "history-over"])
def test_each_render_joins_its_history_once(task, monkeypatch, render, fit):
    """Within the budget, over it, and with the history alone over it, a
    render joins its history once, with the drop count that fits."""
    view = HistoryView(task.id, "You are in the hallway.",
                       steps=[(f"go to room {i}", "Nothing happened.")
                              for i in range(40)])
    full = len(render(task, view, 10 ** 6))
    budget = {"within": full, "over": full - 100,
              "history-over": view._chars - 1}[fit]
    assert (budget < view._chars) == (fit == "history-over")
    calls = []
    history_lines = HistoryView._history_lines

    def counting(self, drop_oldest=0):
        calls.append(drop_oldest)
        return history_lines(self, drop_oldest)

    monkeypatch.setattr(HistoryView, "_history_lines", counting)
    prompt = render(task, view, budget)
    assert len(calls) == 1 and len(prompt) <= budget
    assert (calls[0] > 0) == (TRUNCATION_MARKER in prompt) == (fit != "within")


# Text that cannot be mistaken for a tag line: single-line steps and
# reflections, thoughts whose lines are non-empty and lower case.
_LINE = st.text(alphabet="ab :.", max_size=20)
_THOUGHT = st.lists(st.text(alphabet="ab .", min_size=1).map(str.strip).filter(bool),
                    min_size=1, max_size=3).map("\n".join)


@settings(max_examples=200, deadline=None)
@given(view=histories(_LINE, _THOUGHT), data=st.data())
def test_parse_prompt_recovers_what_the_render_kept(mh1_task, view, data):
    _no_last_parse()
    thoughts = sorted(view.thoughts, key=lambda t: t[0])
    for render in (render_actor_prompt, render_thinker_prompt):
        lengths = _build_lengths(render, mh1_task, view)
        budget = data.draw(budgets(lengths))
        recovered = parse_prompt(render(mh1_task, view, budget))
        if render is render_actor_prompt:
            assert recovered.reflections == view.reflections
        if lengths[0] <= budget:
            assert recovered.steps == view.steps
            assert recovered.thoughts == thoughts
            continue
        # the fewest oldest steps dropped that fits, or all of them
        drop = next((d for d, n in enumerate(lengths) if n <= budget), len(view.steps))
        assert recovered.steps == view.steps[drop:]
        assert [t for _, t in recovered.thoughts] == [t for _, t in thoughts]


# --- the incremental view against the per-step reference ---------------------

def _reference_history_lines(view, drop_oldest=0):
    """The per-step loop that re-formatted every step on every render."""
    thoughts_at = {}
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


def _built_by_appends(view):
    """The same history through `add_step` and `add_thought`, as an episode
    appends it: at each position, the thoughts anchored there, then the step."""
    built = HistoryView(view.task_id, view.initial_observation,
                        reflections=view.reflections)
    for n in range(len(view.steps) + 1):
        for anchor, text in view.thoughts:
            if anchor == n:
                built.add_thought(text)
        if n < len(view.steps):
            built.add_step(*view.steps[n])
    return built


# Steps long enough that the history alone can exceed a budget the fitted
# prompt still keeps steps under.
_LONG_TEXT = st.text(alphabet="ab :.\n", min_size=100, max_size=400)


@settings(max_examples=300, deadline=None)
@given(view=histories(st.one_of(_ANY_TEXT, _LONG_TEXT), _ANY_TEXT), data=st.data())
def test_appended_and_constructed_views_render_as_the_reference(mh1_task, view, data):
    built = _built_by_appends(view)
    for drop in range(len(view.steps) + 1):
        expected = _reference_history_lines(view, drop)
        for v in (view, built):
            lines = v._history_lines(drop)
            assert "\n".join(lines) == "\n".join(expected)
            assert bool(lines) == bool(expected)
    for render in (render_actor_prompt, render_thinker_prompt):
        budget = data.draw(budgets(_build_lengths(render, mh1_task, view)))
        with mock.patch.object(HistoryView, "_history_lines", _reference_history_lines), \
                mock.patch.object(prompts, "_fit_budget", _reference_fit_budget):
            expected = render(mh1_task, view, budget)
        assert render(mh1_task, view, budget) == expected
        assert render(mh1_task, built, budget) == expected


def test_view_lists_are_read_only_and_copies_are_independent(task, view):
    with pytest.raises(TypeError):
        view.steps.append(("look around", "x"))
    with pytest.raises(TypeError):
        view.thoughts.append((0, "text"))
    with pytest.raises(AttributeError):
        view.steps = []
    def renders(v):
        return [render(task, v, budget)
                for render in (render_actor_prompt, render_thinker_prompt)
                for budget in (10 ** 6, 0)]

    before, rendered = copy.deepcopy(view), renders(view)
    dup = view.copy()
    assert dup == view
    dup.add_step("look around", "You are in the kitchen.")
    dup.add_thought("one more thought")
    assert view == before and renders(view) == rendered
    assert dup != view and len(dup.steps) == len(view.steps) + 1
    # the copy's caches extend correctly: it renders as a view built afresh
    assert renders(dup) == renders(HistoryView(
        dup.task_id, dup.initial_observation, steps=dup.steps, thoughts=dup.thoughts))


def test_anchor_zero_thoughts_keep_their_order(task):
    view = HistoryView(task_id=task.id, initial_observation="obs",
                       steps=[("look around", "x")],
                       thoughts=[(0, "first"), (0, "second")])
    for render in (render_actor_prompt, render_thinker_prompt):
        for budget in (10 ** 6, 0):
            prompt = render(task, view, budget)
            assert prompt.index("Deep Thought: first") < prompt.index("Deep Thought: second")
            assert parse_prompt(prompt).thoughts == [(0, "first"), (0, "second")]


# --- output parsing --------------------------------------------------------

def test_actor_round_trip():
    out = ActorOutput(thought="consider the fridge", action="open fridge 1")
    assert parse_actor_output(format_actor_output(out)) == out


def test_thinker_round_trip():
    assert parse_thinker_output(format_thinker_output("hidden rule: face it")) == \
        "hidden rule: face it"


def test_actor_parse_ignores_surrounding_junk():
    raw = "preamble\n<think> a </think>\nmiddle\n<answer> go to kitchen </answer>\ntail"
    assert parse_actor_output(raw).action == "go to kitchen"


def test_actor_parse_takes_first_block():
    raw = ("<think>one</think><answer>first</answer>"
           "<think>two</think><answer>second</answer>")
    assert parse_actor_output(raw).action == "first"


@pytest.mark.parametrize("raw,kind", [
    ("<answer>go</answer>", ParseErrorKind.MissingThink),
    ("<think>t</think>", ParseErrorKind.MissingAnswer),
    ("<think>t</think><answer>   </answer>", ParseErrorKind.EmptyAction),
])
def test_actor_parse_errors(raw, kind):
    with pytest.raises(ParseError) as exc:
        parse_actor_output(raw)
    assert exc.value.kind == kind


def test_thinker_parse_error():
    with pytest.raises(ParseError) as exc:
        parse_thinker_output("no tags at all")
    assert exc.value.kind == ParseErrorKind.MissingDeepthink


def test_thinker_parse_discards_preamble():
    raw = "secret reasoning\n<deepthink> the rule </deepthink>"
    assert parse_thinker_output(raw) == "the rule"


# --- prompt introspection --------------------------------------------------

def test_parse_prompt_round_trip(task, view):
    for render in (render_actor_prompt, render_thinker_prompt):
        recovered = parse_prompt(render(task, view))
        assert recovered.instruction == task.instruction
        assert recovered.initial_observation == view.initial_observation
        assert recovered.steps == view.steps
        assert recovered.thoughts == view.thoughts


def test_parse_prompt_multiline_thought(task):
    view = HistoryView(
        task_id=task.id, initial_observation="obs",
        steps=[("look around", "nothing")],
        thoughts=[(1, "Summary: x.\nPlan:\n- go to kitchen\n- open fridge 1")],
    )
    recovered = parse_prompt(render_actor_prompt(task, view))
    assert recovered.thoughts == view.thoughts


def test_parse_prompt_recovers_reflections(task):
    view = HistoryView(task_id=task.id, initial_observation="obs",
                       reflections=["first lesson", "second lesson"])
    recovered = parse_prompt(render_actor_prompt(task, view))
    assert recovered.reflections == ["first lesson", "second lesson"]


# --- the one-pass parser against the line-by-line reference ----------------

def _no_last_parse():
    """Clear this thread's last parse, its prompt, view, thought marks and
    end mark, so that a hypothesis example parses as it would alone and a
    failing example fails again when replayed."""
    prompts._last_parse.state = None


def _reference_parse_prompt(prompt):
    """The line-by-line state machine the regex tokenizer replaced."""
    view = prompts.PromptView()
    lines = prompt.split("\n")
    i = 0
    pending_action = None
    in_reflections = False
    while i < len(lines):
        line = lines[i]
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
        elif line.startswith("Observation: "):
            if pending_action is not None:
                view.steps.append((pending_action, line[len("Observation: "):]))
                pending_action = None
        elif line.startswith("Deep Thought: "):
            text_lines = [line[len("Deep Thought: "):]]
            while i + 1 < len(lines):
                nxt = lines[i + 1]
                if nxt.startswith(("Action: ", "Deep Thought: ")):
                    break
                if nxt == "" and i + 2 < len(lines) and lines[i + 2] in (
                        "Attention:", "Previous Reflections:"):
                    break
                i += 1
                text_lines.append(lines[i])
            view.thoughts.append((len(view.steps), "\n".join(text_lines).rstrip()))
        i += 1
    return view


# Pieces of every tag line the parser knows, render lines it skips, filler and
# line breaks, so that joined strings put tags at line starts, mid-line, next
# to empty lines and between skipped lines.
_FRAGMENTS = st.sampled_from([
    "Action: ", "Observation: ", "Deep Thought: ", "- ", "Attention:",
    "Previous Reflections:", "The Task: ", "Initial Observation: ",
    "Action: a\nObservation: b", "\n", "\n\n", "a", " ", "Action:",
    "History:", "Task Examples:", "> go to a", "1. a", "<think> a </think>",
])
_TAGGED_TEXT = st.lists(_FRAGMENTS, max_size=24).map("".join)


@settings(max_examples=1000, deadline=None)
@given(_TAGGED_TEXT)
def test_parse_prompt_matches_reference_on_any_string(text):
    _no_last_parse()
    assert parse_prompt(text) == _reference_parse_prompt(text)


@settings(max_examples=200, deadline=None)
@given(view=histories(_TAGGED_TEXT, _TAGGED_TEXT), data=st.data())
def test_parse_prompt_matches_reference_on_renders(mh1_task, view, data):
    _no_last_parse()
    for render in (render_actor_prompt, render_thinker_prompt):
        budget = data.draw(budgets(_build_lengths(render, mh1_task, view)))
        prompt = render(mh1_task, view, budget)
        assert parse_prompt(prompt) == _reference_parse_prompt(prompt)


def test_parse_prompt_matches_reference_on_a_long_episode():
    """The final prompts of an 800-step episode: runs of step pairs broken
    by about 130 deep thoughts, over the default budget."""
    world = load_builtin_world("keymaze1")
    task = world.tasks["keymaze-1"]
    traj = run_mode(world, scripted("actor", "loop-actor"), task,
                    RunConfig(mode="ttexplore", max_steps=800),
                    scripted("thinker", "oracle-thinker"))
    view = HistoryView(task.id, traj.initial_observation,
                       steps=[(s.action, s.observation) for s in traj.steps],
                       thoughts=[(t.anchor_step, t.text) for t in traj.thoughts])
    assert len(view.steps) == 800 and len(view.thoughts) > 100
    for render in (render_actor_prompt, render_thinker_prompt):
        prompt = render(task, view)
        assert TRUNCATION_MARKER in prompt
        parsed = parse_prompt(prompt)
        assert parsed == _reference_parse_prompt(prompt)
        assert len(parsed.thoughts) == len(view.thoughts)
        assert last_action(prompt) == parsed.steps[-1][0] == view.steps[-1][0]


@pytest.mark.parametrize("world_id", ["minihouse1", "minihouse2", "keymaze1"])
@pytest.mark.parametrize("render", [render_actor_prompt, render_thinker_prompt])
def test_parse_prompt_tokenizes_only_tagged_lines(world_id, render):
    """An empty-history prompt gives one token per line the parser acts on:
    five action-doc items, the task, the initial observation and
    `Attention:`, out of 26 or more lines."""
    world = load_builtin_world(world_id)
    task = next(iter(world.tasks.values()))
    prompt = render(task, HistoryView(task.id, world.reset(task, 0)[1].text))
    assert prompt.count("\n") + 1 >= 26
    assert len(prompts._PROMPT_TOKEN_RE.findall("\n" + prompt)) == 8


# --- the tail parse against the full parse -----------------------------------

def _full_parse_last_action(text):
    steps = parse_prompt(text).steps
    return steps[-1][0] if steps else None


@settings(max_examples=1000, deadline=None)
@given(_TAGGED_TEXT)
def test_last_action_matches_the_full_parse_on_any_string(text):
    _no_last_parse()
    assert last_action(text) == _full_parse_last_action(text)


@settings(max_examples=200, deadline=None)
@given(view=histories(_TAGGED_TEXT, _TAGGED_TEXT), data=st.data())
def test_last_action_matches_the_full_parse_on_renders(mh1_task, view, data):
    _no_last_parse()
    for render in (render_actor_prompt, render_thinker_prompt):
        budget = data.draw(budgets(_build_lengths(render, mh1_task, view)))
        prompt = render(mh1_task, view, budget)
        assert last_action(prompt) == _full_parse_last_action(prompt)


@pytest.mark.parametrize("text,expected", [
    ("", None),
    ("Action: a", None),
    ("Action: a\nObservation: b", "a"),
    ("Action: a\nObservation: b\nAction: c", "a"),
    ("Action: a\nObservation: b\nAction: c\nAction: d\nObservation: e", "d"),
    # the thought's continuation swallows the observation
    ("Action: a\nDeep Thought: t\nObservation: b\nAction: c", None),
    ("x\nAction: a\nObservation: b\nAction: c\nObservation: d\nAction: e", "c"),
])
def test_last_action_skips_lone_actions(text, expected):
    assert last_action(text) == _full_parse_last_action(text) == expected


# --- the resumed parse against the reference ---------------------------------

# `\nAction: x\nObservation: y\n` ends a run with a line break, an end mark
_RESUME_TEXT = st.lists(st.one_of(_FRAGMENTS, st.sampled_from([
    "\nDeep Thought: t", "\nDeep Thought: t\nu", "\nDeep Thought: ",
    "\nAction: x\nObservation: y", "Deep Thought: t\n",
    "\nAction: x\nObservation: y\n"])), max_size=24).map("".join)


@settings(max_examples=1000, deadline=None)
@given(first=_RESUME_TEXT, suffix=_RESUME_TEXT, data=st.data())
def test_parse_prompt_resumes_exactly_after_a_shared_prefix(first, suffix, data):
    _no_last_parse()
    second = first[:data.draw(st.integers(0, len(first)))] + suffix
    assert parse_prompt(first) == _reference_parse_prompt(first)
    assert parse_prompt(second) == _reference_parse_prompt(second)


@pytest.mark.parametrize("first,second", [
    # an action pending before the thought pairs with a later observation
    ("Action: a\nDeep Thought: t\n\nAttention:\nObservation: b",
     "Action: a\nDeep Thought: u\n\nAttention:\nObservation: c"),
    # a reflections section open before the thought takes a later item
    ("The Task: i\nPrevious Reflections:\n- r\nDeep Thought: t\nAction: x\n- s",
     "The Task: i\nPrevious Reflections:\n- r\nDeep Thought: u\nAction: y\n- v"),
    # steps and thoughts before the latest shared thought, then new ones
    ("Initial Observation: o\nAction: a\nObservation: b\nDeep Thought: t\n"
     "Action: c\nObservation: d\nDeep Thought: u",
     "Initial Observation: o\nAction: a\nObservation: b\nDeep Thought: t\n"
     "Action: c\nObservation: d\nDeep Thought: w\nAction: e\nObservation: f"),
])
def test_parse_prompt_resumes_with_the_state_before_the_thought(first, second):
    parse_prompt(first)
    assert parse_prompt(second) == _reference_parse_prompt(second)


@pytest.mark.parametrize("first,second,resumes", [
    # a run that ends the text leaves no end mark: the observation goes on
    ("Action: a\nObservation: b", "Action: a\nObservation: bc", False),
    # a lone observation after the run pairs with no action
    ("Action: a\nObservation: b\n\nAttention:",
     "Action: a\nObservation: b\nObservation: c\n\nAttention:", True),
    # a thought after the run, then a run it anchors before
    ("Action: a\nObservation: b\n\nAttention:",
     "Action: a\nObservation: b\nDeep Thought: t\nAction: c\nObservation: d"
     "\n\nAttention:", True),
], ids=["run-ends-the-text", "lone-observation", "thought"])
def test_parse_prompt_resumes_at_the_end_of_a_run(monkeypatch, first, second,
                                                  resumes):
    starts = []
    scan = prompts._scan

    def recording_scan(text, pos, *args):
        starts.append(pos)
        return scan(text, pos, *args)

    monkeypatch.setattr(prompts, "_scan", recording_scan)
    _no_last_parse()
    # the same prompt again keeps the end mark it resumed at
    for prompt in (first, second, second):
        assert parse_prompt(prompt) == _reference_parse_prompt(prompt)
    assert starts[0] == 0 and [pos > 0 for pos in starts[1:]] == [resumes] * 2


def _checked_parses(monkeypatch):
    """Make the policies' `parse_prompt` check each parse against the
    reference; returns the prompts and the scan start of each parse."""
    seen = []
    scan = prompts._scan

    def recording_scan(text, pos, *args):
        seen[-1][1] = pos
        return scan(text, pos, *args)

    def checked(prompt):
        seen.append([prompt, None])
        parsed = parse_prompt(prompt)
        assert parsed == _reference_parse_prompt(prompt)
        return parsed

    monkeypatch.setattr(prompts, "_scan", recording_scan)
    monkeypatch.setattr(policies, "parse_prompt", checked)
    return seen


def test_parse_prompt_resumes_exactly_in_an_episode(keymaze1, monkeypatch):
    """Every actor and thinker prompt of an episode, in call order. A prompt
    that follows a prompt of its own role with a thought resumes."""
    seen = _checked_parses(monkeypatch)
    task = keymaze1.tasks["keymaze-1"]
    traj = run_mode(keymaze1, scripted("actor", "greedy-actor"), task,
                    RunConfig(mode="ttexplore", max_steps=60, n_trigger=3),
                    scripted("thinker", "oracle-thinker"))
    assert traj.error is None and len(traj.thoughts) >= 5
    assert len(seen) == len(traj.steps) + len(traj.thoughts)
    resumable = [pos for (before, _), (prompt, pos) in zip(seen, seen[1:])
                 if before[:40] == prompt[:40] and "\nDeep Thought: " in before]
    assert len(resumable) > len(seen) // 3 and all(resumable)


def test_every_react_parse_resumes_at_the_end_of_the_last_run(minihouse1,
                                                               monkeypatch):
    """A ReAct prompt has no thought: each actor parse after the second
    resumes at the end of the previous prompt's run of step pairs. The
    first prompt holds no step, so the second has nothing to resume at."""
    seen = _checked_parses(monkeypatch)
    task = minihouse1.tasks["minihouse-1"]
    traj = run_mode(minihouse1, scripted("actor", "greedy-actor"), task,
                    RunConfig(mode="react", max_steps=40))
    assert traj.error is None and len(seen) == len(traj.steps) > 20
    assert all(pos > 0 for _, pos in seen[2:])


def test_parse_prompt_resumes_exactly_in_a_forge_run(minihouse2, monkeypatch):
    seen = _checked_parses(monkeypatch)
    result = pipeline.forge(minihouse2, [minihouse2.tasks["minihouse-2"]],
                            strong=scripted("actor", "oracle-actor"),
                            weak=scripted("actor", "wanderer-actor"),
                            thinker=scripted("thinker", "noisy-thinker"),
                            actor_frozen=scripted("actor", "obedient-actor"),
                            cfg=pipeline.PipelineConfig(), seeds=[0])
    assert result.manifest["groups"] == 2
    assert any(pos > 0 for _, pos in seen)


def _episode_prompts(world_id):
    world = load_builtin_world(world_id)
    task = next(iter(world.tasks.values()))
    with pytest.MonkeyPatch.context() as monkeypatch:
        seen = _checked_parses(monkeypatch)
        run_mode(world, scripted("actor", "greedy-actor"), task,
                 RunConfig(mode="ttexplore", max_steps=30, n_trigger=3),
                 scripted("thinker", "oracle-thinker"))
    return [prompt for prompt, _ in seen]


def _join_all(threads):
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)


@pytest.fixture(scope="module")
def episode_prompts():
    """Every policy prompt of two episodes, with their reference views."""
    sequences = [_episode_prompts(w) for w in ("keymaze1", "minihouse2")]
    return sequences, [[_reference_parse_prompt(p) for p in s] for s in sequences]


def test_threads_keep_their_own_parse(episode_prompts):
    """Two threads take turns parsing two episodes' prompts; each gets the
    reference views and keeps its own last prompt."""
    sequences, expected = episode_prompts
    turns = [threading.Semaphore(1), threading.Semaphore(0)]
    results, last = [[], []], [None, None]

    def parse_in_turn(me):
        for i in range(max(map(len, sequences))):
            assert turns[me].acquire(timeout=30)
            if i < len(sequences[me]):
                results[me].append(parse_prompt(sequences[me][i]))
            turns[1 - me].release()
        last[me] = prompts._last_parse.state[0]

    _join_all([threading.Thread(target=parse_in_turn, args=(me,))
               for me in (0, 1)])
    assert results == expected
    assert last[0] is sequences[0][-1] and last[1] is sequences[1][-1]


def test_parse_prompt_under_thread_switching(episode_prompts):
    """More threads than cores, switching as often as the interpreter
    allows, each parsing one episode's prompts three times over."""
    sequences, expected = episode_prompts
    results = {}

    def parse_all(me):
        prompts_, views = sequences[me % 2], expected[me % 2]
        results[me] = all(parse_prompt(p) == v
                          for _ in range(3) for p, v in zip(prompts_, views))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _join_all([threading.Thread(target=parse_all, args=(me,))
                   for me in range(8)])
    finally:
        sys.setswitchinterval(interval)
    assert results == {me: True for me in range(8)}


def test_last_action_leaves_the_parse_state_alone(task, view):
    prompt = render_actor_prompt(task, view)
    parse_prompt(prompt)
    state = prompts._last_parse.state
    assert last_action(prompt + "\nAction: a\nObservation: b") == "a"
    assert last_action("Deep Thought: t\nAction: a\nObservation: b") == "a"
    assert prompts._last_parse.state is state


def _reachable(root):
    """Every object reachable from `root` through tuples, lists, dicts and
    prompt views."""
    found, stack = {}, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in found:
            continue
        found[id(obj)] = obj
        if isinstance(obj, (tuple, list)):
            stack += obj
        elif isinstance(obj, dict):
            stack += [*obj.keys(), *obj.values()]
        elif isinstance(obj, prompts.PromptView):
            stack.append(vars(obj))
    return list(found.values())


def test_parse_state_holds_only_the_last_prompt_and_its_view(task, view):
    """Marks hold counts, not views, so a resume keeps no old view alive;
    the returned view shares no list with the state. The step after the
    last thought leaves an end mark."""
    first = render_thinker_prompt(task, view)
    parse_prompt(first)
    view.add_step("go to fridge 1", "You arrive at fridge 1.")
    view.add_thought("Plan:\n- open fridge 1")
    view.add_step("open fridge 1", "Nothing happened.")
    second = render_thinker_prompt(task, view)
    parsed = parse_prompt(second)
    marks, end = prompts._last_parse.state[2:]
    assert len(marks) == 2 and end[0] > marks[-1][0]
    _assert_state_holds_only(first, second, parsed)


def _assert_state_holds_only(first, second, parsed):
    prompt, own, marks, end = state = prompts._last_parse.state
    assert prompt is second and own == parsed
    reached = _reachable(state)
    assert [o for o in reached if isinstance(o, prompts.PromptView)] == [own]
    assert own is not parsed
    assert not any(o is lst for o in reached
                   for lst in (parsed.steps, parsed.thoughts, parsed.reflections))
    for mark in [*marks, *([end] if end else [])]:
        assert all(isinstance(x, (int, str, type(None))) for x in mark)
    assert not any(isinstance(o, str) and len(o) >= len(first) and o is not second
                   for o in reached)


def _many_thoughts_prompt(task, thoughts):
    view = HistoryView(task.id, "You are in the hallway.")
    for i in range(thoughts):
        view.add_step(f"go to room {i}", "Nothing happened.")
        view.add_thought(f"thought {i}")
    return render_thinker_prompt(task, view)


def test_a_resume_costs_log_marks_prefix_comparisons(task, monkeypatch):
    """A miss, a partial hit and a full hit each cost at most
    floor(log2(marks)) + 1 prefix comparisons; with evenly spaced thoughts
    they copy at most twice the prompt's length between them."""
    marks = 256
    prompt = _many_thoughts_prompt(task, marks)
    middle = prompt.index("Deep Thought: thought 100\n")
    probes = []
    shares = prompts._shares

    def counting(new, old, start, end):
        probes.append(end - start)
        return shares(new, old, start, end)

    monkeypatch.setattr(prompts, "_shares", counting)
    for changed in ("X" + prompt[1:],  # the head shifted: a miss
                    prompt[:middle - 2] + "X" + prompt[middle - 1:],
                    prompt + "\nAction: a\nObservation: b"):
        parse_prompt(prompt)
        probes.clear()
        assert parse_prompt(changed) == _reference_parse_prompt(changed)
        assert 0 < len(probes) <= marks.bit_length()
        assert sum(probes) <= 2 * len(prompt)


# --- the relocated parse against the reference -------------------------------

def _recorded_relocations(monkeypatch):
    """Record the outcome of each full comparison and the characters each
    relocation comparison copies."""
    outcomes, copied = [], []
    relocate, moved = prompts._relocate, prompts._moved

    def recording_relocate(*args):
        outcomes.append(relocate(*args))
        return outcomes[-1]

    def recording_moved(text, old, start, end, shift):
        copied.append(end - start)
        return moved(text, old, start, end, shift)

    monkeypatch.setattr(prompts, "_relocate", recording_relocate)
    monkeypatch.setattr(prompts, "_moved", recording_moved)
    return outcomes, copied


@pytest.mark.parametrize("char_budget", [5_000, 30_000])
def test_parse_prompt_relocates_exactly_past_the_budget(keymaze1, monkeypatch,
                                                        char_budget):
    """Every thinker prompt of a loop-actor episode past its budget parses
    as the reference does, and some parses relocate. No parse makes more
    than one failed full comparison, and the relocation comparisons of a
    parse copy less than the prompt's length."""
    outcomes, copied = _recorded_relocations(monkeypatch)
    parses = []

    def checked(prompt):
        outcomes.clear()
        copied.clear()
        parsed = parse_prompt(prompt)
        assert parsed == _reference_parse_prompt(prompt)
        if TRUNCATION_MARKER in prompt:
            parses.append((outcomes.count(True), outcomes.count(False),
                           sum(copied) / len(prompt)))
        return parsed

    monkeypatch.setattr(policies, "parse_prompt", checked)
    task = keymaze1.tasks["keymaze-1"]
    traj = run_mode(keymaze1, scripted("actor", "loop-actor"), task,
                    RunConfig(mode="ttexplore", max_steps=400, n_trigger=3,
                              char_budget=char_budget),
                    scripted("thinker", "oracle-thinker"))
    assert traj.error is None
    relocated, failed, copied_share = zip(*parses)
    assert len(parses) > 80 and sum(relocated) > 5
    assert max(failed) <= 1 and max(copied_share) < 1


@settings(max_examples=300, deadline=None)
@given(view=histories(_LINE, _THOUGHT), added=st.lists(st.tuples(_LINE, _LINE),
                                                      min_size=1, max_size=4),
       thought=_THOUGHT, data=st.data())
def test_parse_prompt_relocates_exactly_after_truncation(mh1_task, view, added,
                                                         thought, data):
    """A render at budget B, parsed, then the render at B of the same
    history with steps and a thought appended: both parse as the reference
    does, whether the second parse resumes, relocates or scans plainly."""
    _no_last_parse()
    for render in (render_actor_prompt, render_thinker_prompt):
        budget = data.draw(budgets(_build_lengths(render, mh1_task, view)))
        grown = view.copy()
        for step in added:
            grown.add_step(*step)
        grown.add_thought(thought)
        for prompt in (render(mh1_task, view, budget),
                       render(mh1_task, grown, budget)):
            assert parse_prompt(prompt) == _reference_parse_prompt(prompt)


def _truncated_thinker_prompts(task, thoughts, char_budget):
    """Thinker prompts over budget before and after one more step and
    thought; each step is followed by a thought."""
    view = HistoryView(task.id, "You are in the hallway.")
    renders = []
    for i in range(thoughts + 1):
        view.add_step(f"go to room {i}", "Nothing happened.")
        view.add_thought(f"thought {i}")
        renders.append(render_thinker_prompt(task, view, char_budget))
    assert TRUNCATION_MARKER in renders[-2]
    return renders[-2], renders[-1]


def test_parse_state_after_a_relocation_holds_only_the_last_prompt_and_its_view(
        task, monkeypatch):
    """A relocation copies the old parse's marks and view items, and keeps
    neither the old prompt nor the old view."""
    outcomes, _ = _recorded_relocations(monkeypatch)
    first, second = _truncated_thinker_prompts(task, 60, 3_000)
    parse_prompt(first)
    outcomes.clear()
    parsed = parse_prompt(second)
    assert outcomes == [True] and len(prompts._last_parse.state[2]) == 61
    _assert_state_holds_only(first, second, parsed)


def test_a_relocated_stretch_keeps_its_state_and_its_marks(monkeypatch):
    """A stretch that takes a reflection, changes the instruction and the
    initial observation, and ends with an action pending, moved behind a
    reflection and a step; then a prompt that resumes at a mark the
    relocation moved, with an action pending there."""
    outcomes, _ = _recorded_relocations(monkeypatch)
    stretch = ("Deep Thought: a\nAction: x\n- s\nThe Task: k\n"
               "Initial Observation: n\nDeep Thought: b\nAction: y\n"
               "Observation: z\nAction: p\nDeep Thought: c")
    parse_prompt("Previous Reflections:\n" + stretch)
    outcomes.clear()
    moved = ("Previous Reflections:\n- r\nAction: w\nObservation: v\n"
             + stretch + "\n\nAttention:\nObservation: o\nDeep Thought: d")
    resumed = (moved[:moved.index("Deep Thought: b") + len("Deep Thought: ")]
               + "e\n\nAttention:\nObservation: u")
    for prompt in (moved, resumed):
        assert parse_prompt(prompt) == _reference_parse_prompt(prompt)
    assert outcomes == [True]


def test_a_changed_character_in_the_moved_part_falls_back_to_a_plain_scan(
        task, monkeypatch):
    """The one full comparison fails, and the parse scans on plainly."""
    outcomes, _ = _recorded_relocations(monkeypatch)
    first, second = _truncated_thinker_prompts(task, 60, 3_000)
    changed = second.index("Deep Thought: thought 50") + len("Deep Thought: ")
    second = second[:changed] + "T" + second[changed + 1:]
    parse_prompt(first)
    outcomes.clear()
    assert parse_prompt(second) == _reference_parse_prompt(second)
    assert outcomes == [False]


def test_a_changed_reflections_flag_falls_back_to_a_plain_scan(monkeypatch):
    """The same text after a thought, with the reflections section open in
    the old prompt and closed in the new: the item `- s` is a reflection in
    one and not in the other."""
    outcomes, _ = _recorded_relocations(monkeypatch)
    stretch = ("Deep Thought: a\nAction: x\n- s\nDeep Thought: b\n"
               "Action: y\nObservation: z\nDeep Thought: c")
    parse_prompt("Previous Reflections:\n" + stretch)
    outcomes.clear()
    new = "Attention:\n" + stretch + "\nDeep Thought: d"
    assert parse_prompt(new) == _reference_parse_prompt(new)
    assert outcomes == []


def test_a_parse_makes_at_most_one_failed_full_comparison(task, monkeypatch):
    """Adjacent thoughts pass every quick check; the changed action after
    them fails the full comparison, once, and the parse scans on plainly."""
    outcomes, copied = _recorded_relocations(monkeypatch)
    view = HistoryView(task.id, "You are in the hallway.")
    for _ in range(200):
        view.add_thought("the same thought")
    view.add_step("go to room 1", "Nothing happened.")
    view.add_thought("the last thought")
    old = render_thinker_prompt(task, view)
    new = "X" + old[1:].replace("go to room 1", "go to room 2")
    parse_prompt(old)
    outcomes.clear()
    copied.clear()
    assert parse_prompt(new) == _reference_parse_prompt(new)
    assert outcomes == [False] and sum(copied) <= len(new)


# --- reflection request ------------------------------------------------------

def _reference_reflection_prompt(task, steps, process_score):
    """The reflection request over a whole failed transcript, unbudgeted, as
    the episode loop built it before the request was fitted to a budget."""
    lines = [
        "Reflection Request: the previous attempt at this task failed.",
        "",
        f"The Task: {task.instruction}",
        "",
        "Transcript:",
    ]
    for action, observation in steps:
        lines.append(f"Action: {action}")
        lines.append(f"Observation: {observation}")
    lines += [
        "",
        f"Final score: {process_score}",
        "",
        "Write a short reflection on what went wrong and what to do "
        "differently in the next attempt.",
    ]
    return "\n".join(lines)


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(st.tuples(_ANY_TEXT, _ANY_TEXT), max_size=12),
       score=st.sampled_from([0.0, 33.33, 66.67]))
def test_reflection_prompt_within_budget_matches_the_reference(mh1_task, steps,
                                                               score):
    view = HistoryView(mh1_task.id, "the initial observation", steps=steps)
    assert render_reflection_prompt(mh1_task, view, score) == \
        _reference_reflection_prompt(mh1_task, steps, score)


def test_reflection_prompt_fits_the_char_budget(monkeypatch):
    """A 400-step Reflexion attempt under a 1,500-character budget: the
    reflection request fits and keeps the newest steps."""
    prompts_seen = []

    def recording_actor(prompt, seed):
        prompts_seen.append(prompt)
        return loop_actor(prompt, seed)

    monkeypatch.setitem(SCRIPTED_POLICIES, "recording-actor", recording_actor)
    world = load_builtin_world("keymaze1")
    task = world.tasks["keymaze-1"]
    cfg = RunConfig(mode="reflexion", inner_mode="react", retries_N=2,
                    max_steps=400, char_budget=1500)
    traj = run_mode(world, scripted("actor", "recording-actor"), task, cfg)
    assert not traj.final.success and traj.final.steps_used == 400
    assert all(len(p) <= 1500 for p in prompts_seen)
    [reflection] = [p for p in prompts_seen
                    if p.startswith("Reflection Request:")]
    _, kept = reflection.split(f"Transcript:\n{TRUNCATION_MARKER}\n")
    kept_steps = kept.split("\n\nFinal score: ")[0]
    full = _reference_reflection_prompt(
        task, zip(traj.actions(), traj.observations()),
        traj.final.process_score)
    assert full.split("\n\nFinal score: ")[0].endswith("\n" + kept_steps)
    assert kept_steps.startswith("Action: ")
