"""Prompt rendering, tagged-output parsing, truncation, and introspection."""

import copy
import sys
import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttexplore import load_builtin_world, policies, prompts
from ttexplore.orchestrator import RunConfig, run_mode
from ttexplore.policies import SCRIPTED_POLICIES, SOLUTIONS, loop_actor, scripted
from ttexplore.prompts import (
    ACTOR_FORMAT_BLOCK,
    THINKER_FORMAT_BLOCK,
    TRUNCATION_MARKER,
    ActorOutput,
    ContractViolation,
    HistoryView,
    ParseError,
    ParseErrorKind,
    format_actor_tags,
    format_thinker_output,
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


def test_a_reflection_request_takes_no_thoughts(task, view):
    with pytest.raises(ContractViolation, match="steps only"):
        render_reflection_prompt(task, view, 0.0)


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


def _reference_fit_budget(head, tail, view, char_budget, *shown):
    """Drop one oldest step at a time and rebuild until the prompt fits."""
    prompt = _joined(head, tail, view, 0)
    drop = 0
    while len(prompt) > char_budget and drop < len(view.steps):
        drop += 1
        prompt = _joined(head, tail, view, drop)
    return prompt


def _reference_frame(render, task, view):
    """The fixed text before and after a render's history, built anew on
    every call from the task and the view."""
    if render is render_thinker_prompt:
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
            *([] if view.steps or view.thoughts else ["(no interaction yet)"]),
        ]
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
        *(["", "History:"] if view.steps or view.thoughts else []),
    ]
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
    return "\n".join(head), "\n".join(tail)


@pytest.mark.parametrize("render", [render_actor_prompt, render_thinker_prompt])
@pytest.mark.parametrize("steps", [0, 30])
def test_a_render_frames_the_task_and_view_it_is_given(task, render, steps):
    """Renders equal the reference, which builds the frame on every call:
    for tasks that share an id but not their examples, action doc or
    instruction, after the view's initial observation is reassigned, and
    after a reflection is appended, within and over the budget."""
    tasks = [task,
             task._replace(examples=["Task: other\n> look around"]),
             task._replace(action_space_doc="- look around\n"),
             task._replace(instruction="open the fridge")]
    view = HistoryView(task.id, "You are in the hallway.",
                       steps=[(f"go to room {i}", "Nothing happened.")
                              for i in range(steps)])

    def check():
        for t in tasks:
            head, tail = _reference_frame(render, t, view)
            for budget in (10 ** 6, len(head) + len(tail) + 200):
                assert render(t, view, budget) == \
                    _reference_fit_budget(head, tail, view, budget)

    check()
    view.initial_observation = "You are in the garden."
    check()
    view.reflections.append("open the fridge first")
    check()


TASK_ID = "minihouse-1"


@pytest.fixture(scope="module")
def mh1_task():
    return load_builtin_world("minihouse1").tasks[TASK_ID]


def _build_lengths(render, task, view):
    """Length of the prompt built with each drop count from 0 to every step."""
    def lengths(head, tail, view, *_):
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


def _render_reflection(task, view, char_budget=prompts.DEFAULT_CHAR_BUDGET):
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
    assert parse_actor_output(format_actor_tags(out.thought, out.action)) == out


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

def _reference_parse_prompt(prompt):
    """The line-by-line state machine the regex tokenizer replaced."""
    steps, thoughts, reflections = [], [], []
    instruction = initial_observation = ""
    lines = prompt.split("\n")
    i = 0
    pending_action = None
    in_reflections = False
    while i < len(lines):
        line = lines[i]
        if line.startswith("The Task: "):
            instruction = line[len("The Task: "):]
            in_reflections = False
        elif line.startswith("Initial Observation: "):
            initial_observation = line[len("Initial Observation: "):]
        elif line == "Previous Reflections:":
            in_reflections = True
        elif line == "Attention:":
            in_reflections = False
        elif in_reflections and line.startswith("- "):
            reflections.append(line[2:])
        elif line.startswith("Action: "):
            pending_action = line[len("Action: "):]
        elif line.startswith("Observation: "):
            if pending_action is not None:
                steps.append((pending_action, line[len("Observation: "):]))
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
            thoughts.append((len(steps), "\n".join(text_lines).rstrip()))
        i += 1
    return prompts.PromptView(steps, thoughts, 0, instruction,
                              initial_observation, reflections)


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
    assert parse_prompt(text) == _reference_parse_prompt(text)


@settings(max_examples=200, deadline=None)
@given(view=histories(_TAGGED_TEXT, _TAGGED_TEXT), data=st.data())
def test_parse_prompt_matches_reference_on_renders(mh1_task, view, data):
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
        assert prompt.view == parsed
        assert parsed.steps[-1] == view.steps[-1]


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


# --- the loop actor repeats the full parse's last step ----------------------

def _repeating(action):
    """The loop actor's answer when the last step's action is `action`."""
    return format_actor_tags("keep going",
                             "look around" if action is None else action)


def _reference_last_action(text):
    steps = _reference_parse_prompt(text).steps
    return steps[-1][0] if steps else None


@settings(max_examples=1000, deadline=None)
@given(_TAGGED_TEXT)
def test_last_action_matches_the_full_parse_on_any_string(text):
    """On a plain string the loop actor repeats the last step of the parse."""
    assert loop_actor(text, 0) == _repeating(_reference_last_action(text))


@settings(max_examples=200, deadline=None)
@given(view=histories(_LINE, _THOUGHT), data=st.data())
def test_last_action_matches_the_full_parse_on_renders(mh1_task, view, data):
    """On a render the loop actor repeats the last step its view keeps,
    which is the last step of the text's parse."""
    for render in (render_actor_prompt, render_thinker_prompt):
        budget = data.draw(budgets(_build_lengths(render, mh1_task, view)))
        prompt = render(mh1_task, view, budget)
        expected = _repeating(_reference_last_action(prompt))
        assert loop_actor(prompt, 0) == loop_actor(str(prompt), 0) == expected


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
    assert _reference_last_action(text) == expected
    assert loop_actor(text, 0) == _repeating(expected)


# --- the view a render carries -------------------------------------------------

def _render_each(task, view, data):
    """The actor and thinker renders of `view` and the reflection request on
    its steps, each at a budget drawn from nothing at all to more than its
    whole prompt."""
    steps_only = HistoryView(view.task_id, view.initial_observation,
                             steps=view.steps, reflections=view.reflections)
    for render, v in ((render_actor_prompt, view), (render_thinker_prompt, view),
                      (_render_reflection, steps_only)):
        yield render(task, v, data.draw(budgets(_build_lengths(render, task, v))))


@settings(max_examples=300, deadline=None)
@given(view=histories(_LINE, _THOUGHT), data=st.data())
def test_a_render_carries_the_view_its_text_parses_to(mh1_task, view, data):
    """Within and over the budget, with thoughts and reflections: what a
    render's view shows is what its text shows."""
    for prompt in _render_each(mh1_task, view, data):
        assert isinstance(prompt, prompts.Prompt)
        assert prompt.view == parse_prompt(str(prompt))


def test_a_tag_line_inside_a_history_line_is_history(task):
    """A thought that holds an `Action: ` and an `Observation: ` line, as a
    remote thinker may write: the text parses to one more step and a cut
    thought, but the view, and so a scripted fixture, keeps the history."""
    view = HistoryView(task.id, "obs", steps=[("look around", "You see a door.")])
    thought = "Plan:\nAction: go to kitchen\nObservation: made up"
    view.add_thought(thought)
    prompt = render_actor_prompt(task, view)
    assert prompt.view.steps == [("look around", "You see a door.")]
    assert prompt.view.thoughts == [(1, thought)]
    parsed = parse_prompt(str(prompt))
    assert parsed.steps == [("look around", "You see a door."),
                            ("go to kitchen", "made up")]
    assert parsed.thoughts == [(1, "Plan:")]
    assert loop_actor(prompt, 0) == _repeating("look around")
    assert loop_actor(str(prompt), 0) == _repeating("go to kitchen")


def test_a_view_is_a_snapshot_of_its_render(task, view):
    """Appends after a render reach neither a view read before them nor one
    first read after them, and changing a view's lists reaches neither the
    history nor the next render. A field's first read stores a fresh plain
    list on the view, which every later read returns."""
    view.add_step("go to fridge 1", "You arrive at fridge 1.")
    view.reflections.append("open the fridge first")
    renders = [render(task, view, budget)
               for render in (render_actor_prompt, render_thinker_prompt)
               for budget in (10 ** 6, 0)]
    expected = [parse_prompt(str(p)) for p in renders]
    read = renders[::2]
    assert [p.view for p in read] == expected[::2]
    for p in read:
        assert {"steps", "thoughts"} <= vars(p.view).keys()
        assert p.view.steps is p.view.steps and p.view.thoughts is p.view.thoughts
        assert type(p.view.steps) is list and p.view.steps is not view.steps
        assert type(p.view.thoughts) is list and p.view.thoughts is not view.thoughts
    assert not {"steps", "thoughts"} & vars(renders[1].view).keys()
    history = (list(view.steps), list(view.thoughts), list(view.reflections))
    view.add_step("open fridge 1", "Nothing happened.")
    view.add_thought("one more thought")
    view.reflections.append("a later reflection")
    assert [p.view for p in renders] == expected
    for p in renders:
        p.view.steps.append(("x", "y"))
        p.view.thoughts.clear()
        p.view.reflections.append("z")
    assert (view.steps[:-1], view.thoughts[:-1], view.reflections[:-1]) == history
    again = render_actor_prompt(task, view)
    assert again.view == parse_prompt(str(again))
    # the fixtures' per-thought plan cache is bounded like the frame caches
    assert policies._plan_lines.cache_info().maxsize is not None


@settings(max_examples=200, deadline=None)
@given(view=histories(st.one_of(_LINE, st.sampled_from(
           [a for plan in SOLUTIONS.values() for a in plan])),
           st.one_of(_THOUGHT, st.sampled_from([
               "Summary: blocked.\nPlan:\n- go to fridge 1\n- open fridge 1",
               "Plan:\n- look around"]))),
       seed=st.integers(0, 10 ** 6), data=st.data())
def test_scripted_policies_answer_a_render_as_its_text(mh1_task, view, seed, data):
    """Every scripted policy reads a render's view and a plain string's
    parse, and answers both alike."""
    for prompt in _render_each(mh1_task, view, data):
        for name, policy in SCRIPTED_POLICIES.items():
            assert policy(prompt, seed) == policy(str(prompt), seed), name


def _episode_prompts(world_id):
    """Every policy prompt of a ttexplore episode, in call order, as text."""
    seen = []

    def recording(name):
        def policy(prompt, seed):
            seen.append(str(prompt))
            return SCRIPTED_POLICIES[name](prompt, seed)
        return policy

    world = load_builtin_world(world_id)
    task = next(iter(world.tasks.values()))
    with pytest.MonkeyPatch.context() as monkeypatch:
        for role, name in (("actor", "greedy-actor"), ("thinker", "oracle-thinker")):
            monkeypatch.setitem(SCRIPTED_POLICIES, f"recording-{role}",
                                recording(name))
        run_mode(world, scripted("actor", "recording-actor"), task,
                 RunConfig(mode="ttexplore", max_steps=30, n_trigger=3),
                 scripted("thinker", "recording-thinker"))
    return seen


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


def test_parse_prompt_under_thread_switching(episode_prompts):
    """More threads than cores, switching as often as the interpreter
    allows, each parsing one episode's prompts three times over: a parse
    keeps no state that another can disturb."""
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
