"""Scripted fixture policies and the remote backend contract."""

import json
import os
import subprocess
import sys

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import ttexplore
from ttexplore import load_builtin_world, policies
from ttexplore.orchestrator import RunConfig, run_mode
from ttexplore.policies import (
    NAIVE_PLANS,
    SCRIPTED_POLICIES,
    SOLUTIONS,
    CANNED_REFLECTION,
    REFLECTION_MARKER,
    ConfigError,
    RemoteBackend,
    RemoteError,
    complete,
    noisy_thinker,
    scripted,
)
from ttexplore.prompts import (
    HistoryView,
    parse_actor_output,
    render_actor_prompt,
    render_thinker_prompt,
)
from ttexplore.world import GUARDS, SENTINEL, builtin_world_path, load_world


def actor_prompt(world, task_id, steps=(), thoughts=()):
    task = world.tasks[task_id]
    _, obs0 = world.reset(task, 0)
    view = HistoryView(task_id=task.id, initial_observation=obs0.text,
                       steps=list(steps), thoughts=list(thoughts))
    return render_actor_prompt(task, view)


# --- scripted backends -----------------------------------------------------

def test_scripted_policies_are_pure(minihouse1):
    prompt = actor_prompt(minihouse1, "minihouse-1")
    for name in SCRIPTED_POLICIES:
        handle = scripted("actor", name)
        assert complete(handle, prompt, seed=3) == complete(handle, prompt, seed=3)


def test_unknown_scripted_name_raises():
    # the handle fails when it is made, before any call or episode
    with pytest.raises(ConfigError) as exc:
        scripted("actor", "greedy-actr")
    assert str(exc.value) == ("unknown scripted policy 'greedy-actr' "
                              f"(known: {', '.join(SCRIPTED_POLICIES)})")


def test_oracle_actor_plays_script_by_position(minihouse1):
    script = SOLUTIONS["put the apple on the table"]
    steps = []
    handle = scripted("actor", "oracle-actor")
    for expected in script:
        prompt = actor_prompt(minihouse1, "minihouse-1", steps=steps)
        action = parse_actor_output(complete(handle, prompt)).action
        assert action == expected
        steps.append((action, "ok"))


def test_oracle_actor_plays_on_from_the_last_script_step_it_sees(minihouse1):
    """A truncated prompt shows only the latest steps: the oracle plays the
    step after the last visible one of its script, and counts the visible
    steps only when it sees none of them."""
    script = SOLUTIONS["put the apple on the table"]
    task = minihouse1.tasks["minihouse-1"]
    handle = scripted("actor", "oracle-actor")
    view = HistoryView(task.id, minihouse1.reset(task, 0)[1].text)
    for action in script[:4]:
        view.add_step(action, "ok " * 40)
    view.add_step("look around", "ok")
    prompt = render_actor_prompt(task, view, char_budget=1147)
    assert len(prompt.view.steps) < 5  # the first steps were dropped
    assert parse_actor_output(complete(handle, prompt)).action == script[4]
    unscripted = actor_prompt(minihouse1, "minihouse-1",
                              steps=[("look around", "ok")] * 2)
    assert parse_actor_output(complete(handle, unscripted)).action == script[2]


def test_loop_actor_repeats_last_action(minihouse1):
    handle = scripted("actor", "loop-actor")
    prompt = actor_prompt(minihouse1, "minihouse-1")
    assert parse_actor_output(complete(handle, prompt)).action == "look around"
    prompt = actor_prompt(minihouse1, "minihouse-1",
                          steps=[("go to kitchen", "fine")])
    assert parse_actor_output(complete(handle, prompt)).action == "go to kitchen"
    # with no plan to follow, the obedient actor loops too
    assert complete(scripted("actor", "obedient-actor"), prompt) == \
        complete(handle, prompt)


@pytest.mark.parametrize("mode", ["react", "ttexplore", "reflexion", "bestofn"])
def test_an_episode_parses_no_prompt(minihouse1, monkeypatch, mode):
    """Every scripted actor, with `noisy-thinker`, reads the view that each
    render carries: a full episode in each mode parses no prompt text, and
    only a plain string is parsed."""
    calls = []
    real = policies.parse_prompt

    def counting(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(policies, "parse_prompt", counting)
    task = minihouse1.tasks["minihouse-1"]
    cfg = RunConfig(mode=mode, max_steps=20, n_trigger=3, retries_N=2,
                    samples_N=2)
    for name in SCRIPTED_POLICIES:
        if name.endswith("-actor"):
            traj = run_mode(minihouse1, scripted("actor", name), task, cfg,
                            scripted("thinker", "noisy-thinker"))
            assert traj.error is None and traj.steps
    assert calls == []
    prompt = str(actor_prompt(minihouse1, "minihouse-1"))
    complete(scripted("actor", "greedy-actor"), prompt)
    assert calls == [prompt]


def test_greedy_actor_follows_plan_lines(minihouse1):
    handle = scripted("actor", "greedy-actor")
    thought = "Summary: blocked.\nPlan:\n- go to fridge 1\n- open fridge 1"
    steps = [("open fridge 1", "Nothing happened.")]
    prompt = actor_prompt(minihouse1, "minihouse-1", steps=steps,
                          thoughts=[(1, thought)])
    assert parse_actor_output(complete(handle, prompt)).action == "go to fridge 1"
    steps = steps + [("go to fridge 1", "You arrive at fridge 1.")]
    prompt = actor_prompt(minihouse1, "minihouse-1", steps=steps,
                          thoughts=[(1, thought)])
    assert parse_actor_output(complete(handle, prompt)).action == "open fridge 1"


# Reference copies of `greedy-actor` and `obedient-actor` as they were
# written before their plan parse was cached and their history scan became
# one pass: a fresh plan parse per step and list scans of the history.

def _reference_plan_lines(thought_text):
    plan, in_plan = [], False
    for line in thought_text.split("\n"):
        if line.strip() == "Plan:":
            in_plan = True
            continue
        if in_plan:
            if line.startswith("- "):
                plan.append(line[2:].strip())
            else:
                break
    return plan


def _reference_latest_plan_step(view):
    if not view.thoughts:
        return None
    anchor_pos, text = view.thoughts[-1]
    plan = _reference_plan_lines(text)
    idx = len(view.steps) - anchor_pos
    return plan[idx] if 0 <= idx < len(plan) else None


def _reference_greedy(view):
    planned = _reference_latest_plan_step(view)
    if planned is not None:
        return "following the plan", planned
    naive = NAIVE_PLANS.get(view.instruction, ["look around"])
    done = {a for a, o in view.steps if o != SENTINEL}
    attempted = [a for a, _ in view.steps]
    candidates = [a for a in naive if a not in done]
    if not candidates:
        return "nothing left to try", "look around"
    for action in candidates:
        if action not in attempted:
            return "trying the direct approach", action
    return "trying again", candidates[-1]


def _reference_obedient(view):
    planned = _reference_latest_plan_step(view)
    if planned is not None:
        return "following the plan", planned
    return "keep going", view.steps[-1][0] if view.steps else "look around"


def _reference_actor(policy, prompt):
    if prompt.startswith(REFLECTION_MARKER):
        return CANNED_REFLECTION
    thought, action = policy(policies.prompt_view(prompt))
    return f"<think>{thought}</think>\n<answer>{action}</answer>"


_TASKS = [task for world in ("minihouse1", "minihouse2", "keymaze1")
          for task in load_builtin_world(world).tasks.values()]
_ACTIONS = sorted({a for plan in [*SOLUTIONS.values(), *NAIVE_PLANS.values()]
                   for a in plan} | {"look around", "dance"})
_ACTION = st.one_of(st.sampled_from(_ACTIONS), st.text(alphabet="ab ", max_size=8))
_OBSERVATION = st.one_of(st.just(SENTINEL), st.just(SENTINEL),
                         st.sampled_from(["You see a door.", ""]),
                         st.text(alphabet="ab .", max_size=12))
# plan lines among summaries, a `Plan:` line with spaces around it, a line
# that ends the plan, and thoughts with no plan at all
_THOUGHT_LINE = st.one_of(
    st.sampled_from(["Plan:", " Plan: ", "Summary: blocked.", "-", "- ", "done"]),
    _ACTION.map(lambda a: f"- {a}"), _ACTION.map(lambda a: f"-  {a} "),
    _ACTION.map(lambda a: f" - {a}"))
_PLAN_THOUGHT = st.lists(_THOUGHT_LINE, min_size=1, max_size=8).map("\n".join)


@st.composite
def _actor_renders(draw):
    """An actor render of a random history, mostly at a budget small enough
    to drop some of its steps."""
    task = draw(st.sampled_from(_TASKS))
    naive = st.sampled_from(NAIVE_PLANS[task.instruction])
    steps = draw(st.lists(st.tuples(st.one_of(naive, naive, naive, _ACTION),
                                    _OBSERVATION), max_size=16))
    anchor = st.integers(0, len(steps))
    thoughts = draw(st.lists(st.tuples(anchor, _PLAN_THOUGHT), max_size=3))
    view = HistoryView(task.id, "You are in the hallway.", steps=steps,
                       thoughts=thoughts,
                       reflections=draw(st.lists(st.just("go first"), max_size=1)))
    budget = draw(st.one_of(st.integers(850, 1400), st.just(10 ** 6)))
    return render_actor_prompt(task, view, budget)


@settings(max_examples=400, deadline=None)
@given(prompt=_actor_renders(), seed=st.integers(0, 10 ** 6))
def test_greedy_and_obedient_actors_decide_as_their_reference(prompt, seed):
    """On any render, and on its text, the rewritten fixtures give the
    completion of the reference copies above."""
    for name, reference in (("greedy-actor", _reference_greedy),
                            ("obedient-actor", _reference_obedient)):
        for p in (prompt, str(prompt)):
            assert SCRIPTED_POLICIES[name](p, seed) == \
                _reference_actor(reference, p), name


@pytest.mark.parametrize("name", [n for n in SCRIPTED_POLICIES
                                  if n.endswith("-actor")])
def test_actors_answer_reflection_requests_raw(name):
    raw = complete(scripted("actor", name),
                   f"{REFLECTION_MARKER} the attempt failed")
    assert raw == CANNED_REFLECTION
    assert "<think>" not in raw


def test_actors_act_on_a_prompt_that_holds_the_marker_elsewhere(tmp_path):
    # only a prompt that starts with the marker is a reflection request
    doc = yaml.safe_load(builtin_world_path("minihouse2").read_text(encoding="utf-8"))
    doc["tasks"][0]["action_space"] += f"- {REFLECTION_MARKER} after a failed attempt\n"
    path = tmp_path / "w.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    world = load_world(path)
    task = world.tasks["minihouse-2"]
    prompt = actor_prompt(world, task.id)
    assert f"\n- {REFLECTION_MARKER}" in prompt
    for name in SCRIPTED_POLICIES:
        if name.endswith("-actor"):
            parse_actor_output(complete(scripted("actor", name), prompt))
    traj = run_mode(world, scripted("actor", "oracle-actor"), task,
                    RunConfig(mode="react", max_steps=20))
    assert traj.final.success


def test_oracle_thinker_names_violated_rule(minihouse1):
    handle = scripted("thinker", "oracle-thinker")
    steps = [("open fridge 1", "Nothing happened.")]
    prompt = actor_prompt(minihouse1, "minihouse-1", steps=steps)
    raw = complete(handle, prompt)
    assert "must-face-target" in raw
    assert "Plan:" in raw


def test_rule_explanations_cover_exactly_the_declared_guards():
    assert set(policies._RULE_EXPLANATIONS) == set(GUARDS)


@pytest.mark.parametrize("steps,why", [
    ([("dance", "Nothing happened.")], "documented verbs"),
    ([("go to fridge 1", "You arrive at fridge 1."),
      ("take apple 1 from fridge 1", "You pick up apple 1."),
      ("go to table 1", "You arrive at table 1."),
      ("take mug 1 from table 1", "Nothing happened.")], "two objects"),
])
def test_oracle_thinker_names_no_rule_for_an_engine_rejection(minihouse1,
                                                              steps, why):
    # an unknown verb and a take with a full hand fail the engine's own
    # checks, which no world declares as a rule
    task = minihouse1.tasks["minihouse-1"]
    _, obs0 = minihouse1.reset(task, 0)
    view = HistoryView(task.id, obs0.text, steps=steps)
    raw = complete(scripted("thinker", "oracle-thinker"),
                   render_thinker_prompt(task, view))
    assert "Hypothesis: the action is invalid: " in raw and why in raw
    for rule_id in (*GUARDS, "one-item-hand", "unknown-verb"):
        assert rule_id not in raw


def test_oracle_thinker_plan_keeps_navigation_steps(minihouse1):
    # a successful "go to" in the history must not be dropped from the plan:
    # facing is transient
    handle = scripted("thinker", "oracle-thinker")
    steps = [
        ("go to kitchen", "You are in the kitchen."),
        ("go to fridge 1", "You arrive at fridge 1. It is closed."),
        ("open fridge 1", "You open fridge 1."),
        ("go to table 1", "You arrive at table 1."),
        ("take apple 1 from fridge 1", "Nothing happened."),
    ]
    raw = complete(handle, actor_prompt(minihouse1, "minihouse-1", steps=steps))
    assert "- go to fridge 1" in raw
    assert "- open fridge 1" not in raw  # already succeeded, not repeated


def test_noisy_thinker_mixes_across_seeds(minihouse2):
    prompt = actor_prompt(minihouse2, "minihouse-2",
                          steps=[("open cabinet 1", "Nothing happened.")])
    outputs = {noisy_thinker(prompt, seed) for seed in range(20)}
    assert len(outputs) == 2  # both the helpful and the useless variant occur


def test_wanderer_cycle_position_tracks_history_length(minihouse2):
    handle = scripted("actor", "wanderer-actor")
    first = parse_actor_output(
        complete(handle, actor_prompt(minihouse2, "minihouse-2"))).action
    assert first == "take soap 1 from cabinet 1"
    shifted = parse_actor_output(complete(handle, actor_prompt(
        minihouse2, "minihouse-2",
        steps=[("look around", "x"), ("look around", "x")]))).action
    assert shifted == "go to table 1"


def test_staged_actor_progresses_with_reflections(minihouse1, oracle):
    cfg = RunConfig(mode="react", max_steps=50)
    traj = run_mode(minihouse1, scripted("actor", "staged-actor"),
                    minihouse1.tasks["minihouse-1"], cfg)
    assert not traj.final.success  # two steps only, then idles


# --- remote backend, against the loopback `stub` of conftest.py ---------------

@pytest.fixture
def sleeps(monkeypatch):
    slept = []
    monkeypatch.setattr("ttexplore.policies.time.sleep", slept.append)
    return slept


def test_remote_success_and_payload(stub, monkeypatch):
    stub.body = json.dumps({"choices": [{"message": {
        "content": "<think>t</think><answer>go</answer>"}}]}).encode()
    monkeypatch.setenv("TTEXPLORE_API_KEY", "sk-test")
    out = complete(stub.handle(), "the prompt")
    assert "go" in out
    headers, payload = stub.received[0]
    assert payload["model"] == "test-model"
    assert payload["messages"] == [{"role": "user", "content": "the prompt"}]
    assert payload["temperature"] == 0.5
    assert payload["max_tokens"] == 64
    assert headers["Authorization"] == "Bearer sk-test"


@pytest.mark.parametrize("endpoint", [
    "localhost:8000/v1", "ftp://example.com/v1", "http:///v1", "http://[::1/v1"])
def test_remote_endpoint_must_be_an_http_url_with_a_host(endpoint):
    # each would fail every call, retried as if transient, aborting each episode
    with pytest.raises(ConfigError, match="endpoint must be an http or https URL"):
        RemoteBackend(endpoint, "m")
    for good in ("http://127.0.0.1:9/v1", "https://example.com/v1/chat/completions"):
        assert RemoteBackend(good, "m").endpoint == good


@pytest.mark.parametrize("field,value", [
    ("max_retries", -1), ("timeout_s", 0), ("timeout_s", -1.5),
    ("timeout_s", float("nan")), ("timeout_s", float("inf")),
    ("max_output_tokens", 0), ("temperature", float("nan")),
    ("temperature", float("inf")), ("temperature", -0.5)])
def test_remote_numbers_are_checked_when_made(field, value):
    # each would fail every call without a request, aborting each episode
    with pytest.raises(ConfigError, match=f"^{field} must be "):
        RemoteBackend("http://127.0.0.1:9/v1", "m", **{field: value})
    # the least valid values make a backend; max_retries=0 sends one request
    assert RemoteBackend("http://127.0.0.1:9/v1", "m", max_retries=0,
                         max_output_tokens=1).max_retries == 0


def test_remote_key_never_in_payload(stub, monkeypatch):
    monkeypatch.setenv("TTEXPLORE_API_KEY", "sk-secret")
    complete(stub.handle(), "p")
    _, payload = stub.received[0]
    assert "sk-secret" not in json.dumps(payload)


def test_remote_retries_then_raises(stub, sleeps):
    stub.statuses = [500]
    with pytest.raises(RemoteError) as exc:
        complete(stub.handle(max_retries=1), "p")
    assert exc.value.attempts == 2  # max_retries=1 means two attempts
    assert stub.requests == 2


def test_remote_malformed_body_is_an_error(stub, sleeps):
    stub.body = json.dumps({"unexpected": True}).encode()
    with pytest.raises(RemoteError) as exc:
        complete(stub.handle(), "p")
    assert exc.value.status == 200
    assert exc.value.attempts == stub.requests == 3


@pytest.mark.parametrize("body", [{"choices": []}, {"choices": None},
                                  {"choices": [{"message": None}]},
                                  {"choices": [{"message": {"content": None}}]},
                                  {"choices": [{"message": {"content": 5}}]}])
def test_remote_body_of_wrong_shape_is_an_error(stub, sleeps, body):
    stub.body = json.dumps(body).encode()
    with pytest.raises(RemoteError) as exc:
        complete(stub.handle(), "p")
    assert exc.value.status == 200
    assert exc.value.attempts == stub.requests == 3


@pytest.mark.parametrize("content", [None, 5, ["go to kitchen"]],
                         ids=["null", "number", "list"])
@pytest.mark.parametrize("mode", ["react", "reflexion"])
def test_a_remote_content_that_is_not_a_string_aborts_the_episode(
        stub, sleeps, minihouse1, mode, content):
    # a content no parser can read is a backend failure, not a crash of the batch
    stub.body = json.dumps({"choices": [{"message": {"content": content}}]}).encode()
    traj = run_mode(minihouse1, stub.handle(max_retries=0),
                    minihouse1.tasks["minihouse-1"],
                    RunConfig(mode=mode, inner_mode="react", retries_N=2))
    assert traj.error.startswith("RemoteError: ")
    assert traj.steps == []


def test_remote_non_json_body_is_an_error(stub, sleeps):
    stub.body = b"<html>not json</html>"
    with pytest.raises(RemoteError) as exc:
        complete(stub.handle(max_retries=2), "p")
    assert exc.value.status == 200
    assert exc.value.attempts == stub.requests == 3
    assert len(sleeps) == 2


def test_remote_timeout_has_no_status(stub, sleeps):
    stub.delay_s = 30.0
    with pytest.raises(RemoteError) as exc:
        complete(stub.handle(max_retries=2, timeout_s=0.2), "p")
    assert exc.value.status is None
    assert exc.value.attempts == 3
    assert len(sleeps) == 2


@pytest.mark.parametrize("status,attempts", [(401, 1), (404, 1), (500, 3), (429, 3),
                                             (307, 1), (308, 1)])
def test_remote_fails_client_errors_at_once_and_retries_the_rest(
        stub, sleeps, status, attempts):
    stub.statuses = [status]
    with pytest.raises(RemoteError) as exc:
        complete(stub.handle(max_retries=2), "p")
    assert exc.value.status == status
    assert exc.value.attempts == attempts
    assert stub.requests == attempts
    assert len(sleeps) == attempts - 1  # a 3xx, 401 or 404 never sleeps


@pytest.mark.parametrize("status", [500, 429])
def test_remote_recovers_after_a_transient_error(stub, sleeps, status):
    stub.statuses = [status, 200]
    assert complete(stub.handle(max_retries=2), "p") == "done"
    assert stub.requests == 2
    assert len(sleeps) == 1


@pytest.mark.parametrize("status,retry_after,slept", [
    (429, "3", [3, 3]),
    (429, "0", [0, 0]),
    (429, "600", [5.0, 5.0]),  # capped at timeout_s
    (429, None, [0.5, 1.0]),
    (429, "1.5", [0.5, 1.0]),
    (429, "-1", [0.5, 1.0]),
    (429, "Wed, 21 Oct 2026 07:28:00 GMT", [0.5, 1.0]),
    (503, "3", [0.5, 1.0]),
])
def test_remote_429_waits_the_retry_after_seconds(stub, sleeps, status,
                                                  retry_after, slept):
    stub.statuses = [status]
    if retry_after is not None:
        stub.answer_headers = {"Retry-After": retry_after}
    with pytest.raises(RemoteError):
        complete(stub.handle(max_retries=2, timeout_s=5.0), "p")
    assert sleeps == slept


def test_import_loads_no_third_party_http_client():
    # the remote backend posts through the standard library
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([os.path.dirname(os.path.dirname(
               ttexplore.__file__)), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, ttexplore, ttexplore.cli; "
                               "print('requests' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60, check=True)
    assert out.stdout.strip() == "False"


def test_a_scripted_process_loads_no_http_stack_or_thread_pool():
    # the remote backend imports the HTTP stack at its first call and the
    # batch runner its thread pool at parallelism > 1: loading the example
    # config, its world and its budget check imports neither
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([os.path.dirname(os.path.dirname(
               ttexplore.__file__)), os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, ttexplore, ttexplore.cli\n"
            "from ttexplore.config import load_config\n"
            "load_config('example-config.yaml')\n"
            "print(sorted(m for m in ('http.client', 'urllib.request', 'ssl',"
            " 'concurrent.futures') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], cwd=root,
                         capture_output=True, text=True, env=env, timeout=60,
                         check=True)
    assert out.stdout.strip() == "[]"
