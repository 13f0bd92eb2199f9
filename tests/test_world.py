"""World engine: parsing, rules, scoring, determinism, schema validation."""

import collections
import copy
import random
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from ttexplore.world import (
    HAND,
    SENTINEL,
    Agent,
    Entity,
    WorldState,
    WorldValidationError,
    _percent,
    builtin_world_path,
    load_builtin_world,
    load_world,
    parse_action,
    read_yaml,
    world_from_dict,
)


# --- action grammar --------------------------------------------------------

@pytest.mark.parametrize("text,verb,item,target", [
    ("look around", "look", None, None),
    ("go to kitchen", "go", None, "kitchen"),
    ("open fridge 1", "open", "fridge 1", None),
    ("take apple 1 from fridge 1", "take", "apple 1", "fridge 1"),
    ("put apple 1 on table 1", "put", "apple 1", "table 1"),
    ("put key 1 in chest 1", "put", "key 1", "chest 1"),
])
def test_parse_action_grammar(text, verb, item, target):
    action = parse_action(text)
    assert action.verb == verb
    assert action.item == item
    assert action.target == target


@pytest.mark.parametrize("text", [
    "dance", "take apple 1", "put apple 1", "eat apple 1", "", "go kitchen",
])
def test_parse_action_unknown(text):
    assert parse_action(text).verb == "unknown"


def test_parse_action_keeps_raw_and_trims():
    action = parse_action("  open fridge 1  ")
    assert action.raw == "open fridge 1"


@st.composite
def _action_texts(draw):
    """Action-like text in mixed case with surrounding whitespace."""
    space = st.text(alphabet=" \t\n", max_size=3)
    name = st.text(alphabet="ab 1", max_size=8)
    words = [draw(st.sampled_from(["look around", "go to ", "open ", "take ",
                                   "put ", "dance "])), draw(name),
             draw(st.sampled_from(["", " from ", " in ", " on "])), draw(name)]
    text = "".join(words)
    flips = draw(st.lists(st.booleans(), min_size=len(text), max_size=len(text)))
    text = "".join(c.upper() if up else c for c, up in zip(text, flips))
    return draw(space) + text + draw(space)


@settings(max_examples=500, deadline=None)
@given(st.one_of(_action_texts(), st.text()))
def test_the_cached_parse_equals_the_uncached_one(text):
    """`parse_action` shares one immutable `Action` per text, in a bounded
    cache."""
    action = parse_action(text)
    assert action == parse_action.__wrapped__(text)
    assert parse_action(text) == action
    with pytest.raises(AttributeError):
        action.verb = "look"
    assert isinstance(parse_action.cache_info().maxsize, int)


# --- stepping and the rejection sentinel -----------------------------------

def test_rejected_action_yields_exact_sentinel(minihouse1):
    task = minihouse1.tasks["minihouse-1"]
    state, _ = minihouse1.reset(task, seed=0)
    _, obs, _, _ = minihouse1.step(state, "open fridge 1", task)
    assert obs.text == SENTINEL


def test_rejected_action_leaves_state_unchanged(minihouse1):
    task = minihouse1.tasks["minihouse-1"]
    state, _ = minihouse1.reset(task, seed=0)
    before = state.copy()
    state, obs, _, _ = minihouse1.step(state, "take apple 1 from fridge 1",
                                       task)
    assert obs.text == SENTINEL
    assert state == before


def test_accepted_action_does_not_mutate_input_state(minihouse1):
    task = minihouse1.tasks["minihouse-1"]
    state, _ = minihouse1.reset(task, seed=0)
    new_state, _, _, _ = minihouse1.step(state, "go to kitchen", task)
    assert state.agent.room == "hallway"
    assert new_state.agent.room == "kitchen"


def verdict(world, state, text):
    return world._verdict(state, parse_action(text))


def test_rule_order_first_reject_wins(minihouse1):
    task = minihouse1.tasks["minihouse-1"]
    state, _ = minihouse1.reset(task, seed=0)
    # facing nothing, take from the closed fridge: must-face-target is
    # declared before closed-blocks-access, so it is the rule that fires
    assert state.entities["fridge 1"].open is False
    assert verdict(minihouse1, state, "take apple 1 from fridge 1") == \
        "must-face-target"
    # facing nothing with a full hand: the rule fires before the hand-full
    # validity check
    state.agent.hand = "plate 1"
    state.entities["plate 1"].location = "hand"
    assert verdict(minihouse1, state, "take apple 1 from fridge 1") == \
        "must-face-target"


def test_verdict_allow(minihouse1):
    task = minihouse1.tasks["minihouse-1"]
    state, _ = minihouse1.reset(task, seed=0)
    assert verdict(minihouse1, state, "go to kitchen") is None


def test_validity_checks_report_their_own_ids(minihouse1):
    # no rule of the table rejects these actions; the validity checks do
    task = minihouse1.tasks["minihouse-1"]
    state, _ = minihouse1.reset(task, seed=0)
    for action in ["go to kitchen", "go to cabinet 1", "open cabinet 1",
                   "take soap 1 from cabinet 1", "go to table 1"]:
        state, obs, _, _ = minihouse1.step(state, action, task)
        assert obs.text != SENTINEL
    assert verdict(minihouse1, state, "take plate 1 from table 1") == "hand-full"
    assert verdict(minihouse1, state, "dance") == "unknown-verb"


def test_unknown_verb_rejected(minihouse1):
    task = minihouse1.tasks["minihouse-1"]
    state, _ = minihouse1.reset(task, seed=0)
    _, obs, _, _ = minihouse1.step(state, "dance wildly", task)
    assert obs.text == SENTINEL


def test_locked_receptacle_needs_key_in_hand(keymaze1):
    task = keymaze1.tasks["keymaze-1"]
    state, _ = keymaze1.reset(task, seed=0)
    for action in ["go to vault", "go to chest 1"]:
        state, _, _, _ = keymaze1.step(state, action, task)
    assert verdict(keymaze1, state, "open chest 1") == "locked-needs-key"
    state = state.copy()  # a stepped state shares entities with earlier ones
    state.agent.hand = "key 1"
    state.entities["key 1"].location = "hand"
    assert verdict(keymaze1, state, "open chest 1") is None


def test_already_open_is_rejected(minihouse1):
    task = minihouse1.tasks["minihouse-1"]
    state, _ = minihouse1.reset(task, seed=0)
    for action in ["go to kitchen", "go to fridge 1", "open fridge 1"]:
        state, _, _, _ = minihouse1.step(state, action, task)
    _, obs, _, _ = minihouse1.step(state, "open fridge 1", task)
    assert obs.text == SENTINEL


def builtin_doc(name):
    return yaml.safe_load(builtin_world_path(name).read_text(encoding="utf-8"))


def test_empty_rule_table_enforces_only_validity(tmp_path):
    # closed-blocks-access is a hidden rule: without it in the table, a
    # closed fridge does not block taking from it
    doc = builtin_doc("minihouse1")
    doc["rules"] = []
    world = load_world(write_world(tmp_path, doc))
    task = world.tasks["minihouse-1"]
    state, _ = world.reset(task, seed=0)
    assert verdict(world, state, "take apple 1 from fridge 1") is None
    state, obs, _, _ = world.step(state, "take apple 1 from fridge 1", task)
    assert obs.text == "You take apple 1 from fridge 1."
    assert state.agent.hand == "apple 1"
    # the one hand slot is a validity check, under its own id
    assert verdict(world, state, "take soap 1 from cabinet 1") == "hand-full"


def test_locked_without_key_attribute_rejects_empty_hand(tmp_path):
    doc = builtin_doc("keymaze1")
    doc["entities"]["chest 1"]["attributes"] = ["locked"]
    world = load_world(write_world(tmp_path, doc))
    task = world.tasks["keymaze-1"]
    state, _ = world.reset(task, seed=0)
    state.agent.room, state.agent.facing = "vault", "chest 1"
    assert state.agent.hand is None
    assert verdict(world, state, "open chest 1") == "locked-needs-key"


def test_locked_opens_with_any_listed_key(tmp_path):
    doc = builtin_doc("keymaze1")
    doc["entities"]["chest 1"]["attributes"] = [
        "locked", "unlocks-with:key 1", "unlocks-with:key 2"]
    doc["entities"]["key 2"] = {"kind": "object", "location": "drawer 1"}
    world = load_world(write_world(tmp_path, doc))
    task = world.tasks["keymaze-1"]
    for key in ("key 1", "key 2", "gem 1"):
        state, _ = world.reset(task, seed=0)
        state.agent.room, state.agent.facing = "vault", "chest 1"
        state.agent.hand = key
        state.entities[key].location = "hand"
        assert verdict(world, state, "open chest 1") == \
            ("locked-needs-key" if key == "gem 1" else None)


# --- process score ---------------------------------------------------------

SOLUTION_1 = [
    "go to kitchen",
    "go to fridge 1",
    "open fridge 1",
    "take apple 1 from fridge 1",
    "go to table 1",
    "put apple 1 on table 1",
]


def run_actions(world, task, actions, seed=0):
    state, _ = world.reset(task, seed)
    scores, dones = [], []
    for action in actions:
        state, _, score, done = world.step(state, action, task)
        assert score == world.process_score(state, task)
        scores.append(score)
        dones.append(done)
    return state, scores, dones


def test_score_thirds_round_half_up(minihouse1):
    task = minihouse1.tasks["minihouse-1"]
    _, scores, _ = run_actions(minihouse1, task, SOLUTION_1)
    assert scores == [0.0, 0.0, 33.33, 66.67, 66.67, 100.0]


def test_integer_percent_matches_the_decimal_formula():
    """The process score's integer rounding against the `Decimal` formula it
    replaced, for every k <= n <= 2,000 subgoals."""
    def reference(k, n):
        value = Decimal(100) * Decimal(k) / Decimal(n)
        return float(value.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))

    mismatches = [(k, n) for n in range(1, 2001) for k in range(n + 1)
                  if _percent(k, n) != reference(k, n)]
    assert mismatches == []


def test_done_iff_score_100(minihouse1):
    task = minihouse1.tasks["minihouse-1"]
    _, scores, dones = run_actions(minihouse1, task, SOLUTION_1)
    for score, done in zip(scores, dones):
        assert done == (score == 100.0)


def test_latched_held_subgoal_survives_putting_down(minihouse1):
    task = minihouse1.tasks["minihouse-1"]
    state, scores, _ = run_actions(minihouse1, task, SOLUTION_1)
    assert state.agent.hand is None
    assert scores[-1] == 100.0


def test_score_monotone_along_solution(minihouse2):
    task = minihouse2.tasks["minihouse-2"]
    actions = [
        "go to kitchen", "go to cabinet 1", "open cabinet 1",
        "take soap 1 from cabinet 1", "go to table 1", "put soap 1 on table 1",
    ]
    _, scores, _ = run_actions(minihouse2, task, actions)
    assert scores == [0.0, 0.0, 33.33, 33.33, 66.67, 100.0]
    assert scores == sorted(scores)


def test_agent_in_facing_and_in_hand_conditions_are_transient(tmp_path):
    doc = builtin_doc("minihouse1")
    doc["tasks"][0]["subgoals"] = [
        {"all": [{"kind": "agent_in", "room": "kitchen"}]},
        {"all": [{"kind": "facing", "entity": "fridge 1"}]},
        {"all": [{"kind": "in_hand", "entity": "apple 1"}]},
    ]
    world = load_world(write_world(tmp_path, doc))
    _, scores, _ = run_actions(world, world.tasks["minihouse-1"], SOLUTION_1)
    # going to the table ends facing the fridge; putting the apple down
    # empties the hand
    assert scores == [33.33, 66.67, 66.67, 100.0, 66.67, 33.33]


# --- determinism and seeds -------------------------------------------------

def test_same_seed_identical_observations(minihouse1):
    task = minihouse1.tasks["minihouse-1"]

    def transcript(seed):
        state, obs0 = minihouse1.reset(task, seed)
        texts = [obs0.text]
        for action in SOLUTION_1:
            state, obs, _, _ = minihouse1.step(state, action, task)
            texts.append(obs.text)
        return texts

    assert transcript(7) == transcript(7)


def test_seed_changes_only_enumeration_order(minihouse1):
    task = minihouse1.tasks["minihouse-1"]
    texts = {}
    for seed in range(6):
        state, _ = minihouse1.reset(task, seed)
        _, kitchen_obs, _, _ = minihouse1.step(state, "go to kitchen", task)
        _, scores, dones = run_actions(minihouse1, task, SOLUTION_1, seed)
        texts[seed] = kitchen_obs.text
        assert scores == [0.0, 0.0, 33.33, 66.67, 66.67, 100.0]
        assert dones[-1]
    # every seed lists the same entities, possibly in a different order
    base = sorted(texts[0])
    for text in texts.values():
        assert sorted(text) == base
    assert len(set(texts.values())) > 1  # at least two orders across seeds


def test_replay_reproduces_final_state(minihouse1):
    task = minihouse1.tasks["minihouse-1"]
    direct, _, _ = run_actions(minihouse1, task, SOLUTION_1, seed=3)
    replayed = minihouse1.replay(task, 3, SOLUTION_1)
    assert direct == replayed


# --- schema validation -----------------------------------------------------

def world_doc():
    return {
        "id": "w", "rooms": ["a", "b"],
        "entities": {
            "box 1": {"kind": "receptacle", "location": "a", "open": False},
            "ball 1": {"kind": "object", "location": "box 1"},
        },
        "agent": {"room": "a"},
        "rules": [{"id": "r1", "guard": "closed-blocks-access"}],
        "tasks": [{
            "id": "t", "instruction": "put the ball in the box",
            "subgoals": [{"all": [{"kind": "receptacle_open", "entity": "box 1"}]}],
        }],
    }


def write_world(tmp_path, doc):
    path = tmp_path / "w.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return path


def test_load_world_ok(tmp_path):
    world = load_world(write_world(tmp_path, world_doc()))
    assert set(world.tasks) == {"t"}


def test_missing_top_level_key_names_it(tmp_path):
    doc = world_doc()
    del doc["rules"]
    with pytest.raises(WorldValidationError, match="rules"):
        load_world(write_world(tmp_path, doc))


def test_unknown_entity_location_names_entity(tmp_path):
    doc = world_doc()
    doc["entities"]["ball 1"]["location"] = "nowhere"
    with pytest.raises(WorldValidationError, match="ball 1"):
        load_world(write_world(tmp_path, doc))


def test_empty_subgoals_rejected(tmp_path):
    doc = world_doc()
    doc["tasks"][0]["subgoals"] = []
    with pytest.raises(WorldValidationError, match="subgoals"):
        load_world(write_world(tmp_path, doc))


def test_initially_satisfied_subgoal_rejected(tmp_path):
    doc = world_doc()
    doc["entities"]["box 1"]["open"] = True
    with pytest.raises(WorldValidationError, match="initial"):
        load_world(write_world(tmp_path, doc))


def test_unknown_guard_name_rejected(tmp_path):
    # one-item-hand and unknown-verb would reject only what a validity check
    # rejects, so no world may declare them
    for guard in ("no-such-guard", "one-item-hand", "unknown-verb"):
        doc = world_doc()
        doc["rules"][0]["guard"] = guard
        with pytest.raises(WorldValidationError,
                           match=f"unknown rule guard: '{guard}'"):
            load_world(write_world(tmp_path, doc))


@pytest.mark.parametrize("effect", ["allow", "warn", None])
def test_rule_effect_other_than_reject_rejected(tmp_path, effect):
    doc = world_doc()
    doc["rules"][0]["effect"] = effect
    with pytest.raises(WorldValidationError, match="effect"):
        load_world(write_world(tmp_path, doc))


def test_rule_effect_reject_accepted(tmp_path):
    doc = world_doc()
    doc["rules"][0]["effect"] = "reject"
    world = load_world(write_world(tmp_path, doc))
    assert world.rules == {"r1": "closed-blocks-access"}


@pytest.mark.parametrize("edit,where,key", [
    (lambda d: d["tasks"][0].update(examples="text"), "task 'minihouse-1'", "examples"),
    (lambda d: d["entities"]["table 1"].update(attributes="surface"),
     "entity 'table 1'", "attributes"),
    (lambda d: d["entities"]["fridge 1"].update(kind="recepticle"),
     "entity 'fridge 1'", "kind"),
    (lambda d: d["entities"]["fridge 1"].update(open="false"), "entity 'fridge 1'", "open"),
    (lambda d: d["tasks"][0].update(action_space=["go to <room>"]),
     "task 'minihouse-1'", "action_space"),
    (lambda d: d["tasks"][0].update(instruction=5), "task 'minihouse-1'", "instruction"),
    (lambda d: d["tasks"][0].update(max_steps=3.7), "task 'minihouse-1'", "max_steps"),
    (lambda d: d["tasks"][0].update(max_steps=0), "task 'minihouse-1'", "max_steps"),
    (lambda d: d["tasks"][0].update(max_steps=True), "task 'minihouse-1'", "max_steps"),
    (lambda d: d["tasks"][0].update(subgoals=5), "task 'minihouse-1'", "subgoals"),
    (lambda d: d["tasks"][0].update(subgoals="open it"), "task 'minihouse-1'",
     "subgoals"),
    # every value used as a name is a string
    (lambda d: d["rooms"].append(7), "world 'minihouse-1-world'", "rooms"),
    (lambda d: d["entities"].update({7: d["entities"].pop("plate 1")}),
     "entity 7", "id"),
    (lambda d: d["entities"]["apple 1"].update(location=["fridge 1"]),
     "entity 'apple 1'", "location"),
    (lambda d: d["entities"]["apple 1"].update(location=5), "entity 'apple 1'",
     "location"),
    (lambda d: d["agent"].update(room=["hallway"]), "agent", "room"),
    (lambda d: d["agent"].update(facing=5), "agent", "facing"),
    (lambda d: d["agent"].update(hand=["apple 1"]), "agent", "hand"),
    (lambda d: d["rules"][0].update(id=[1]), "rule 1", "id"),
    (lambda d: d["rules"][0].update(guard=["must-face-target"]),
     "rule 'must-face-target'", "guard"),
    (lambda d: d["tasks"][0].update(id=5), "task 1", "id"),
    (lambda d: d["tasks"][0].update(id=["minihouse-1"]), "task 1", "id"),
    (lambda d: d["tasks"][0]["subgoals"][0]["all"][0].update(entity=["fridge 1"]),
     "task 'minihouse-1': subgoal 0: receptacle_open condition", "entity"),
    (lambda d: d["tasks"][0]["subgoals"][2]["all"][0].update(container=["table 1"]),
     "task 'minihouse-1': subgoal 2: located condition", "container"),
    (lambda d: d["tasks"][0]["subgoals"][2]["all"].append(
        {"kind": "agent_in", "room": ["kitchen"]}),
     "task 'minihouse-1': subgoal 2: agent_in condition", "room"),
], ids=["examples-text", "attributes-text", "kind-misspelled", "open-text",
         "action-space-list",
        "instruction-int", "max-steps-float", "max-steps-zero", "max-steps-bool",
        "subgoals-int", "subgoals-text",
        "room-int", "entity-id-int", "location-list", "location-int",
        "agent-room-list", "facing-int", "hand-list", "rule-id-list",
        "guard-list", "task-id-int", "task-id-list", "condition-entity-list",
        "condition-container-list", "condition-room-list"])
def test_a_value_of_the_wrong_type_names_the_file_the_owner_and_the_key(
        tmp_path, edit, where, key):
    doc = builtin_doc("minihouse1")
    edit(doc)
    path = write_world(tmp_path, doc)
    with pytest.raises(WorldValidationError) as exc:
        load_world(path)
    assert str(exc.value).startswith(f"{path}: {where}: {key} must be ")


@pytest.mark.parametrize("edit,where,key", [
    (lambda d: d.update(task=[]), "world 'minihouse-1-world'", "task"),
    (lambda d: d["entities"]["fridge 1"].update(
        opne=d["entities"]["fridge 1"].pop("open")), "entity 'fridge 1'", "opne"),
    (lambda d: d["agent"].update(facng=None), "agent", "facng"),
    (lambda d: d["rules"][0].update(efect="reject"), "rule 'must-face-target'", "efect"),
    (lambda d: d["tasks"][0].update(max_step=12), "task 'minihouse-1'", "max_step"),
    (lambda d: d["tasks"][0]["subgoals"][0].update(descripton="open it"),
     "task 'minihouse-1': subgoal 0", "descripton"),
    (lambda d: d["tasks"][0]["subgoals"][2]["all"][0].update(containr="table 1"),
     "task 'minihouse-1': subgoal 2: located condition", "containr"),
], ids=["world", "entity", "agent", "rule", "task", "subgoal", "condition"])
def test_an_unknown_key_fails_naming_the_file_and_the_section(tmp_path, edit,
                                                              where, key):
    """A misspelt optional key would leave its default in force: a fridge
    with `opne: false` would stand open, and a task with `max_step: 12`
    would keep 50 steps."""
    doc = builtin_doc("minihouse1")
    edit(doc)
    path = write_world(tmp_path, doc)
    with pytest.raises(WorldValidationError) as exc:
        load_world(path)
    assert str(exc.value) == f"{path}: unknown key(s) in {where}: {key}"


@pytest.mark.parametrize("allow,loads", [(True, True), (False, False),
                                         ("no", False), (1, False)])
def test_allow_initial_subgoals_is_a_bool(tmp_path, allow, loads):
    doc = world_doc()
    doc["entities"]["box 1"]["open"] = True
    doc["tasks"][0]["allow_initial_subgoals"] = allow
    path = write_world(tmp_path, doc)
    if loads:
        assert set(load_world(path).tasks) == {"t"}
        return
    message = "initial world" if allow is False else \
        f"allow_initial_subgoals must be true or false, got {allow!r}"
    with pytest.raises(WorldValidationError, match=message):
        load_world(path)


def test_initially_satisfied_subgoals_are_named_at_load(tmp_path):
    doc = builtin_doc("minihouse2")
    doc["entities"]["cabinet 1"]["open"] = True
    doc["entities"]["soap 1"]["location"] = "table 1"
    path = write_world(tmp_path, doc)
    with pytest.raises(WorldValidationError) as exc:
        load_world(path)
    # the soap was never held, so "carried to the table" does not hold
    assert str(exc.value) == (f"{path}: task 'minihouse-2': initial world "
                              f"already satisfies subgoals [0, 2]")


@pytest.mark.parametrize("locations", [
    {"fridge 1": "fridge 1"},
    {"fridge 1": "cabinet 1", "cabinet 1": "fridge 1"},
], ids=["self", "two-entities"])
def test_a_containment_cycle_fails_at_load(tmp_path, locations):
    # at step time, `go to fridge 1` would follow the chain forever
    doc = builtin_doc("minihouse1")
    for eid, location in locations.items():
        doc["entities"][eid]["location"] = location
    path = write_world(tmp_path, doc)
    with pytest.raises(WorldValidationError) as exc:
        load_world(path)
    cycle = " -> ".join([*locations, "fridge 1"])
    assert str(exc.value) == (f"{path}: entity 'fridge 1': location never "
                              f"reaches a room ({cycle})")


@pytest.mark.parametrize("edit,where,key", [
    (lambda d: d["tasks"].append({**d["tasks"][0],
                                  "subgoals": d["tasks"][0]["subgoals"][:1]}),
     "task 2", "id"),
    (lambda d: d["rooms"].append("kitchen"), "world 'minihouse-1-world'", "rooms"),
    (lambda d: d["agent"].update(hand="nothing 9"), "agent", "hand"),
    (lambda d: d["agent"].update(hand="apple 1"), "agent", "hand"),
    (lambda d: d["entities"]["apple 1"].update(location="hand"), "agent", "hand"),
    (lambda d: d["agent"].update(facing="fridge 1"), "agent", "facing"),
    (lambda d: d["agent"].update(room="kitchen", facing="apple 1"), "agent", "facing"),
    # rooms, entity ids and the hand are one namespace
    (lambda d: d["entities"].update(
        kitchen={"kind": "receptacle", "location": "hallway"}),
     "world 'minihouse-1-world'", "rooms"),
    (lambda d: d["rooms"].append("hand"), "world 'minihouse-1-world'", "rooms"),
    (lambda d: d["entities"].update(hand={"kind": "object", "location": "table 1"}),
     "world 'minihouse-1-world'", "rooms"),
    # one id would name rejections by two guards
    (lambda d: d["rules"].append({"id": "must-face-target",
                                  "guard": "locked-needs-key"}),
     "rule 'must-face-target'", "id"),
], ids=["task-id-twice", "room-twice", "hand-unknown", "hand-not-in-hand",
        "hand-missing", "facing-in-another-room", "facing-an-object",
        "entity-named-like-a-room", "room-named-hand", "entity-named-hand",
        "rule-id-twice"])
def test_a_duplicate_name_or_a_wrong_hand_or_facing_fails_at_load(
        tmp_path, edit, where, key):
    doc = builtin_doc("minihouse1")
    edit(doc)
    path = write_world(tmp_path, doc)
    with pytest.raises(WorldValidationError) as exc:
        load_world(path)
    assert str(exc.value).startswith(f"{path}: {where}: {key} ")


@pytest.mark.parametrize("edit,where,key", [
    (lambda d: (d["entities"]["cabinet 1"].update(location="hand"),
                d["agent"].update(hand="cabinet 1")),
     "entity 'cabinet 1'", "location"),
    (lambda d: d["entities"]["garbagecan 1"].update(location="cabinet 1"),
     "entity 'garbagecan 1'", "location"),
    (lambda d: d["entities"]["garbagecan 1"].update(location="plate 1"),
     "entity 'garbagecan 1'", "location"),
    (lambda d: d["tasks"][0]["subgoals"][0]["all"][0].update(entity="fridge 9"),
     "task 'minihouse-1': subgoal 0: receptacle_open condition", "entity"),
    (lambda d: d["tasks"][0]["subgoals"][2]["all"][0].update(container="tabel 1"),
     "task 'minihouse-1': subgoal 2: located condition", "container"),
    (lambda d: d["tasks"][0]["subgoals"][2]["all"].append(
        {"kind": "agent_in", "room": "attic"}),
     "task 'minihouse-1': subgoal 2: agent_in condition", "room"),
], ids=["receptacle-in-the-hand", "receptacle-in-a-receptacle",
        "receptacle-in-an-object", "undeclared-entity", "undeclared-container",
        "undeclared-room"])
def test_a_receptacle_outside_a_room_or_an_undeclared_name_fails_at_load(
        tmp_path, edit, where, key):
    # no action moves a receptacle, so `go to` one reads its room off its
    # location; a condition on an undeclared name could never hold
    doc = builtin_doc("minihouse1")
    edit(doc)
    path = write_world(tmp_path, doc)
    with pytest.raises(WorldValidationError) as exc:
        load_world(path)
    assert str(exc.value).startswith(f"{path}: {where}: {key} ")


@pytest.mark.parametrize("location", ["kitchen", "apple 1"],
                         ids=["object-in-a-room", "object-in-an-object"])
def test_an_object_outside_a_receptacle_or_the_hand_fails_at_load(tmp_path,
                                                                   location):
    # `take` takes an object only from a receptacle, so one anywhere else
    # could never be taken
    doc = builtin_doc("minihouse1")
    doc["entities"]["soap 1"]["location"] = location
    path = write_world(tmp_path, doc)
    with pytest.raises(WorldValidationError) as exc:
        load_world(path)
    assert str(exc.value) == (
        f"{path}: entity 'soap 1': location must be a receptacle or 'hand' "
        f"for an object, got {location!r}")


def test_world_from_dict_builds_a_world_without_a_file():
    for name, solution in SOLUTIONS.items():
        world = world_from_dict(builtin_doc(name))
        task = next(iter(world.tasks.values()))
        _, scores, dones = run_actions(world, task, solution)
        assert (scores[-1], dones[-1]) == (100.0, True)


def test_only_load_world_names_the_file(tmp_path):
    doc = builtin_doc("minihouse1")
    doc["tasks"][0]["examples"] = "text"
    message = "task 'minihouse-1': examples must be a list of strings, got 'text'"
    with pytest.raises(WorldValidationError) as exc:
        world_from_dict(doc)
    assert str(exc.value) == message
    path = write_world(tmp_path, doc)
    with pytest.raises(WorldValidationError) as exc:
        load_world(path)
    assert str(exc.value) == f"{path}: {message}"


def test_a_held_entity_and_a_facing_in_the_agents_room_load(tmp_path):
    doc = builtin_doc("minihouse1")
    doc["entities"]["apple 1"]["location"] = "hand"
    doc["agent"] = {"room": "kitchen", "facing": "table 1", "hand": "apple 1"}
    world = load_world(write_world(tmp_path, doc))
    assert world.agent == Agent("kitchen", facing="table 1", hand="apple 1")


def test_builtin_worlds_load():
    for name, wid in [("minihouse1", "minihouse-1-world"),
                      ("minihouse2", "minihouse-2-world"),
                      ("keymaze1", "keymaze-1-world")]:
        world = load_builtin_world(name)
        assert world.id == wid
        assert world.tasks


# --- the YAML reader ---------------------------------------------------------

SHIPPED_YAML = [*(builtin_world_path(name) for name in
                  ("minihouse1", "minihouse2", "keymaze1")),
                Path(__file__).resolve().parents[1] / "example-config.yaml"]


@pytest.mark.parametrize("path", SHIPPED_YAML, ids=lambda p: p.name)
def test_the_reader_reads_a_shipped_file_as_safe_load_does(path):
    text = path.read_text(encoding="utf-8")
    assert read_yaml(path) == yaml.load(text, Loader=yaml.SafeLoader)


yaml_scalars = (st.text() | st.integers() | st.booleans() | st.none()
                | st.floats(allow_nan=False, allow_infinity=False))
yaml_docs = st.recursive(
    yaml_scalars,
    lambda inner: st.dictionaries(st.text(), inner, max_size=5)
    | st.lists(inner, max_size=5),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text(), yaml_docs, max_size=5))
def test_the_reader_reads_a_dump_as_safe_load_does(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("yaml") / "doc.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    assert read_yaml(path) == yaml.load(path.read_text(encoding="utf-8"),
                                        Loader=yaml.SafeLoader) == doc


# --- properties over random action sequences ---------------------------------

WORLDS = {name: load_builtin_world(name)
          for name in ("minihouse1", "minihouse2", "keymaze1")}


def _vocabulary(world):
    receptacles = sorted(e.id for e in world.entities.values()
                         if e.kind == "receptacle")
    objects = sorted(e.id for e in world.entities.values() if e.kind == "object")
    actions = ["look around", "dance", "take", "go to attic"]
    actions += [f"go to {name}" for name in list(world.rooms) + receptacles]
    actions += [f"open {r}" for r in receptacles]
    actions += [f"take {o} from {r}" for o in objects for r in receptacles]
    actions += [f"put {o} {prep} {r}" for o in objects for r in receptacles
                for prep in ("in", "on")]
    return actions


def _unwitnessed_rules(world):
    """The ids of the rules in `world`'s table that no transcript can reveal.

    A breadth-first walk over `step` from reset tries every action of
    `_vocabulary` in every reachable state; states are keyed on the agent's
    and the entities' fields. A rule has a witness once dropping it from the
    table changes a step's observation. The walk stops when every rule has
    one."""
    task = next(iter(world.tasks.values()))
    unwitnessed = {}
    for rule_id in world.rules:
        without = copy.copy(world)
        without.rules = {r: g for r, g in world.rules.items() if r != rule_id}
        unwitnessed[rule_id] = without
    start, _ = world.reset(task, seed=0)
    seen = {_state_key(start)}
    queue = collections.deque([start])
    actions = _vocabulary(world)
    while queue and unwitnessed:
        state = queue.popleft()
        for action in actions:
            new_state, obs, _, _ = world.step(state, action, task)
            for rule_id, without in list(unwitnessed.items()):
                if without.step(state, action, task)[1] != obs:
                    del unwitnessed[rule_id]
            key = _state_key(new_state)
            if key not in seen:
                seen.add(key)
                queue.append(new_state)
    return sorted(unwitnessed)


def _state_key(state):
    # `step` copies the entity dict, which keeps the entities in their order
    return (tuple(vars(state.agent).values()),
            tuple((e.location, e.open, frozenset(e.attributes))
                  for e in state.entities.values()))


def test_every_declared_rule_has_a_witness():
    # a rule that rejects only what a validity check already rejects leaves
    # every observation as it was, so no amount of interaction can infer it
    assert {name: _unwitnessed_rules(world) for name, world in WORLDS.items()} \
        == {name: [] for name in WORLDS}


SOLUTIONS = {
    "minihouse1": SOLUTION_1,
    "minihouse2": ["go to kitchen", "go to cabinet 1", "open cabinet 1",
                   "take soap 1 from cabinet 1", "go to table 1",
                   "put soap 1 on table 1"],
    "keymaze1": ["go to drawer 1", "open drawer 1", "take key 1 from drawer 1",
                 "go to chest 1", "open chest 1", "put key 1 in chest 1",
                 "take gem 1 from chest 1", "go to shelf 1",
                 "put gem 1 on shelf 1"],
}


@st.composite
def episodes(draw):
    """Random actions interleaved with the world's solution in order, so that
    sequences also reach states with a non-zero score."""
    name = draw(st.sampled_from(sorted(WORLDS)))
    world = WORLDS[name]
    vocabulary = _vocabulary(world)
    solution = iter(SOLUTIONS[name])
    actions = []
    for follow in draw(st.lists(st.booleans(), max_size=25)):
        action = next(solution, None) if follow else None
        actions.append(action or draw(st.sampled_from(vocabulary)))
    return world, draw(st.integers(0, 5)), actions


@settings(max_examples=200, deadline=None)
@given(episodes())
def test_step_properties(episode):
    world, seed, actions = episode
    task = next(iter(world.tasks.values()))
    state, _ = world.reset(task, seed)
    # states share the entities a step leaves unchanged, so every state
    # returned so far is checked against its snapshot after each step
    snapshots = [(state, copy.deepcopy(state))]
    for action in actions:
        new_state, obs, score, done = world.step(state, action, task)
        if obs.text == SENTINEL:
            assert new_state is state
        else:
            # the same step applied to a full copy of the state
            reference = state.copy()
            assert world._apply(reference, parse_action(action)) == obs.text
            assert new_state == reference
        assert score == world.process_score(new_state, task)
        assert done == (score == 100.0)
        snapshots.append((new_state, copy.deepcopy(new_state)))
        assert all(returned == snapshot for returned, snapshot in snapshots)
        state = new_state
    # replay is the fold of step over the actions
    assert world.replay(task, seed, actions) == state


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3) | st.integers(),
       st.sampled_from(["kitchen", "fridge 1"]) | st.text(max_size=10),
       st.lists(st.text(max_size=8), max_size=12, unique=True))
def test_enumeration_order_is_a_fresh_seeded_shuffle(seed, container, ids):
    # the order is memoised per seed, container and length: a second call
    # reads the memo, and few seeds and containers make lengths share a key
    expected = sorted(ids)
    random.Random(f"{seed}:{container}").shuffle(expected)
    state = WorldState(rooms=(), entities={}, agent=Agent("a"), rng_seed=seed)
    world = WORLDS["minihouse1"]
    for _ in range(2):
        assert world._enumeration_order(state, container, list(ids)) == expected


# --- state copy ----------------------------------------------------------------

def test_state_fields_are_pinned():
    """`WorldState.copy` copies field by field, so a new field needs a look there."""
    agent = Agent("hallway")
    assert list(vars(Entity("apple 1", "object", HAND))) == \
        ["id", "kind", "location", "open", "attributes"]
    assert list(vars(agent)) == ["room", "facing", "hand"]
    assert list(vars(WorldState((), {}, agent, 0))) == \
        ["rooms", "entities", "agent", "rng_seed"]


@settings(max_examples=100, deadline=None)
@given(episodes())
def test_copy_equals_deepcopy_and_shares_nothing_mutable(episode):
    world, seed, actions = episode
    task = next(iter(world.tasks.values()))
    state = world.replay(task, seed, actions)
    dup = state.copy()
    assert dup == copy.deepcopy(state)
    assert dup.entities is not state.entities
    assert dup.agent is not state.agent
    for eid, ent in state.entities.items():
        assert dup.entities[eid] is not ent
        assert dup.entities[eid].attributes is not ent.attributes
    # every valid action applied to the copy leaves the source as it was;
    # the actions can undo each other (take an item, put it back), so the
    # copy is checked to have changed after some action, not at the end
    before = copy.deepcopy(state)
    changed = False
    for action in map(parse_action, _vocabulary(world)):
        if world._builtin_check(dup, action) is None:
            prior = copy.deepcopy(dup)
            world._apply(dup, action)
            changed = changed or dup != prior
    assert changed
    assert state == before


# --- mutated worlds ------------------------------------------------------------

BUILTIN_DOCS = {name: builtin_doc(name) for name in WORLDS}


def _renamed(value, old, new):
    """`value` with the name `old` replaced by `new` wherever it stands:
    as a key, a value, or in an `unlocks-with:` attribute."""
    if isinstance(value, dict):
        return {_renamed(k, old, new): _renamed(v, old, new)
                for k, v in value.items()}
    if isinstance(value, list):
        return [_renamed(v, old, new) for v in value]
    if value == f"unlocks-with:{old}":
        return f"unlocks-with:{new}"
    return new if value == old else value


@st.composite
def mutated_world_docs(draw):
    """A built-in world's mapping after one to three edits: an entity moved
    to any name (a room, an entity or the hand, which then holds it), an
    entity renamed onto a room or onto the hand, a receptacle's `open` or
    `locked` flipped, its `unlocks-with` keys dropped, or a condition's name
    replaced by any name, a misspelt one included."""
    doc = copy.deepcopy(BUILTIN_DOCS[draw(st.sampled_from(sorted(BUILTIN_DOCS)))])
    edits = ["move", "rename", "open", "locked", "keys", "condition"]
    for edit in draw(st.lists(st.sampled_from(edits), min_size=1, max_size=3)):
        entities, agent = doc["entities"], doc["agent"]
        names = [*doc["rooms"], *entities, HAND]
        receptacles = [e for e, spec in entities.items()
                       if spec["kind"] == "receptacle"]
        eid = draw(st.sampled_from(list(entities) if edit in ("move", "rename")
                                   else receptacles))
        ent = entities[eid]
        if edit == "move":
            ent["location"] = draw(st.sampled_from(names))
            if ent["location"] == HAND or agent.get("hand") == eid:
                agent["hand"] = eid if ent["location"] == HAND else None
        elif edit == "rename":
            doc = _renamed(doc, eid, draw(st.sampled_from([*doc["rooms"], HAND])))
        elif edit == "open":
            ent["open"] = not ent.get("open")
        elif edit == "locked":
            attributes = ent.setdefault("attributes", [])
            if "locked" in attributes:
                attributes.remove("locked")
            else:
                attributes.append("locked")
        elif edit == "keys":
            ent["attributes"] = [a for a in ent.get("attributes", [])
                                 if not a.startswith("unlocks-with:")]
        else:
            cond = draw(st.sampled_from([c for t in doc["tasks"]
                                         for g in t["subgoals"] for c in g["all"]]))
            key = draw(st.sampled_from([k for k in ("entity", "container", "room")
                                        if k in cond]))
            cond[key] = draw(st.sampled_from([*names, "tabel 1"]))
    return doc


def _walk(world, depth):
    """Step every action of `_vocabulary` from every state that reset and
    fewer than `depth` steps reach, for each task; states are deduped on
    `_state_key`."""
    actions = _vocabulary(world)
    for task in world.tasks.values():
        start, _ = world.reset(task, seed=0)
        seen = {_state_key(start)}
        frontier = [start]
        for _ in range(depth):
            reached = []
            for state in frontier:
                for action in actions:
                    new_state = world.step(state, action, task)[0]
                    if _state_key(new_state) not in seen:
                        seen.add(_state_key(new_state))
                        reached.append(new_state)
            frontier = reached


@settings(max_examples=200, deadline=None)
@given(mutated_world_docs())
def test_a_world_that_loads_steps_without_error(doc):
    try:
        world = world_from_dict(doc)
    except WorldValidationError:
        return
    _walk(world, depth=3)
