"""Deterministic partially observable text-world engine.

Worlds are declared in YAML: rooms, entities, a rule table, and tasks with
subgoal predicates. The table maps each rule id to a guard; it is checked in
declaration order, the first guard that fires rejects the action, and the
step yields the sentinel observation. Only this table rejects a step for a
hidden rule; the built-in checks after it cover validity alone. Scoring is
not bound by it: a subgoal with a `facing` condition, such as minihouse2's
"carried to the table" and keymaze1's "carried to the shelf", holds only
while the agent stands at the destination, whatever the table says. So
`greedy-actor`, whose naive plan puts the item down without a `go to`,
stays at 66.67 on those two worlds even with an empty table. Seeds only
shuffle entity enumeration order in observation text, never reachability or
scoring.

`world_from_dict` checks a world file's mapping in one pass, and `load_world`
adds the file's name to its errors. `read_yaml` is the one reader of world
and config files: it parses with libyaml (`yaml.CSafeLoader`) when PyYAML
has it, and with the pure-Python `yaml.SafeLoader`, which reads the same
data several times slower, otherwise. No section holds an unknown key. Rooms,
entity ids and `hand` are one namespace; a receptacle stands in a room, so
no action moves one and `go to` it reads its room off it; an object lies in
a receptacle or the hand, where `take` and `put` reach it; every name a
subgoal condition reads is declared. A world that loads so gives a defined
step for every action.

A step costs what its action touches: the new state shares every entity the
action leaves unchanged with the state it came from, a seed's listing order
is computed once per container and list length, and `parse_action` parses
each distinct action text once, into a frozen `Action` that every later
step of that text shares. Both caches are bounded LRU caches (1,024 orders,
4,096 parses), so memory stays flat over any number of seeds and actions.
States are therefore values: callers never mutate one that `reset` or
`step` returned.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import yaml

SENTINEL = "Nothing happened."

HAND = "hand"


class WorldValidationError(ValueError):
    """A world or task definition violates the schema."""


@dataclass
class Entity:
    id: str
    kind: str  # "object" | "receptacle"
    location: str  # room id, receptacle id, or "hand"
    open: Optional[bool] = None
    attributes: set[str] = field(default_factory=set)


@dataclass
class Agent:
    room: str
    facing: Optional[str] = None
    hand: Optional[str] = None


@dataclass
class WorldState:
    rooms: tuple[str, ...]
    entities: dict[str, Entity]
    agent: Agent
    rng_seed: int

    def copy(self) -> "WorldState":
        """Copies entities, their attribute sets and the agent; shares `rooms`.
        `reset` starts an episode from such a copy. `step` copies only the
        agent, the entity dict and the entities its action changes, so states
        share the rest and callers never mutate one in place."""
        return WorldState(
            rooms=self.rooms,
            entities={eid: Entity(e.id, e.kind, e.location, e.open, set(e.attributes))
                      for eid, e in self.entities.items()},
            agent=Agent(self.agent.room, self.agent.facing, self.agent.hand),
            rng_seed=self.rng_seed,
        )


@dataclass(frozen=True)
class Observation:
    text: str


@dataclass
class Subgoal:
    description: str
    conditions: list[dict]  # conjunction of condition descriptors


@dataclass
class TaskSpec:
    id: str
    instruction: str
    initial_world: WorldState
    subgoals: list[Subgoal]
    action_space_doc: str
    examples: list[str]
    max_steps_default: int = 50


@dataclass(frozen=True)
class Action:
    verb: str  # go | open | take | put | look | unknown
    item: Optional[str] = None
    target: Optional[str] = None
    raw: str = ""


# pure, and its `Action` is frozen, so every step of one text may share one
# parse
@functools.lru_cache(maxsize=4096)
def parse_action(text: str) -> Action:
    raw = text.strip()
    lowered = raw.lower()
    if lowered == "look around":
        return Action("look", raw=raw)
    if lowered.startswith("go to "):
        return Action("go", target=raw[6:].strip(), raw=raw)
    if lowered.startswith("open "):
        return Action("open", item=raw[5:].strip(), raw=raw)
    if lowered.startswith("take "):
        rest = raw[5:]
        if " from " in rest:
            item, target = rest.split(" from ", 1)
            return Action("take", item=item.strip(), target=target.strip(), raw=raw)
        return Action("unknown", raw=raw)
    if lowered.startswith("put "):
        rest = raw[4:]
        for prep in (" in ", " on "):
            if prep in rest:
                item, target = rest.split(prep, 1)
                return Action("put", item=item.strip(), target=target.strip(),
                              raw=raw)
        return Action("unknown", raw=raw)
    return Action("unknown", raw=raw)


def _interaction_target(action: Action) -> Optional[str]:
    if action.verb == "open":
        return action.item
    if action.verb in ("take", "put"):
        return action.target
    return None


def _receptacle(state: WorldState, name: Optional[str]) -> Optional[Entity]:
    if name is None:
        return None
    ent = state.entities.get(name)
    if ent is not None and ent.kind == "receptacle":
        return ent
    return None


# --- rule guards -----------------------------------------------------------
# A guard returns True when the rule should fire (reject the action). A rule
# belongs here only if it rejects some action the validity checks allow:
# otherwise every transcript reads the same with or without it.

def _guard_must_face_target(state: WorldState, action: Action) -> bool:
    target = _interaction_target(action)
    if _receptacle(state, target) is None:
        return False
    return state.agent.facing != target


def _guard_closed_blocks_access(state: WorldState, action: Action) -> bool:
    if action.verb not in ("take", "put"):
        return False
    target = _receptacle(state, action.target)
    return target is not None and target.open is False


def _guard_locked_needs_key(state: WorldState, action: Action) -> bool:
    if action.verb != "open":
        return False
    target = _receptacle(state, action.item)
    if target is None or "locked" not in target.attributes:
        return False
    hand = state.agent.hand
    return hand is None or f"unlocks-with:{hand}" not in target.attributes


GUARDS = {
    "must-face-target": _guard_must_face_target,
    "closed-blocks-access": _guard_closed_blocks_access,
    "locked-needs-key": _guard_locked_needs_key,
}


# --- subgoal conditions ----------------------------------------------------

# each condition kind: the names it reads besides `kind`, and when it holds;
# `validate_task` checks that each name is declared, so a predicate may index
# `state.entities` with it
CONDITIONS = {
    "receptacle_open": (("entity",), lambda s, c: s.entities[c["entity"]].open is True),
    "in_hand": (("entity",), lambda s, c: s.agent.hand == c["entity"]),
    "was_held": (("entity",),
                 lambda s, c: "held" in s.entities[c["entity"]].attributes),
    "located": (("entity", "container"),
                lambda s, c: s.entities[c["entity"]].location == c["container"]),
    "facing": (("entity",), lambda s, c: s.agent.facing == c["entity"]),
    "agent_in": (("room",), lambda s, c: s.agent.room == c["room"]),
}


def _own(state: WorldState, eid: str) -> Entity:
    """`state`'s entity `eid`, first swapped for a copy that no other state
    shares, so that the caller may change it."""
    ent = state.entities[eid]
    ent = state.entities[eid] = Entity(ent.id, ent.kind, ent.location, ent.open,
                                       set(ent.attributes))
    return ent


# `random.shuffle`'s swaps depend only on the seed and the list's length, so a
# listing applies the permutation it gives `range(n)`; the cache is bounded so
# that memory stays flat over many seeds
@functools.lru_cache(maxsize=1024)
def _shuffle_order(seed: str, n: int) -> tuple[int, ...]:
    order = list(range(n))
    random.Random(seed).shuffle(order)
    return tuple(order)


def _satisfied(state: WorldState, task: TaskSpec) -> list[int]:
    """The indices of the task's subgoals whose conditions all hold."""
    satisfied = []
    for i, goal in enumerate(task.subgoals):
        for cond in goal.conditions:
            if not CONDITIONS[cond["kind"]][1](state, cond):
                break
        else:
            satisfied.append(i)
    return satisfied


def _percent(part: int, whole: int) -> float:
    """100 * part / whole rounded half-up to two decimals, in integers: the
    one division by 100 rounds the exact hundredths to the nearest double."""
    return (20000 * part + whole) // (2 * whole) / 100


class TextWorld:
    """A world definition plus its rule table; all operations are pure."""

    def __init__(self, world_id: str, rooms: list[str], entities: dict[str, Entity],
                 agent: Agent, rules: dict[str, str]):
        self.id = world_id
        self.rooms = tuple(sorted(rooms))
        self.entities = entities
        self.agent = agent
        self.rules = rules  # rule id -> guard name, in declaration order
        self.tasks: dict[str, TaskSpec] = {}

    # -- episode operations --------------------------------------------

    def reset(self, task: TaskSpec, seed: int) -> tuple[WorldState, Observation]:
        """The task's initial state under `seed`; `world_from_dict` has
        checked the task (`validate_task`)."""
        state = task.initial_world.copy()
        state.rng_seed = seed
        return state, Observation(self._room_description(state))

    def step(self, state: WorldState, action_text: str,
             task: TaskSpec) -> tuple[WorldState, Observation, float, bool]:
        """Decide one step: the new state (the same object when the action is
        rejected), its observation, the task's process score after the step,
        and whether that score is 100. An allowed step's state gets a fresh
        agent and entity dict but shares the entities its action leaves
        unchanged with `state`, so neither state may be mutated afterwards."""
        action = parse_action(action_text)
        if self._verdict(state, action) is not None:
            text = SENTINEL
        else:
            agent = state.agent
            state = WorldState(state.rooms, dict(state.entities),
                               Agent(agent.room, agent.facing, agent.hand),
                               state.rng_seed)
            text = self._apply(state, action)
        score = self.process_score(state, task)
        return state, Observation(text), score, score == 100.0

    def process_score(self, state: WorldState, task: TaskSpec) -> float:
        """The percentage of the task's subgoals that `state` satisfies."""
        return _percent(len(_satisfied(state, task)), len(task.subgoals))

    def replay(self, task: TaskSpec, seed: int, actions: list[str]) -> WorldState:
        state, _ = self.reset(task, seed)
        for action in actions:
            state = self.step(state, action, task)[0]
        return state

    # -- internals -------------------------------------------------------

    def _verdict(self, state: WorldState, action: Action) -> Optional[str]:
        """The id of the first rule in the table, in declaration order, or
        of the first validity check that rejects the action; None allows it."""
        for rule_id, guard in self.rules.items():
            if GUARDS[guard](state, action):
                return rule_id
        return self._builtin_check(state, action)

    def _builtin_check(self, state: WorldState, action: Action) -> Optional[str]:
        if action.verb == "look":
            return None
        if action.verb == "go":
            target = action.target
            if target in state.rooms or _receptacle(state, target) is not None:
                return None
            return "invalid-target"
        if action.verb == "open":
            ent = _receptacle(state, action.item)
            if ent is None or ent.open is None:
                return "invalid-target"
            if ent.open:
                return "already-open"
            return None
        if action.verb == "take":
            source = _receptacle(state, action.target)
            item = state.entities.get(action.item or "")
            if source is None or item is None or item.location != source.id:
                return "invalid-target"
            if state.agent.hand is not None:
                return "hand-full"  # the state has one hand slot
            return None
        if action.verb == "put":
            dest = _receptacle(state, action.target)
            if dest is None:
                return "invalid-target"
            if state.agent.hand != action.item:
                return "not-holding"
            return None
        return "unknown-verb"

    def _apply(self, state: WorldState, action: Action) -> str:
        """Apply an allowed action to `state`; entities change only via `_own`."""
        if action.verb == "look":
            return "You look around. " + self._room_description(state)
        if action.verb == "go":
            if action.target in state.rooms:
                state.agent.room = action.target
                state.agent.facing = None
                return self._room_description(state)
            # a receptacle stands in a room and never moves
            ent = state.entities[action.target]
            state.agent.room = ent.location
            state.agent.facing = ent.id
            return f"You arrive at {ent.id}. " + self._receptacle_description(state, ent)
        if action.verb == "open":
            ent = _own(state, action.item)
            ent.open = True
            contents = self._contents(state, ent.id)
            if contents:
                return f"You open {ent.id}. Inside you see: {', '.join(contents)}."
            return f"You open {ent.id}. It is empty."
        if action.verb == "take":
            item = _own(state, action.item)
            item.location = HAND
            item.attributes.add("held")
            state.agent.hand = item.id
            return f"You take {item.id} from {action.target}."
        if action.verb == "put":
            item = _own(state, action.item)
            dest = state.entities[action.target]
            item.location = dest.id
            state.agent.hand = None
            prep = "on" if "surface" in dest.attributes else "in"
            return f"You put {item.id} {prep} {dest.id}."
        raise AssertionError(f"unreachable verb {action.verb!r}")

    def _enumeration_order(self, state: WorldState, container: str,
                           ids: list[str]) -> list[str]:
        """`sorted(ids)` shuffled by `random.Random(f"{seed}:{container}")`."""
        ordered = sorted(ids)
        return [ordered[i] for i in
                _shuffle_order(f"{state.rng_seed}:{container}", len(ordered))]

    def _contents(self, state: WorldState, container: str) -> list[str]:
        ids = [e.id for e in state.entities.values() if e.location == container]
        return self._enumeration_order(state, container, ids)

    def _room_description(self, state: WorldState) -> str:
        room = state.agent.room
        items = []
        for eid in self._contents(state, room):
            ent = state.entities[eid]
            if ent.open is True:
                items.append(f"{eid} (open)")
            elif ent.open is False:
                items.append(f"{eid} (closed)")
            else:
                items.append(eid)
        exits = [r for r in state.rooms if r != room]
        seen = ", ".join(items) if items else "nothing of note"
        return f"You are in the {room}. You see: {seen}. Exits: {', '.join(exits)}."

    def _receptacle_description(self, state: WorldState, ent: Entity) -> str:
        if ent.open is False:
            return "It is closed."
        contents = self._contents(state, ent.id)
        if "surface" in ent.attributes:
            if contents:
                return f"On it you see: {', '.join(contents)}."
            return "There is nothing on it."
        if contents:
            return f"It is open. Inside you see: {', '.join(contents)}."
        return "It is open. It is empty."


# --- loading and validation -------------------------------------------------

def validate_task(task: TaskSpec) -> None:
    """Every subgoal has conditions, each of a kind of `CONDITIONS` whose
    names are declared in the task's world."""
    if not task.subgoals:
        raise WorldValidationError(f"task {task.id!r}: subgoals must be non-empty")
    state = task.initial_world
    # what each name a condition reads must name, and the names it may take
    declared = {"entity": ("an entity", state.entities),
                "room": ("a room", state.rooms),
                "container": (f"a room, an entity or {HAND!r}",
                              {*state.rooms, *state.entities, HAND})}
    for i, goal in enumerate(task.subgoals):
        where = f"task {task.id!r}: subgoal {i}"
        if not goal.conditions:
            raise WorldValidationError(f"{where} has no conditions")
        for cond in goal.conditions:
            if not isinstance(cond, dict) or "kind" not in cond:
                raise WorldValidationError(f"{where}: condition missing 'kind'")
            kind = cond["kind"]
            spec = CONDITIONS.get(kind) if isinstance(kind, str) else None
            if spec is None:
                raise WorldValidationError(
                    f"{where}: unknown condition kind {kind!r}")
            _only(cond, f"{where}: {kind} condition", "kind", *spec[0])
            for key in spec[0]:
                name = _field(cond, key, f"{where}: {kind} condition", _STRING)
                what, names = declared[key]
                if name not in names:
                    raise WorldValidationError(
                        f"{where}: {kind} condition: {key} must name {what}, "
                        f"got {name!r}")


_REQUIRED = object()

# what a value must be, and the test for it
_MAPPING = ("a mapping", lambda v: isinstance(v, dict))
_LIST = ("a list", lambda v: isinstance(v, list))
_STRING = ("a string", lambda v: isinstance(v, str))
_STRING_OR_NONE = ("a string", lambda v: v is None or isinstance(v, str))
_STRINGS = ("a list of strings",
            lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v))
_KIND = ("'object' or 'receptacle'", lambda v: v in ("object", "receptacle"))
_POSITIVE_INT = ("a positive int", lambda v: type(v) is int and v > 0)
_OPEN = ("true or false", lambda v: v is None or type(v) is bool)
_BOOL = ("true or false", lambda v: type(v) is bool)


def _only(spec, where: str, *keys: str) -> None:
    """`spec` is a mapping with no key but `keys`, so that a misspelt
    optional key fails instead of leaving its default in force."""
    if not isinstance(spec, dict):
        raise WorldValidationError(f"{where}: expected a mapping, got {spec!r}")
    unknown = set(spec) - set(keys)
    if unknown:
        raise WorldValidationError(
            f"unknown key(s) in {where}: {', '.join(sorted(map(str, unknown)))}")


def _field(spec, key: str, where: str, must=None, default=_REQUIRED):
    """`spec[key]`, or `default` when given and the key is absent. A `spec`
    that is not a mapping, a missing required key and a value that fails
    `must` fail naming `where` and the key."""
    if not isinstance(spec, dict):
        raise WorldValidationError(f"{where}: expected a mapping, got {spec!r}")
    if key not in spec and default is _REQUIRED:
        raise WorldValidationError(f"{where}: missing key {key!r}")
    value = spec.get(key, default)
    if must is not None and not must[1](value):
        raise WorldValidationError(f"{where}: {key} must be {must[0]}, got {value!r}")
    return value


# libyaml's safe loader when PyYAML was built with it
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def read_yaml(path: Path):
    """The data of the UTF-8 YAML file at `path`, read as `yaml.safe_load`
    reads it; raises OSError, UnicodeError or yaml.YAMLError."""
    return yaml.load(path.read_text(encoding="utf-8"), Loader=_YAML_LOADER)


def load_world(path: str | Path) -> TextWorld:
    """`world_from_dict` of a world file's YAML; every error names the file."""
    path = Path(path)
    try:
        data = read_yaml(path)
    except (OSError, UnicodeError, yaml.YAMLError) as exc:
        raise WorldValidationError(f"{path}: cannot load world file: {exc}") from None
    try:
        return world_from_dict(data)
    except WorldValidationError as exc:
        raise WorldValidationError(f"{path}: {exc}") from None


def world_from_dict(data) -> TextWorld:
    """The world and tasks that a world file's mapping declares, checked in
    one pass; a violation is a WorldValidationError naming the world,
    entity, agent, rule or task and the key."""
    world_id = _field(data, "id", "world", _STRING)
    top = f"world {world_id!r}"
    _only(data, top, "id", "rooms", "entities", "agent", "rules", "tasks")
    rooms = _field(data, "rooms", top, _STRINGS)
    specs = _field(data, "entities", top, _MAPPING)
    agent_spec = _field(data, "agent", top, _MAPPING)
    rule_specs = _field(data, "rules", top, _LIST)
    task_specs = _field(data, "tasks", top, _LIST)
    # rooms, entity ids and the hand are one namespace: `go to` and a
    # location each name a room or an entity without saying which
    names = {HAND}
    for name in [*rooms, *specs]:
        if name in names:
            raise WorldValidationError(
                f"{top}: rooms and entity ids share one namespace with "
                f"{HAND!r}, and {name!r} is in it twice")
        names.add(name)

    entities: dict[str, Entity] = {}
    for eid, spec in specs.items():
        where = f"entity {eid!r}"
        if not isinstance(eid, str):
            raise WorldValidationError(f"{where}: id must be a string")
        _only(spec, where, "kind", "location", "open", "attributes")
        ent = entities[eid] = Entity(
            id=eid,
            kind=_field(spec, "kind", where, _KIND),
            location=_field(spec, "location", where, _STRING),
            open=_field(spec, "open", where, _OPEN, None),
            attributes=set(_field(spec, "attributes", where, _STRINGS, [])),
        )
        if ent.location not in names:
            raise WorldValidationError(
                f"{where} has unknown location {ent.location!r}")
        if ent.open is not None and ent.kind != "receptacle":
            raise WorldValidationError(f"{where}: 'open' only valid on receptacles")
    for ent in entities.values():
        chain = [ent.id, ent.location]
        while chain[-1] != HAND and chain[-1] not in rooms:
            if chain[-1] in chain[:-1]:
                cycle = chain[chain.index(chain[-1]):]
                raise WorldValidationError(
                    f"entity {cycle[0]!r}: location never reaches a room "
                    f"({' -> '.join(cycle)})")
            chain.append(entities[chain[-1]].location)
        # no action moves a receptacle, so `go to` one reads its room here;
        # `take` takes an object only from a receptacle
        if ent.kind == "receptacle" and ent.location not in rooms:
            raise WorldValidationError(
                f"entity {ent.id!r}: location must be a room for a receptacle, "
                f"got {ent.location!r}")
        if ent.kind == "object" and ent.location != HAND and (
                ent.location in rooms or entities[ent.location].kind != "receptacle"):
            raise WorldValidationError(
                f"entity {ent.id!r}: location must be a receptacle or {HAND!r} "
                f"for an object, got {ent.location!r}")

    _only(agent_spec, "agent", "room", "facing", "hand")
    agent = Agent(room=_field(agent_spec, "room", "agent", _STRING),
                  facing=_field(agent_spec, "facing", "agent", _STRING_OR_NONE, None),
                  hand=_field(agent_spec, "hand", "agent", _STRING_OR_NONE, None))
    state = WorldState(rooms=tuple(sorted(rooms)), entities=entities, agent=agent,
                       rng_seed=0)
    if agent.room not in rooms:
        raise WorldValidationError(f"agent room {agent.room!r} does not exist")
    held = [e.id for e in entities.values() if e.location == HAND]
    if len(held) > 1:
        raise WorldValidationError(f"more than one entity in hand: {held}")
    if agent.hand != (held[0] if held else None):
        raise WorldValidationError(
            f"agent: hand must name the entity located in {HAND!r} "
            f"({held[0] if held else 'none'}), got {agent.hand!r}")
    facing = _receptacle(state, agent.facing)
    if agent.facing is not None and (facing is None or facing.location != agent.room):
        raise WorldValidationError(
            f"agent: facing must be a receptacle in room {agent.room!r}, "
            f"got {agent.facing!r}")

    rules: dict[str, str] = {}
    for i, r in enumerate(rule_specs, start=1):
        rid = _field(r, "id", f"rule {i}", _STRING)
        if rid in rules:
            raise WorldValidationError(f"rule {rid!r}: id is already in use")
        _only(r, f"rule {rid!r}", "id", "guard", "effect")
        guard = _field(r, "guard", f"rule {rid!r}", _STRING)
        if guard not in GUARDS:
            raise WorldValidationError(
                f"rule {rid!r}: unknown rule guard: {guard!r}")
        if r.get("effect", "reject") != "reject":
            raise WorldValidationError(
                f"rule {rid!r}: unknown effect {r['effect']!r}; "
                f"rules can only reject")
        rules[rid] = guard
    world = TextWorld(world_id, rooms, entities, agent, rules)

    for i, tdata in enumerate(task_specs, start=1):
        tid = _field(tdata, "id", f"task {i}", _STRING)
        if tid in world.tasks:
            raise WorldValidationError(f"task {i}: id {tid!r} is already in use")
        where = f"task {tid!r}"
        _only(tdata, where, "id", "instruction", "max_steps", "action_space",
              "examples", "subgoals", "allow_initial_subgoals")
        subgoals = []
        for j, g in enumerate(_field(tdata, "subgoals", where, _LIST, [])):
            goal = f"{where}: subgoal {j}"
            _only(g, goal, "description", "all")
            subgoals.append(Subgoal(description=g.get("description", ""),
                                    conditions=_field(g, "all", goal)))
        task = TaskSpec(
            id=tid,
            instruction=_field(tdata, "instruction", where, _STRING),
            initial_world=state.copy(),
            subgoals=subgoals,
            action_space_doc=_field(tdata, "action_space", where, _STRING, ""),
            examples=_field(tdata, "examples", where, _STRINGS, []),
            max_steps_default=_field(tdata, "max_steps", where, _POSITIVE_INT, 50),
        )
        validate_task(task)
        allow_initial = _field(tdata, "allow_initial_subgoals", where, _BOOL, False)
        satisfied = _satisfied(task.initial_world, task)
        if satisfied and not allow_initial:
            raise WorldValidationError(
                f"task {task.id!r}: initial world already satisfies subgoals "
                f"{satisfied}")
        world.tasks[task.id] = task
    return world


def builtin_world_path(name: str) -> Path:
    return Path(__file__).parent / "worlds" / f"{name}.yaml"


def load_builtin_world(name: str) -> TextWorld:
    return load_world(builtin_world_path(name))
