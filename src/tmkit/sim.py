"""Deterministic token-flow execution of a chronology over a model.

Operational semantics (normative for this artifact; the notation itself
defines none):

* Chronology nodes run in one linear extension, chosen by Kahn's
  algorithm with ties broken by node order (first mention in the
  chronology). Each node runs ``multiplicity`` instances consecutively.

* One instance executes over the event's region. Edges are in-region
  when both endpoints are. Steps:

  1. Origin spawns: every in-region create stage with no in-region
     inbound flow, no in-region trigger aimed at it, and no token
     already resting there spawns a fresh token.
  2. Adoption: tokens left resting at region stages by earlier
     instances rejoin the active set (ascending token id).
  3. Start pass: each in-region trigger whose source stage held a
     token before this instance fires once; the source emits a single
     StageFire record first. This is how one event reacts to things
     another event left standing.
  4. Movement: active tokens repeatedly move along their eligible
     in-region out-flow in FIFO order. A token entering a stage fires
     that stage's in-region outgoing triggers. A stage with several
     eligible out-flows broadcasts: the token is replicated along each
     extra edge (with a warning). Quiescence ends the instance.

* A transfer stage is one bidirectional port. Tokens that arrived from
  their own machine's release leave across the boundary; tokens that
  arrived across the boundary (or were spawned or re-enabled) continue
  inward to receive when possible, otherwise onward to the next port,
  never straight back where they came from.

* Triggers are signals: a trigger to a create stage originates a new
  thing; a trigger to any other stage enables the thing already
  waiting in that machine, injecting one at the target only when the
  machine is empty (a boundary arrival).

* Tokens are never destroyed. Whatever rests at instance end stays in
  a global pool and may be picked up by later events, which is how one
  thing (a card, say) can thread through an entire scenario.

Before a chronology node's instances run, the event's region is
compiled once into a plan: the in-region triggers (in model order and
by source stage), each stage's route (its out-flows in model order, or
for a transfer port the cross-machine and the within-machine ones), and
the origin candidates (sorted). The plan depends only on the model and
the region, never on where tokens rest, so every instance of the node
reads the same plan, and an instance follows exactly the steps above.
Resting tokens are kept by stage and token id, so moving one is a
constant-time update.

A token's only routing state is ``prev_stage``, the stage it last moved
from. The port rule reads it: a token at a transfer port leaves across
the boundary when ``prev_stage`` is a release stage. That is exactly
"arrived from its own machine's release", because the legality table
allows a release -> transfer flow only within one machine and
``simulate`` runs only on models without a FLOW_ILLEGAL error.

A node's later instances are often copies of an earlier one: each
passage of a ship through a lock makes the same firings. An instance
reads the token state only through the occupancy of its plan's watched
stages (the origins, the sources of in-region triggers, and every stage
of the machine of an in-region trigger target that is not a create
stage) and through the tokens it adopts. So an instance is a template
when it adopted no token, did not broadcast, and left the occupancy of
the watched stages as it found it. Then every later instance of the
node makes the template's firings, with token ids shifted by the number
of tokens the template made, and the remaining instances are emitted
from it instead of being run:

* At quiescence no token resting at a route stage is eligible, and a
  token's eligibility depends only on its own state and the plan, so
  later instances adopt nothing either.
* Their only input is then the occupancy of the watched stages, which
  by induction stays unchanged, so each repeats the template. Resting
  tokens that were not adopted never move, so occupancy in the middle
  of an instance is the same too.
* Each later instance takes as many steps as the template, so none can
  exceed the step budget; and since the template did not broadcast,
  none would have logged a warning.

The trace stores firings as parallel columns, one entry per firing:
the event id, the instance number, the element, the kind and the token
id (or None). They hold only shared strings, ints, None and kind
members, so a trace makes no object per firing for the cyclic collector
to walk. A firing's step is its index in the columns; the columns grow
by one firing at a time, so that index is the step counter. A replayed
copy extends each column once: the event id and the instance number
repeated, the template's elements and kinds, and its token ids mapped
to the tokens the copy made. ``Trace.firings`` reads the columns as a
sequence of ``Firing``, built when read.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

from . import graph
from .behavior import Chronology, EventDef, instances, region_edges
from .core import (
    ElementId,
    FlowEdge,
    Model,
    StageKind,
    TriggerEdge,
)
from .errors import PreconditionViolated, StepBudgetExceeded
from .validate import validate


class FiringKind(enum.Enum):
    STAGE_FIRE = "StageFire"
    FLOW_MOVE = "FlowMove"
    TRIGGER_FIRE = "TriggerFire"
    TOKEN_SPAWN = "TokenSpawn"

    def __init__(self, value: str) -> None:
        # the value as a JSON string literal, read once per firing by
        # trace_to_json; a plain attribute, where a dict keyed by member
        # would call the pure-Python Enum.__hash__
        self.quoted = encode_basestring_ascii(value)


@dataclass
class Token:
    id: int
    thing: str
    location: ElementId
    # routing state for the bidirectional transfer port
    prev_stage: ElementId | None = field(default=None, repr=False)


@dataclass(slots=True)
class Firing:
    step: int
    event: str
    instance: int
    element: ElementId
    kind: FiringKind
    token: int | None = None


@dataclass
class Trace:
    """The record of a run; firings are kept as parallel columns, and a
    firing's step is its index in them (see the module docstring)."""

    events: list[str] = field(default_factory=list)
    instances: list[int] = field(default_factory=list)
    elements: list[ElementId] = field(default_factory=list)
    kinds: list[FiringKind] = field(default_factory=list)
    tokens: list[int | None] = field(default_factory=list)
    event_order: list[tuple[str, int, int]] = field(default_factory=list)
    final_tokens: list[Token] = field(default_factory=list)

    @property
    def firings(self) -> Firings:
        """The firings as a read-only sequence of ``Firing``; a new view
        on each read, since one kept here would make a reference cycle."""
        return Firings(self)


class Firings(Sequence):
    """A read-only view of a trace's firing columns: ``len``, indexing,
    slices (as lists) and iteration, each ``Firing`` built when read."""

    __slots__ = ("_trace",)

    def __init__(self, trace: Trace) -> None:
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace.kinds)

    def __getitem__(self, index):
        steps = range(len(self))[index]
        if isinstance(steps, range):
            return [self[step] for step in steps]
        t = self._trace
        return Firing(
            steps, t.events[steps], t.instances[steps], t.elements[steps],
            t.kinds[steps], t.tokens[steps],
        )

    def __iter__(self) -> Iterator[Firing]:
        t = self._trace
        return map(
            Firing, range(len(t.kinds)), t.events, t.instances, t.elements,
            t.kinds, t.tokens,
        )


@dataclass
class SimConfig:
    max_steps_per_event: int = 10000

    def __post_init__(self) -> None:
        if self.max_steps_per_event < 1:
            raise ValueError("max_steps_per_event must be at least 1")


def linear_extension(chronology: Chronology) -> list[str]:
    """Kahn's ordering with first-mention tie-breaking."""
    order = graph.topological(chronology.nodes, chronology.edges)
    if len(order) < len(chronology.nodes):
        raise PreconditionViolated("chronology has a cycle")
    return order


@dataclass
class _Plan:
    """What one event's instances read of the model, built once per node."""

    triggers: list[TriggerEdge]
    trigs_by_src: dict[ElementId, list[TriggerEdge]]
    # per stage with out-flows: (all out-flows, None), or for a transfer
    # port (cross-machine out-flows, within-machine out-flows); the keys
    # are the stages that can move a token
    routes: dict[ElementId, tuple[list[FlowEdge], list[FlowEdge] | None]]
    origins: list[ElementId]
    # the stages whose occupancy an instance reads (see the module docstring)
    watched: list[ElementId]


def _plan(model: Model, event: EventDef) -> _Plan:
    """Compile the event's region (see the module docstring)."""
    flows, triggers = region_edges(model, event.region)
    stages = model.stages
    by_src: dict[ElementId, list[FlowEdge]] = {}
    for f in flows:
        by_src.setdefault(f.from_stage, []).append(f)
    routes = {}
    for sid, out in by_src.items():
        if stages[sid].kind is StageKind.TRANSFER:
            thimac = stages[sid].thimac
            routes[sid] = (
                [e for e in out if stages[e.to_stage].thimac != thimac],
                [e for e in out if stages[e.to_stage].thimac == thimac],
            )
        else:
            routes[sid] = (out, None)
    trigs_by_src: dict[ElementId, list[TriggerEdge]] = {}
    for t in triggers:
        trigs_by_src.setdefault(t.from_stage, []).append(t)
    entered = {f.to_stage for f in flows} | {t.to_stage for t in triggers}
    origins = [
        sid
        for sid in sorted(event.region)
        if stages[sid].kind is StageKind.CREATE and sid not in entered
    ]
    watched = set(origins) | trigs_by_src.keys()
    for t in triggers:
        target = stages[t.to_stage]
        if target.kind is not StageKind.CREATE:
            watched.update(model.thimacs[target.thimac].stages.values())
    return _Plan(triggers, trigs_by_src, routes, origins, sorted(watched))


class _Run:
    def __init__(self, model: Model, config: SimConfig) -> None:
        self.model = model
        self.config = config
        self.trace = Trace()
        # every token made, in id order
        self.tokens = self.trace.final_tokens
        # resting tokens by stage, then by token id
        self.at: defaultdict[ElementId, dict[int, Token]] = defaultdict(dict)
        # per-instance state
        self.plan: _Plan | None = None
        self.event_id = ""
        self.instance = 0
        self.step_limit = 0  # the instance fails once the trace is longer
        self.active: list[Token] = []

    # -- record keeping ------------------------------------------------

    def _emit(self, kind: FiringKind, element: ElementId, token: int | None) -> None:
        trace = self.trace
        trace.events.append(self.event_id)
        trace.instances.append(self.instance)
        trace.elements.append(element)
        trace.kinds.append(kind)
        trace.tokens.append(token)
        if len(trace.kinds) > self.step_limit:
            raise StepBudgetExceeded(
                f"event '{self.event_id}' instance {self.instance} exceeded "
                f"{self.config.max_steps_per_event} steps without quiescing"
            )

    # -- token bookkeeping ----------------------------------------------

    def _place(self, token: Token, stage: ElementId) -> None:
        del self.at[token.location][token.id]
        token.location = stage
        self.at[stage][token.id] = token

    def _machine_occupied(self, thimac_id: ElementId) -> bool:
        thimac = self.model.thimacs[thimac_id]
        return any(self.at.get(sid) for sid in thimac.stages.values())

    def _new_token(
        self, stage: ElementId, thing: str, prev_stage: ElementId | None = None
    ) -> Token:
        """Make the next token and rest it at ``stage``."""
        token = Token(len(self.tokens) + 1, thing, stage, prev_stage)
        self.tokens.append(token)
        self.at[stage][token.id] = token
        return token

    def _spawn(self, stage: ElementId, thing: str | None = None) -> Token:
        """Make an active token at ``stage`` and record its TokenSpawn; the
        thing is by default a new one of the stage's machine."""
        if thing is None:
            thing = self.model.qualified_name(self.model.stages[stage].thimac)
        token = self._new_token(stage, thing)
        self.active.append(token)
        self._emit(FiringKind.TOKEN_SPAWN, stage, token.id)
        return token

    # -- firing ----------------------------------------------------------

    def _fire_stage_triggers(self, stage: ElementId) -> None:
        trigs_by_src = self.plan.trigs_by_src
        if stage not in trigs_by_src:
            return
        # iterative so trigger chains are bounded by the step budget,
        # not the interpreter's recursion limit
        work = [stage]
        i = 0
        while i < len(work):
            for trig in trigs_by_src.get(work[i], ()):
                self._emit(FiringKind.TRIGGER_FIRE, trig.id, None)
                spawned = self._trigger_effect(trig.to_stage)
                if spawned is not None:
                    work.append(spawned)
            i += 1

    def _trigger_effect(self, target: ElementId) -> ElementId | None:
        """Apply one trigger; returns the spawn stage if a token appeared."""
        stage = self.model.stages[target]
        if stage.kind is not StageKind.CREATE and self._machine_occupied(stage.thimac):
            # the waiting thing is considered enabled; adoption covers it
            return None
        self._spawn(target)
        return target

    # -- movement --------------------------------------------------------

    def _eligible(self, token: Token) -> list[FlowEdge]:
        route = self.plan.routes.get(token.location)
        if route is None:
            return []
        out, within = route
        if within is None:
            return out
        prev = token.prev_stage
        if prev is not None and self.model.stages[prev].kind is StageKind.RELEASE:
            return out
        if within:
            return within
        return [e for e in out if e.to_stage != prev]

    def _move(self, token: Token, edge: FlowEdge) -> None:
        self._emit(FiringKind.FLOW_MOVE, edge.id, token.id)
        token.prev_stage = edge.from_stage
        self._place(token, edge.to_stage)
        self._fire_stage_triggers(edge.to_stage)

    # -- one event instance ------------------------------------------------

    def run_node(self, event: EventDef, plan: _Plan, tick: int) -> int:
        """Run every instance of one chronology node; returns the next tick.

        Instances are interpreted until one is a template (see the module
        docstring); the rest are replayed from it.
        """
        count = instances(event)
        at = self.at
        for instance in range(1, count + 1):
            if instance == count:
                self.run_instance(event, plan, instance, tick)
                return tick + 1
            before = [s for s in plan.watched if at.get(s)]
            first_firing, first_token = len(self.trace.kinds), len(self.tokens)
            quiet = self.run_instance(event, plan, instance, tick)
            tick += 1
            if quiet and [s for s in plan.watched if at.get(s)] == before:
                self._replay(event.id, first_firing, first_token, instance, count, tick)
                return tick + count - instance
        return tick

    def _replay(
        self,
        event_id: str,
        first_firing: int,
        first_token: int,
        template: int,
        count: int,
        tick: int,
    ) -> None:
        """Append instances ``template + 1 .. count`` as copies of instance
        ``template``, whose firings and new tokens start at the given list
        positions; each copy extends every firing column once."""
        trace = self.trace
        made = self.tokens[first_token:]
        elements = trace.elements[first_firing:]
        kinds = trace.kinds[first_firing:]
        events = [event_id] * len(kinds)
        # the template adopted nothing, so its firings name only tokens it
        # made: keep their positions in ``made``, so that each copy's
        # firings share the copy's id object instead of each adding one
        made_at = [
            None if t is None else t - first_token - 1
            for t in trace.tokens[first_firing:]
        ]
        for instance in range(template + 1, count + 1):
            ids = [self._new_token(t.location, t.thing, t.prev_stage).id for t in made]
            trace.events += events
            trace.instances += [instance] * len(kinds)
            trace.elements += elements
            trace.kinds += kinds
            trace.tokens += [None if i is None else ids[i] for i in made_at]
            trace.event_order.append((event_id, instance, tick))
            tick += 1

    def run_instance(
        self, event: EventDef, plan: _Plan, instance: int, tick: int
    ) -> bool:
        """Run one instance; True when it adopted no token and did not
        broadcast."""
        self.plan = plan
        self.event_id = event.id
        self.instance = instance
        self.step_limit = len(self.trace.kinds) + self.config.max_steps_per_event
        self.active = []

        held_before = {
            t.from_stage for t in plan.triggers if self.at.get(t.from_stage)
        }

        # 1. origin spawns
        for stage_id in plan.origins:
            if self.at.get(stage_id):
                continue
            self._spawn(stage_id)
            self._fire_stage_triggers(stage_id)

        # 2. adopt resting tokens that can still move inside this region
        fresh = {token.id for token in self.active}
        adoptable = [
            token
            for stage_id in plan.routes
            for token in self.at.get(stage_id, {}).values()
            if token.id not in fresh and self._eligible(token)
        ]
        self.active.extend(sorted(adoptable, key=lambda t: t.id))
        quiet = not adoptable

        # 3. start pass over triggers with a previously held source
        start_fired: set[ElementId] = set()
        for trig in plan.triggers:
            if trig.from_stage not in held_before:
                continue
            if trig.from_stage not in start_fired:
                start_fired.add(trig.from_stage)
                self._emit(FiringKind.STAGE_FIRE, trig.from_stage, None)
            self._emit(FiringKind.TRIGGER_FIRE, trig.id, None)
            spawned = self._trigger_effect(trig.to_stage)
            if spawned is not None:
                self._fire_stage_triggers(spawned)

        # 4. movement rounds until quiescence
        while True:
            moved = False
            for token in list(self.active):
                edges = self._eligible(token)
                if not edges:
                    continue
                moved = True
                if len(edges) > 1:
                    quiet = False
                    # logging is imported only by a run that broadcasts
                    import logging

                    logging.getLogger(__name__).warning(
                        "broadcast: token %d at %s replicates along %d flows "
                        "(event %s)",
                        token.id,
                        self.model.qualified_name(token.location),
                        len(edges),
                        event.id,
                    )
                    # a clone's routing state is set by its move below
                    clones = [
                        (self._spawn(token.location, token.thing), extra)
                        for extra in edges[1:]
                    ]
                    self._move(token, edges[0])
                    for clone, extra in clones:
                        self._move(clone, extra)
                else:
                    self._move(token, edges[0])
            if not moved:
                break

        self.trace.event_order.append((event.id, instance, tick))
        return quiet


def simulate(
    model: Model,
    events: list[EventDef],
    chronology: Chronology | None,
    config: SimConfig | None = None,
) -> Trace:
    """Execute the chronology deterministically; returns a replayable trace.

    The model must be normalized and, together with the behavior
    definitions, free of validation errors; a flow that normalization
    would still expand is an error there (FLOW_ILLEGAL), so validation
    is the one check of both. With no chronology, all declared events
    run once in declaration order.
    """
    errors = [d for d in validate(model, events, chronology) if d.is_error]
    if errors:
        raise PreconditionViolated(
            f"validation reported {len(errors)} error(s); first: "
            + errors[0].render()
        )
    return _simulate_validated(model, events, chronology, config)


def _simulate_validated(
    model: Model,
    events: list[EventDef],
    chronology: Chronology | None,
    config: SimConfig | None = None,
) -> Trace:
    """``simulate`` for a caller that has already validated the model and
    behavior definitions and found no errors; it checks neither again."""
    config = config or SimConfig()
    if chronology is None:
        chronology = Chronology(nodes=[e.id for e in events])

    by_id = {e.id: e for e in events}
    run = _Run(model, config)
    tick = 0
    for node in linear_extension(chronology):
        event = by_id[node]
        tick = run.run_node(event, _plan(model, event), tick)
    return run.trace


def coverage(model: Model, trace: Trace, events: list[EventDef]) -> dict:
    """Runtime coverage: which region stages actually fired.

    An event's score is the share of its region's stages fired by the
    event itself or by any event it contains, directly or not.
    """
    fired_by_event: dict[str, set[ElementId]] = {}
    fired_all: set[ElementId] = set()
    for event_id, element, kind in zip(trace.events, trace.elements, trace.kinds):
        if kind is FiringKind.FLOW_MOVE:
            stage = model.edges[element].to_stage
        elif kind is FiringKind.TRIGGER_FIRE:
            continue
        else:
            stage = element
        fired_by_event.setdefault(event_id, set()).add(stage)
        fired_all.add(stage)
    by_id = {e.id: e for e in events}

    def subevents(event_id: str) -> list[str]:
        return by_id[event_id].subevents if event_id in by_id else []

    per_event = {}
    region_union: set[ElementId] = set()
    for event in events:
        stages = {s for s in event.region if s in model.stages}
        region_union |= stages
        fired = set().union(
            *(fired_by_event.get(e, ()) for e in graph.preorder([event.id], subevents))
        )
        per_event[event.id] = len(fired & stages) / len(stages) if stages else 1.0
    never = sorted(
        model.qualified_name(s) for s in region_union - fired_all
    )
    return {"events": per_event, "neverFired": never}


def trace_to_json(model: Model, trace: Trace) -> str:
    """Stable-keyed JSON rendering for golden comparisons and replay.

    The text is exactly ``json.dumps(doc, indent=2) + "\n"`` for the
    document ``{"eventOrder", "firings", "finalTokens"}``, but is written
    directly: each string is escaped once and each entry is filled into
    a fixed template, since the indenting encoder runs in pure Python.
    """
    named = set(trace.elements)
    named.update(t.location for t in trace.final_tokens)
    quoted = {eid: encode_basestring_ascii(model.qualified_name(eid)) for eid in named}
    texts = {
        *trace.events,
        *(e for e, _, _ in trace.event_order),
        *(t.thing for t in trace.final_tokens),
    }
    q = {text: encode_basestring_ascii(text) for text in texts}

    # every entry starts with its separator; _json_list drops the first one
    event_order = [
        f',\n    {{\n      "event": {q[e]},\n      "instance": {i},\n'
        f'      "tick": {t}\n    }}'
        for e, i, t in trace.event_order
    ]
    firings = [
        f',\n    {{\n      "step": {step},\n      "event": {q[e]},\n'
        f'      "instance": {i},\n      "element": {quoted[el]},\n'
        f'      "kind": {kind.quoted},\n'
        f'      "token": {"null" if token is None else token}\n    }}'
        for step, e, i, el, kind, token in zip(
            range(len(trace.kinds)), trace.events, trace.instances, trace.elements,
            trace.kinds, trace.tokens,
        )
    ]
    final_tokens = [
        f',\n    {{\n      "id": {t.id},\n      "thing": {q[t.thing]},\n'
        f'      "location": {quoted[t.location]}\n    }}'
        for t in trace.final_tokens
    ]
    return "".join(
        [
            "{\n",
            *_json_list("eventOrder", event_order),
            ",\n",
            *_json_list("firings", firings),
            ",\n",
            *_json_list("finalTokens", final_tokens),
            "\n}\n",
        ]
    )


def _json_list(key: str, entries: list[str]) -> list[str]:
    """The pieces of one indented list member of the trace document."""
    if not entries:
        return [f'  "{key}": []']
    entries[0] = entries[0][1:]
    return [f'  "{key}": [', *entries, "\n  ]"]
