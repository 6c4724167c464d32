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
     token before this instance fires once, in model order, with its
     chain (below) before the next; a source emits a single StageFire
     record before its first trigger. This is how one event reacts to
     things another event left standing.
  4. Movement: active tokens repeatedly move along their eligible
     in-region out-flow in FIFO order. A token entering a stage fires
     that stage's in-region outgoing triggers, with their chain. A stage
     with several eligible out-flows broadcasts: the token is replicated
     along each extra edge (with a warning). Quiescence ends the
     instance.

* A transfer stage is one bidirectional port. Tokens that arrived from
  their own machine's release leave across the boundary; tokens that
  arrived across the boundary (or were spawned or re-enabled) continue
  inward to receive when possible, otherwise onward to the next port,
  never straight back where they came from.

* Triggers are signals: a trigger to a create stage originates a new
  thing; a trigger to any other stage enables the thing already
  waiting in that machine, injecting one at the target only when the
  machine is empty (a boundary arrival). A token made by a trigger (or
  by an origin spawn) fires its stage's in-region triggers in turn: the
  triggers fired together go in model order, and then, breadth first,
  the triggers of each stage where one of them made a token, in the
  order the tokens were made. That is a trigger's chain.

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

Movement runs in rounds. Each round visits the active tokens in order;
the next round's are the tokens that moved, in the same order, then the
tokens spawned during the round, in spawn order. A token with no
eligible out-flow leaves the rounds for good: its eligibility reads only
its own location and ``prev_stage`` and the plan, and only its own move
changes those. That is the FIFO order of step 4 with the tokens that can
no longer move left out, so a round costs the tokens that still move,
not every token the instance has touched.

A token's only routing state is ``prev_stage``, the stage it last moved
from. The port rule reads it: a token at a transfer port leaves across
the boundary when ``prev_stage`` is a release stage. That is exactly
"arrived from its own machine's release", because the legality table
allows a release -> transfer flow only within one machine and
``simulate`` runs only on models without a FLOW_ILLEGAL error. So the
plan keeps each port's own release stage with its route, and the rule
compares ``prev_stage`` with it.

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
to walk. A firing's step is its index in the columns. The element, kind
and token columns grow by one firing at a time, so how far ``kinds``
grows during an instance is its step count, which the step budget reads. The
event and instance columns are the same value over a whole instance, so
they are extended once, at the instance's end, by its firing count; a
run that exceeds the budget raises and returns no trace, so the shorter
columns are never seen.

Replayed copies are not stored. A replayed node adds one run of copies
to the trace (``_Copies``): the template's elements, kinds and token
positions among the tokens it made, the template's tokens as it left
them, the copy count, and the first copy's instance number, tick and
token id. Copy c makes the template's firings with instance number
``first + c`` and its tokens shifted by c times the tokens per copy, so
the run gives every firing, every event order entry and every token of
every copy. A replay therefore costs its template, whatever its
``repeat``: ``_replay`` makes no object per copy. ``Trace``'s lists hold
the stored entries, with the runs between them: ``Trace._sizes`` counts
a run and ``trace_to_json`` writes it from the template's pieces, so a
trace that is only counted or written holds nothing per copy. The first
read of any of the seven lists writes the runs into them, each list
made once at its exact length; from then on the trace is plain lists,
and later reads return the same lists.

A copy's tokens rest where the template's rest, and a later node reads
the resting index only at its plan's stages: where it routes (adoption)
and where it watches (origins, held trigger sources and occupied trigger
target machines). So the resting index keeps the runs by the stages
where their tokens rest, and before a node runs, the tokens of every run
resting at one of its plan's stages are made and indexed: only then
could one of them move or be seen. The template's own tokens rest at the
same stages, so a stage's occupancy never waits on a run.

An instance's tick is its position in the executed order, copies
included. ``Trace.firings`` reads the columns as a sequence of
``Firing``, built when read.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from collections.abc import Iterator, Sequence
from itertools import chain, count, cycle, islice, repeat
from json.encoder import encode_basestring_ascii
from operator import attrgetter

from . import graph
from .behavior import Chronology, EventDef, instances, region_edges
from .core import (
    ElementId,
    FlowEdge,
    Model,
    StageKind,
    TriggerEdge,
)
from .diagnostics import Record, collector_paused
from .errors import PreconditionViolated, StepBudgetExceeded
from .validate import validate


class FiringKind(enum.Enum):
    STAGE_FIRE = "StageFire"
    FLOW_MOVE = "FlowMove"
    TRIGGER_FIRE = "TriggerFire"
    TOKEN_SPAWN = "TokenSpawn"

    def __init__(self, value: str) -> None:
        # the kind's piece of a firing entry, read once per firing by
        # trace_to_json: the value as a JSON string literal and the "token"
        # key after it; a plain attribute, where a dict keyed by member
        # would call the pure-Python Enum.__hash__
        self.piece = f'{encode_basestring_ascii(value)},\n      "token": '


class Token(Record):
    __slots__ = _fields = ("id", "thing", "location", "prev_stage")

    def __init__(
        self, id: int, thing: str, location: ElementId,
        # routing state for the bidirectional transfer port
        prev_stage: ElementId | None = None,
    ) -> None:
        self.id, self.thing, self.location = id, thing, location
        self.prev_stage = prev_stage

    def __repr__(self) -> str:
        # without the routing state
        return f"Token(id={self.id!r}, thing={self.thing!r}, location={self.location!r})"


class Firing(Record):
    __slots__ = _fields = ("step", "event", "instance", "element", "kind", "token")

    def __init__(
        self, step: int, event: str, instance: int, element: ElementId,
        kind: FiringKind, token: int | None = None,
    ) -> None:
        self.step, self.event, self.instance = step, event, instance
        self.element, self.kind, self.token = element, kind, token


class Trace(Record):
    """The record of a run; firings are kept as parallel columns, and a
    firing's step is its index in them. Replayed copies are kept as runs,
    whose firings, event order entries and tokens the first read of any
    of the seven lists writes into them (see the module docstring); every
    read returns a plain list."""

    __slots__ = ("_lists", "_copies")
    _fields = (
        "events", "instances", "elements", "kinds", "tokens", "event_order",
        "final_tokens",
    )

    def __init__(
        self, events: list[str] | None = None, instances: list[int] | None = None,
        elements: list[ElementId] | None = None, kinds: list[FiringKind] | None = None,
        tokens: list[int | None] | None = None,
        event_order: list[tuple[str, int, int]] | None = None,
        final_tokens: list[Token] | None = None,
    ) -> None:
        # the stored entries, in the order of _fields; the runs of copies
        # go between them
        self._lists = [
            [] if stored is None else stored
            for stored in (
                events, instances, elements, kinds, tokens, event_order, final_tokens
            )
        ]
        self._copies: list[_Copies] = []

    def _list(index: int) -> property:
        def read(trace: Trace) -> list:
            if trace._copies:
                trace._build()
            return trace._lists[index]

        def write(trace: Trace, stored: list) -> None:
            if trace._copies:
                trace._build()
            trace._lists[index] = stored

        return property(read, write)

    events = _list(0)
    instances = _list(1)
    elements = _list(2)
    kinds = _list(3)
    tokens = _list(4)
    event_order = _list(5)
    final_tokens = _list(6)
    del _list

    def _sizes(self) -> tuple[int, int, int]:
        """The instances, firings and tokens, counted from the runs of
        copies, which it leaves unbuilt."""
        copies = self._copies
        return (
            len(self._lists[5]) + sum(c.count for c in copies),
            len(self._lists[3]) + sum(len(c.kinds) * c.count for c in copies),
            len(self._lists[6]) + sum(len(c.made) * c.count for c in copies),
        )

    def _build(self) -> None:
        """Write the runs of copies into the lists, each made once at its
        exact length."""
        n_order, n_firings, n_tokens = self._sizes()
        columns = [[None] * n_firings for _ in range(5)]
        at = 0
        for n, *parts in _chunks(self, range(max(n_order, n_tokens) + 1)):
            for column, writes in zip(columns, parts):
                for start, stop, step, values in writes:
                    column[at + start : at + stop : step] = values
            at += n
        order = [None] * n_order
        for at, n, part in _parts(self, 5):
            if part.__class__ is _Copies:
                part = zip(
                    repeat(part.event), range(part.first, part.first + n),
                    range(at, at + n),
                )
            order[at : at + n] = part
        tokens = [None] * n_tokens
        for at, n, part in _parts(self, 6):
            if part.__class__ is _Copies:
                part = part.make_tokens() if part.tokens is None else part.tokens
            tokens[at : at + n] = part
        self._lists, self._copies = [*columns, order, tokens], []

    @property
    def firings(self) -> Firings:
        """The firings as a read-only sequence of ``Firing``; a new view
        on each read, since one kept here would make a reference cycle."""
        return Firings(self)


class _Copies:
    """``count`` replayed copies of a template instance, kept on a
    ``Trace`` as one run: they follow its first ``at`` stored firings, copy
    c (from 0) is instance ``first + c`` of ``event``, with tick ``tick +
    c``, and makes the template's firings (``elements``, ``kinds``), whose
    tokens are copy c's ``made_at`` ones (-1 for none) of the ``len(made)``
    it made from ``first_id + c * len(made)`` on; its token j starts as
    ``made[j]``, the template's token j as the template left it. ``tokens``
    holds the copies' tokens, in id order, once they are made (see
    ``_Run._make_resting``), and is None before."""

    __slots__ = (
        "at", "event", "first", "count", "tick", "elements", "kinds", "made_at",
        "first_id", "made", "tokens",
    )

    def __init__(
        self, at: int, event: str, first: int, count: int, tick: int,
        elements: list[ElementId], kinds: list[FiringKind], made_at: list[int],
        first_id: int, made: list[Token],
    ) -> None:
        self.at, self.event, self.first, self.count = at, event, first, count
        self.tick, self.elements, self.kinds = tick, elements, kinds
        self.made_at, self.first_id, self.made = made_at, first_id, made
        self.tokens: list[Token] | None = None

    def make_tokens(self) -> list[Token]:
        """New tokens for the copies, as they start."""
        made = self.made
        return [
            Token(i, t.thing, t.location, t.prev_stage)
            for i, t in zip(
                range(self.first_id, self.first_id + self.count * len(made)),
                cycle(made),
            )
        ]


class Firings(Sequence):
    """A read-only view of a trace's firing columns: ``len``, indexing,
    slices (as lists) and iteration, each ``Firing`` built when read."""

    __slots__ = ("_trace",)

    def __init__(self, trace: Trace) -> None:
        self._trace = trace

    def __len__(self) -> int:
        return self._trace._sizes()[1]

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


def _parts(trace: Trace, index: int) -> Iterator[tuple[int, int, list | _Copies]]:
    """The trace's event order (``index`` 5) or final tokens (6) in
    order, a part at a time: its first position, its length, and a slice
    of the stored entries or a run of copies, whose entries are its
    copies' instances or the tokens they made."""
    stored, at, done = trace._lists[index], 0, 0
    for run in [*trace._copies, None]:
        if run is None:
            start, n = at + len(stored) - done, 0
        elif index == 5:
            start, n = run.tick, run.count
        else:
            start, n = run.first_id - 1, run.count * len(run.made)
        if start > at:
            yield at, start - at, stored[done : done + start - at]
            done += start - at
            at = start
        if n:
            yield at, n, run
            at += n


class SimConfig(Record):
    __slots__ = _fields = ("max_steps_per_event",)

    def __init__(self, max_steps_per_event: int = 10000) -> None:
        if max_steps_per_event < 1:
            raise ValueError("max_steps_per_event must be at least 1")
        self.max_steps_per_event = max_steps_per_event


def linear_extension(chronology: Chronology) -> list[str]:
    """Kahn's ordering with first-mention tie-breaking."""
    order = graph.topological(chronology.nodes, chronology.edges)
    if len(order) < len(chronology.nodes):
        raise PreconditionViolated("chronology has a cycle")
    return order


class _Plan:
    """One event's region, compiled once per chronology node: all that its
    instances read of the model (see the module docstring). It owns the
    in-region triggers, in model order and by source stage, each stage's
    route, the origins, and the stages an instance watches or reads."""

    __slots__ = ("triggers", "trigs_by_src", "routes", "origins", "watched", "reads")

    def __init__(self, model: Model, event: EventDef) -> None:
        # region_edges is looked up in this module at each call, so that a
        # wrapper set on the module attribute sees it
        flows, triggers = region_edges(model, event.region)
        stages = model.stages
        by_src: dict[ElementId, list[FlowEdge]] = {}
        trigs_by_src: dict[ElementId, list[TriggerEdge]] = {}
        for edges, grouped in ((flows, by_src), (triggers, trigs_by_src)):
            for e in edges:
                grouped.setdefault(e.from_stage, []).append(e)
        # per stage with out-flows: (all out-flows, None, None), or for a
        # transfer port (cross-machine out-flows, within-machine out-flows,
        # its machine's release stage or None); the keys are the stages that
        # can move a token
        routes: dict[
            ElementId, tuple[list[FlowEdge], list[FlowEdge] | None, ElementId | None]
        ] = {}
        for sid, out in by_src.items():
            if stages[sid].kind is StageKind.TRANSFER:
                thimac = stages[sid].thimac
                routes[sid] = (
                    [e for e in out if stages[e.to_stage].thimac != thimac],
                    [e for e in out if stages[e.to_stage].thimac == thimac],
                    model.thimacs[thimac].stages.get(StageKind.RELEASE),
                )
            else:
                routes[sid] = (out, None, None)
        entered = {f.to_stage for f in flows} | {t.to_stage for t in triggers}
        origins = [
            sid
            for sid in sorted(event.region)
            if stages[sid].kind is StageKind.CREATE and sid not in entered
        ]
        # the stages whose occupancy an instance reads
        watched = set(origins) | trigs_by_src.keys()
        for t in triggers:
            target = stages[t.to_stage]
            if target.kind is not StageKind.CREATE:
                watched.update(model.thimacs[target.thimac].stages.values())
        self.triggers, self.trigs_by_src, self.routes = triggers, trigs_by_src, routes
        self.origins, self.watched = origins, sorted(watched)
        # every stage where an instance reads the resting tokens
        self.reads = routes.keys() | watched


class _Run:
    def __init__(self, model: Model, config: SimConfig) -> None:
        self.model = model
        self.config = config
        self.trace = Trace()
        # the stored lists, which a run of copies leaves as they are: the
        # firing columns, the event order and the tokens made, in id order
        (
            _, _, self.elements, self.kinds, self.token_ids, self.order, self.tokens
        ) = self.trace._lists
        # the instances run and the tokens made, stored or copied
        self.ticks = self.ids = 0
        # resting tokens by stage, then by token id
        self.at: defaultdict[ElementId, dict[int, Token]] = defaultdict(dict)
        # the runs of copies whose tokens are not made yet, by the stages
        # where one of them rests
        self.resting: dict[ElementId, list[_Copies]] = {}
        # per-instance state
        self.plan: _Plan | None = None
        self.event_id = ""
        self.instance = 0
        self.step_limit = 0  # the instance fails once the trace is longer
        self.active: list[Token] = []

    # -- record keeping ------------------------------------------------

    def _emit(self, kind: FiringKind, element: ElementId, token: int | None) -> None:
        # the event and instance columns are filled once, at the
        # instance's end (run_instance)
        self.elements.append(element)
        self.kinds.append(kind)
        self.token_ids.append(token)
        if len(self.kinds) > self.step_limit:
            self._over_budget()

    def _over_budget(self) -> None:
        raise StepBudgetExceeded(
            f"event '{self.event_id}' instance {self.instance} exceeded "
            f"{self.config.max_steps_per_event} steps without quiescing"
        )

    # -- token bookkeeping ----------------------------------------------

    def _spawn(self, stage: ElementId, thing: str | None = None) -> Token:
        """Make the next token, active and resting at ``stage``, and record
        its TokenSpawn; the thing is by default a new one of the stage's
        machine."""
        if thing is None:
            thing = self.model.qualified_name(self.model.stages[stage].thimac)
        self.ids += 1
        token = Token(self.ids, thing, stage)
        self.tokens.append(token)
        self.at[stage][token.id] = token
        self.active.append(token)
        self._emit(FiringKind.TOKEN_SPAWN, stage, token.id)
        return token

    # -- firing ----------------------------------------------------------

    def _fire(self, triggers: Sequence[TriggerEdge]) -> None:
        """The one walk of triggers: fire the given ones in order, then,
        breadth first, the in-region triggers of each stage where one of
        them made a token, in the order the tokens were made. The start
        pass passes one trigger at a time, and a token entering or made at
        a stage passes that stage's triggers. A trigger to a create stage,
        or into an empty machine, makes a token at its target; any other
        enables the thing waiting in the target's machine, which adoption
        covers."""
        model, at, trigs_by_src = self.model, self.at, self.plan.trigs_by_src
        # a list read as it grows, so that a chain is bounded by the step
        # budget, not the interpreter's recursion limit
        work = [triggers]
        for fired in work:
            for trig in fired:
                self._emit(FiringKind.TRIGGER_FIRE, trig.id, None)
                stage = model.stages[trig.to_stage]
                if stage.kind is not StageKind.CREATE and any(
                    at.get(sid) for sid in model.thimacs[stage.thimac].stages.values()
                ):
                    continue
                self._spawn(trig.to_stage)
                if trig.to_stage in trigs_by_src:
                    work.append(trigs_by_src[trig.to_stage])

    # -- movement --------------------------------------------------------

    def _port_edges(
        self,
        token: Token,
        route: tuple[list[FlowEdge], list[FlowEdge], ElementId | None],
    ) -> list[FlowEdge]:
        """The out-flows a token at a transfer port may take."""
        out, within, release = route
        prev = token.prev_stage
        # release is None for a machine without one; prev is None for a
        # token that has not moved
        if prev is not None and prev == release:
            return out
        if within:
            return within
        return [e for e in out if e.to_stage != prev]

    def _move(self, token: Token, edge: FlowEdge) -> None:
        self._emit(FiringKind.FLOW_MOVE, edge.id, token.id)
        stage = edge.to_stage
        del self.at[token.location][token.id]
        token.prev_stage, token.location = edge.from_stage, stage
        self.at[stage][token.id] = token
        self._fire(self.plan.trigs_by_src.get(stage, ()))

    def _broadcast(self, token: Token, edges: list[FlowEdge], event_id: str) -> None:
        """Move a token along the first of several eligible out-flows and
        a new clone of it along each other one, with a warning."""
        # logging is imported only by a run that broadcasts
        import logging

        logging.getLogger(__name__).warning(
            "broadcast: token %d at %s replicates along %d flows (event %s)",
            token.id,
            self.model.qualified_name(token.location),
            len(edges),
            event_id,
        )
        # a clone's routing state is set by its move below
        clones = [
            (self._spawn(token.location, token.thing), extra) for extra in edges[1:]
        ]
        self._move(token, edges[0])
        for clone, extra in clones:
            self._move(clone, extra)

    # -- one event instance ------------------------------------------------

    def run_node(self, event: EventDef, plan: _Plan) -> None:
        """Run every instance of one chronology node.

        Instances are interpreted until one is a template (see the module
        docstring); the rest are replayed from it.
        """
        count = instances(event)
        at = self.at
        if self.resting:
            self._make_resting(plan)
        for instance in range(1, count + 1):
            if instance == count:
                self.run_instance(event, plan, instance)
                return
            before = [s for s in plan.watched if at.get(s)]
            first_firing, first_token = len(self.kinds), len(self.tokens)
            quiet = self.run_instance(event, plan, instance)
            if quiet and [s for s in plan.watched if at.get(s)] == before:
                self._replay(event.id, first_firing, first_token, instance, count)
                return

    def _make_resting(self, plan: _Plan) -> None:
        """Make the tokens of every run of copies that has one resting where
        the plan reads, and index them where they rest."""
        at, resting = self.at, self.resting
        for stage in resting.keys() & plan.reads:
            for run in resting.pop(stage):
                if run.tokens is None:
                    run.tokens = run.make_tokens()
                    for token in run.tokens:
                        at[token.location][token.id] = token

    def _replay(
        self,
        event_id: str,
        first_firing: int,
        first_token: int,
        template: int,
        count: int,
    ) -> None:
        """Append instances ``template + 1 .. count`` as copies of instance
        ``template``, whose firings and new tokens start at the given list
        positions: one run of copies on the trace, whose tokens are made
        only when a later node reads where they rest."""
        made = [
            Token(t.id, t.thing, t.location, t.prev_stage)
            for t in self.tokens[first_token:]
        ]
        # the template adopted nothing, so its firings name only tokens it
        # made: keep their positions in ``made``
        base = self.ids - len(made) + 1
        made_at = [-1 if t is None else t - base for t in self.token_ids[first_firing:]]
        run = _Copies(
            len(self.kinds), event_id, template + 1, count - template, self.ticks,
            self.elements[first_firing:], self.kinds[first_firing:], made_at,
            self.ids + 1, made,
        )
        self.trace._copies.append(run)
        self.ticks += run.count
        self.ids += run.count * len(made)
        for stage in {t.location for t in made}:
            self.resting.setdefault(stage, []).append(run)

    def run_instance(self, event: EventDef, plan: _Plan, instance: int) -> bool:
        """Run one instance; True when it adopted no token and did not
        broadcast."""
        trace, at = self.trace, self.at
        first = len(self.kinds)
        self.plan = plan
        self.event_id = event.id
        self.instance = instance
        self.step_limit = step_limit = first + self.config.max_steps_per_event
        self.active = []

        held_before = {t.from_stage for t in plan.triggers if at.get(t.from_stage)}

        # 1. origin spawns
        for stage_id in plan.origins:
            if at.get(stage_id):
                continue
            self._spawn(stage_id)
            self._fire(plan.trigs_by_src.get(stage_id, ()))

        # 2. adopt resting tokens that can still move inside this region; a
        # stage with a route has an out-flow, so only a port can hold one
        # that cannot
        fresh = {token.id for token in self.active}
        adoptable = [
            token
            for stage_id, route in plan.routes.items()
            for token in at.get(stage_id, {}).values()
            if token.id not in fresh
            and (route[1] is None or self._port_edges(token, route))
        ]
        self.active.extend(sorted(adoptable, key=lambda t: t.id))
        quiet = not adoptable

        # 3. start pass: the triggers with a previously held source, in
        # model order, each with its chain, a source's StageFire before its
        # first
        start_fired: set[ElementId] = set()
        for trig in plan.triggers:
            if trig.from_stage not in held_before:
                continue
            if trig.from_stage not in start_fired:
                start_fired.add(trig.from_stage)
                self._emit(FiringKind.STAGE_FIRE, trig.from_stage, None)
            self._fire([trig])

        # 4. movement rounds until quiescence (see the module docstring); a
        # move along a token's one eligible out-flow is _move written out
        kinds = self.kinds
        add_element, add_kind, add_token = (
            self.elements.append, kinds.append, self.token_ids.append
        )
        routes, trigs_by_src = plan.routes, plan.trigs_by_src
        flow_move = FiringKind.FLOW_MOVE
        while self.active:
            tokens, self.active = self.active, []  # the round's spawns
            moved = []
            for token in tokens:
                route = routes.get(token.location)
                if route is None:
                    continue
                out, within, _ = route
                edges = out if within is None else self._port_edges(token, route)
                if not edges:
                    continue
                moved.append(token)
                if len(edges) > 1:
                    quiet = False
                    self._broadcast(token, edges, event.id)
                    continue
                edge = edges[0]
                add_element(edge.id)
                add_kind(flow_move)
                add_token(token.id)
                if len(kinds) > step_limit:
                    self._over_budget()
                stage = edge.to_stage
                del at[token.location][token.id]
                token.prev_stage, token.location = edge.from_stage, stage
                at[stage][token.id] = token
                if stage in trigs_by_src:
                    self._fire(trigs_by_src[stage])
            self.active = moved + self.active

        made = len(kinds) - first
        events, instances = trace._lists[:2]
        events += [event.id] * made
        instances += [instance] * made
        self.order.append((event.id, instance, self.ticks))
        self.ticks += 1
        return quiet


@collector_paused
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

    The check is a ``validate`` call, whose verdict is stored on the
    model: after ``validate``, or a first ``simulate``, with the same
    unchanged model, events and chronology, no rule runs again.
    """
    errors = [d for d in validate(model, events, chronology) if d.is_error]
    if errors:
        raise PreconditionViolated(
            f"validation reported {len(errors)} error(s); first: "
            + errors[0].render()
        )
    config = config or SimConfig()
    if chronology is None:
        chronology = Chronology(nodes=[e.id for e in events])

    by_id = {e.id: e for e in events}
    run = _Run(model, config)
    for node in linear_extension(chronology):
        event = by_id[node]
        run.run_node(event, _Plan(model, event))
    return run.trace


@collector_paused
def coverage(model: Model, trace: Trace, events: list[EventDef]) -> dict:
    """Runtime coverage: which region stages actually fired.

    An event's score is the share of its region's stages fired by the
    event itself or by any event it contains, directly or not.
    """
    fired_by_event: dict[str, set[ElementId]] = {}
    fired_all: set[ElementId] = set()
    # a run's copies fire exactly its template's (event, element, kind)
    # triples, which are stored firings, so a run is left unbuilt
    event_ids, _, elements, kinds = trace._lists[:4]
    for event_id, element, kind in zip(event_ids, elements, kinds):
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


# the most firings trace_to_json formats before it appends them to its
# text, unless a group of a run's copies (below) fills the chunk further; a
# chunk never splits a copy. A chunk's slots are held beside the text: at
# 4096, writing the ships trace peaked at 1.30x its length under
# tracemalloc, against 1.13x at 1024 (Python 3.10 to 3.13), and tmbench's
# recurrence and corpus firings_per_s read 9% and 19% lower (4 of 4 pairs
# each, Python 3.11, 2-vCPU Xeon)
_CHUNK = 1024
# the most firings of a group of a run's copies, which costs its template
# and its copies' numbers: an append moves the text when the allocator
# cannot grow it where it is, so a long run's text is appended in fewer,
# larger pieces. Capped at _CHUNK, the ships 16k write took 65-71 ms,
# against 26-29 ms (best of 12, Python 3.11, 2-vCPU Xeon)
_GROUP = 3 * _CHUNK

# a step is written as its thousands (none below 1000) and then its last
# three digits, each a shared string, so no string is made per step
_LOW = [str(n) for n in range(1000)]
_LOW3 = [f"{n:03}" for n in range(1000)]

# an entry of each of the document's three lists starts with the close of
# the entry before it and then opens itself (see _document)
_CLOSE = "\n    }"
_HEAD = f"{_CLOSE},\n    {{\n      "


class _Numbers(dict):
    """Numbers' texts; one not in the table is formatted when read."""

    __slots__ = ()

    def __missing__(self, n: int) -> str:
        return str(n)


def _chunks(trace: Trace, numbers: Sequence, of: tuple | None = None) -> Iterator[tuple]:
    """The trace's firings in step order, a chunk at a time: the chunk's
    length n, then for each of the five firing columns, in ``Trace``'s
    order, the writes that fill the chunk's n entries of it. A write is
    ``(start, stop, step, values)``, for the chunk's extended slice
    ``[start:stop:step]``. Item i of ``numbers`` stands for the number i
    in a run's copies; with ``of``, each value of the stored firings and
    each of a run's template entries is mapped by the column's function in
    it.

    A chunk is about as long as all the chunks before it (16 firings at
    first), up to ``_CHUNK`` (see trace_to_json). It is filled in step
    order by slices of the stored firings and by groups of a run's
    copies, each written at its offset in it; a group may fill it up to
    ``_GROUP`` firings. A slice is one write per column. In a group, the
    template's entries, mapped once per run, are repeated by list
    multiplication, and the copies' instance numbers and token ids, which
    a run numbers consecutively, are slices of ``numbers``. While the
    group has fewer copies than the template has firings, those are
    written in step order, one write per column; otherwise one template
    firing at a time, across the copies, with the template's length as
    the step. So a run costs its template and its copies, not its
    firings."""
    columns = trace._lists[:5]
    writes: list[list[tuple]] = [[] for _ in columns]
    n = written = start = 0  # the chunk's firings; the firings before it
    for run in [*trace._copies, None]:
        end = len(columns[3]) if run is None else run.at
        # a run of copies that fire nothing adds no write
        done, left = 0, 0 if run is None or not run.kinds else run.count
        if left:
            k, m, made_at = len(run.kinds), len(run.made), run.made_at
            event, elements, kinds, null = [run.event], run.elements, run.kinds, None
            if of:
                event, null = [of[0](run.event)], of[4](None)
                elements, kinds = list(map(of[2], elements)), list(map(of[3], kinds))
        while start < end or done < left:
            size = min(max(written, 16), _CHUNK)
            if start < end:
                g = min(size - n, end - start)
                for write, column, f in zip(writes, columns, of or repeat(None)):
                    part = column[start : start + g]
                    write.append((n, n + g, 1, part if f is None else map(f, part)))
                start += g
            else:
                # the copies that fill the chunk to the ramp's size, up to
                # _GROUP firings, and at least one
                c = min(max(1, (min(max(written, 16), _GROUP) - n) // k), left - done)
                g = c * k
                copies = numbers[run.first + done : run.first + done + c]
                ids = numbers[run.first_id + done * m : run.first_id + (done + c) * m]
                writes[0].append((n, n + g, 1, event * g))
                writes[2].append((n, n + g, 1, elements * c))
                writes[3].append((n, n + g, 1, kinds * c))
                if c < k:
                    # copy i's firings in a row: its token j is its ids[i * m +
                    # j], and -1 reads the null
                    writes[1].append(
                        (n, n + g, 1, chain.from_iterable(map(repeat, copies, repeat(k))))
                    )
                    writes[4].append((n, n + g, 1, chain.from_iterable([
                        map([*ids[i * m : i * m + m], null].__getitem__, made_at)
                        for i in range(c)
                    ])))
                else:
                    # template firing i across the copies, which name its
                    # made_at[i] tokens: every m-th of their ids from it
                    nulls = [null] * c
                    writes[1] += [(n + i, n + g, k, copies) for i in range(k)]
                    writes[4] += [
                        (n + i, n + g, k, nulls if j < 0 else ids[j::m])
                        for i, j in enumerate(made_at)
                    ]
                done += c
            n += g
            if n >= size:
                yield (n, *writes)
                writes = [[] for _ in columns]
                written += n
                n = 0
    if n:
        yield (n, *writes)


@collector_paused
def trace_to_json(model: Model, trace: Trace) -> str:
    """Stable-keyed JSON rendering for golden comparisons and replay.

    The text is exactly ``json.dumps(doc, indent=2) + "\n"`` for the
    document ``{"eventOrder", "firings", "finalTokens"}``, but is written
    directly, since the indenting encoder runs in pure Python. Each
    string is escaped once, and each instance number, tick and token id
    is formatted once into a number table (with None as ``null``): a
    simulated trace's numbers are all below its instance and token
    counts, so the table is made for that range, and a run's copies'
    numbers are slices of it. A firing entry is 7 pieces: the head (which
    closes the entry before it) with the "step" key and the step's
    thousands, the step's last three digits, the event with the
    "instance" key, the instance, the element with the "kind" key, the
    kind with the "token" key, and the token. Each piece is a shared
    string read from a table, and a head is made once per thousand steps,
    so no string is made per firing.

    The firings are written about ``_CHUNK`` at a time (see ``_chunks``),
    into one list of 7 slots a firing. Each slot column is filled by a
    few extended-slice assignments, which run in C, so a chunk costs a
    few operations per column rather than bytecode per firing. A run of
    copies maps its template's event, element and kind pieces once, and
    each group of its copies repeats them by list multiplication and
    takes its copies' instance numbers and token ids as slices of the
    number table. The event order and the final tokens are written a
    part at a time (see ``_parts``): a stored part's entries are one
    string each, and a run's entries are slots that repeat its
    template's pieces and take their numbers from slices of the table.
    The string tables come from the stored entries (the stored firings
    hold each run's template) and each run's template tokens, so no
    entry per copy is read.

    Every part of the three lists, and the text around them (see
    ``_document``), is joined and appended at one ``text += ...`` site.
    ``text`` is the only reference to the text, so CPython grows it in
    place. CPython 3.12 and 3.13 do that only at a ``+=`` site that the
    interpreter has specialized, which a site that runs once never is, so
    there a ``+=`` that runs once copies the whole text: with a second
    site for the document's end, writing the ships trace peaked at 2.23x
    its length under tracemalloc. With one site it peaks at 1.12-1.13x
    on 3.10 to 3.13: the text plus one chunk, its slots and the tables.
    The chunks start small, as long as all the chunks before them: that
    ramp leaves the peak as it is, but it sets where the text's large
    allocations fall, and without it tmbench's recurrence firings_per_s
    read 2.11-2.17M against 2.99-3.07M (3 of 3 pairs, Python 3.11,
    2-vCPU Xeon).
    """
    # the stored firings hold every event, element and kind of a run's
    # template; a run gives its copies' instance numbers, ticks and token
    # ids as ranges, and its tokens' things and locations are its
    # template's, or are read from its copies' tokens if they were made
    events, _, elements, _, _, order, final = trace._lists
    copies = trace._copies
    listed = [
        *final,
        *chain.from_iterable(c.made if c.tokens is None else c.tokens for c in copies),
    ]
    elements = set(elements)
    quoted = {
        eid: encode_basestring_ascii(model.qualified_name(eid))
        for eid in elements.union(t.location for t in listed)
    }
    order_events = {*(e for e, _, _ in order), *(c.event for c in copies)}
    texts = {*events, *order_events, *(t.thing for t in listed)}
    q = {text: encode_basestring_ascii(text) for text in texts}
    # a simulated trace's instance numbers, ticks and token ids are all
    # below ``len(strs)``, and the texts of a run's copies' ones are slices
    # of it
    instances, _, tokens = trace._sizes()
    strs = list(map(str, range(max(instances, tokens) + 1)))
    nums = _Numbers(zip(range(len(strs)), strs))
    nums[None] = "null"
    event_pieces = {
        e: f',\n      "event": {q[e]},\n      "instance": ' for e in set(events)
    }
    element_pieces = {
        el: f',\n      "element": {quoted[el]},\n      "kind": ' for el in elements
    }
    order_heads = {
        e: f'{_HEAD}"event": {q[e]},\n      "instance": ' for e in order_events
    }
    # the steps' pieces in step order: the entry's head with the "step"
    # key and the thousands, "" for 0-999, then "1" for 1000-1999, and so
    # on, one string per thousand steps; the last three digits "0" to
    # "999", then "000" to "999" over and over
    heads = chain.from_iterable(map(
        repeat, map(f'{_HEAD}"step": '.__add__, chain(("",), map(str, count(1)))),
        repeat(1000),
    ))
    lows = chain(_LOW, cycle(_LOW3))
    of = (
        event_pieces.__getitem__, nums.__getitem__, element_pieces.__getitem__,
        attrgetter("piece"), nums.__getitem__,
    )

    def event_order() -> Iterator[list[str]]:
        # a stored entry is one string; a run's entries are slots that
        # repeat its event's head and the "tick" key and take its instances
        # and ticks from the table
        for at, n, part in _parts(trace, 5):
            if part.__class__ is _Copies:
                slots = [order_heads[part.event], "", ',\n      "tick": ', ""] * n
                slots[1::4] = strs[part.first : part.first + n]
                slots[3::4] = strs[at : at + n]
                yield slots
                del slots
            else:
                yield [
                    f'{order_heads[e]}{nums[i]},\n      "tick": {nums[t]}'
                    for e, i, t in part
                ]

    def firings() -> Iterator[list[str]]:
        # The chunks start small and grow (see the docstring). The slot
        # list grows or shrinks by the change in chunk size, and each turn
        # writes every slot.
        pieces: list[str] = []
        for n, *columns in _chunks(trace, strs, of):
            pieces[7 * n :] = [""] * (7 * n - len(pieces))
            pieces[0::7] = islice(heads, n)
            pieces[1::7] = islice(lows, n)
            for slot, writes in enumerate(columns, 2):
                for start, stop, step, values in writes:
                    pieces[7 * start + slot : 7 * stop : 7 * step] = values
            yield pieces

    def final_tokens() -> Iterator[list[str]]:
        # a token is one string, but a run whose copies' tokens were not
        # made is slots: the head with the "id" key, the id, and the thing
        # and location of its template's tokens
        for _, n, part in _parts(trace, 6):
            if part.__class__ is _Copies and part.tokens is None:
                slots = [f'{_HEAD}"id": ', "", ""] * n
                slots[1::3] = strs[part.first_id : part.first_id + n]
                slots[2::3] = [
                    f',\n      "thing": {q[t.thing]},\n      "location": {quoted[t.location]}'
                    for t in part.made
                ] * part.count
                yield slots
                del slots
            else:
                yield [
                    f'{_HEAD}"id": {nums[t.id]},\n      "thing": {q[t.thing]},\n'
                    f'      "location": {quoted[t.location]}'
                    for t in (part if part.__class__ is list else part.tokens)
                ]

    text = ""
    for pieces in _document(event_order(), firings(), final_tokens()):
        text += "".join(pieces)
        del pieces
    return text


def _document(*lists: Iterator[list[str]]) -> Iterator[list[str]]:
    """The trace document as lists of text pieces: the parts of its
    event order, firings and final tokens in order, and the text around
    them. A part's first piece is the head of its first entry, which
    starts with ``_CLOSE`` and a comma, the close of the entry before it.
    A list's first entry drops them and follows the list's key instead,
    and a non-empty list ends with its last entry's close. A part's head
    is put back once the part is read, since a list of slots may be
    reused. No part is held here, in trace_to_json or in the lists'
    generators once it is read, so it is freed before the next is built.
    With each part held until the next was built, tmbench's corpus
    firings_per_s read 1.38-1.51M against 1.54-1.58M (3 runs each,
    Python 3.11)."""
    between = "{"  # the text not yet yielded
    for key, parts in zip(("eventOrder", "firings", "finalTokens"), lists):
        between, close = f'{between}\n  "{key}": [', "],"
        for pieces in parts:
            head = pieces[0]
            if between:
                pieces[0] = between + head.removeprefix(f"{_CLOSE},")
                between, close = "", f"{_CLOSE}\n  ],"
            yield pieces
            pieces[0] = head
            del pieces
        between += close
    yield [between[:-1], "\n}\n"]
