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
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

from .behavior import Chronology, EventDef, instances, region_edges
from .core import ElementId, FlowEdge, Model, StageKind, is_normalized
from .errors import PreconditionViolated, StepBudgetExceeded
from .validate import validate

log = logging.getLogger(__name__)


class FiringKind(enum.Enum):
    STAGE_FIRE = "StageFire"
    FLOW_MOVE = "FlowMove"
    TRIGGER_FIRE = "TriggerFire"
    TOKEN_SPAWN = "TokenSpawn"


@dataclass
class Token:
    id: int
    thing: str
    location: ElementId
    # routing state for the bidirectional transfer port
    outbound: bool = field(default=False, repr=False)
    prev_stage: ElementId | None = field(default=None, repr=False)


@dataclass
class Firing:
    step: int
    event: str
    instance: int
    element: ElementId
    kind: FiringKind
    token: int | None = None


@dataclass
class Trace:
    firings: list[Firing] = field(default_factory=list)
    event_order: list[tuple[str, int, int]] = field(default_factory=list)
    final_tokens: list[Token] = field(default_factory=list)


@dataclass
class SimConfig:
    max_steps_per_event: int = 10000

    def __post_init__(self) -> None:
        if self.max_steps_per_event < 1:
            raise ValueError("max_steps_per_event must be at least 1")


def linear_extension(chronology: Chronology) -> list[str]:
    """Kahn's ordering with first-mention tie-breaking."""
    nodes = list(chronology.nodes)
    indeg = {n: 0 for n in nodes}
    succs: dict[str, list[str]] = {n: [] for n in nodes}
    for a, b in chronology.edges:
        indeg[b] += 1
        succs[a].append(b)
    order: list[str] = []
    done: set[str] = set()
    while len(order) < len(nodes):
        pick = next(
            (n for n in nodes if n not in done and indeg[n] == 0), None
        )
        if pick is None:
            raise PreconditionViolated("chronology has a cycle")
        done.add(pick)
        order.append(pick)
        for nxt in succs[pick]:
            indeg[nxt] -= 1
    return order


class _Run:
    def __init__(self, model: Model, config: SimConfig) -> None:
        self.model = model
        self.config = config
        self.trace = Trace()
        self.tokens: list[Token] = []
        self.at: dict[ElementId, list[Token]] = {}
        self.step = 0
        # per-instance state
        self.event_id = ""
        self.instance = 0
        self.instance_steps = 0
        self.active: list[Token] = []
        self.active_ids: set[int] = set()
        self.flows_by_src: dict[ElementId, list[FlowEdge]] = {}
        self.trigs_by_src: dict[ElementId, list] = {}

    # -- record keeping ------------------------------------------------

    def _emit(self, kind: FiringKind, element: ElementId, token: int | None) -> None:
        self.trace.firings.append(
            Firing(self.step, self.event_id, self.instance, element, kind, token)
        )
        self.step += 1
        self.instance_steps += 1
        if self.instance_steps > self.config.max_steps_per_event:
            raise StepBudgetExceeded(
                f"event '{self.event_id}' instance {self.instance} exceeded "
                f"{self.config.max_steps_per_event} steps without quiescing"
            )

    # -- token bookkeeping ----------------------------------------------

    def _place(self, token: Token, stage: ElementId) -> None:
        if token.location in self.at and token in self.at[token.location]:
            self.at[token.location].remove(token)
        token.location = stage
        self.at.setdefault(stage, []).append(token)

    def _machine_occupied(self, thimac_id: ElementId) -> bool:
        thimac = self.model.thimacs[thimac_id]
        return any(self.at.get(sid) for sid in thimac.stages.values())

    def _spawn(self, stage: ElementId) -> Token:
        token = Token(
            len(self.tokens) + 1,
            self.model.qualified_name(self.model.stages[stage].thimac),
            stage,
        )
        self.tokens.append(token)
        self.at.setdefault(stage, []).append(token)
        self.active.append(token)
        self.active_ids.add(token.id)
        self._emit(FiringKind.TOKEN_SPAWN, stage, token.id)
        return token

    # -- firing ----------------------------------------------------------

    def _fire_stage_triggers(self, stage: ElementId) -> None:
        # iterative so trigger chains are bounded by the step budget,
        # not the interpreter's recursion limit
        work = [stage]
        while work:
            current = work.pop(0)
            for trig in self.trigs_by_src.get(current, []):
                self._emit(FiringKind.TRIGGER_FIRE, trig.id, None)
                spawned = self._trigger_effect(trig.to_stage)
                if spawned is not None:
                    work.append(spawned)

    def _trigger_effect(self, target: ElementId) -> ElementId | None:
        """Apply one trigger; returns the spawn stage if a token appeared."""
        target_stage = self.model.stages[target]
        if target_stage.kind is StageKind.CREATE:
            self._spawn(target)
            return target
        if self._machine_occupied(target_stage.thimac):
            # the waiting thing is considered enabled; adoption covers it
            return None
        self._spawn(target)
        return target

    # -- movement --------------------------------------------------------

    def _eligible(self, token: Token) -> list[FlowEdge]:
        out = self.flows_by_src.get(token.location, [])
        if not out:
            return []
        stage = self.model.stages[token.location]
        if stage.kind is not StageKind.TRANSFER:
            return out
        cross = [
            e for e in out if not self.model.same_machine(e.from_stage, e.to_stage)
        ]
        if token.outbound:
            return cross
        within = [
            e for e in out if self.model.same_machine(e.from_stage, e.to_stage)
        ]
        if within:
            return within
        return [e for e in cross if e.to_stage != token.prev_stage]

    def _move(self, token: Token, edge: FlowEdge) -> None:
        src = self.model.stages[edge.from_stage]
        dst = self.model.stages[edge.to_stage]
        self._emit(FiringKind.FLOW_MOVE, edge.id, token.id)
        token.prev_stage = edge.from_stage
        token.outbound = (
            src.kind is StageKind.RELEASE
            and dst.kind is StageKind.TRANSFER
            and src.thimac == dst.thimac
        )
        self._place(token, edge.to_stage)
        self._fire_stage_triggers(edge.to_stage)

    # -- one event instance ------------------------------------------------

    def run_instance(self, event: EventDef, instance: int, tick: int) -> None:
        self.event_id = event.id
        self.instance = instance
        self.instance_steps = 0
        self.active = []
        self.active_ids = set()

        region = {s for s in event.region if s in self.model.stages}
        flows, triggers = region_edges(self.model, region)
        self.flows_by_src = {}
        for f in flows:
            self.flows_by_src.setdefault(f.from_stage, []).append(f)
        self.trigs_by_src = {}
        for t in triggers:
            self.trigs_by_src.setdefault(t.from_stage, []).append(t)

        held_before = {s for s in region if self.at.get(s)}
        inbound = {f.to_stage for f in flows}
        trigger_targets = {t.to_stage for t in triggers}

        # 1. origin spawns
        for stage_id in sorted(region):
            stage = self.model.stages[stage_id]
            if stage.kind is not StageKind.CREATE:
                continue
            if stage_id in inbound or stage_id in trigger_targets:
                continue
            if self.at.get(stage_id):
                continue
            self._spawn(stage_id)
            self._fire_stage_triggers(stage_id)

        # 2. adopt resting tokens that can still move inside this region
        adoptable = [
            token
            for stage_id in region
            if stage_id in self.flows_by_src  # stages with no out-flow can't move
            for token in self.at.get(stage_id, [])
            if token.id not in self.active_ids and self._eligible(token)
        ]
        for token in sorted(adoptable, key=lambda t: t.id):
            self.active.append(token)
            self.active_ids.add(token.id)

        # 3. start pass over triggers with a previously held source
        start_fired: set[ElementId] = set()
        for trig in triggers:
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
                    log.warning(
                        "broadcast: token %d at %s replicates along %d flows "
                        "(event %s)",
                        token.id,
                        self.model.qualified_name(token.location),
                        len(edges),
                        event.id,
                    )
                    clones = []
                    for extra in edges[1:]:
                        clone = Token(
                            len(self.tokens) + 1, token.thing, token.location
                        )
                        clone.prev_stage = token.prev_stage
                        clone.outbound = token.outbound
                        self.tokens.append(clone)
                        self.at.setdefault(token.location, []).append(clone)
                        self.active.append(clone)
                        self.active_ids.add(clone.id)
                        self._emit(FiringKind.TOKEN_SPAWN, token.location, clone.id)
                        clones.append((clone, extra))
                    self._move(token, edges[0])
                    for clone, extra in clones:
                        self._move(clone, extra)
                else:
                    self._move(token, edges[0])
            if not moved:
                break

        self.trace.event_order.append((event.id, instance, tick))


def simulate(
    model: Model,
    events: list[EventDef],
    chronology: Chronology | None,
    config: SimConfig | None = None,
) -> Trace:
    """Execute the chronology deterministically; returns a replayable trace.

    The model must be normalized and, together with the behavior
    definitions, free of validation errors. With no chronology, all
    declared events run once in declaration order.
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
    behavior definitions and found no errors."""
    config = config or SimConfig()
    if not is_normalized(model):
        raise PreconditionViolated("model is not normalized")
    if chronology is None:
        chronology = Chronology(nodes=[e.id for e in events])

    by_id = {e.id: e for e in events}
    run = _Run(model, config)
    tick = 0
    for node in linear_extension(chronology):
        event = by_id[node]
        for instance in range(1, instances(event) + 1):
            run.run_instance(event, instance, tick)
            tick += 1
    run.trace.final_tokens = list(run.tokens)
    return run.trace


def coverage(model: Model, trace: Trace, events: list[EventDef]) -> dict:
    """Runtime coverage: which region stages actually fired."""
    flow_by_id = {f.id: f for f in model.flows}
    fired_by_event: dict[str, set[ElementId]] = {}
    fired_all: set[ElementId] = set()
    for firing in trace.firings:
        if firing.kind in (FiringKind.TOKEN_SPAWN, FiringKind.STAGE_FIRE):
            stage = firing.element
        elif firing.kind is FiringKind.FLOW_MOVE:
            stage = flow_by_id[firing.element].to_stage
        else:
            continue
        fired_by_event.setdefault(firing.event, set()).add(stage)
        fired_all.add(stage)
    per_event = {}
    region_union: set[ElementId] = set()
    for event in events:
        stages = {s for s in event.region if s in model.stages}
        region_union |= stages
        fired = fired_by_event.get(event.id, set()) & stages
        per_event[event.id] = len(fired) / len(stages) if stages else 1.0
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
    named = {f.element for f in trace.firings}
    named.update(t.location for t in trace.final_tokens)
    quoted = {
        eid: encode_basestring_ascii(name)
        for eid, name in model.qualified_names(named).items()
    }
    kinds = {kind: encode_basestring_ascii(kind.value) for kind in FiringKind}
    strings: dict[str, str] = {}

    def q(text: str) -> str:
        if text not in strings:
            strings[text] = encode_basestring_ascii(text)
        return strings[text]

    # every entry starts with its separator; _json_list drops the first one
    event_order = [
        f',\n    {{\n      "event": {q(e)},\n      "instance": {i},\n'
        f'      "tick": {t}\n    }}'
        for e, i, t in trace.event_order
    ]
    firings = [
        f',\n    {{\n      "step": {f.step},\n      "event": {q(f.event)},\n'
        f'      "instance": {f.instance},\n      "element": {quoted[f.element]},\n'
        f'      "kind": {kinds[f.kind]},\n'
        f'      "token": {"null" if f.token is None else f.token}\n    }}'
        for f in trace.firings
    ]
    final_tokens = [
        f',\n    {{\n      "id": {t.id},\n      "thing": {q(t.thing)},\n'
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
