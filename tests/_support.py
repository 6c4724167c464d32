"""Shared test helpers: random model generators and independent oracles."""

from __future__ import annotations

import json
import logging
import random
import re
import sys
from dataclasses import dataclass, field

from tmkit.behavior import Chronology, EventDef, instances
from tmkit.core import (
    STAGE_KIND_NAMES,
    ElementId,
    FlowEdge,
    Model,
    StageKind,
    is_normalized,
)
from tmkit.diagnostics import Diagnostic, Severity, SourceSpan
from tmkit.diagnostics import has_errors, sorted_diagnostics
from tmkit.dsl.lexer import KEYWORDS, Token, TokenKind
from tmkit.dsl.parser import (
    ParseResult,
    _EventDecl,
    _Lowering,
    _StageDecl,
    _ThimacDecl,
    add_edge,
)
from tmkit.errors import (
    ContainmentCycle,
    DuplicateName,
    DuplicateStageKind,
    PreconditionViolated,
    StepBudgetExceeded,
    UnknownEvent,
)
from tmkit.sim import Firing, FiringKind, SimConfig

KINDS = list(StageKind)

# The stage-wiring matrix restated literally, independent of the
# implementation's tables: the oracle side of the legality check.
ORACLE_LEGAL = {
    ("create", "process", True),
    ("create", "release", True),
    ("receive", "process", True),
    ("receive", "release", True),
    ("process", "release", True),
    ("release", "transfer", True),
    ("transfer", "receive", True),
    ("transfer", "transfer", False),
}


_T = StageKind.TRANSFER
_R = StageKind.RELEASE
_RV = StageKind.RECEIVE


def _same_machine_inserts(x: StageKind, y: StageKind) -> list[StageKind] | None:
    if x in (StageKind.CREATE, StageKind.RECEIVE, StageKind.PROCESS) and y is _T:
        return [_R]
    if x is _T and y in (StageKind.PROCESS, StageKind.RELEASE):
        return [_RV]
    return None


def _cross_machine_chain(
    x: StageKind, y: StageKind
) -> tuple[list[StageKind], list[StageKind]] | None:
    if y is StageKind.CREATE:
        return None
    if x is _T:
        src: list[StageKind] = []
    elif x is _R:
        src = [_T]
    else:
        src = [_R, _T]
    if y is _T:
        dst: list[StageKind] = []
    elif y is _RV:
        dst = [_T]
    else:
        dst = [_T, _RV]
    return src, dst


def reference_expansion(
    model: Model, src: ElementId, dst: ElementId
) -> list[tuple[StageKind, ElementId]] | None:
    """``core._expansion`` as the two rules ``normalize`` applied before:
    the ``(kind, owner)`` stages to insert between stages ``src`` and
    ``dst``, or None."""
    a, b = model.stages[src], model.stages[dst]
    if a.thimac == b.thimac:
        inserts = _same_machine_inserts(a.kind, b.kind)
        return None if inserts is None else [(k, a.thimac) for k in inserts]
    chain = _cross_machine_chain(a.kind, b.kind)
    if chain is None:
        return None
    src_ins, dst_ins = chain
    return [(k, a.thimac) for k in src_ins] + [(k, b.thimac) for k in dst_ins]


def oracle_flow_illegal(model: Model) -> set[int]:
    """Brute-force per-edge legality check; returns offending edge ids."""
    bad = set()
    for edge in model.flows:
        src = model.stages[edge.from_stage]
        dst = model.stages[edge.to_stage]
        key = (src.kind.value, dst.kind.value, src.thimac == dst.thimac)
        if key not in ORACLE_LEGAL:
            bad.add(edge.id)
    return bad


def oracle_origin_missing(model: Model) -> list[int]:
    """Brute-force ORIGIN_MISSING: the least stage id of each flow
    component with no origin, sorted. A component is the undirected
    closure of a flow endpoint, grown by rescanning every flow until no
    flow has exactly one end inside it."""
    flows = [(f.from_stage, f.to_stage) for f in model.flows]
    trigger_targets = [t.to_stage for t in model.triggers]

    def origin(sid: int) -> bool:
        stage = model.stages[sid]
        boundary_port = (
            stage.kind.value == "transfer"
            and model.thimacs[stage.thimac].parent is None
            and any(a == sid for a, _ in flows)
        )
        return stage.kind.value == "create" or boundary_port or sid in trigger_targets

    covered: set[int] = set()
    anchors = []
    for start in [s for pair in flows for s in pair]:
        if start in covered:
            continue
        comp = {start}
        grew = True
        while grew:
            grew = False
            for a, b in flows:
                if (a in comp) != (b in comp):
                    comp.update((a, b))
                    grew = True
        covered |= comp
        if not any(origin(s) for s in comp):
            anchors.append(min(comp))
    return sorted(anchors)


def oracle_stage_unreachable(model: Model) -> list[int]:
    """Brute-force STAGE_UNREACHABLE: the ids of the stages that no flow
    or trigger touches, each found by a scan of every edge, sorted."""
    edges = [*model.flows, *model.triggers]
    return sorted(
        sid
        for sid in model.stages
        if not any(sid in (e.from_stage, e.to_stage) for e in edges)
    )


def oracle_has_cycle(nodes: list[str], edges: list[tuple[str, str]]) -> bool:
    """Plain DFS cycle search over a digraph."""
    adj: dict[str, list[str]] = {n: [] for n in nodes}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, [])
    state: dict[str, int] = {}

    def visit(node: str) -> bool:
        state[node] = 1
        for nxt in adj[node]:
            if state.get(nxt) == 1:
                return True
            if state.get(nxt, 0) == 0 and visit(nxt):
                return True
        state[node] = 2
        return False

    return any(state.get(n, 0) == 0 and visit(n) for n in adj)


def reference_chronology_cycle(chronology: Chronology) -> list[str] | None:
    """The recursive DFS that ``tmkit.validate.chronology_cycle`` replaced:
    the oracle for its cycle witness."""
    adj: dict[str, list[str]] = {n: [] for n in chronology.nodes}
    for a, b in chronology.edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, [])
    white, gray, black = 0, 1, 2
    color = {n: white for n in adj}
    path: list[str] = []

    def visit(node: str) -> list[str] | None:
        color[node] = gray
        path.append(node)
        for nxt in adj[node]:
            if color[nxt] == gray:
                return path[path.index(nxt):] + [nxt]
            if color[nxt] == white:
                found = visit(nxt)
                if found:
                    return found
        color[node] = black
        path.pop()
        return None

    for node in adj:
        if color[node] == white:
            found = visit(node)
            if found:
                return found
    return None


def enumerate_linear_extensions(chronology: Chronology) -> list[list[str]]:
    """All linear extensions, by exhaustive backtracking over prefixes."""
    nodes = list(chronology.nodes)
    preds: dict[str, set[str]] = {n: set() for n in nodes}
    for a, b in chronology.edges:
        preds[b].add(a)
    out: list[list[str]] = []
    prefix: list[str] = []
    placed: set[str] = set()

    def extend() -> None:
        if len(prefix) == len(nodes):
            out.append(list(prefix))
            return
        for node in nodes:
            if node in placed or not preds[node] <= placed:
                continue
            prefix.append(node)
            placed.add(node)
            extend()
            placed.discard(node)
            prefix.pop()

    extend()
    return out


def random_model(
    rng: random.Random,
    max_thimacs: int = 4,
    max_stages: int = 8,
    max_flows: int = 10,
    nested: bool = True,
) -> Model:
    """A structurally well-formed model with arbitrary (often illegal) flows."""
    model = Model()
    thimacs = []
    for i in range(rng.randint(1, max_thimacs)):
        parent = None
        if nested and thimacs and rng.random() < 0.3:
            parent = rng.choice(thimacs)
        thimacs.append(model.add_thimac(f"t{i}", parent))
    stage_ids = []
    budget = rng.randint(1, max_stages)
    while len(stage_ids) < budget:
        tid = rng.choice(thimacs)
        available = [k for k in KINDS if k not in model.thimacs[tid].stages]
        if not available:
            if all(len(model.thimacs[t].stages) == 5 for t in thimacs):
                break
            continue
        stage_ids.append(model.add_stage(tid, rng.choice(available)))
    if len(stage_ids) >= 2:
        for _ in range(rng.randint(0, max_flows)):
            a, b = rng.sample(stage_ids, 2)
            model.add_flow(a, b)
        for _ in range(rng.randint(0, 3)):
            a = rng.choice(stage_ids)
            b = rng.choice(stage_ids)
            model.add_trigger(a, b)
    return model


def scan_thimac(model: Model, path: str) -> int | None:
    """``Model.find_thimac`` by scanning each scope's children in order."""
    scope = model.roots
    current = None
    for part in path.split("."):
        current = next((t for t in scope if model.thimacs[t].name == part), None)
        if current is None:
            return None
        scope = model.thimacs[current].children
    return current


def scan_stage(model: Model, path: str) -> int | None:
    """``Model.find_stage`` over ``scan_thimac``: a trailing stage kind
    names that stage, a bare thimac path its transfer port."""
    parts = path.split(".")
    kind = StageKind.TRANSFER
    if parts[-1] in STAGE_KIND_NAMES:
        kind = StageKind.from_name(parts.pop())
    if not parts:
        return None
    tid = scan_thimac(model, ".".join(parts))
    return None if tid is None else model.thimacs[tid].stages.get(kind)


def reference_qualified_name(model: Model, element: ElementId) -> str:
    """``Model.qualified_name`` by walking the parent chain of a thimac
    on every call and scanning the edge lists for an edge id."""
    if element in model.thimacs:
        parts = []
        cur: ElementId | None = element
        while cur is not None:
            t = model.thimacs[cur]
            parts.append(t.name)
            cur = t.parent
        return ".".join(reversed(parts))
    if element in model.stages:
        st = model.stages[element]
        return f"{reference_qualified_name(model, st.thimac)}.{st.kind.value}"
    for arrow, edges in (("->", model.flows), ("~>", model.triggers)):
        for edge in edges:
            if edge.id == element:
                return (
                    f"{reference_qualified_name(model, edge.from_stage)}{arrow}"
                    f"{reference_qualified_name(model, edge.to_stage)}"
                )
    raise KeyError(f"unknown element id {element}")


def scan_edge(edges, src: int, dst: int):
    """The first edge of ``edges`` from ``src`` to ``dst``, or None."""
    return next((e for e in edges if e.from_stage == src and e.to_stage == dst), None)


def reference_region_edges(model: Model, region: set[ElementId]) -> tuple[list, list]:
    """The flows and the triggers with both endpoints in ``region``, each
    in model order, by a scan of every edge: the oracle for
    ``tmkit.behavior.region_edges``."""
    flows = [
        f for f in model.flows if f.from_stage in region and f.to_stage in region
    ]
    triggers = [
        t for t in model.triggers if t.from_stage in region and t.to_stage in region
    ]
    return flows, triggers


def random_legal_chain_model(rng: random.Random, machines: int = 3) -> Model:
    """A simplified-style model whose flows all admit legal expansion.

    Machines hold create/process stages plus optional ports; edges skip
    release/transfer/receive the way simplified diagrams do.
    """
    model = Model()
    heads = []
    tails = []
    for i in range(rng.randint(2, machines + 1)):
        tid = model.add_thimac(f"m{i}")
        create = model.add_stage(tid, StageKind.CREATE)
        if rng.random() < 0.6:
            proc = model.add_stage(tid, StageKind.PROCESS)
            model.add_flow(create, proc)
            tails.append(proc)
        else:
            tails.append(create)
        heads.append(tid)
    # chain machine i's tail to machine i+1's entry stage
    for src_tail, dst_tid in zip(tails, heads[1:]):
        dst_thimac = model.thimacs[dst_tid]
        entry = dst_thimac.stages.get(StageKind.PROCESS) or dst_thimac.stages.get(
            StageKind.CREATE
        )
        dst = model.thimacs[dst_tid].stages.get(StageKind.PROCESS)
        if dst is None:
            dst = model.add_stage(dst_tid, StageKind.RECEIVE)
        del entry
        if src_tail != dst:
            model.add_flow(src_tail, dst)
    return model


def reference_trace_to_json(model: Model, trace) -> str:
    """The trace document through ``json.dumps``: the byte-format oracle
    for ``tmkit.sim.trace_to_json``. It reads a ``tmkit.sim.Trace`` or a
    ``ReferenceTrace`` alike, through ``firings``, ``event_order`` and
    ``final_tokens``."""
    doc = {
        "eventOrder": [
            {"event": e, "instance": i, "tick": t}
            for e, i, t in trace.event_order
        ],
        "firings": [
            {
                "step": f.step,
                "event": f.event,
                "instance": f.instance,
                "element": model.qualified_name(f.element),
                "kind": f.kind.value,
                "token": f.token,
            }
            for f in trace.firings
        ],
        "finalTokens": [
            {
                "id": t.id,
                "thing": t.thing,
                "location": model.qualified_name(t.location),
            }
            for t in trace.final_tokens
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def reference_to_json(result) -> str:
    """The model document through ``json.dumps``: the byte-format oracle
    for ``tmkit.dsl.to_json``, which writes the same text from templates."""
    model = result.model
    thimacs = []
    for thimac in model.iter_thimacs():
        stages = [
            {
                "kind": model.stages[sid].kind.value,
                "annotation": model.stages[sid].annotation,
            }
            for sid in thimac.stages.values()
        ]
        thimacs.append(
            {
                "name": model.qualified_name(thimac.id),
                "parent": (
                    model.qualified_name(thimac.parent)
                    if thimac.parent is not None
                    else None
                ),
                "annotation": thimac.annotation,
                "stages": stages,
            }
        )
    flows = [
        {
            "from": model.qualified_name(f.from_stage),
            "to": model.qualified_name(f.to_stage),
            # written empty: what normalization inserted is Model.declared()
            "implicitSegments": [],
        }
        for f in model.flows
    ]
    triggers = [
        {
            "from": model.qualified_name(t.from_stage),
            "to": model.qualified_name(t.to_stage),
        }
        for t in model.triggers
    ]
    events = [
        {
            "id": e.id,
            "label": e.label,
            "region": sorted(model.qualified_name(s) for s in e.region),
            "repeat": e.multiplicity,
            "contains": list(e.subevents),
        }
        for e in result.events
    ]
    chronology = None
    if result.chronology is not None:
        chronology = {
            "nodes": list(result.chronology.nodes),
            "edges": [[a, b] for a, b in result.chronology.edges],
        }
    doc = {
        "thimacs": thimacs,
        "flows": flows,
        "triggers": triggers,
        "events": events,
        "chronology": chronology,
    }
    return json.dumps(doc, indent=2) + "\n"


log = logging.getLogger("tmkit.sim")


def reference_linear_extension(chronology: Chronology) -> list[str]:
    """The quadratic Kahn's ordering ``tmkit.sim.linear_extension`` replaced:
    its oracle."""
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


@dataclass
class _ReferenceToken:
    """The oracle's token: it keeps the ``outbound`` flag that the
    simulator derives from ``prev_stage``, computed from each edge."""

    id: int
    thing: str
    location: ElementId
    outbound: bool = False
    prev_stage: ElementId | None = None


@dataclass
class ReferenceTrace:
    """The oracle's own record of a run: one stored ``Firing`` per firing,
    sharing no storage code with ``tmkit.sim.Trace``."""

    firings: list[Firing] = field(default_factory=list)
    event_order: list[tuple[str, int, int]] = field(default_factory=list)
    final_tokens: list[_ReferenceToken] = field(default_factory=list)


class _ReferenceRun:
    def __init__(self, model: Model, config: SimConfig) -> None:
        self.model = model
        self.config = config
        self.trace = ReferenceTrace()
        self.tokens: list[_ReferenceToken] = []
        self.at: dict[ElementId, list[_ReferenceToken]] = {}
        self.step = 0
        # per-instance state
        self.event_id = ""
        self.instance = 0
        self.instance_steps = 0
        self.active: list[_ReferenceToken] = []
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

    def _place(self, token: _ReferenceToken, stage: ElementId) -> None:
        if token.location in self.at and token in self.at[token.location]:
            self.at[token.location].remove(token)
        token.location = stage
        self.at.setdefault(stage, []).append(token)

    def _machine_occupied(self, thimac_id: ElementId) -> bool:
        thimac = self.model.thimacs[thimac_id]
        return any(self.at.get(sid) for sid in thimac.stages.values())

    def _spawn(self, stage: ElementId) -> _ReferenceToken:
        token = _ReferenceToken(
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

    def _eligible(self, token: _ReferenceToken) -> list[FlowEdge]:
        out = self.flows_by_src.get(token.location, [])
        if not out:
            return []
        stage = self.model.stages[token.location]
        if stage.kind is not StageKind.TRANSFER:
            return out
        # each edge leaves the token's stage, so its own machine is the source's
        stages, owner = self.model.stages, stage.thimac
        cross = [e for e in out if stages[e.to_stage].thimac != owner]
        if token.outbound:
            return cross
        within = [e for e in out if stages[e.to_stage].thimac == owner]
        if within:
            return within
        return [e for e in cross if e.to_stage != token.prev_stage]

    def _move(self, token: _ReferenceToken, edge: FlowEdge) -> None:
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
        flows, triggers = reference_region_edges(self.model, region)
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
                        clone = _ReferenceToken(
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


def reference_simulate(
    model: Model,
    events: list[EventDef],
    chronology: Chronology | None,
    config: SimConfig | None = None,
) -> ReferenceTrace:
    """The interpreter ``tmkit.sim`` replaced with per-event plans, which
    rebuilds each region's edge lists on every instance: the oracle for
    ``tmkit.sim.simulate``. It logs broadcasts to the ``tmkit.sim``
    logger, as the simulator does."""
    config = config or SimConfig()
    if not is_normalized(model):
        raise PreconditionViolated("model is not normalized")
    if chronology is None:
        chronology = Chronology(nodes=[e.id for e in events])

    by_id = {e.id: e for e in events}
    run = _ReferenceRun(model, config)
    tick = 0
    for node in reference_linear_extension(chronology):
        event = by_id[node]
        for instance in range(1, instances(event) + 1):
            run.run_instance(event, instance, tick)
            tick += 1
    run.trace.final_tokens = list(run.tokens)
    return run.trace


def random_digraph(
    rng: random.Random, max_nodes: int = 10, edge_prob: float = 0.25
) -> tuple[list[str], list[tuple[str, str]]]:
    count = rng.randint(1, max_nodes)
    nodes = [f"E{i}" for i in range(count)]
    edges = []
    for a in nodes:
        for b in nodes:
            if a != b and rng.random() < edge_prob:
                edges.append((a, b))
    return nodes, edges


_NODE_LINE = re.compile(r'^\s*"[^"]+"\s*\[')
_EDGE_LINE = re.compile(r'^\s*"[^"]+"\s*->\s*"[^"]+"')


def read_dot(text: str) -> dict:
    """Minimal DOT reader: counts clusters, node lines, and edge lines."""
    nodes = 0
    edges = 0
    clusters = 0
    dashed_edges = 0
    for line in text.splitlines():
        if line.strip().startswith("subgraph cluster_"):
            clusters += 1
        elif _EDGE_LINE.match(line):
            edges += 1
            if "style=dashed" in line:
                dashed_edges += 1
        elif _NODE_LINE.match(line):
            nodes += 1
    return {
        "nodes": nodes,
        "edges": edges,
        "clusters": clusters,
        "dashed_edges": dashed_edges,
    }


_DOT_STRING = re.compile(r'"(?:[^"\\\n]|\\.)*"')


def dot_strings(text: str) -> list[str]:
    """The quoted strings of DOT text, as written; fails on a malformed one.

    In a DOT string a backslash escapes the next character. Each line
    must hold only complete strings: with them cut out, no quote and no
    backslash may remain.
    """
    found = []
    for number, line in enumerate(text.splitlines(), 1):
        found += _DOT_STRING.findall(line)
        rest = _DOT_STRING.sub("", line)
        assert '"' not in rest and "\\" not in rest, f"line {number}: {line}"
    return found


_PUNCT = {
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    ";": TokenKind.SEMI,
    ".": TokenKind.DOT,
    ",": TokenKind.COMMA,
    "@": TokenKind.AT,
}


def reference_tokenize(
    text: str, file: str
) -> tuple[list[Token], list[Diagnostic]]:
    """The per-character tokenizer the regex lexer replaced: the oracle for
    ``tmkit.dsl.lexer.tokenize``."""
    tokens: list[Token] = []
    diags: list[Diagnostic] = []
    line, col = 1, 1
    i, n = 0, len(text)

    def advance(count: int = 1) -> None:
        nonlocal i, line, col
        for _ in range(count):
            if i < n and text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance()
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                advance()
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "*":
            start = SourceSpan(file, line, col, line, col + 1)
            advance(2)
            closed = False
            while i < n:
                if text[i] == "*" and i + 1 < n and text[i + 1] == "/":
                    advance(2)
                    closed = True
                    break
                advance()
            if not closed:
                diags.append(
                    Diagnostic(
                        Severity.ERROR, "LEX", "unterminated block comment", start
                    )
                )
            continue

        start_line, start_col = line, col
        if ch == "-" and i + 1 < n and text[i + 1] == ">":
            advance(2)
            tokens.append(
                Token(TokenKind.ARROW, "->", start_line, start_col, line, col - 1)
            )
            continue
        if ch == "~" and i + 1 < n and text[i + 1] == ">":
            advance(2)
            tokens.append(
                Token(TokenKind.DASH_ARROW, "~>", start_line, start_col, line, col - 1)
            )
            continue
        if ch in _PUNCT:
            advance()
            tokens.append(
                Token(_PUNCT[ch], ch, start_line, start_col, line, col - 1)
            )
            continue
        if ch == '"':
            advance()
            buf = []
            terminated = False
            while i < n:
                c = text[i]
                if c == '"':
                    advance()
                    terminated = True
                    break
                if c == "\n":
                    break
                if c == "\\" and i + 1 < n:
                    advance()
                    esc = text[i]
                    buf.append({"n": "\n", "t": "\t"}.get(esc, esc))
                    advance()
                    continue
                buf.append(c)
                advance()
            if not terminated:
                diags.append(
                    Diagnostic(
                        Severity.ERROR,
                        "LEX",
                        "unterminated string literal",
                        SourceSpan(file, start_line, start_col, line, col),
                    )
                )
            tokens.append(
                Token(
                    TokenKind.STRING,
                    "".join(buf),
                    start_line,
                    start_col,
                    line,
                    max(start_col, col - 1),
                )
            )
            continue
        if "0" <= ch <= "9":  # str.isdigit also accepts digits such as "²"
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            word = text[i:j]
            advance(j - i)
            tokens.append(
                Token(TokenKind.INT, word, start_line, start_col, line, col - 1)
            )
            continue
        if ch.isalpha() and ch.isascii():
            j = i
            while j < n and (text[j].isalnum() and text[j].isascii() or text[j] == "_"):
                j += 1
            word = text[i:j]
            advance(j - i)
            kind = TokenKind.KEYWORD if word in KEYWORDS else TokenKind.IDENT
            tokens.append(
                Token(kind, word, start_line, start_col, line, col - 1)
            )
            continue
        diags.append(
            Diagnostic(
                Severity.ERROR,
                "LEX",
                f"unexpected character {ch!r}",
                SourceSpan(file, start_line, start_col, start_line, start_col),
            )
        )
        advance()

    tokens.append(Token(TokenKind.EOF, "", line, col, line, col))
    return tokens, diags


# -- the recursive walks that ``tmkit.graph`` replaced -------------------
#
# Each is the old implementation, kept unchanged as the oracle for the
# iterative code: equal results on inputs shallow enough to recurse.


def reference_containment_cycles(events: list[EventDef]) -> list[Diagnostic]:
    """The parser's old ``EVENT_CYCLE`` check: a recursive DFS that copies
    its path at every step."""
    diags: list[Diagnostic] = []
    by_id = {e.id: e for e in events}
    state: dict[str, int] = {}

    def visit(eid: str, path: list[str]) -> None:
        if state.get(eid) == 2:
            return
        if eid in path:
            cycle = " -> ".join(path[path.index(eid):] + [eid])
            diags.append(
                Diagnostic(
                    Severity.ERROR,
                    "EVENT_CYCLE",
                    f"event containment cycle: {cycle}",
                    by_id[eid].span or SourceSpan("<model>", 1, 1, 1, 1),
                )
            )
            return
        ev = by_id.get(eid)
        if ev is None:
            return
        for sub in ev.subevents:
            visit(sub, path + [eid])
        state[eid] = 2

    for event in events:
        visit(event.id, [])
    return diags


def reference_flatten(events: list[EventDef], root: str) -> set[ElementId]:
    """The old ``behavior.flatten``: recursion over every path, so shared
    sub-events are revisited (exponential on diamonds). Its
    ``ContainmentCycle`` message names the whole path from the root."""
    by_id = {e.id: e for e in events}
    if root not in by_id:
        raise UnknownEvent(f"no event '{root}' declared")
    out: set[ElementId] = set()
    on_path: list[str] = []

    def visit(eid: str) -> None:
        if eid in on_path:
            cycle = " -> ".join(on_path + [eid])
            raise ContainmentCycle(f"event containment cycle: {cycle}")
        if eid not in by_id:
            raise UnknownEvent(f"no event '{eid}' declared")
        on_path.append(eid)
        out.update(by_id[eid].region)
        for sub in by_id[eid].subevents:
            visit(sub)
        on_path.pop()

    visit(root)
    return out


def reference_iter_thimacs(model: Model) -> list:
    """The old recursive ``Model.iter_thimacs``."""
    out = []

    def walk(tid: ElementId) -> None:
        t = model.thimacs[tid]
        out.append(t)
        for c in t.children:
            walk(c)

    for r in model.roots:
        walk(r)
    return out


@dataclass
class _ReferencePath:
    segments: list[str]
    span: SourceSpan


@dataclass
class _ReferenceFlow:
    paths: list[_ReferencePath]
    span: SourceSpan


@dataclass
class _ReferenceTrigger:
    src: _ReferencePath
    dst: _ReferencePath
    span: SourceSpan


def _token_span(tok: Token, file: str) -> SourceSpan:
    return SourceSpan(file, tok.line, tok.col, tok.end_line, tok.end_col)


class ReferenceParser:
    """The recursive-descent parser over ``Token`` records that the
    columnar parser replaced, with its older recursive ``thimac_decl``:
    the oracle for ``tmkit.dsl.parser._Parser``."""

    def __init__(self, tokens: list[Token], file: str) -> None:
        self.tokens = tokens
        self.file = file
        self.pos = 0
        self.diagnostics: list[Diagnostic] = []
        self.thimacs: list[_ThimacDecl] = []
        self.flows: list[_ReferenceFlow] = []
        self.triggers: list[_ReferenceTrigger] = []
        self.events: list[_EventDecl] = []
        self.chronology: Chronology | None = None

    # token helpers

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def at(self, kind: TokenKind, text: str | None = None) -> bool:
        return self.cur.kind is kind and (text is None or self.cur.text == text)

    def at_keyword(self, *words: str) -> bool:
        return self.cur.kind is TokenKind.KEYWORD and self.cur.text in words

    def take(self) -> Token:
        tok = self.cur
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    def error(self, message: str, span: SourceSpan | None = None) -> None:
        self.diagnostics.append(
            Diagnostic(
                Severity.ERROR, "SYNTAX", message,
                span or _token_span(self.cur, self.file),
            )
        )

    def expect(self, kind: TokenKind, what: str) -> Token | None:
        if self.cur.kind is kind:
            return self.take()
        self.error(f"expected {what}, found {self.cur.kind.value} '{self.cur.text}'")
        return None

    def integer(self, tok: Token) -> int | None:
        limit = sys.get_int_max_str_digits()  # 0: no limit
        if limit and len(tok.text) > limit:
            self.error(
                f"integer literal too long ({len(tok.text)} digits)",
                _token_span(tok, self.file),
            )
            return None
        return int(tok.text)

    def sync_statement(self) -> None:
        """Skip to just past the next ';' (or stop before '}'/EOF)."""
        while True:
            if self.cur.kind is TokenKind.SEMI:
                self.take()
                return
            if self.cur.kind in (TokenKind.RBRACE, TokenKind.EOF):
                return
            self.take()

    # grammar

    def parse(self) -> None:
        while self.cur.kind is not TokenKind.EOF:
            if self.at_keyword("thimac"):
                decl = self.thimac_decl()
                if decl:
                    self.thimacs.append(decl)
            elif self.at_keyword("flow"):
                self.flow_stmt()
            elif self.at_keyword("trigger", "memory"):
                self.dash_stmt()
            elif self.at_keyword("event"):
                self.event_decl()
            elif self.at_keyword("chronology"):
                self.chrono_decl()
            else:
                self.error(
                    "expected a declaration (thimac, flow, trigger, event, "
                    f"chronology), found '{self.cur.text}'"
                )
                self.sync_statement()
                if self.cur.kind is TokenKind.RBRACE:
                    self.take()

    def annot(self) -> int | None:
        if self.cur.kind is TokenKind.AT:
            self.take()
            tok = self.expect(TokenKind.INT, "an integer annotation")
            return self.integer(tok) if tok else None
        return None

    def thimac_decl(self) -> _ThimacDecl | None:
        self.take()  # thimac
        name_tok = self.expect(TokenKind.IDENT, "a thimac name")
        if name_tok is None:
            self.sync_statement()
            return None
        annotation = self.annot()
        decl = _ThimacDecl(name_tok.text, annotation, _token_span(name_tok, self.file))
        if self.expect(TokenKind.LBRACE, "'{'") is None:
            self.sync_statement()
            return decl
        while not self.at(TokenKind.RBRACE) and self.cur.kind is not TokenKind.EOF:
            if self.at_keyword("stage"):
                stage = self.stage_decl()
                if stage:
                    decl.stages.append(stage)
            elif self.at_keyword("thimac"):
                child = self.thimac_decl()
                if child:
                    decl.children.append(child)
            else:
                self.error(
                    f"expected 'stage' or 'thimac' inside thimac body, "
                    f"found '{self.cur.text}'"
                )
                self.sync_statement()
        self.expect(TokenKind.RBRACE, "'}'")
        return decl

    def stage_decl(self) -> _StageDecl | None:
        self.take()  # stage
        tok = self.cur
        if tok.kind is TokenKind.KEYWORD and tok.text in STAGE_KIND_NAMES:
            self.take()
            annotation = self.annot()
            self.expect(TokenKind.SEMI, "';'")
            return _StageDecl(tok.text, annotation, _token_span(tok, self.file))
        self.error(
            f"expected a stage kind ({', '.join(STAGE_KIND_NAMES)}), "
            f"found '{tok.text}'"
        )
        self.sync_statement()
        return None

    def path(self) -> _ReferencePath | None:
        first = self.cur
        segments: list[str] = []
        if first.kind is TokenKind.IDENT:
            segments.append(self.take().text)
        elif first.kind is TokenKind.KEYWORD and first.text in STAGE_KIND_NAMES:
            self.error("a path must start with a thimac name, not a stage kind")
            self.take()
            return None
        else:
            self.error(f"expected a path, found '{first.text}'")
            return None
        last = first
        while self.cur.kind is TokenKind.DOT:
            self.take()
            seg = self.cur
            if seg.kind is TokenKind.IDENT or (
                seg.kind is TokenKind.KEYWORD and seg.text in STAGE_KIND_NAMES
            ):
                last = self.take()
                segments.append(last.text)
                if last.text in STAGE_KIND_NAMES and self.cur.kind is TokenKind.DOT:
                    self.error("a stage kind may only end a path")
                    return None
            else:
                self.error(f"expected a path segment, found '{seg.text}'")
                return None
        span = SourceSpan(
            self.file, first.line, first.col, last.end_line, last.end_col
        )
        return _ReferencePath(segments, span)

    def flow_stmt(self) -> None:
        start = self.take()  # flow
        paths: list[_ReferencePath] = []
        p = self.path()
        if p is None:
            self.sync_statement()
            return
        paths.append(p)
        hops = 0
        while self.cur.kind is TokenKind.ARROW:
            self.take()
            p = self.path()
            if p is None:
                self.sync_statement()
                return
            paths.append(p)
            hops += 1
        if hops == 0:
            self.error("a flow statement needs at least one '->'")
            self.sync_statement()
            return
        self.expect(TokenKind.SEMI, "';'")
        self.flows.append(_ReferenceFlow(paths, _token_span(start, self.file)))

    def dash_stmt(self) -> None:
        keyword = self.take()  # trigger | memory
        src = self.path()
        if src is None:
            self.sync_statement()
            return
        if self.cur.kind is not TokenKind.DASH_ARROW:
            self.error(f"expected '~>' in {keyword.text} statement")
            self.sync_statement()
            return
        self.take()
        dst = self.path()
        if dst is None:
            self.sync_statement()
            return
        self.expect(TokenKind.SEMI, "';'")
        span = _token_span(keyword, self.file)
        if keyword.text == "trigger":
            self.triggers.append(_ReferenceTrigger(src, dst, span))
        else:
            # a memory is reported where it is read, and never lowered
            self.diagnostics.append(
                Diagnostic(
                    Severity.ERROR,
                    "MEMORY_UNSUPPORTED",
                    "the 'memory' relation is reserved notation with no defined "
                    "semantics; use a trigger instead",
                    span,
                )
            )

    def event_decl(self) -> None:
        self.take()  # event
        name_tok = self.expect(TokenKind.IDENT, "an event name")
        if name_tok is None:
            self.sync_statement()
            return
        label = None
        if self.cur.kind is TokenKind.STRING:
            label = self.take().text
        if self.expect(TokenKind.LBRACE, "'{'") is None:
            self.sync_statement()
            return
        region: list[_ReferencePath] = []
        repeat: int | None = None
        contains: list[str] = []
        if self.at_keyword("region"):
            self.take()
            if self.expect(TokenKind.LBRACE, "'{'") is not None:
                while not self.at(TokenKind.RBRACE) and self.cur.kind is not TokenKind.EOF:
                    p = self.path()
                    if p is None:
                        self.sync_statement()
                        continue
                    region.append(p)
                    self.expect(TokenKind.SEMI, "';'")
                self.expect(TokenKind.RBRACE, "'}'")
        else:
            self.error("an event body must start with a region block")
        if self.at_keyword("repeat"):
            rep_tok = self.take()
            count = self.expect(TokenKind.INT, "a repeat count")
            if count is not None:
                repeat = self.integer(count)
                if repeat is not None and repeat < 1:
                    self.error(
                        "repeat count must be at least 1",
                        _token_span(rep_tok, self.file),
                    )
                    repeat = None
            self.expect(TokenKind.SEMI, "';'")
        if self.at_keyword("contains"):
            self.take()
            tok = self.expect(TokenKind.IDENT, "an event name")
            if tok is not None:
                contains.append(tok.text)
            while self.cur.kind is TokenKind.COMMA:
                self.take()
                tok = self.expect(TokenKind.IDENT, "an event name")
                if tok is not None:
                    contains.append(tok.text)
            self.expect(TokenKind.SEMI, "';'")
        self.expect(TokenKind.RBRACE, "'}'")
        self.events.append(
            _EventDecl(
                name_tok.text, label, region, repeat, contains,
                _token_span(name_tok, self.file),
            )
        )

    def chrono_decl(self) -> None:
        self.take()  # chronology
        if self.chronology is None:
            self.chronology = Chronology()
        chrono = self.chronology
        if self.expect(TokenKind.LBRACE, "'{'") is None:
            self.sync_statement()
            return
        while not self.at(TokenKind.RBRACE) and self.cur.kind is not TokenKind.EOF:
            src = self.expect(TokenKind.IDENT, "an event name")
            if src is None:
                self.sync_statement()
                continue
            dst = None
            if self.cur.kind is TokenKind.ARROW:
                self.take()
                dst_tok = self.expect(TokenKind.IDENT, "an event name")
                if dst_tok is not None:
                    dst = dst_tok.text
            self.expect(TokenKind.SEMI, "';'")
            if chrono.span is None:
                chrono.span = _token_span(src, self.file)
            if dst is None:
                chrono.add_node(src.text)
            else:
                chrono.add_edge(src.text, dst)
        self.expect(TokenKind.RBRACE, "'}'")


class ReferenceLowering(_Lowering):
    """Lowering with the old recursive ``declare_thimacs`` and its own
    flow and trigger loops over the reference statement records, so that
    a fault in ``_Lowering.lower_edges`` shows as a difference."""

    def declare_thimacs(self) -> None:
        def declare(decl: _ThimacDecl, parent: int | None) -> None:
            try:
                tid = self.model.add_thimac(
                    decl.name, parent, decl.annotation, decl.span
                )
            except DuplicateName as exc:
                self.diag("DUPLICATE_DEF", str(exc), decl.span)
                return
            for stage in decl.stages:
                kind = StageKind.from_name(stage.kind_name)
                try:
                    self.model.add_stage(tid, kind, stage.annotation, stage.span)
                except DuplicateStageKind as exc:
                    self.diag("DUPLICATE_DEF", str(exc), stage.span)
            for child in decl.children:
                declare(child, tid)

        for decl in self.p.thimacs:
            declare(decl, None)

    def lower_flows(self) -> None:
        for stmt in self.p.flows:
            for src_path, dst_path in zip(stmt.paths, stmt.paths[1:]):
                src = self.resolve(src_path)
                dst = self.resolve(dst_path)
                if src is not None and dst is not None:
                    self.diagnostics += add_edge(self.model, "->", src, dst, stmt.span)

    def lower_triggers(self) -> None:
        for stmt in self.p.triggers:
            src = self.resolve(stmt.src)
            dst = self.resolve(stmt.dst)
            if src is not None and dst is not None:
                self.diagnostics += add_edge(self.model, "~>", src, dst, stmt.span)


def reference_parse(text: str, file: str = "<input>") -> ParseResult:
    """``tmkit.dsl.parse`` built from the per-character tokenizer, the
    recursive-descent parser and the recursive lowering, so that no span
    comes from the code under test."""
    tokens, diagnostics = reference_tokenize(text, file)
    parser = ReferenceParser(tokens, file)
    parser.parse()
    lowering = ReferenceLowering(parser)
    lowering.declare_thimacs()
    lowering.lower_flows()
    lowering.lower_triggers()
    events = lowering.lower_events()
    diagnostics = sorted_diagnostics(
        diagnostics + parser.diagnostics + lowering.diagnostics
    )
    model = None if has_errors(diagnostics) else lowering.model
    return ParseResult(model, events, parser.chronology, diagnostics)
