"""Static TM models: thimacs, stages, flow and trigger edges.

A model is a forest of thimacs ("thing/machines"). Each thimac owns at
most one stage per kind; the transfer stage is a single bidirectional
port. Flow edges carry things between stages, trigger edges are causal
dashes. Models are append-only during construction and treated as
immutable afterwards; ``normalize`` returns a new model.

Thimacs and edges enter a ``Model`` only through its ``add_*`` methods,
which keep three indexes: thimacs by ``(parent, name)``, flows and
triggers by ``(from, to)``. Lookups (``find_thimac``, ``find_stage``,
``find_flow``) and the duplicate checks are one dict probe each, so
building and resolving a model is linear in its size. ``copy`` and
``normalize`` rebuild the indexes for the model they return.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from . import graph
from .diagnostics import SourceSpan
from .errors import (
    AmbiguousExpansion,
    DuplicateName,
    DuplicateStageKind,
    UnknownEndpoint,
    UnknownParent,
    UnknownThimac,
)

import enum

ElementId = int


class StageKind(enum.Enum):
    CREATE = "create"
    PROCESS = "process"
    RELEASE = "release"
    TRANSFER = "transfer"
    RECEIVE = "receive"

    @classmethod
    def from_name(cls, name: str) -> "StageKind":
        # arrive/accept are surface aliases for the receive stage
        if name in ("arrive", "accept"):
            return cls.RECEIVE
        return cls(name)


# Legal (from_kind, to_kind) pairs for flow edges within one machine.
LEGAL_SAME_MACHINE: frozenset[tuple[StageKind, StageKind]] = frozenset(
    {
        (StageKind.CREATE, StageKind.PROCESS),
        (StageKind.CREATE, StageKind.RELEASE),
        (StageKind.RECEIVE, StageKind.PROCESS),
        (StageKind.RECEIVE, StageKind.RELEASE),
        (StageKind.PROCESS, StageKind.RELEASE),
        (StageKind.RELEASE, StageKind.TRANSFER),
        (StageKind.TRANSFER, StageKind.RECEIVE),
    }
)

# Across machine boundaries only port-to-port movement is legal.
LEGAL_CROSS_MACHINE: frozenset[tuple[StageKind, StageKind]] = frozenset(
    {(StageKind.TRANSFER, StageKind.TRANSFER)}
)


def edge_legal(from_kind: StageKind, to_kind: StageKind, same_machine: bool) -> bool:
    table = LEGAL_SAME_MACHINE if same_machine else LEGAL_CROSS_MACHINE
    return (from_kind, to_kind) in table


@dataclass
class Thimac:
    id: ElementId
    name: str
    parent: ElementId | None
    stages: dict[StageKind, ElementId] = field(default_factory=dict)
    children: list[ElementId] = field(default_factory=list)
    annotation: int | None = None
    span: SourceSpan | None = None


@dataclass
class Stage:
    id: ElementId
    kind: StageKind
    thimac: ElementId
    annotation: int | None = None
    span: SourceSpan | None = None


@dataclass
class FlowEdge:
    id: ElementId
    from_stage: ElementId
    to_stage: ElementId
    # stages created by normalization while expanding this edge's chain
    implicit_segments: list[ElementId] = field(default_factory=list)
    span: SourceSpan | None = None


@dataclass
class TriggerEdge:
    id: ElementId
    from_stage: ElementId
    to_stage: ElementId
    span: SourceSpan | None = None


@dataclass
class MemoryEdge:
    """Reserved dashed relation; parsed but rejected by the validator."""

    id: ElementId
    from_stage: ElementId
    to_stage: ElementId
    span: SourceSpan | None = None


class Model:
    """Hierarchical TM graph with declaration-order element tables."""

    def __init__(self) -> None:
        self.roots: list[ElementId] = []
        self.thimacs: dict[ElementId, Thimac] = {}
        self.stages: dict[ElementId, Stage] = {}
        self.flows: list[FlowEdge] = []
        self.triggers: list[TriggerEdge] = []
        self.memories: list[MemoryEdge] = []
        self._next_id = 1
        self._thimac_index: dict[tuple[ElementId | None, str], ElementId] = {}
        self._flow_index: dict[tuple[ElementId, ElementId], FlowEdge] = {}
        self._trigger_index: dict[tuple[ElementId, ElementId], TriggerEdge] = {}

    # -- construction -------------------------------------------------

    def _alloc(self) -> ElementId:
        eid = self._next_id
        self._next_id += 1
        return eid

    def add_thimac(
        self,
        name: str,
        parent: ElementId | None = None,
        annotation: int | None = None,
        span: SourceSpan | None = None,
    ) -> ElementId:
        if parent is not None and parent not in self.thimacs:
            raise UnknownParent(f"no thimac with id {parent}")
        if (parent, name) in self._thimac_index:
            raise DuplicateName(
                f"thimac '{name}' already declared under "
                f"{'the model root' if parent is None else self.qualified_name(parent)}"
            )
        eid = self._alloc()
        self.thimacs[eid] = Thimac(eid, name, parent, annotation=annotation, span=span)
        siblings = self.roots if parent is None else self.thimacs[parent].children
        siblings.append(eid)
        self._thimac_index[parent, name] = eid
        return eid

    def add_stage(
        self,
        thimac: ElementId,
        kind: StageKind,
        annotation: int | None = None,
        span: SourceSpan | None = None,
    ) -> ElementId:
        if thimac not in self.thimacs:
            raise UnknownThimac(f"no thimac with id {thimac}")
        owner = self.thimacs[thimac]
        if kind in owner.stages:
            raise DuplicateStageKind(
                f"{self.qualified_name(thimac)} already has a {kind.value} stage"
            )
        eid = self._alloc()
        self.stages[eid] = Stage(eid, kind, thimac, annotation=annotation, span=span)
        owner.stages[kind] = eid
        return eid

    def _resolve_endpoint(self, ref: ElementId | str) -> ElementId:
        if isinstance(ref, str):
            sid = self.find_stage(ref)
            if sid is None:
                raise UnknownEndpoint(f"no stage at path '{ref}'")
            return sid
        if ref not in self.stages:
            raise UnknownEndpoint(f"no stage with id {ref}")
        return ref

    def add_flow(
        self,
        from_stage: ElementId | str,
        to_stage: ElementId | str,
        span: SourceSpan | None = None,
    ) -> ElementId:
        src = self._resolve_endpoint(from_stage)
        dst = self._resolve_endpoint(to_stage)
        if src == dst:
            raise UnknownEndpoint("flow endpoints must differ")
        existing = self.find_flow(src, dst)
        if existing is not None:
            # parallel duplicates collapse to the first edge
            return existing.id
        eid = self._alloc()
        edge = FlowEdge(eid, src, dst, span=span)
        self.flows.append(edge)
        self._flow_index[src, dst] = edge
        return eid

    def add_trigger(
        self,
        from_stage: ElementId | str,
        to_stage: ElementId | str,
        span: SourceSpan | None = None,
    ) -> ElementId:
        src = self._resolve_endpoint(from_stage)
        dst = self._resolve_endpoint(to_stage)
        existing = self._trigger_index.get((src, dst))
        if existing is not None:
            return existing.id
        eid = self._alloc()
        edge = TriggerEdge(eid, src, dst, span=span)
        self.triggers.append(edge)
        self._trigger_index[src, dst] = edge
        return eid

    def add_memory(
        self,
        from_stage: ElementId | str,
        to_stage: ElementId | str,
        span: SourceSpan | None = None,
    ) -> ElementId:
        src = self._resolve_endpoint(from_stage)
        dst = self._resolve_endpoint(to_stage)
        eid = self._alloc()
        self.memories.append(MemoryEdge(eid, src, dst, span=span))
        return eid

    def ensure_transfer(self, thimac: ElementId) -> ElementId:
        """Return the thimac's transfer port, materializing it if absent."""
        owner = self.thimacs[thimac]
        port = owner.stages.get(StageKind.TRANSFER)
        if port is None:
            port = self.add_stage(thimac, StageKind.TRANSFER)
        return port

    # -- lookup -------------------------------------------------------

    def find_flow(self, src: ElementId, dst: ElementId) -> FlowEdge | None:
        return self._flow_index.get((src, dst))

    def _thimac_at(self, segments: Sequence[str]) -> ElementId | None:
        current: ElementId | None = None
        for part in segments:
            current = self._thimac_index.get((current, part))
            if current is None:
                return None
        return current

    def find_thimac(self, path: str) -> ElementId | None:
        return self._thimac_at(path.split("."))

    def resolve(
        self, segments: Sequence[str]
    ) -> tuple[ElementId | None, StageKind | None]:
        """Map a path's dotted segments to ``(thimac id, stage kind)``.

        A trailing stage-kind segment gives the kind (``None`` without
        one); the segments before it walk the thimac tree from the
        roots. The id is ``None`` when those segments are empty or name
        no thimac. This is the one path resolver: the parser, JSON
        import and ``find_stage`` each add only their own diagnostics.
        """
        kind = _KIND_BY_NAME.get(segments[-1]) if segments else None
        if kind is not None:
            segments = segments[:-1]
        return self._thimac_at(segments), kind

    def find_stage(self, path: str) -> ElementId | None:
        """Resolve a dotted path to a stage id.

        A trailing stage-kind segment names that stage; a path ending at
        a thimac denotes its transfer port (box-to-box sugar) without
        materializing it.
        """
        tid, kind = self.resolve(path.split("."))
        if tid is None:
            return None
        return self.thimacs[tid].stages.get(StageKind.TRANSFER if kind is None else kind)

    def qualified_name(self, element: ElementId) -> str:
        if element in self.thimacs:
            parts = []
            cur: ElementId | None = element
            while cur is not None:
                t = self.thimacs[cur]
                parts.append(t.name)
                cur = t.parent
            return ".".join(reversed(parts))
        if element in self.stages:
            st = self.stages[element]
            return f"{self.qualified_name(st.thimac)}.{st.kind.value}"
        names = self.qualified_names([element])
        if element not in names:
            raise KeyError(f"unknown element id {element}")
        return names[element]

    def qualified_names(
        self, elements: Iterable[ElementId]
    ) -> dict[ElementId, str]:
        """The ``qualified_name`` of each of ``elements``; unknown ids are
        left out.

        Edges are named in one pass over the edge lists, however many
        are asked for, so a caller naming many elements asks once.
        """
        wanted = set(elements)
        names = {
            e: self.qualified_name(e)
            for e in wanted
            if e in self.thimacs or e in self.stages
        }
        for arrow, edges in (
            ("->", self.flows),
            ("~>", self.triggers),
            ("~~", self.memories),
        ):
            for edge in edges:
                if edge.id in wanted:
                    names[edge.id] = (
                        f"{self.qualified_name(edge.from_stage)}{arrow}"
                        f"{self.qualified_name(edge.to_stage)}"
                    )
        return names

    def same_machine(self, stage_a: ElementId, stage_b: ElementId) -> bool:
        return self.stages[stage_a].thimac == self.stages[stage_b].thimac

    def flow_legal(self, edge: FlowEdge) -> bool:
        return edge_legal(
            self.stages[edge.from_stage].kind,
            self.stages[edge.to_stage].kind,
            self.same_machine(edge.from_stage, edge.to_stage),
        )

    def iter_thimacs(self) -> list[Thimac]:
        """All thimacs in declaration (depth-first) order."""
        walk = graph.tree(self.roots, self.children)
        return [self.thimacs[tid] for tid, _, entering in walk if entering]

    def children(self, thimac: ElementId) -> list[ElementId]:
        return self.thimacs[thimac].children

    def stages_in_order(self) -> list[Stage]:
        return sorted(self.stages.values(), key=lambda s: s.id)

    def element_count(self) -> int:
        return (
            len(self.thimacs)
            + len(self.stages)
            + len(self.flows)
            + len(self.triggers)
            + len(self.memories)
        )

    def copy(self) -> "Model":
        """An independent copy: new element objects and containers, with
        the (immutable) source spans shared."""
        out = Model()
        out.roots = list(self.roots)
        out.thimacs = {
            t.id: Thimac(
                t.id,
                t.name,
                t.parent,
                dict(t.stages),
                list(t.children),
                t.annotation,
                t.span,
            )
            for t in self.thimacs.values()
        }
        out.stages = {
            s.id: Stage(s.id, s.kind, s.thimac, s.annotation, s.span)
            for s in self.stages.values()
        }
        out.flows = [
            FlowEdge(f.id, f.from_stage, f.to_stage, list(f.implicit_segments), f.span)
            for f in self.flows
        ]
        out.triggers = [
            TriggerEdge(t.id, t.from_stage, t.to_stage, t.span) for t in self.triggers
        ]
        out.memories = [
            MemoryEdge(m.id, m.from_stage, m.to_stage, m.span) for m in self.memories
        ]
        out._next_id = self._next_id
        out._thimac_index = dict(self._thimac_index)
        out._flow_index = {(f.from_stage, f.to_stage): f for f in out.flows}
        out._trigger_index = {(t.from_stage, t.to_stage): t for t in out.triggers}
        return out


STAGE_KIND_NAMES = {
    "create",
    "process",
    "release",
    "transfer",
    "receive",
    "arrive",
    "accept",
}
_KIND_BY_NAME = {name: StageKind.from_name(name) for name in STAGE_KIND_NAMES}


# -- normalization ----------------------------------------------------

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


def normalize(model: Model, strict: bool = True) -> Model:
    """Expand elided stage chains so every flow edge is legality-exact.

    Cross-machine flows gain the missing release/transfer/receive
    members; within-machine transfer skips gain the elided release or
    receive. Existing stages are reused, created ones are recorded in
    each expanded edge's ``implicit_segments``. Create stages are never
    inserted: flow origins must be explicit.

    With ``strict`` (the default) an edge admitting no legal expansion
    raises :class:`AmbiguousExpansion`; otherwise it is left in place
    for the validator to report.
    """
    out = model.copy()
    new_flows: list[FlowEdge] = []
    for edge in out.flows:
        if out.flow_legal(edge):
            new_flows.append(edge)
            continue
        src_stage = out.stages[edge.from_stage]
        dst_stage = out.stages[edge.to_stage]
        same = src_stage.thimac == dst_stage.thimac
        if same:
            inserts = _same_machine_inserts(src_stage.kind, dst_stage.kind)
            if inserts is None:
                if strict:
                    raise AmbiguousExpansion(
                        f"flow {out.qualified_name(edge.from_stage)} -> "
                        f"{out.qualified_name(edge.to_stage)} has no legal expansion"
                    )
                new_flows.append(edge)
                continue
            plan = [(k, src_stage.thimac) for k in inserts]
        else:
            chain = _cross_machine_chain(src_stage.kind, dst_stage.kind)
            if chain is None:
                if strict:
                    raise AmbiguousExpansion(
                        f"flow {out.qualified_name(edge.from_stage)} -> "
                        f"{out.qualified_name(edge.to_stage)} has no legal expansion"
                    )
                new_flows.append(edge)
                continue
            src_ins, dst_ins = chain
            plan = [(k, src_stage.thimac) for k in src_ins]
            plan += [(k, dst_stage.thimac) for k in dst_ins]

        created: list[ElementId] = []
        chain_ids = [edge.from_stage]
        for kind, owner in plan:
            sid = out.thimacs[owner].stages.get(kind)
            if sid is None:
                sid = out.add_stage(owner, kind)
                created.append(sid)
            chain_ids.append(sid)
        chain_ids.append(edge.to_stage)

        for a, b in zip(chain_ids, chain_ids[1:]):
            new_flows.append(
                FlowEdge(
                    out._alloc(),
                    a,
                    b,
                    implicit_segments=list(created),
                    span=edge.span,
                )
            )
    # expansions may recreate edges declared elsewhere; keep the first
    out.flows = []
    out._flow_index = {}
    for flow in new_flows:
        key = (flow.from_stage, flow.to_stage)
        if key not in out._flow_index:
            out._flow_index[key] = flow
            out.flows.append(flow)
    return out


def is_normalized(model: Model) -> bool:
    """True iff every flow edge is already in the legality matrix."""
    return all(model.flow_legal(edge) for edge in model.flows)


# -- structural equality ----------------------------------------------


def _signature(model: Model):
    thimacs = {model.qualified_name(t.id) for t in model.thimacs.values()}
    stages = {
        (model.qualified_name(s.thimac), s.kind.value) for s in model.stages.values()
    }
    flows = {
        (model.qualified_name(f.from_stage), model.qualified_name(f.to_stage))
        for f in model.flows
    }
    triggers = {
        (model.qualified_name(t.from_stage), model.qualified_name(t.to_stage))
        for t in model.triggers
    }
    memories = {
        (model.qualified_name(m.from_stage), model.qualified_name(m.to_stage))
        for m in model.memories
    }
    return thimacs, stages, flows, triggers, memories


def model_equal(a: Model, b: Model) -> bool:
    """Structural equality up to element ids, edge order, and provenance.

    Thimacs are matched by qualified name, stages by (owner, kind), and
    edges by their matched endpoints; normalization provenance and
    annotations do not participate.
    """
    return _signature(a) == _signature(b)
