"""Behavioral layer: event regions, containment, recurrence, chronology.

An event is represented by its region: the set of static-model stages
over which it occurs. Edges belong to a region implicitly, whenever
both endpoints do. Time is logical: an event instance's tick is its
position in the executed order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import graph
from .core import ElementId, Model
from .diagnostics import Diagnostic, Severity, SourceSpan
from .errors import ContainmentCycle, NotAPermutation, UnknownEvent


@dataclass
class EventDef:
    id: str
    label: str | None = None
    region: set[ElementId] = field(default_factory=set)
    multiplicity: int = 1
    subevents: list[str] = field(default_factory=list)
    span: SourceSpan | None = None


@dataclass
class Chronology:
    """Directed acyclic graph over event ids; nodes keep first-mention order.

    ``add_node`` and ``add_edge`` skip what is already there in constant
    time, using sets built from the initial lists.
    """

    nodes: list[str] = field(default_factory=list)
    edges: list[tuple[str, str]] = field(default_factory=list)
    span: SourceSpan | None = None

    def __post_init__(self) -> None:
        self._node_set = set(self.nodes)
        self._edge_set = set(self.edges)

    def add_node(self, node: str) -> None:
        if node not in self._node_set:
            self._node_set.add(node)
            self.nodes.append(node)

    def add_edge(self, src: str, dst: str) -> None:
        self.add_node(src)
        self.add_node(dst)
        if (src, dst) not in self._edge_set:
            self._edge_set.add((src, dst))
            self.edges.append((src, dst))


def instances(event: EventDef) -> int:
    """Number of occurrences the simulator must execute for the event."""
    return event.multiplicity


def flatten(events: list[EventDef], root: str) -> set[ElementId]:
    """Union of the root event's region with all contained sub-regions.

    Each event is visited once. The first problem met depth first is
    raised: an undeclared event, or a containment cycle (named by its
    witness, as the parser's ``EVENT_CYCLE`` names it).
    """
    by_id = {e.id: e for e in events}
    out: set[ElementId] = set()

    def subevents(eid: str) -> list[str]:
        if eid not in by_id:
            raise UnknownEvent(f"no event '{eid}' declared")
        out.update(by_id[eid].region)
        return by_id[eid].subevents

    for cycle in graph.cycles([root], subevents):
        raise ContainmentCycle(f"event containment cycle: {' -> '.join(cycle)}")
    return out


def containment_cycles(events: list[EventDef]) -> list[list[str]]:
    """One ``[a, ..., a]`` witness per containment cycle among the events,
    depth first in declaration order; undeclared sub-events are skipped."""
    by_id = {e.id: e for e in events}

    def subevents(eid: str) -> list[str]:
        return by_id[eid].subevents if eid in by_id else []

    return list(graph.cycles(by_id, subevents))


def region_edges(model: Model, region: set[ElementId]) -> tuple[list, list]:
    """Flow and trigger edges induced by a region (both endpoints inside)."""
    flows = [
        f for f in model.flows if f.from_stage in region and f.to_stage in region
    ]
    triggers = [
        t for t in model.triggers if t.from_stage in region and t.to_stage in region
    ]
    return flows, triggers


def region_connected(model: Model, region: set[ElementId]) -> bool:
    members = {s for s in region if s in model.stages}
    flows, triggers = region_edges(model, members)
    pairs = [(e.from_stage, e.to_stage) for e in flows + triggers]
    return len(graph.components(members, pairs)) <= 1


def check_region(model: Model, event: EventDef) -> list[Diagnostic]:
    """Region well-formedness: members must exist, connectivity is advisory."""
    diags: list[Diagnostic] = []
    if not event.region:
        diags.append(
            Diagnostic(
                Severity.ERROR,
                "EVENT_EMPTY",
                f"event '{event.id}' has an empty region",
                span=event.span,
            )
        )
        return diags
    dangling = sorted(s for s in event.region if s not in model.stages)
    for missing in dangling:
        diags.append(
            Diagnostic(
                Severity.ERROR,
                "REGION_DANGLING",
                f"event '{event.id}' region references unknown element {missing}",
                span=event.span,
                element=missing,
            )
        )
    if not dangling and not region_connected(model, event.region):
        diags.append(
            Diagnostic(
                Severity.WARNING,
                "REGION_DISCONNECTED",
                f"event '{event.id}' region is not weakly connected",
                span=event.span,
            )
        )
    return diags


def topological_orders_contains(chronology: Chronology, order: list[str]) -> bool:
    """True iff ``order`` is a linear extension of the chronology."""
    if sorted(order) != sorted(chronology.nodes):
        raise NotAPermutation(
            "order is not a permutation of the chronology's nodes"
        )
    position = {node: i for i, node in enumerate(order)}
    return all(position[a] < position[b] for a, b in chronology.edges)


def region_coverage(model: Model, events: list[EventDef]) -> dict:
    """Static coverage report: model stages claimed by no event region."""
    covered: set[ElementId] = set()
    for e in events:
        covered.update(e.region)
    uncovered = sorted(
        model.qualified_name(s.id)
        for s in model.stages.values()
        if s.id not in covered
    )
    return {"uncovered": uncovered}
