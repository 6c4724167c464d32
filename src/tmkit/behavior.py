"""Behavioral layer: event regions, containment, recurrence, chronology.

An event is represented by its region: the set of static-model stages
over which it occurs. Edges belong to a region implicitly, whenever
both endpoints do. An event may contain other events; both front ends
check that rule with ``check_containment``. Time is logical: an event
instance's tick is its position in the executed order.
"""

from __future__ import annotations

from . import graph
from .core import ElementId, Model
from .diagnostics import Diagnostic, Record, Severity, SourceSpan
from .errors import ContainmentCycle, NotAPermutation, UnknownEvent


class EventDef(Record):
    __slots__ = _fields = ("id", "label", "region", "multiplicity", "subevents", "span")

    def __init__(
        self, id: str, label: str | None = None, region: set[ElementId] | None = None,
        multiplicity: int = 1, subevents: list[str] | None = None,
        span: SourceSpan | None = None,
    ) -> None:
        self.id, self.label = id, label
        self.region = set() if region is None else region
        self.multiplicity = multiplicity
        self.subevents = [] if subevents is None else subevents
        self.span = span


class Chronology(Record):
    """Directed acyclic graph over event ids; nodes keep first-mention order.

    ``add_node`` and ``add_edge`` skip what is already there in constant
    time, using sets built from the initial lists; ``==`` compares the
    nodes, edges and span only.
    """

    __slots__ = ("nodes", "edges", "span", "_node_set", "_edge_set")
    _fields = ("nodes", "edges", "span")

    def __init__(
        self, nodes: list[str] | None = None,
        edges: list[tuple[str, str]] | None = None, span: SourceSpan | None = None,
    ) -> None:
        self.nodes = [] if nodes is None else nodes
        self.edges = [] if edges is None else edges
        self.span = span
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


def check_containment(events: list[EventDef], undeclared_code: str) -> list[Diagnostic]:
    """The containment rule, as both front ends check it: an
    ``undeclared_code`` error per undeclared sub-event, then one
    ``EVENT_CYCLE`` per containment cycle, depth first in declaration
    order; each at its event's span."""
    by_id = {e.id: e for e in events}
    diags = [
        Diagnostic(
            Severity.ERROR, undeclared_code,
            f"event '{e.id}' contains undeclared event '{sub}'", e.span,
        )
        for e in events for sub in e.subevents if sub not in by_id
    ]

    def subevents(eid: str) -> list[str]:
        return by_id[eid].subevents if eid in by_id else []

    for cycle in graph.cycles(by_id, subevents):
        message = f"event containment cycle: {' -> '.join(cycle)}"
        diags.append(Diagnostic(Severity.ERROR, "EVENT_CYCLE", message, by_id[cycle[0]].span))
    return diags


def region_edges(model: Model, region: set[ElementId]) -> tuple[list, list]:
    """Flow and trigger edges induced by a region (both endpoints inside).

    It walks the out-edges of the region's members through the model's
    per-source indexes, so it costs the number of edges leaving the
    region, not the number in the model. Each source's flows come in
    model order, the sources in the region's iteration order; the
    triggers come in model order, which is ascending id.
    """
    flows, triggers = (
        [e for s in region if s in index for d, e in index[s].items() if d in region]
        for index in (model.flows_from, model.triggers_from)
    )
    triggers.sort(key=lambda t: t.id)
    return flows, triggers


def check_region(model: Model, event: EventDef) -> list[Diagnostic]:
    """Region well-formedness: members must exist, connectivity is advisory."""
    if not event.region:
        return [
            Diagnostic(
                Severity.ERROR,
                "EVENT_EMPTY",
                f"event '{event.id}' has an empty region",
                span=event.span,
            )
        ]
    diags = [
        Diagnostic(
            Severity.ERROR,
            "REGION_DANGLING",
            f"event '{event.id}' region references unknown element {missing}",
            span=event.span,
            element=missing,
        )
        for missing in sorted(s for s in event.region if s not in model.stages)
    ]
    if diags:
        return diags
    flows, triggers = region_edges(model, event.region)
    pairs = [(e.from_stage, e.to_stage) for e in flows + triggers]
    # the region is connected when its first component is the whole of it
    if len(next(graph.components(event.region, pairs))) < len(event.region):
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
