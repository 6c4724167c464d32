"""Semantic validation rules for models, events, and chronologies.

Every finding is a diagnostic with a stable rule code; errors block
simulation, warnings never do. FLOW_ILLEGAL tests each flow against the
stage-wiring rule ``core.LEGAL``, the one legality table (``legality``
is ``core.edge_legal``, its membership test). It is meant to be judged
on a normalized model: run :func:`tmkit.core.normalize` first unless
the point is to inspect the raw source form. It is also the only
legality check the simulator has: ``simulate`` refuses a model with
any error here, and so a model that is not normalized.

Rule codes
----------
FLOW_ILLEGAL         flow edge outside ``core.LEGAL``, a self-flow too (error)
ORIGIN_MISSING       flow component with no origin (error)
TRIGGER_SELF         trigger from a stage to itself (warning)
STAGE_UNREACHABLE    stage with no incident edges (warning)
REGION_DANGLING      event region references unknown element (error)
REGION_DISCONNECTED  region not weakly connected (warning)
EVENT_EMPTY          event with an empty region (error)
CHRONO_CYCLE         chronology has a directed cycle (error)
CHRONO_UNKNOWN_EVENT chronology references an undeclared event (error)

``validate`` stores its verdict on the model, keyed by the model's
change counter (see :mod:`tmkit.core`) and by what the event and
chronology rules read: each event's id, region and span, and the
chronology's nodes, edges and span. While the key matches, it runs no
rule and returns copies of the stored diagnostics, so ``simulate``
after ``validate``, or ``simulate`` again, checks its inputs once. The
key holds the regions and the chronology by value, so an edit made in
place to either is seen. A call with other events or another
chronology, such as ``validate(model)`` and then ``simulate(model,
events, chronology)``, runs every rule again.

MEMORY_UNSUPPORTED is no rule here: the parser and ``from_json`` report
a ``memory`` relation where they read it, and no model holds one.
"""

from __future__ import annotations

from operator import attrgetter

from . import behavior, graph
from .behavior import Chronology, EventDef
from .core import Model, StageKind
from .core import edge_legal as legality
from .diagnostics import Diagnostic, Severity, collector_paused, sorted_diagnostics

RULE_CODES = (
    "FLOW_ILLEGAL",
    "ORIGIN_MISSING",
    "TRIGGER_SELF",
    "STAGE_UNREACHABLE",
    "REGION_DANGLING",
    "REGION_DISCONNECTED",
    "EVENT_EMPTY",
    "CHRONO_CYCLE",
    "CHRONO_UNKNOWN_EVENT",
)


_to_stage = attrgetter("to_stage")


def _check_flows(model: Model) -> list[Diagnostic]:
    diags = []
    for edge in model.flows:
        if not model.flow_legal(edge):
            src = model.stages[edge.from_stage]
            dst = model.stages[edge.to_stage]
            same = src.thimac == dst.thimac
            diags.append(
                Diagnostic(
                    Severity.ERROR,
                    "FLOW_ILLEGAL",
                    f"flow {model.qualified_name(edge.from_stage)} -> "
                    f"{model.qualified_name(edge.to_stage)} is not a legal "
                    f"{'within-machine' if same else 'cross-machine'} step",
                    span=edge.span,
                    element=edge.id,
                )
            )
    return diags


def _check_origins(model: Model) -> list[Diagnostic]:
    """Each connected flow component needs an origin.

    An origin is a create stage, an inbound transfer port of a root
    thimac (a system-boundary port that feeds the component), or a
    trigger target (activity injected by a dashed arrow, the way
    embedded data is extracted from a processed thing).
    """
    trigger_targets = {t.to_stage for t in model.triggers}
    feeding = model.flows_from.keys()  # each key has a flow
    pairs = [(f.from_stage, f.to_stage) for f in model.flows]
    ends = feeding | set(map(_to_stage, model.flows))
    diags = []
    for comp in graph.components(sorted(ends), pairs):
        has_origin = False
        for sid in comp:
            stage = model.stages[sid]
            if stage.kind is StageKind.CREATE:
                has_origin = True
                break
            if (
                stage.kind is StageKind.TRANSFER
                and model.thimacs[stage.thimac].parent is None
                and sid in feeding
            ):
                has_origin = True
                break
            if sid in trigger_targets:
                has_origin = True
                break
        if not has_origin:
            anchor = min(comp)
            diags.append(
                Diagnostic(
                    Severity.ERROR,
                    "ORIGIN_MISSING",
                    "flow component around "
                    f"{model.qualified_name(anchor)} has no create stage, "
                    "boundary transfer, or trigger target to originate flow",
                    span=model.stages[anchor].span,
                    element=anchor,
                )
            )
    return diags


def _check_triggers(model: Model) -> list[Diagnostic]:
    diags = []
    for t in model.triggers:
        if t.from_stage == t.to_stage:
            diags.append(
                Diagnostic(
                    Severity.WARNING,
                    "TRIGGER_SELF",
                    f"trigger loops on {model.qualified_name(t.from_stage)}",
                    span=t.span,
                    element=t.id,
                )
            )
    return diags


def _check_reachability(model: Model) -> list[Diagnostic]:
    # each key of a by-source index has an edge
    touched = model.flows_from.keys() | model.triggers_from.keys()
    touched.update(map(_to_stage, model.edges.values()))
    return [
        Diagnostic(
            Severity.WARNING,
            "STAGE_UNREACHABLE",
            f"stage {model.qualified_name(sid)} has no incident edges",
            span=model.stages[sid].span,
            element=sid,
        )
        for sid in sorted(model.stages.keys() - touched)
    ]


def chronology_cycle(chronology: Chronology) -> list[str] | None:
    """Return one directed cycle as a node list, or None if acyclic: the
    first witness of a depth-first search from the nodes in order."""
    adj: dict[str, list[str]] = {n: [] for n in chronology.nodes}
    for a, b in chronology.edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, [])
    return next(graph.cycles(adj, adj.__getitem__), None)


def _check_chronology(
    chronology: Chronology, events: list[EventDef]
) -> list[Diagnostic]:
    diags = []
    declared = {e.id for e in events}
    for node in chronology.nodes:
        if node not in declared:
            diags.append(
                Diagnostic(
                    Severity.ERROR,
                    "CHRONO_UNKNOWN_EVENT",
                    f"chronology references undeclared event '{node}'",
                    span=chronology.span,
                )
            )
    cycle = chronology_cycle(chronology)
    if cycle:
        diags.append(
            Diagnostic(
                Severity.ERROR,
                "CHRONO_CYCLE",
                "chronology has a directed cycle: " + " -> ".join(cycle),
                span=chronology.span,
            )
        )
    return diags


@collector_paused
def validate(
    model: Model,
    events: list[EventDef] | None = None,
    chronology: Chronology | None = None,
) -> list[Diagnostic]:
    """Run every rule; an empty result means the inputs are accepted.

    No rule runs while the verdict stored on the model has the same key
    (see the module docstring); a call with other inputs replaces it.
    """
    events = events or []
    key = (
        model._changes,
        [(e.id, frozenset(e.region), e.span) for e in events],
        None
        if chronology is None
        else (list(chronology.nodes), list(chronology.edges), chronology.span),
    )
    stored = model._verdict
    if stored is None or stored[0] != key:
        found = [
            *_check_flows(model),
            *_check_origins(model),
            *_check_triggers(model),
            *_check_reachability(model),
        ]
        for event in events:
            found += behavior.check_region(model, event)
        if chronology is not None:
            found += _check_chronology(chronology, events)
        stored = model._verdict = (key, tuple(sorted_diagnostics(found)))
    # copies, so a caller who edits a diagnostic leaves the verdict as it was
    return [
        Diagnostic(d.severity, d.code, d.message, d.span, d.element)
        for d in stored[1]
    ]


__all__ = [
    "RULE_CODES",
    "legality",
    "validate",
    "chronology_cycle",
]
