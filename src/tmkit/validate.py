"""Semantic validation rules for models, events, and chronologies.

Every finding is a diagnostic with a stable rule code; errors block
simulation, warnings never do. FLOW_ILLEGAL tests each flow against the
stage-wiring rule ``core.LEGAL`` (``legality`` is ``core.edge_legal``
and ``legality_matrix`` a copy of the table). It is meant to be judged
on a normalized model: run :func:`tmkit.core.normalize` first unless
the point is to inspect the raw source form. It is also the only
legality check the simulator has: ``simulate`` refuses a model with
any error here, and so a model that is not normalized.

Rule codes
----------
FLOW_ILLEGAL         flow edge outside ``core.LEGAL`` (error)
ORIGIN_MISSING       flow component with no origin (error)
TRIGGER_SELF         trigger from a stage to itself (warning)
STAGE_UNREACHABLE    stage with no incident edges (warning)
REGION_DANGLING      event region references unknown element (error)
REGION_DISCONNECTED  region not weakly connected (warning)
EVENT_EMPTY          event with an empty region (error)
CHRONO_CYCLE         chronology has a directed cycle (error)
CHRONO_UNKNOWN_EVENT chronology references an undeclared event (error)
CHRONO_UNJUSTIFIED   chronology edge with unrelated regions (opt-in warning)
MEMORY_UNSUPPORTED   reserved "memory" construct used (error)
"""

from __future__ import annotations

from . import graph
from .behavior import Chronology, EventDef, check_region
from .core import LEGAL, Model, StageKind
from .core import edge_legal as legality
from .diagnostics import Diagnostic, Severity, sorted_diagnostics

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
    "CHRONO_UNJUSTIFIED",
    "MEMORY_UNSUPPORTED",
)


def legality_matrix() -> set[tuple[StageKind, StageKind, bool]]:
    """The full closed relation, for documentation and oracle tests."""
    return set(LEGAL)


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
    feeding = {f.from_stage for f in model.flows}
    pairs = [(f.from_stage, f.to_stage) for f in model.flows]
    diags = []
    for comp in graph.components(sorted({s for pair in pairs for s in pair}), pairs):
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
    touched = {s for e in model.edges.values() for s in (e.from_stage, e.to_stage)}
    diags = []
    for stage in model.stages_in_order():
        if stage.id not in touched:
            diags.append(
                Diagnostic(
                    Severity.WARNING,
                    "STAGE_UNREACHABLE",
                    f"stage {model.qualified_name(stage.id)} has no incident edges",
                    span=stage.span,
                    element=stage.id,
                )
            )
    return diags


def _check_memories(model: Model) -> list[Diagnostic]:
    return [
        Diagnostic(
            Severity.ERROR,
            "MEMORY_UNSUPPORTED",
            "the 'memory' relation is reserved notation with no defined "
            "semantics; use a trigger instead",
            span=m.span,
            element=m.id,
        )
        for m in model.memories
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


def _check_chronology_justified(
    model: Model, chronology: Chronology, events: list[EventDef]
) -> list[Diagnostic]:
    by_id = {e.id: e for e in events}
    diags = []
    for a, b in chronology.edges:
        ea, eb = by_id.get(a), by_id.get(b)
        if ea is None or eb is None:
            continue
        if ea.region & eb.region:
            continue
        linked = any(
            (e.from_stage in ea.region and e.to_stage in eb.region)
            or (e.from_stage in eb.region and e.to_stage in ea.region)
            for e in (*model.flows, *model.triggers)
        )
        if not linked:
            diags.append(
                Diagnostic(
                    Severity.WARNING,
                    "CHRONO_UNJUSTIFIED",
                    f"chronology edge {a} -> {b} joins regions with no "
                    "shared element or connecting edge",
                    span=chronology.span,
                )
            )
    return diags


def validate(
    model: Model,
    events: list[EventDef] | None = None,
    chronology: Chronology | None = None,
    *,
    lint_chronology: bool = False,
) -> list[Diagnostic]:
    """Run every rule; an empty result means the inputs are accepted.

    ``lint_chronology`` additionally warns about chronology edges whose
    regions share nothing (CHRONO_UNJUSTIFIED).
    """
    events = events or []
    diags: list[Diagnostic] = []
    diags += _check_flows(model)
    diags += _check_origins(model)
    diags += _check_triggers(model)
    diags += _check_reachability(model)
    diags += _check_memories(model)
    for event in events:
        diags += check_region(model, event)
    if chronology is not None:
        diags += _check_chronology(chronology, events)
        if lint_chronology:
            diags += _check_chronology_justified(model, chronology, events)
    return sorted_diagnostics(diags)


__all__ = [
    "RULE_CODES",
    "legality",
    "legality_matrix",
    "validate",
    "chronology_cycle",
]
