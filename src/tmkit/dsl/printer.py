"""Canonical pretty-printer for parsed models."""

from __future__ import annotations

from .. import graph
from ..behavior import Chronology, EventDef
from ..core import Model


def _quote(label: str) -> str:
    """``label`` as a DSL string literal, which the lexer reads back as is."""
    escaped = label.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{escaped}"'


def _annot(value: int | None) -> str:
    return f" @{value}" if value is not None else ""


def _thimacs(model: Model) -> list[str]:
    out: list[str] = []
    for tid, depth, entering in graph.tree(model.roots, model.children):
        pad = "  " * depth
        if not entering:
            out.append(f"{pad}}}")
            continue
        thimac = model.thimacs[tid]
        out.append(f"{pad}thimac {thimac.name}{_annot(thimac.annotation)} {{")
        for sid in thimac.stages.values():
            stage = model.stages[sid]
            out.append(f"{pad}  stage {stage.kind._value_}{_annot(stage.annotation)};")
    return out


def format_parts(
    model: Model,
    events: list[EventDef] | None = None,
    chronology: Chronology | None = None,
) -> str:
    """Deterministic one-statement-per-line rendering of a model."""
    events = events or []
    out = _thimacs(model)
    for flow in model.flows:
        out.append(
            f"flow {model.qualified_name(flow.from_stage)} -> "
            f"{model.qualified_name(flow.to_stage)};"
        )
    for trig in model.triggers:
        out.append(
            f"trigger {model.qualified_name(trig.from_stage)} ~> "
            f"{model.qualified_name(trig.to_stage)};"
        )
    for event in events:
        head = f"event {event.id}"
        if event.label is not None:
            head += f" {_quote(event.label)}"
        out.append(head + " {")
        out.append("  region {")
        for name in sorted(model.qualified_name(sid) for sid in event.region):
            out.append(f"    {name};")
        out.append("  }")
        if event.multiplicity != 1:
            out.append(f"  repeat {event.multiplicity};")
        if event.subevents:
            out.append(f"  contains {', '.join(event.subevents)};")
        out.append("}")
    if chronology is not None:
        out.append("chronology {")
        # bare node statements first so re-parsing keeps node order
        for node in chronology.nodes:
            out.append(f"  {node};")
        for src, dst in chronology.edges:
            out.append(f"  {src} -> {dst};")
        out.append("}")
    if not out:
        return ""
    return "\n".join(out) + "\n"


def format(result) -> str:  # noqa: A001 - the operation is named format
    """Canonical source text for a successful parse result."""
    if result.model is None:
        raise ValueError("cannot format a parse result without a model")
    return format_parts(result.model, result.events, result.chronology)
