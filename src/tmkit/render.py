"""Graphviz DOT generation for models, event overlays, and chronologies.

Thimacs map to nested clusters, stages to nodes, flows to solid edges,
and triggers to dashed edges. Event regions generally cut across
cluster boundaries and DOT clusters cannot overlap, so overlays are
drawn by filling the region's nodes and adding a legend instead.
Output is deterministic: declaration order in, identical bytes out.
Each stage name is quoted once per render, into a table that the node,
flow and trigger lines all read.
"""

from __future__ import annotations

import enum
import itertools

from . import graph
from .behavior import Chronology, EventDef
from .core import ElementId, Model
from .diagnostics import Record
from .errors import UnknownHighlightEvent

_FILL = "lightgoldenrod1"


class RenderMode(enum.Enum):
    STATIC = "static"
    EVENT_OVERLAY = "events"
    CHRONOLOGY = "chronology"


class RenderOptions(Record):
    __slots__ = _fields = ("mode", "highlight", "simplified")

    def __init__(
        self, mode: RenderMode = RenderMode.STATIC, highlight: str | None = None,
        simplified: bool = False,
    ) -> None:
        self.mode, self.highlight, self.simplified = mode, highlight, simplified


def _escape(text: str) -> str:
    """``text`` as the inside of a DOT string that graphviz shows as is.

    The one DOT escaper: ``_quote`` and the multi-line labels, whose
    ``\\n`` and ``\\l`` line breaks are added after escaping, use it."""
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _quote(text: str) -> str:
    return f'"{_escape(text)}"'


def _stage_label(model: Model, stage_id: ElementId) -> str:
    stage = model.stages[stage_id]
    label = stage.kind._value_
    if stage.annotation is not None:
        label += f" @{stage.annotation}"
    return label


def _hidden_stages(model: Model) -> set[ElementId]:
    hidden: set[ElementId] = set()
    for flow in model.flows:
        hidden.update(flow.implicit_segments)
    return hidden


def _contracted_flows(
    model: Model, hidden: set[ElementId]
) -> list[tuple[ElementId, ElementId]]:
    """Flow endpoints with normalization-inserted stages walked through.

    From each flow out of a visible stage, the walk passes through hidden
    stages only; the visible stages it reaches (other than the flow's
    source) are the contracted targets, in depth-first preorder.
    """
    outgoing: dict[ElementId, list[ElementId]] = {}
    for flow in model.flows:
        outgoing.setdefault(flow.from_stage, []).append(flow.to_stage)

    def through_hidden(stage: ElementId) -> list[ElementId]:
        return outgoing.get(stage, []) if stage in hidden else []

    pairs: dict[tuple[ElementId, ElementId], None] = {}
    for flow in model.flows:
        if flow.from_stage in hidden:
            continue
        for dst in graph.preorder([flow.to_stage], through_hidden):
            if dst not in hidden and dst != flow.from_stage:
                pairs[flow.from_stage, dst] = None
    return list(pairs)


def _clusters(
    model: Model,
    hidden: set[ElementId],
    filled: set[ElementId],
    quoted: dict[ElementId, str],
) -> list[str]:
    """One nested DOT cluster per thimac, numbered in preorder; ``quoted``
    maps each stage id to its quoted name."""
    out: list[str] = []
    numbers = itertools.count()
    for tid, depth, entering in graph.tree(model.roots, model.children):
        pad = "  " * (depth + 1)
        if not entering:
            out.append(f"{pad}}}")
            continue
        thimac = model.thimacs[tid]
        out.append(f"{pad}subgraph cluster_{next(numbers)} {{")
        label = thimac.name
        if thimac.annotation is not None:
            label += f" @{thimac.annotation}"
        out.append(f"{pad}  label={_quote(label)};")
        for sid in thimac.stages.values():
            if sid in hidden:
                continue
            attrs = f"label={_quote(_stage_label(model, sid))}"
            if sid in filled:
                attrs += f", style=filled, fillcolor={_FILL}"
            out.append(f"{pad}  {quoted[sid]} [{attrs}];")
    return out


def render_dot(
    model: Model,
    events: list[EventDef] | None = None,
    chronology: Chronology | None = None,
    opts: RenderOptions | None = None,
) -> str:
    events = events or []
    opts = opts or RenderOptions()

    if opts.mode is RenderMode.CHRONOLOGY:
        return _render_chronology(events, chronology)

    filled: set[ElementId] = set()
    legend: list[str] = []
    if opts.mode is RenderMode.EVENT_OVERLAY:
        if opts.highlight is not None:
            wanted = [e for e in events if e.id == opts.highlight]
            if not wanted:
                raise UnknownHighlightEvent(
                    f"no event '{opts.highlight}' to highlight"
                )
            chosen = wanted
        else:
            chosen = events
        for event in chosen:
            filled.update(s for s in event.region if s in model.stages)
            text = event.id if event.label is None else f"{event.id}: {event.label}"
            legend.append(text)

    hidden = _hidden_stages(model) if opts.simplified else set()
    quoted = {sid: _quote(model.qualified_name(sid)) for sid in model.stages}

    out = ["digraph tm {", "  rankdir=LR;", "  node [shape=box];"]
    out += _clusters(model, hidden, filled, quoted)
    if opts.simplified and hidden:
        for src, dst in _contracted_flows(model, hidden):
            out.append(f"  {quoted[src]} -> {quoted[dst]};")
    else:
        for flow in model.flows:
            out.append(f"  {quoted[flow.from_stage]} -> {quoted[flow.to_stage]};")
    for trig in model.triggers:
        if opts.simplified and (
            trig.from_stage in hidden or trig.to_stage in hidden
        ):
            continue
        out.append(
            f"  {quoted[trig.from_stage]} -> {quoted[trig.to_stage]} [style=dashed];"
        )
    if legend:
        rows = "".join(_escape(row) + "\\l" for row in legend)
        out.append(f'  legend [shape=note, label="{rows}"];')
    out.append("}")
    return "\n".join(out) + "\n"


def _render_chronology(
    events: list[EventDef], chronology: Chronology | None
) -> str:
    labels = {e.id: e.label for e in events}
    out = ["digraph tm_chronology {", "  rankdir=TB;", "  node [shape=ellipse];"]
    if chronology is not None:
        for node in chronology.nodes:
            label = labels.get(node)
            text = _escape(node)
            if label is not None:
                text += "\\n" + _escape(label)
            out.append(f'  {_quote(node)} [label="{text}"];')
        for src, dst in chronology.edges:
            out.append(f"  {_quote(src)} -> {_quote(dst)};")
    out.append("}")
    return "\n".join(out) + "\n"
