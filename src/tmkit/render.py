"""Graphviz DOT generation for models, event overlays, and chronologies.

Thimacs map to nested clusters, stages to nodes, flows to solid edges,
and triggers to dashed edges. Event regions generally cut across
cluster boundaries and DOT clusters cannot overlap, so overlays are
drawn by filling the region's nodes and adding a legend instead.
Output is deterministic: declaration order in, identical bytes out.
Each stage name is quoted once per render, into a table that the node,
flow and trigger lines all read.

``simplified`` draws a model as it was declared, from the record that
``normalize`` leaves on the model it returns (``Model.declared``): one
edge per declared ``(from, to)`` pair, in declaration order, with the
stages normalization created hidden. No trigger can touch a hidden
stage, since the triggers are the declared ones. ``copy`` carries the
record; any later ``add_*`` or ``replace_flows`` clears it, and the
model JSON does not hold it. A model with no record is drawn in full.
So ``render_dot(normalize(S, strict=False), ev, ch, RenderOptions(mode,
simplified=True))`` equals ``render_dot(S, ev, ch, RenderOptions(mode))``
byte for byte.
"""

from __future__ import annotations

import enum
import itertools

from . import graph
from .behavior import Chronology, EventDef
from .core import ElementId, Model
from .diagnostics import Record, collector_paused
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


def _clusters(
    model: Model,
    hidden: frozenset[ElementId],
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


@collector_paused
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

    declared = model.declared() if opts.simplified else None
    flows, hidden = declared or (
        ((f.from_stage, f.to_stage) for f in model.flows), frozenset()
    )
    quoted = {sid: _quote(model.qualified_name(sid)) for sid in model.stages}

    out = ["digraph tm {", "  rankdir=LR;", "  node [shape=box];"]
    out += _clusters(model, hidden, filled, quoted)
    for src, dst in flows:
        out.append(f"  {quoted[src]} -> {quoted[dst]};")
    for trig in model.triggers:
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
