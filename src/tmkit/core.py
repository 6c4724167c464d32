"""Static TM models: thimacs, stages, flow and trigger edges.

A model is a forest of thimacs ("thing/machines"). Each thimac owns at
most one stage per kind; the transfer stage is a single bidirectional
port. Flow edges carry things between stages, trigger edges are causal
dashes; these are the only two edge kinds. The DSL's reserved
``memory`` relation never reaches a model: the parser and ``from_json``
reject it where they read it (MEMORY_UNSUPPORTED). Models are
append-only during construction and treated as immutable afterwards;
``normalize`` returns a new model.

Thimacs and edges enter a ``Model`` only through its ``add_*`` methods,
which keep four indexes: thimacs by ``(parent, name)``, every edge by
its id (``edges``), and flows and triggers by source (``flows_from``,
``triggers_from``), each ``{from: {to: edge}}`` with a source's edges in
model order and a key only for a stage that has such an edge.
``triggers`` is in ascending id order, since each trigger is appended
with a fresh id. ``add_flow`` and ``add_trigger`` are one add path,
``_add_edge``, over the kind's list and per-source index: it resolves
both ends, returns the first edge's id for a repeated ``(from, to)``
pair, and otherwise allocates the edge, appends it and indexes it.
Lookups (``find_thimac``, ``find_stage``, and ``find_flow``, which the
add path does not call) and the duplicate check are a dict probe or
two, so building and resolving a model is linear in its size, and the
edges leaving a set of stages cost their number to find. ``copy`` and
``normalize`` rebuild the indexes for the model they return, ``copy``
in one loop over flows and triggers. ``normalize`` copies the model
without its flows and gives the copy its new flows through
``replace_flows``, so each flow is built and indexed once.
The lookups make nothing: ``find_stage`` reads a path that ends at a
thimac as its transfer port only if the port exists, so the add path,
which looks up string ends with it, leaves no new stage and no edge
behind when it fails. The front ends read a path through
``dsl.parser.stage_at``, which makes the port.
``add_thimac`` refuses a name that no path could reach: an empty one, a
dotted one, or a stage-kind word. The add path accepts equal endpoints.
``LEGAL`` has no step from a stage to itself, so a self-flow is left to
the validator's FLOW_ILLEGAL, as a self-trigger is to its TRIGGER_SELF.

``_alloc`` (which every ``add_*`` that makes an element calls) and
``replace_flows`` are the only ways a model changes, and each bumps its
change counter ``_changes``. ``validate`` stores its verdict on the
model, keyed by the counter's value and the events and chronology it
was given, and reuses it while the key matches; ``copy`` starts with no
verdict. Writing a table or an element's fields directly is not counted.

``normalize`` stamps the model it returns with a record of what was
declared, read through ``declared``: the ``(from, to)`` pairs of the
flows it was given, in order, and the stages it created. The record
holds while the counter matches, so any ``add_*`` or ``replace_flows``
after ``normalize`` leaves the model with none. ``copy`` carries a
record that holds, and a second ``normalize`` keeps the first one.
It is the one record of what normalization inserted: a flow keeps no
list of its own. ``render --simplified`` draws the record; the model
JSON does not carry it, so a model read by ``from_json`` or built by
hand has none. That JSON still writes each flow's ``implicitSegments``
as an empty list, only so that every recorded digest keeps its bytes
until a change that may re-record them replaces the key with the
record, and ``from_json`` ignores the key.

``LEGAL`` is the one table of the stage-wiring rule; ``edge_legal``,
``Model.flow_legal`` and the validator's FLOW_ILLEGAL read it, and
``normalize`` expands each flow outside it by one rule, ``_expansion``.

``qualified_name`` is the one table of element names. A thimac's name
is memoized the first time it is asked for; a stage's (``m.kind``) and
an edge's (``x->y``, ``x~>y``) are built from the memo on each call.
The memo is lazy and holds only the names asked for, not the prefix of
each ancestor a walk passes: a name is as long as its depth, so storing
every thimac's name of a 10^4-deep chain would hold about 2.9e8
characters, while naming its bottom stage needs one such string.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from . import graph
from .diagnostics import Diagnostic, Record, SourceSpan, collector_paused
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
# ``Model.declared``: declared flow endpoints, and the stages normalize created
Declared = tuple[tuple[tuple[ElementId, ElementId], ...], frozenset[ElementId]]


class StageKind(enum.Enum):
    """A stage's kind. The namers (``Model.qualified_name``, the printer,
    ``json_io`` and ``render``) read a kind's word as ``kind._value_``:
    ``kind.value`` goes through a pure-Python enum property, which costs
    several times as much per read.

    A kind hashes by identity. ``Enum.__hash__`` is a Python function
    (``hash(self._name_)``) that every dict, set and ``LEGAL`` lookup
    keyed by a kind would call; ``object.__hash__`` runs in C. This is
    safe because each kind is a singleton that compares by identity
    anyway, the name hash already varied per process under hash
    randomization, and no output iterates a set of kinds: dicts keyed
    by kind keep insertion order."""

    __hash__ = object.__hash__

    CREATE = "create"
    PROCESS = "process"
    RELEASE = "release"
    TRANSFER = "transfer"
    RECEIVE = "receive"

    @classmethod
    def from_name(cls, name: str) -> "StageKind":
        if isinstance(name, str) and name in STAGE_KIND_NAMES:
            return STAGE_KIND_NAMES[name]
        raise ValueError(f"{name!r} is not a stage kind")


# Every word that names a stage kind, in the order the DSL lists them;
# arrive/accept are surface aliases for the receive stage.
STAGE_KIND_NAMES: dict[str, StageKind] = {
    **{kind.value: kind for kind in StageKind},
    "arrive": StageKind.RECEIVE,
    "accept": StageKind.RECEIVE,
}


# The stage-wiring rule: every legal flow as (from kind, to kind, same
# machine). Across machine boundaries only port-to-port movement is legal.
LEGAL: frozenset[tuple[StageKind, StageKind, bool]] = frozenset(
    {
        (StageKind.CREATE, StageKind.PROCESS, True),
        (StageKind.CREATE, StageKind.RELEASE, True),
        (StageKind.RECEIVE, StageKind.PROCESS, True),
        (StageKind.RECEIVE, StageKind.RELEASE, True),
        (StageKind.PROCESS, StageKind.RELEASE, True),
        (StageKind.RELEASE, StageKind.TRANSFER, True),
        (StageKind.TRANSFER, StageKind.RECEIVE, True),
        (StageKind.TRANSFER, StageKind.TRANSFER, False),
    }
)


def edge_legal(from_kind: StageKind, to_kind: StageKind, same_machine: bool) -> bool:
    """Membership test against the stage-wiring rule ``LEGAL``."""
    return (from_kind, to_kind, same_machine) in LEGAL


class Thimac(Record):
    __slots__ = _fields = (
        "id", "name", "parent", "stages", "children", "annotation", "span"
    )

    def __init__(
        self, id: ElementId, name: str, parent: ElementId | None,
        stages: dict[StageKind, ElementId] | None = None,
        children: list[ElementId] | None = None,
        annotation: int | None = None, span: SourceSpan | None = None,
    ) -> None:
        self.id, self.name, self.parent = id, name, parent
        self.stages = {} if stages is None else stages
        self.children = [] if children is None else children
        self.annotation, self.span = annotation, span


class Stage(Record):
    __slots__ = _fields = ("id", "kind", "thimac", "annotation", "span")

    def __init__(
        self, id: ElementId, kind: StageKind, thimac: ElementId,
        annotation: int | None = None, span: SourceSpan | None = None,
    ) -> None:
        self.id, self.kind, self.thimac = id, kind, thimac
        self.annotation, self.span = annotation, span


class FlowEdge(Record):
    __slots__ = _fields = ("id", "from_stage", "to_stage", "span")
    arrow = "->"

    def __init__(
        self, id: ElementId, from_stage: ElementId, to_stage: ElementId,
        span: SourceSpan | None = None,
    ) -> None:
        self.id, self.from_stage, self.to_stage = id, from_stage, to_stage
        self.span = span


class TriggerEdge(Record):
    __slots__ = _fields = ("id", "from_stage", "to_stage", "span")
    arrow = "~>"

    def __init__(
        self, id: ElementId, from_stage: ElementId, to_stage: ElementId,
        span: SourceSpan | None = None,
    ) -> None:
        self.id, self.from_stage, self.to_stage = id, from_stage, to_stage
        self.span = span


class Model:
    """Hierarchical TM graph with declaration-order element tables."""

    def __init__(self) -> None:
        self.roots: list[ElementId] = []
        self.thimacs: dict[ElementId, Thimac] = {}
        self.stages: dict[ElementId, Stage] = {}
        self.flows: list[FlowEdge] = []
        self.triggers: list[TriggerEdge] = []
        self.edges: dict[ElementId, FlowEdge | TriggerEdge] = {}
        self._next_id = 1
        self._thimac_index: dict[tuple[ElementId | None, str], ElementId] = {}
        self.flows_from: dict[ElementId, dict[ElementId, FlowEdge]] = {}
        self.triggers_from: dict[ElementId, dict[ElementId, TriggerEdge]] = {}
        self._names: dict[ElementId, str] = {}
        self._changes = 0
        # (key, diagnostics), stored by ``validate``: the key is
        # ``_changes`` and what the event and chronology rules read
        self._verdict: tuple[tuple, tuple[Diagnostic, ...]] | None = None
        # (``_changes``, what ``declared`` returns), stored by ``normalize``
        # and carried by ``copy``
        self._declared: tuple[int, Declared | None] = (0, None)

    # -- construction -------------------------------------------------

    def _alloc(self) -> ElementId:
        eid = self._next_id
        self._next_id += 1
        self._changes += 1
        return eid

    def add_thimac(
        self,
        name: str,
        parent: ElementId | None = None,
        annotation: int | None = None,
        span: SourceSpan | None = None,
    ) -> ElementId:
        if not name or "." in name or name in STAGE_KIND_NAMES:
            # no path could name it
            raise ValueError(f"thimac name {name!r} is empty, dotted or a stage kind")
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

    def _add_edge(
        self,
        record: type[FlowEdge] | type[TriggerEdge],
        edges: list,
        index: dict[ElementId, dict[ElementId, FlowEdge | TriggerEdge]],
        from_stage: ElementId | str,
        to_stage: ElementId | str,
        span: SourceSpan | None,
    ) -> ElementId:
        src = self._resolve_endpoint(from_stage)
        dst = self._resolve_endpoint(to_stage)
        out = index.setdefault(src, {})
        if dst in out:
            # parallel duplicates collapse to the first edge
            return out[dst].id
        eid = self._alloc()
        edge = out[dst] = record(eid, src, dst, span=span)
        edges.append(edge)
        self.edges[eid] = edge
        return eid

    def add_flow(
        self,
        from_stage: ElementId | str,
        to_stage: ElementId | str,
        span: SourceSpan | None = None,
    ) -> ElementId:
        return self._add_edge(FlowEdge, self.flows, self.flows_from, from_stage, to_stage, span)

    def replace_flows(self, flows: Iterable[FlowEdge]) -> None:
        """Make ``flows`` the flow list, keeping the first edge of each
        ``(from, to)`` pair."""
        self._changes += 1
        for old in self.flows:
            del self.edges[old.id]
        self.flows = []
        self.flows_from = {}
        for flow in flows:
            out = self.flows_from.setdefault(flow.from_stage, {})
            if out.setdefault(flow.to_stage, flow) is flow:
                self.flows.append(flow)
                self.edges[flow.id] = flow

    def add_trigger(
        self,
        from_stage: ElementId | str,
        to_stage: ElementId | str,
        span: SourceSpan | None = None,
    ) -> ElementId:
        return self._add_edge(
            TriggerEdge, self.triggers, self.triggers_from, from_stage, to_stage, span
        )

    def ensure_transfer(self, thimac: ElementId) -> ElementId:
        """Return the thimac's transfer port, materializing it if absent."""
        owner = self.thimacs[thimac]
        port = owner.stages.get(StageKind.TRANSFER)
        if port is None:
            port = self.add_stage(thimac, StageKind.TRANSFER)
        return port

    # -- lookup -------------------------------------------------------

    def find_flow(self, src: ElementId, dst: ElementId) -> FlowEdge | None:
        return self.flows_from.get(src, {}).get(dst)

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
        no thimac. This is the one path resolver. Both front ends read a
        path through ``dsl.parser.stage_at`` (a flow or trigger end) and
        ``stages_at`` (a region path), which add what a path means and
        the one message for a path that names nothing; ``find_stage`` is
        a lookup over it.
        """
        kind = STAGE_KIND_NAMES.get(segments[-1]) if segments else None
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
        """The dotted name of a thimac or stage, or ``x->y`` or ``x~>y``
        for a flow or trigger; ``KeyError`` for an unknown id."""
        name = self._names.get(element)
        if name is not None:
            return name
        if element in self.thimacs:
            # memoize this name only, not a prefix per ancestor
            parts = []
            cur: ElementId | None = element
            while cur is not None:
                t = self.thimacs[cur]
                parts.append(t.name)
                cur = t.parent
            name = self._names[element] = ".".join(reversed(parts))
            return name
        if element in self.stages:
            st = self.stages[element]
            return f"{self.qualified_name(st.thimac)}.{st.kind._value_}"
        if element in self.edges:
            e = self.edges[element]
            return (
                f"{self.qualified_name(e.from_stage)}{e.arrow}"
                f"{self.qualified_name(e.to_stage)}"
            )
        raise KeyError(f"unknown element id {element}")

    def flow_legal(self, edge: FlowEdge) -> bool:
        """``edge_legal`` for a flow of this model, as one ``LEGAL`` lookup."""
        src = self.stages[edge.from_stage]
        dst = self.stages[edge.to_stage]
        return (src.kind, dst.kind, src.thimac == dst.thimac) in LEGAL

    def declared(self) -> Declared | None:
        """``normalize``'s record: the ``(from, to)`` pairs of the flows it
        was given, in order, and the stages it created; None if
        ``normalize`` did not make this model or it changed since."""
        stamp, record = self._declared
        return record if stamp == self._changes else None

    def iter_thimacs(self) -> list[Thimac]:
        """All thimacs in declaration (depth-first) order."""
        walk = graph.tree(self.roots, self.children)
        return [self.thimacs[tid] for tid, _, entering in walk if entering]

    def children(self, thimac: ElementId) -> list[ElementId]:
        return self.thimacs[thimac].children

    def element_count(self) -> int:
        return (
            len(self.thimacs) + len(self.stages) + len(self.flows) + len(self.triggers)
        )

    def copy(self) -> "Model":
        """An independent copy: new element objects and containers, with
        the (immutable) source spans and ``declared`` record shared."""
        return self._copy(self.flows)

    def _copy(self, flows: Iterable[FlowEdge]) -> "Model":
        """``copy``, with copies of ``flows`` as its flows."""
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
        out._next_id = self._next_id
        out._thimac_index = dict(self._thimac_index)
        for edges, copied, index in (
            (flows, out.flows, out.flows_from),
            (self.triggers, out.triggers, out.triggers_from),
        ):
            for e in edges:
                c = type(e)(e.id, e.from_stage, e.to_stage, e.span)
                copied.append(c)
                index.setdefault(c.from_stage, {})[c.to_stage] = out.edges[c.id] = c
        out._names = dict(self._names)
        out._declared = (out._changes, self.declared())
        return out


# -- normalization ----------------------------------------------------

_T = StageKind.TRANSFER
_R = StageKind.RELEASE
_RV = StageKind.RECEIVE


def _expansion(src: Stage, dst: Stage) -> list[tuple[StageKind, ElementId]] | None:
    """The ``(kind, owner)`` stages to insert, in chain order, between the
    endpoints of a flow from ``src`` to ``dst``; None if no legal chain
    joins them.

    Within a machine, a skip into or out of the transfer port gains the
    release or receive it elided. Across machines the flow becomes
    ``src -> release -> transfer -> transfer -> receive -> dst`` minus
    the members ``src`` and ``dst`` already are; it never ends at a create.
    """
    x, y = src.kind, dst.kind
    if src.thimac == dst.thimac:
        if x in (StageKind.CREATE, _RV, StageKind.PROCESS) and y is _T:
            return [(_R, src.thimac)]
        if x is _T and y in (StageKind.PROCESS, _R):
            return [(_RV, src.thimac)]
        return None
    if y is StageKind.CREATE:
        return None
    src_ins = {_T: [], _R: [_T]}.get(x, [_R, _T])
    dst_ins = {_T: [], _RV: [_T]}.get(y, [_T, _RV])
    return [(k, src.thimac) for k in src_ins] + [(k, dst.thimac) for k in dst_ins]


@collector_paused
def normalize(model: Model, strict: bool = True) -> Model:
    """Expand elided stage chains so every flow edge is legality-exact.

    Cross-machine flows gain the missing release/transfer/receive
    members; within-machine transfer skips gain the elided release or
    receive. Existing stages are reused. Create stages are never
    inserted: flow origins must be explicit.

    The result's ``declared`` record, the one record of what was
    inserted, holds the flows of ``model`` and the stages created here,
    or ``model``'s own record if it has one. The model JSON's
    ``implicitSegments`` is written empty and is not that record.

    With ``strict`` (the default) an edge admitting no legal expansion
    raises :class:`AmbiguousExpansion`; otherwise it is left in place
    for the validator to report.
    """
    out = model._copy(())  # its flows are built and indexed once, below
    new_flows: list[FlowEdge] = []
    for edge in model.flows:
        legal = out.flow_legal(edge)
        plan = None if legal else _expansion(
            out.stages[edge.from_stage], out.stages[edge.to_stage]
        )
        if plan is None:
            if strict and not legal:
                raise AmbiguousExpansion(
                    f"flow {out.qualified_name(edge.from_stage)} -> "
                    f"{out.qualified_name(edge.to_stage)} has no legal expansion",
                    edge.span,
                )
            kept = FlowEdge(edge.id, edge.from_stage, edge.to_stage, edge.span)
            new_flows.append(kept)
            continue

        chain_ids = [edge.from_stage]
        for kind, owner in plan:
            sid = out.thimacs[owner].stages.get(kind)
            chain_ids.append(out.add_stage(owner, kind) if sid is None else sid)
        chain_ids.append(edge.to_stage)
        for a, b in zip(chain_ids, chain_ids[1:]):
            new_flows.append(FlowEdge(out._alloc(), a, b, edge.span))
    # expansions may recreate edges declared elsewhere; keep the first
    out.replace_flows(new_flows)
    out._declared = (out._changes, model.declared() or (
        tuple((f.from_stage, f.to_stage) for f in model.flows),
        frozenset(out.stages.keys() - model.stages.keys()),
    ))
    return out


def is_normalized(model: Model) -> bool:
    """True iff every flow edge is already in ``LEGAL``."""
    return all(model.flow_legal(edge) for edge in model.flows)


# -- structural equality ----------------------------------------------


def _signature(model: Model) -> tuple[set[str], ...]:
    return tuple(
        {model.qualified_name(e) for e in table}
        for table in (model.thimacs, model.stages, model.edges)
    )


def model_equal(a: Model, b: Model) -> bool:
    """Structural equality up to element ids, edge order, and provenance.

    Thimacs, stages and edges are matched by qualified name: a thimac by
    its path, a stage by (owner, kind), and an edge by its arrow and
    matched endpoints; normalization provenance and annotations do not
    participate.
    """
    return _signature(a) == _signature(b)
