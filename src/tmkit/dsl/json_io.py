"""JSON import/export for models, using qualified names as identifiers.

The document layout is described by ``schemas/tm-model.schema.json``.
``from_json(to_json(x))`` reproduces a structurally equal model.
"""

from __future__ import annotations

import json

from ..behavior import Chronology, EventDef, containment_cycles
from ..core import Model, StageKind
from ..diagnostics import Diagnostic, Severity, has_errors
from ..errors import DuplicateName, DuplicateStageKind
from .lexer import is_identifier
from .parser import ParseResult


def to_json(result: ParseResult) -> str:
    if result.model is None:
        raise ValueError("cannot serialize a parse result without a model")
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
            "implicitSegments": [
                model.qualified_name(s) for s in f.implicit_segments
            ],
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
    if model.memories:
        doc["memories"] = [
            {
                "from": model.qualified_name(m.from_stage),
                "to": model.qualified_name(m.to_stage),
            }
            for m in model.memories
        ]
    return json.dumps(doc, indent=2) + "\n"


def from_json(text: str) -> ParseResult:
    diags: list[Diagnostic] = []

    def err(code: str, message: str) -> None:
        diags.append(Diagnostic(Severity.ERROR, code, message))

    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or a number too long to convert
        err("JSON_MALFORMED", f"invalid JSON: {exc}")
        return ParseResult(None, [], None, diags)
    except RecursionError:
        err("JSON_MALFORMED", "invalid JSON: nested too deeply")
        return ParseResult(None, [], None, diags)
    if not isinstance(doc, dict):
        err("JSON_MALFORMED", "top-level value must be an object")
        return ParseResult(None, [], None, diags)

    def entries(items, section: str) -> list:
        """A JSON list, or (reported) none for any other value."""
        if not isinstance(items, list):
            err("JSON_MALFORMED", f"{section} must be a list")
            return []
        return items

    def objects(items, section: str) -> list[dict]:
        """The entries of a JSON list that are objects; reports the rest."""
        found = []
        for item in entries(items, section):
            if isinstance(item, dict):
                found.append(item)
            else:
                err("JSON_MALFORMED", f"{section} entry {item!r} must be an object")
        return found

    def annotation(entry: dict, owner: str) -> int | None:
        """The DSL writes ``@n`` with digits only: a non-negative integer."""
        value = entry.get("annotation")
        if value is None or (type(value) is int and value >= 0):
            return value
        err("JSON_MALFORMED", f"{owner} annotation must be a non-negative integer or null")
        return None

    def identifier(text: str, what: str) -> bool:
        """Whether the DSL can write ``text`` as a name; reports it if not."""
        if is_identifier(text):
            return True
        err("JSON_MALFORMED", f"{what} {text!r} is not an identifier or is a keyword")
        return False

    model = Model()

    for entry in objects(doc.get("thimacs", []), "thimacs"):
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            err("JSON_MALFORMED", "thimac entry without a name")
            continue
        parent = entry.get("parent")
        if parent is not None and not isinstance(parent, str):
            err("JSON_MALFORMED", f"thimac '{name}' parent must be a string or null")
            continue
        # a name is its parent's name, a dot and its local name
        local = name.rsplit(".", 1)[-1]
        expected = local if parent is None else f"{parent}.{local}"
        if name != expected:
            err(
                "JSON_MALFORMED",
                f"thimac '{name}' should be named '{expected}' under parent "
                f"{json.dumps(parent)}",
            )
            continue
        parent_id = None if parent is None else model.find_thimac(parent)
        if parent is not None and parent_id is None:
            err("DANGLING_REF", f"thimac '{name}' references unknown parent '{parent}'")
            continue
        if not identifier(local, "thimac name"):
            continue
        try:
            tid = model.add_thimac(local, parent_id, annotation(entry, f"thimac '{name}'"))
        except DuplicateName as exc:
            err("DUPLICATE_DEF", str(exc))
            continue
        for stage in objects(entry.get("stages", []), f"thimac '{name}' stages"):
            kind_name = stage.get("kind")
            try:
                kind = StageKind.from_name(kind_name)
            except (ValueError, TypeError):
                err(
                    "UNKNOWN_STAGE_KIND",
                    f"thimac '{name}' declares unknown stage kind {kind_name!r}",
                )
                continue
            owner = f"thimac '{name}' {kind.value} stage"
            try:
                model.add_stage(tid, kind, annotation(stage, owner))
            except DuplicateStageKind as exc:
                err("DUPLICATE_DEF", str(exc))

    def stage_ref(qualified, context: str) -> int | None:
        if not isinstance(qualified, str):
            err("JSON_MALFORMED", f"{context}: stage reference must be a string")
            return None
        sid = model.find_stage(qualified)
        if sid is None:
            err("DANGLING_REF", f"{context}: no stage at '{qualified}'")
        return sid

    for entry in objects(doc.get("flows", []), "flows"):
        src = stage_ref(entry.get("from"), "flow")
        dst = stage_ref(entry.get("to"), "flow")
        if src is None or dst is None:
            continue
        if src == dst:
            err("JSON_MALFORMED", f"flow from '{entry['from']}' to itself")
            continue
        repeated = model.find_flow(src, dst) is not None
        eid = model.add_flow(src, dst)
        segments = []
        for seg in entries(entry.get("implicitSegments", []), "flow implicitSegments"):
            sid = stage_ref(seg, "flow implicitSegments")
            if sid is not None:
                segments.append(sid)
        # a repeated flow collapses to the first edge, segments included
        if not repeated:
            model.edges[eid].implicit_segments = segments

    for entry in objects(doc.get("triggers", []), "triggers"):
        src = stage_ref(entry.get("from"), "trigger")
        dst = stage_ref(entry.get("to"), "trigger")
        if src is not None and dst is not None:
            model.add_trigger(src, dst)

    for entry in objects(doc.get("memories", []), "memories"):
        src = stage_ref(entry.get("from"), "memory")
        dst = stage_ref(entry.get("to"), "memory")
        if src is not None and dst is not None:
            model.add_memory(src, dst)

    events: list[EventDef] = []
    declared: set[str] = set()
    for entry in objects(doc.get("events", []), "events"):
        eid = entry.get("id")
        if not isinstance(eid, str) or not eid:
            err("JSON_MALFORMED", "event entry without an id")
            continue
        if not identifier(eid, "event id"):
            continue
        if eid in declared:
            err("DUPLICATE_DEF", f"event '{eid}' already declared")
            continue
        declared.add(eid)
        region: set[int] = set()
        for ref in entries(entry.get("region", []), f"event '{eid}' region"):
            sid = stage_ref(ref, f"event '{eid}' region")
            if sid is not None:
                region.add(sid)
        label = entry.get("label")
        if label is not None and not isinstance(label, str):
            err("JSON_MALFORMED", f"event '{eid}' label must be a string or null")
            label = None
        repeat = entry.get("repeat", 1)
        if type(repeat) is not int or repeat < 1:
            err("JSON_MALFORMED", f"event '{eid}' repeat must be a positive integer")
            repeat = 1
        contains = []
        for sub in entries(entry.get("contains", []), f"event '{eid}' contains"):
            if isinstance(sub, str):
                contains.append(sub)
            else:
                err(
                    "JSON_MALFORMED",
                    f"event '{eid}' contains entry {sub!r} must be a string",
                )
        events.append(EventDef(eid, label, region, repeat, contains))
    for event in events:
        for sub in event.subevents:
            if sub not in declared:
                err("DANGLING_REF", f"event '{event.id}' contains undeclared event '{sub}'")
    for cycle in containment_cycles(events):
        err("EVENT_CYCLE", f"event containment cycle: {' -> '.join(cycle)}")

    chronology = None
    chrono_doc = doc.get("chronology")
    if chrono_doc is not None and not isinstance(chrono_doc, dict):
        err("JSON_MALFORMED", "chronology must be an object or null")
    elif chrono_doc is not None:
        chronology = Chronology()
        for node in entries(chrono_doc.get("nodes", []), "chronology nodes"):
            if not isinstance(node, str):
                err("JSON_MALFORMED", f"chronology node {node!r} must be a string")
            elif identifier(node, "chronology node"):
                chronology.add_node(node)
        for pair in entries(chrono_doc.get("edges", []), "chronology edges"):
            if (
                isinstance(pair, list)
                and len(pair) == 2
                and all(isinstance(x, str) for x in pair)
            ):
                if all([identifier(x, "chronology node") for x in pair]):
                    chronology.add_edge(pair[0], pair[1])
            else:
                err("JSON_MALFORMED", f"chronology edge {pair!r} must be a [from, to] pair")

    return ParseResult(
        None if has_errors(diags) else model, events, chronology, diags
    )
