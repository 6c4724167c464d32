"""JSON import/export for models, using qualified names as identifiers.

The document layout is described by ``schemas/tm-model.schema.json``.
``from_json(to_json(x))`` reproduces a structurally equal model.

Each name is handled once per document: ``to_json`` quotes each thimac
and stage name once and fills fixed templates, and ``from_json``
resolves each distinct flow or trigger end, and each distinct region
entry, once if it names something (a region entry that names a stage
shares the ends' memo). It reads them as the parser reads
a path, through ``parser.stage_at`` and ``stages_at``, and reports one
that names nothing as DANGLING_REF at every occurrence, with the
parser's message after the entry's context.

Each flow is written with ``"implicitSegments": []`` and the key is
ignored on read, whatever it holds. What normalization inserted is
recorded once, in ``Model.declared()``, which the document does not
carry; the empty key stays only so that every recorded digest keeps
its bytes until a change that may re-record them replaces it.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote

from ..behavior import Chronology, EventDef, check_containment
from ..core import STAGE_KIND_NAMES, ElementId, Model, StageKind
from ..diagnostics import Diagnostic, Severity, collector_paused, has_errors
from ..errors import DuplicateName, DuplicateStageKind, UnknownEndpoint
from .lexer import is_identifier
from .parser import ParseResult, add_edge, memory_unsupported, stage_at, stages_at


@collector_paused
def to_json(result: ParseResult) -> str:
    """The model document: exactly ``json.dumps(doc, indent=2) + "\n"``,
    written from fixed templates, since the indenting encoder runs in
    pure Python."""
    if result.model is None:
        raise ValueError("cannot serialize a parse result without a model")
    model = result.model
    quoted: dict[ElementId, str] = {}  # thimac or stage id -> quoted name
    thimacs = []
    for thimac in model.iter_thimacs():
        quoted[thimac.id] = _quote(model.qualified_name(thimac.id))
        stages = []
        for sid in thimac.stages.values():
            stage = model.stages[sid]
            quoted[sid] = _quote(model.qualified_name(sid))
            stages.append(
                f'{{\n          "kind": "{stage.kind._value_}",\n'
                f'          "annotation": {_number(stage.annotation)}\n        }}'
            )
        parent = "null" if thimac.parent is None else quoted[thimac.parent]
        thimacs.append(
            f'{{\n      "name": {quoted[thimac.id]},\n      "parent": {parent},\n'
            f'      "annotation": {_number(thimac.annotation)},\n'
            f'      "stages": {_list("      ", stages)}\n    }}'
        )
    flows = [
        f'{{\n      "from": {quoted[f.from_stage]},\n      "to": {quoted[f.to_stage]},\n'
        f'      "implicitSegments": []\n    }}'
        for f in model.flows
    ]
    triggers = [
        f'{{\n      "from": {quoted[t.from_stage]},\n      "to": {quoted[t.to_stage]}\n    }}'
        for t in model.triggers
    ]
    events = []
    for e in result.events:
        label = "null" if e.label is None else _quote(e.label)
        region = sorted(e.region, key=model.qualified_name)
        events.append(
            f'{{\n      "id": {_quote(e.id)},\n      "label": {label},\n'
            f'      "region": {_list("      ", [quoted[s] for s in region])},\n'
            f'      "repeat": {e.multiplicity},\n'
            f'      "contains": {_list("      ", [_quote(s) for s in e.subevents])}\n'
            f"    }}"
        )
    chronology = "null"
    if result.chronology is not None:
        nodes = [_quote(n) for n in result.chronology.nodes]
        edges = [
            _list("      ", [_quote(a), _quote(b)]) for a, b in result.chronology.edges
        ]
        chronology = (
            f'{{\n    "nodes": {_list("    ", nodes)},\n'
            f'    "edges": {_list("    ", edges)}\n  }}'
        )
    return (
        f'{{\n  "thimacs": {_list("  ", thimacs)},\n'
        f'  "flows": {_list("  ", flows)},\n'
        f'  "triggers": {_list("  ", triggers)},\n'
        f'  "events": {_list("  ", events)},\n'
        f'  "chronology": {chronology}\n}}\n'
    )


def _number(value: int | None) -> str:
    return "null" if value is None else str(value)


def _list(indent: str, items: list[str]) -> str:
    """A JSON list of written items, laid out as ``json.dumps(indent=2)``
    lays out a list whose key line is indented by ``indent``."""
    if not items:
        return "[]"
    inner = f"\n{indent}  "
    return f"[{inner}{f',{inner}'.join(items)}\n{indent}]"


@collector_paused
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
            owner = f"thimac '{name}' {kind._value_} stage"
            try:
                model.add_stage(tid, kind, annotation(stage, owner))
            except DuplicateStageKind as exc:
                err("DUPLICATE_DEF", str(exc))

    # the thimacs are all in. A bare thimac is its port as an end and all
    # its stages in a region, so each reading keeps its own memo of the
    # references it resolved, but a stage path names one stage in both and
    # is read as an end; one that did not resolve is read again where it
    # recurs, since a later end may make the port it names
    ends: dict[str, ElementId] = {}
    regions: dict[str, list[ElementId]] = {}

    def read(ref, context: str, memo: dict, at=stage_at):
        if not isinstance(ref, str):
            err("JSON_MALFORMED", f"{context}: stage reference must be a string")
            return None
        found = memo.get(ref)
        if found is None:
            try:
                found = memo[ref] = at(model, ref.split("."))
            except UnknownEndpoint as exc:
                err("DANGLING_REF", f"{context}: {exc}")
        return found

    # a flow's implicitSegments is not read
    for section, what, arrow in (("flows", "flow", "->"), ("triggers", "trigger", "~>")):
        for entry in objects(doc.get(section, []), section):
            src = read(entry.get("from"), what, ends)
            dst = read(entry.get("to"), what, ends)
            if src is not None and dst is not None:
                diags += add_edge(model, arrow, src, dst)

    # the notation gives a memory no meaning: each entry is an error
    for _ in objects(doc.get("memories", []), "memories"):
        diags.append(memory_unsupported())

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
        context = f"event '{eid}' region"
        for ref in entries(entry.get("region", []), context):
            if isinstance(ref, str) and ref.rpartition(".")[2] in STAGE_KIND_NAMES:
                sid = read(ref, context, ends)
                region.update(() if sid is None else (sid,))
            else:
                region.update(read(ref, context, regions, stages_at) or ())
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
    diags += check_containment(events, "DANGLING_REF")

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
