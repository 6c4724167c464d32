"""No input raises: DSL text and JSON documents give diagnostics only.

When an input is accepted, every later layer (normalize without
strictness, validate, the printer and the renderer in all modes) must
accept the model too, and every DOT string it renders must be well
formed. A JSON document that is accepted must print as DSL text that
parses back to the same model, events and chronology.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from tmkit import dsl
from tmkit.core import model_equal, normalize
from tmkit.diagnostics import Diagnostic
from tmkit.render import RenderMode, RenderOptions, render_dot
from tmkit.validate import validate

from _support import dot_strings

_KINDS = ["create", "process", "release", "transfer", "receive"]
_DSL_WORDS = _KINDS + [
    "thimac", "stage", "arrive", "accept", "flow", "trigger", "memory", "event",
    "region", "repeat", "contains", "chronology", "a", "b", "c", "E", "F", "{",
    "}", "{", "}", ";", ";", ".", "->", "~>", ",", "@", "0", "3", '"label"',
    "//", "/*", "*/", "#", "a.create", "b.transfer", "a.b", "a.b.receive",
]


@st.composite
def _dsl_program(draw) -> str:
    """A mostly well-formed model: nested thimacs, flows (often elided,
    so normalization inserts stages), triggers, events and a chronology,
    then a few words deleted or inserted."""
    paths: list[str] = []

    def thimac(name: str, prefix: str, depth: int) -> str:
        path = prefix + name
        paths.append(path)
        kinds = draw(st.lists(st.sampled_from(_KINDS), unique=True, max_size=3))
        paths.extend(f"{path}.{k}" for k in kinds)
        body = [f"stage {k};" for k in kinds]
        if depth < 2:
            for child in draw(st.lists(st.sampled_from("xy"), unique=True, max_size=2)):
                body.append(thimac(child, path + ".", depth + 1))
        return f"thimac {name} {{ {' '.join(body)} }}"

    roots = draw(st.lists(st.sampled_from("abc"), unique=True, min_size=1, max_size=3))
    lines = [thimac(name, "", 0) for name in roots]
    ref = st.sampled_from(paths)
    for _ in range(draw(st.integers(0, 5))):
        lines.append(f"flow {draw(ref)} -> {draw(ref)};")
    for _ in range(draw(st.integers(0, 2))):
        lines.append(f"trigger {draw(ref)} ~> {draw(ref)};")
    events = draw(st.lists(st.sampled_from(["E", "F", "G"]), unique=True, max_size=3))
    for event in events:
        region = " ".join(f"{p};" for p in draw(st.lists(ref, min_size=1, max_size=3)))
        subs = draw(st.lists(st.sampled_from(events), max_size=2))
        contains = f" contains {', '.join(subs)};" if subs else ""
        lines.append(f'event {event} "{event} label" {{ region {{ {region} }}{contains} }}')
    if events:
        pairs = draw(st.lists(st.tuples(*[st.sampled_from(events)] * 2), max_size=3))
        edges = " ".join(f"{a} -> {b};" for a, b in pairs)
        lines.append(f"chronology {{ {edges} {events[0]}; }}")
    words = " ".join(lines).split()
    for _ in range(draw(st.sampled_from([0, 0, 1, 3]))):
        at = draw(st.integers(0, len(words) - 1))
        if draw(st.booleans()):
            del words[at]
        else:
            words.insert(at, draw(st.sampled_from(_DSL_WORDS)))
    return " ".join(words)


_dsl_text = st.one_of(
    st.text(max_size=120),
    st.lists(st.sampled_from(_DSL_WORDS), max_size=80).map(" ".join),
    _dsl_program(),
)


def _check_downstream(result) -> None:
    """Every layer after an accepted parse runs without raising."""
    assert all(isinstance(d, Diagnostic) for d in result.diagnostics)
    if result.model is None:
        return
    norm = normalize(result.model, strict=False)
    validate(norm, result.events, result.chronology, lint_chronology=True)
    for model in (result.model, norm):
        dsl.format_parts(model, result.events, result.chronology)
        for mode in RenderMode:
            for simplified in (False, True):
                opts = RenderOptions(mode, simplified=simplified)
                dot_strings(render_dot(model, result.events, result.chronology, opts))


@settings(max_examples=500, deadline=None)
@given(_dsl_text)
def test_parse_never_raises(text):
    _check_downstream(dsl.parse(text, "fuzz.tm"))


_KEYS = [
    "thimacs", "flows", "triggers", "memories", "events", "chronology", "name",
    "parent", "annotation", "stages", "kind", "from", "to", "implicitSegments",
    "id", "label", "region", "repeat", "contains", "nodes", "edges",
]
_STRINGS = [
    "", "a", "b", "a.c", "a.create", "a.transfer", "b.process", "a.c.receive",
    "zz.create", "create", "arrive", "E", "F", 'q"uote', "a b", "stage", "x\ny",
    "back\\",
]

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(_STRINGS),
    st.text(max_size=4),
)
_json = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=3), inner, max_size=5),
    ),
    max_leaves=25,
)


@st.composite
def _document(draw) -> dict:
    """A model document whose fields are well typed except, at a drawn
    rate, for values replaced by arbitrary JSON."""
    rate = draw(st.sampled_from([0.0, 0.0, 0.05, 0.2]))

    def field(values):
        return draw(_json) if draw(st.floats(0, 1)) < rate else draw(values)

    names = draw(st.lists(st.sampled_from(["a", "b", "a.c"]), unique=True, max_size=3))
    annotation = st.one_of(st.none(), st.integers(0, 9))
    refs = []
    thimacs = []
    for name in names:
        kinds = draw(st.lists(st.sampled_from(_KINDS), unique=True, max_size=5))
        refs += [f"{name}.{k}" for k in kinds]
        stages = [{"kind": field(st.just(k)), "annotation": field(annotation)} for k in kinds]
        thimacs.append(
            {
                "name": field(st.just(name)),
                "parent": field(st.just("a" if name == "a.c" else None)),
                "annotation": field(annotation),
                "stages": field(st.just(stages)),
            }
        )
    ref = st.sampled_from(refs or ["a.create"])

    def edges(most: int) -> list:
        return [
            {
                "from": field(ref),
                "to": field(ref),
                "implicitSegments": field(st.lists(ref, max_size=2)),
            }
            for _ in range(draw(st.integers(0, most)))
        ]

    ids = draw(st.lists(st.sampled_from(["E", "F", "G"]), unique=True, max_size=3))
    event_id = st.sampled_from(ids or ["E"])
    events = [
        {
            "id": field(st.just(eid)),
            "label": field(st.one_of(st.none(), st.sampled_from(_STRINGS))),
            "region": field(st.lists(ref, max_size=3)),
            "repeat": field(st.integers(1, 3)),
            "contains": field(st.lists(event_id, max_size=2)),
        }
        for eid in ids
    ]
    chronology = {
        "nodes": field(st.lists(event_id, max_size=3)),
        "edges": field(st.lists(st.lists(event_id, min_size=2, max_size=2), max_size=3)),
    }
    return {
        "thimacs": field(st.just(thimacs)),
        "flows": field(st.just(edges(4))),
        "triggers": field(st.just(edges(2))),
        "memories": field(st.just(edges(1) if draw(st.integers(0, 9)) == 0 else [])),
        "events": field(st.just(events)),
        "chronology": field(st.one_of(st.none(), st.just(chronology))),
    }


@settings(max_examples=500, deadline=None)
@given(st.one_of(_json, _document()))
def test_from_json_never_raises(doc):
    _check_downstream(dsl.from_json(json.dumps(doc)))


# names the DSL cannot write, and labels that need escaping
_NOT_IDENTIFIERS = ["a b", "stage", "E-1", "_x", "\u00e9t\u00e9", "m0 "]
_LABELS = [None, "plain", 'q"uote', "back\\", "two\nlines", "tab\there", "\u00e9t\u00e9"]


@st.composite
def _writable_document(draw) -> dict:
    """A model document that is well formed, except that now and then a
    thimac name, an event id or a chronology node is not an identifier
    (or is a keyword)."""

    def name(good: str) -> str:
        bad = draw(st.integers(0, 9)) == 0
        return draw(st.sampled_from(_NOT_IDENTIFIERS)) if bad else good

    thimacs, refs = [], []
    for i in range(draw(st.integers(1, 3))):
        local = name(f"m{i}")
        parent = thimacs[0]["name"] if thimacs and draw(st.booleans()) else None
        full = local if parent is None else f"{parent}.{local}"
        kinds = draw(st.lists(st.sampled_from(_KINDS), unique=True, min_size=1, max_size=5))
        thimacs.append({"name": full, "parent": parent, "stages": [{"kind": k} for k in kinds]})
        refs += [f"{full}.{k}" for k in kinds]
    ref = st.sampled_from(refs)

    def edges(most: int) -> list:
        pairs = draw(st.lists(st.tuples(ref, ref), max_size=most))
        return [{"from": a, "to": b} for a, b in pairs if a != b]

    ids = [name(f"E{k}") for k in range(draw(st.integers(0, 3)))]
    events = [
        {
            "id": eid,
            "label": draw(st.sampled_from(_LABELS)),
            "region": draw(st.lists(ref, max_size=3)),
            "repeat": draw(st.integers(1, 3)),
            # only later events, so containment has no cycle
            "contains": ids[k + 1 : k + 1 + draw(st.integers(0, 1))],
        }
        for k, eid in enumerate(ids)
    ]
    chronology = None
    if ids and draw(st.booleans()):
        node = st.sampled_from(ids + [name("E9")])
        chronology = {
            "nodes": draw(st.lists(node, max_size=3)),
            "edges": draw(st.lists(st.lists(node, min_size=2, max_size=2), max_size=3)),
        }
    return {
        "thimacs": thimacs,
        "flows": edges(4),
        "triggers": edges(2),
        "events": events,
        "chronology": chronology,
    }


@settings(max_examples=200, deadline=None)
@given(_writable_document())
def test_accepted_documents_print_and_parse_back(doc):
    result = dsl.from_json(json.dumps(doc))
    if result.model is None:
        return
    text = dsl.format_parts(result.model, result.events, result.chronology)
    back = dsl.parse(text, "printed.tm")
    assert [d.render() for d in back.diagnostics if d.is_error] == [], text
    assert model_equal(back.model, result.model)

    def events(parsed):
        return [
            (
                e.id,
                e.label,
                sorted(parsed.model.qualified_name(s) for s in e.region),
                e.multiplicity,
                e.subevents,
            )
            for e in parsed.events
        ]

    assert events(back) == events(result)
    if result.chronology is None:
        assert back.chronology is None
    else:
        assert back.chronology.nodes == result.chronology.nodes
        assert back.chronology.edges == result.chronology.edges


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=60))
def test_from_json_on_arbitrary_text_never_raises(text):
    _check_downstream(dsl.from_json(text))


def test_from_json_on_deeply_nested_arrays_reports_malformed():
    for text in ("[" * 100_000, '{"thimacs": ' + "[" * 50_000 + "]" * 50_000 + "}"):
        result = dsl.from_json(text)
        assert result.model is None
        assert [d.code for d in result.diagnostics] == ["JSON_MALFORMED"]
