"""Parser, printer, and JSON interchange."""

from __future__ import annotations

import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmkit import dsl
from tmkit.behavior import Chronology, EventDef
from tmkit.cli import run
from tmkit.core import Model, StageKind, model_equal, normalize
from tmkit.diagnostics import Diagnostic, Severity, SourceSpan
from tmkit.errors import AmbiguousExpansion

from tmkit.corpus import corpus_path
from tmkit.dsl.lexer import TokenKind, tokenize
from tmkit.validate import validate

from _support import (
    random_legal_chain_model,
    random_model,
    reference_parse,
    reference_to_json,
    reference_tokenize,
)
from conftest import CORPUS_NAMES
from test_fuzz import _document, _dsl_text


def errors(result):
    return [d for d in result.diagnostics if d.is_error]


# -- parse ---------------------------------------------------------------


def test_parse_empty_source():
    result = dsl.parse("", "empty.tm")
    assert result.model is not None
    assert result.diagnostics == []
    assert result.model.element_count() == 0
    assert result.events == []
    assert result.chronology is None


def test_parse_simple_chain():
    result = dsl.parse(
        "thimac A { stage create; stage release; stage transfer; }\n"
        "flow A.create -> A.release -> A.transfer;",
        "simple.tm",
    )
    assert errors(result) == []
    model = result.model
    assert len(model.thimacs) == 1
    assert len(model.stages) == 3
    assert len(model.flows) == 2


def test_parse_corpus_files_clean(load_corpus):
    for name in CORPUS_NAMES:
        result = load_corpus(name)
        assert result.model is not None, name
        assert errors(result) == [], name


def test_atm_encoding_box_and_edge_counts(load_corpus):
    # one thimac per named box: 4 roots, 8 under user, 13 under atm,
    # 3 relay ports under consortium, 10 under bank plus the database's
    # tuples  (counted by hand against the encoding)
    model = load_corpus("atm_full.tm").model
    assert [model.thimacs[t].name for t in model.roots] == [
        "user",
        "atm",
        "consortium",
        "bank",
    ]
    assert len(model.thimacs) == 39
    assert len(model.stages) == 91
    assert len(model.flows) == 76
    assert len(model.triggers) == 17


def test_parse_stage_alias_in_paths():
    result = dsl.parse(
        "thimac a { stage transfer; stage receive; }\n"
        "flow a.transfer -> a.arrive;",
        "aliaspath.tm",
    )
    assert errors(result) == []
    edge = result.model.flows[0]
    assert result.model.stages[edge.to_stage].kind is StageKind.RECEIVE


def test_parse_nested_thimacs_and_annotations():
    result = dsl.parse(
        "thimac atm @3 { thimac card { stage receive @24; } }", "n.tm"
    )
    assert errors(result) == []
    model = result.model
    card = model.find_thimac("atm.card")
    assert card is not None
    assert model.thimacs[model.find_thimac("atm")].annotation == 3
    sid = model.find_stage("atm.card.receive")
    assert model.stages[sid].annotation == 24


def test_parse_arrive_accept_aliases():
    result = dsl.parse(
        "thimac a { stage arrive; } thimac b { stage accept; }", "alias.tm"
    )
    assert errors(result) == []
    for name in ("a", "b"):
        tid = result.model.find_thimac(name)
        assert StageKind.RECEIVE in result.model.thimacs[tid].stages


def test_parse_unknown_stage_kind_lists_the_stage_words():
    result = dsl.parse("thimac a { stage bogus; }", "kind.tm")
    assert [d.message for d in errors(result)] == [
        "expected a stage kind (create, process, release, transfer, "
        "receive, arrive, accept), found 'bogus'"
    ]


def test_parse_alias_conflicts_with_receive():
    result = dsl.parse("thimac a { stage receive; stage arrive; }", "alias2.tm")
    assert any(d.code == "DUPLICATE_DEF" for d in errors(result))


def test_parse_box_to_box_sugar_materializes_ports():
    result = dsl.parse(
        "thimac a { stage create; } thimac b { }\n"
        "flow a -> b;",
        "sugar.tm",
    )
    assert errors(result) == []
    model = result.model
    src = model.find_stage("a.transfer")
    dst = model.find_stage("b.transfer")
    assert src is not None and dst is not None
    assert model.flows[0].from_stage == src
    assert model.flows[0].to_stage == dst


def test_parse_multi_hop_flow_desugars_pairwise():
    result = dsl.parse(
        "thimac a { stage create; stage process; stage release; }\n"
        "flow a.create -> a.process -> a.release;",
        "hops.tm",
    )
    assert len(result.model.flows) == 2


MEMORY_MESSAGE = (
    "the 'memory' relation is reserved notation with no defined "
    "semantics; use a trigger instead"
)


def test_parse_trigger_and_memory_statements():
    head = "thimac a { stage process; } thimac b { stage create; }\n"
    triggers = dsl.parse(head + "trigger a.process ~> b.create;", "dash.tm")
    assert errors(triggers) == []
    assert len(triggers.model.triggers) == 1
    # a memory is reported at its keyword, and no model is built
    result = dsl.parse(
        head + "trigger a.process ~> b.create;\n  memory b.create ~> a.process;",
        "dash.tm",
    )
    assert result.model is None
    assert result.diagnostics == [
        Diagnostic(
            Severity.ERROR,
            "MEMORY_UNSUPPORTED",
            MEMORY_MESSAGE,
            SourceSpan("dash.tm", 3, 3, 3, 8),
        )
    ]
    # its endpoints are not resolved: names of nothing add no diagnostic
    unresolved = dsl.parse("memory x.create ~> y;", "dash.tm")
    assert [d.code for d in unresolved.diagnostics] == ["MEMORY_UNSUPPORTED"]
    # a syntax error inside a memory statement is reported as for a trigger
    for keyword in ("trigger", "memory"):
        broken = dsl.parse(head + f"{keyword} a.process -> b.create;", "dash.tm")
        assert broken.model is None
        assert [(d.code, d.message, d.span) for d in broken.diagnostics] == [
            (
                "SYNTAX",
                f"expected '~>' in {keyword} statement",
                SourceSpan("dash.tm", 2, len(keyword) + 12, 2, len(keyword) + 13),
            )
        ]


def test_parse_recovers_and_reports_multiple_errors():
    result = dsl.parse(
        "thimac a { stage create; }\n"
        "flow a.create -> a.nowhere;\n"
        "garbage statement;\n"
        "flow a.create -> b.create;\n",
        "multi.tm",
    )
    assert result.model is None
    assert len(errors(result)) >= 3
    codes = {d.code for d in errors(result)}
    assert "UNRESOLVED_PATH" in codes
    assert "SYNTAX" in codes


@pytest.mark.parametrize(
    "source",
    [
        "thimac a @\u00b2 { stage create; }",
        "thimac a { stage create; }\nevent E { region { a; } repeat \u00b3; }",
    ],
)
def test_parse_non_ascii_digits_are_lex_errors(source):
    result = dsl.parse(source, "digits.tm")
    assert "LEX" in {d.code for d in errors(result)}


# -- lexer against the per-character oracle ---------------------------

_LEX_FRAGMENTS = [
    "\r\n", "\n", "\t", " ", "\r", "\x0c",
    "thimac", "stage", "event", "create", "transfer", "arrive",
    "a", "Zed9", "x_y", "_lead", "__", "9", "007", "\u00b2", "\u0663",
    "\u00e9t\u00e9", "caf\u00e9", "\u03a9", "\u0436",
    '"', '"ok"', '"open', '\\', '\\n', '\\"', '"a\\\nb"', '"\\\n',
    "//", "// note\n", "/*", "*/", "/* block */", "/**/", "/*/",
    "->", "~>", "-", "~", ">", "{", "}", ";", ".", ",", "@", "*", "/",
]

_lex_text = st.lists(
    st.one_of(st.sampled_from(_LEX_FRAGMENTS), st.text(max_size=4)), max_size=40
).map("".join)


def _tokens_and_diagnostics(text: str, file: str):
    """``tokenize``'s columns as ``Token`` records, field for field."""
    tokens, diagnostics = tokenize(text, file)
    return list(tokens), diagnostics


@settings(max_examples=600, deadline=None)
@given(_lex_text)
def test_tokenize_matches_reference_tokenizer(text):
    assert _tokens_and_diagnostics(text, "f.tm") == reference_tokenize(text, "f.tm")


@pytest.mark.parametrize(
    "text, kinds, messages",
    [
        ("\r\n", "EOF", []),
        ("a \n", "IDENT EOF", []),
        # a stray backslash, then a string whose quote the backslash escapes
        ('\\"\\"', "STRING EOF",
         ["unexpected character '\\\\'", "unterminated string literal"]),
        ("// a comment\n/* and a block */\n", "EOF", []),
        ("/", "EOF", ["unexpected character '/'"]),
        ("thimac a { /* open\n}", "KEYWORD IDENT LBRACE EOF",
         ["unterminated block comment"]),
        ("a; //", "IDENT SEMI EOF", []),
        ('x "one\\\ntwo" y', "IDENT STRING IDENT EOF", []),
        ("thimac a {\r\n  stage create;\r\n}\r\n",
         "KEYWORD IDENT LBRACE KEYWORD KEYWORD SEMI RBRACE EOF", []),
    ],
    ids=[
        "crlf-only", "trailing-blanks", "escaped-quote", "comments-only",
        "slash", "open-comment-after-tokens", "line-comment-at-end",
        "escaped-newline-in-string", "crlf-lines",
    ],
)
def test_tokenize_pinned_cases(text, kinds, messages):
    tokens, diagnostics = tokenize(text, "p.tm")
    assert [kind.name for kind in tokens.kinds] == kinds.split()
    assert [d.message for d in diagnostics] == messages
    assert _tokens_and_diagnostics(text, "p.tm") == reference_tokenize(text, "p.tm")


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_tokenize_matches_reference_on_corpus(name):
    text = corpus_path(name).read_text(encoding="utf-8")
    assert _tokens_and_diagnostics(text, name) == reference_tokenize(text, name)


def test_parse_lexes_once_through_the_parser_module_tokenize(monkeypatch):
    """``parse`` lexes through the attribute ``tmkit.dsl.parser.tokenize``,
    once, and ``len`` of the tokens it returns counts them, EOF included;
    the benchmark's traced run and its token count rely on both."""
    import tmkit.dsl.parser as parser_module

    calls = []

    def counted(text, file):
        calls.append(file)
        return tokenize(text, file)

    monkeypatch.setattr(parser_module, "tokenize", counted)
    text = corpus_path("mud.tm").read_text(encoding="utf-8")
    assert dsl.parse(text, "mud.tm").model is not None
    assert calls == ["mud.tm"]
    tokens = tokenize(text, "mud.tm")[0]
    assert len(tokens) == len(reference_tokenize(text, "mud.tm")[0])
    assert tokens[len(tokens) - 1].kind is TokenKind.EOF


# -- parser against the recursive-descent oracle -------------------------


def _assert_same_parse(text: str, file: str) -> None:
    got, want = dsl.parse(text, file), reference_parse(text, file)
    assert got.diagnostics == want.diagnostics
    assert got.events == want.events
    assert got.chronology == want.chronology  # its span included
    assert (got.model is None) == (want.model is None)
    if got.model is not None:
        assert dsl.to_json(got) == dsl.to_json(want)
        # element spans, which the JSON leaves out
        assert list(got.model.thimacs.values()) == list(want.model.thimacs.values())
        assert list(got.model.stages.values()) == list(want.model.stages.values())
        assert got.model.flows == want.model.flows
        assert got.model.triggers == want.model.triggers


@settings(max_examples=500, deadline=None)
@given(_dsl_text)
def test_parse_matches_reference_parser(text):
    _assert_same_parse(text, "p.tm")


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_parse_matches_reference_parser_on_corpus(name):
    _assert_same_parse(corpus_path(name).read_text(encoding="utf-8"), name)


@pytest.mark.parametrize(
    "text",
    [
        # statements the generators seldom write whole
        'thimac a @1 { stage create @2; stage release; thimac b { stage receive; } }\n'
        'trigger a.create ~> a.b.receive;\n'
        'event E "tab\\there\\n" { region { a; a.b.receive; } repeat 3; contains F, G, H; }\n'
        'event F { region { a.create; } } event G { region { a; } } event H { region { a; } }\n'
        "chronology { E -> F; G; } chronology { F -> H; }",
        # a memory: reported, with no model
        "memory a.create ~> a; thimac a { stage create; } memory a ~> b.c",
        # recovery: stray braces, missing names, unterminated bodies
        "} } thimac { stage create; } flow a -> ; event { } chronology { E -> ; -> E; ",
        'event E "x" region { a; } } trigger a -> b; memory a ~> ; thimac a { stage x;',
        "thimac a { stage create; } event E { region { a.create.b; a.; } repeat 0; contains ; }",
        # a trigger before a flow, both ending at portless thimacs: the
        # trigger's port is made after every flow's
        "trigger a.create ~> c; flow a.create -> a.process -> b;\n"
        "thimac a { stage create; stage process; } thimac b { } thimac c { }",
        # a repeated trigger, and a flow chain that repeats a hop
        "thimac a { stage create; stage process; } thimac b { }\n"
        "trigger a.process ~> b; flow a -> b -> a -> b; trigger a.process ~> b;",
        # a chain whose interior path names nothing
        "thimac a { stage create; stage process; } flow a.create -> ghost -> a.process;",
        # a repeated event id: the first declaration is kept, and the
        # second's region and containment are not read
        "thimac a { stage create; } event E { region { a; } contains F; }\n"
        "event E { region { ghost; } repeat 2; contains E, G; } event F { region { a; } }",
    ],
)
def test_parse_matches_reference_parser_on_hand_written_text(text):
    _assert_same_parse(text, "h.tm")


def test_a_chains_interior_path_is_read_and_reported_once():
    # a hop's end is the next hop's start, so the path between two hops
    # that names nothing is one finding at its span
    result = dsl.parse(
        "thimac a { stage create; stage process; } flow a.create -> ghost -> a.process;",
        "h.tm",
    )
    assert [d.render() for d in result.diagnostics] == [
        "h.tm:1:60: error[UNRESOLVED_PATH] no thimac at path 'ghost'"
    ]


def test_an_unresolved_end_is_reported_in_each_statement_that_writes_it():
    # lowering keeps the id of each end path it resolved, and reads a path
    # that named nothing again where it recurs: 'ghost' is reported once
    # per statement, and 'b.transfer' names the port that 'b' made
    text = (
        "thimac a { stage create; stage process; }\n"
        "thimac b { stage receive; }\n"
        "flow a.create -> ghost;\n"
        "flow ghost -> a.process;\n"
        "trigger a.create ~> ghost;\n"
        "flow a.process -> b.transfer;\n"
        "flow a.create -> b;\n"
        "flow b.transfer -> b.receive;\n"
    )
    result = dsl.parse(text, "h.tm")
    assert [d.render() for d in result.diagnostics] == [
        "h.tm:3:18: error[UNRESOLVED_PATH] no thimac at path 'ghost'",
        "h.tm:4:6: error[UNRESOLVED_PATH] no thimac at path 'ghost'",
        "h.tm:5:21: error[UNRESOLVED_PATH] no thimac at path 'ghost'",
        "h.tm:6:19: error[UNRESOLVED_PATH] thimac 'b' has no transfer stage",
    ]
    _assert_same_parse(text, "h.tm")


@pytest.mark.parametrize(
    "source",
    [
        "thimac a @{digits} {{ stage create; }}",
        "thimac a {{ stage create @{digits}; }}",
        "thimac a {{ stage create; }}\nevent E {{ region {{ a; }} repeat {digits}; }}",
    ],
    ids=["thimac-annotation", "stage-annotation", "repeat"],
)
def test_parse_integer_literal_too_long_to_convert_is_a_syntax_error(source):
    digits = "9" * 5000  # over the interpreter's 4300-digit conversion limit
    result = dsl.parse(source.format(digits=digits), "big.tm")
    assert result.model is None
    assert [(d.code, d.message) for d in result.diagnostics] == [
        ("SYNTAX", "integer literal too long (5000 digits)")
    ]


def test_every_diagnostic_carries_a_span_inside_the_text():
    text = "thimac a { stage create;\nflow a.create -> missing.x;\n@@@\n"
    result = dsl.parse(text, "spans.tm")
    assert result.diagnostics
    line_count = text.count("\n") + 1
    for diag in result.diagnostics:
        assert diag.span is not None
        assert diag.span.file == "spans.tm"
        assert 1 <= diag.span.start_line <= line_count


def test_parse_duplicate_thimac_and_event():
    result = dsl.parse(
        "thimac a { } thimac a { }\n"
        "event E1 { region { a; } }\n"
        "event E1 { region { a; } }",
        "dups.tm",
    )
    dup = [d for d in errors(result) if d.code == "DUPLICATE_DEF"]
    assert len(dup) >= 2


def test_parse_event_with_repeat_and_contains():
    result = dsl.parse(
        "thimac ship { stage create; }\n"
        'event E_pass "one passage" { region { ship.create; } repeat 4000; }\n'
        "event E_year { region { ship.create; } contains E_pass; }",
        "ev.tm",
    )
    assert errors(result) == []
    by_id = {e.id: e for e in result.events}
    assert by_id["E_pass"].multiplicity == 4000
    assert by_id["E_pass"].label == "one passage"
    assert by_id["E_year"].subevents == ["E_pass"]


def test_parse_event_containment_cycle_is_an_error():
    result = dsl.parse(
        "thimac t { stage create; }\n"
        "event A { region { t.create; } contains B; }\n"
        "event B { region { t.create; } contains A; }",
        "cycle.tm",
    )
    assert any(d.code == "EVENT_CYCLE" for d in errors(result))


def test_parse_region_thimac_path_includes_descendants():
    result = dsl.parse(
        "thimac a { stage create; thimac inner { stage process; } }\n"
        "event E { region { a; } }",
        "region.tm",
    )
    assert errors(result) == []
    assert len(result.events[0].region) == 2


def test_parse_chronology_merges_blocks_and_keeps_mention_order():
    result = dsl.parse(
        "thimac t { stage create; }\n"
        "event E1 { region { t.create; } }\n"
        "event E2 { region { t.create; } }\n"
        "event E3 { region { t.create; } }\n"
        "chronology { E2 -> E3; }\n"
        "chronology { E1; E1 -> E2; }",
        "chrono.tm",
    )
    assert errors(result) == []
    assert result.chronology.nodes == ["E2", "E3", "E1"]
    assert result.chronology.edges == [("E2", "E3"), ("E1", "E2")]
    # diagnostics about the chronology point at its first statement
    span = result.chronology.span
    assert (span.file, span.start_line, span.start_col) == ("chrono.tm", 5, 14)


def test_parse_repeat_zero_rejected():
    result = dsl.parse(
        "thimac t { stage create; }\nevent E { region { t.create; } repeat 0; }",
        "rep.tm",
    )
    assert any(d.code == "SYNTAX" for d in errors(result))


def test_parse_duplicate_flow_warns_and_collapses():
    result = dsl.parse(
        "thimac a { stage create; stage process; }\n"
        "flow a.create -> a.process;\n"
        "flow a.create -> a.process;",
        "dupflow.tm",
    )
    assert errors(result) == []
    warnings = [d for d in result.diagnostics if d.severity is Severity.WARNING]
    assert any(d.code == "DUPLICATE_EDGE" for d in warnings)
    assert len(result.model.flows) == 1


@pytest.mark.parametrize(
    "flow, message",
    [
        ("flow a.create.b -> a;", "2:14: error[SYNTAX] a stage kind may only end a path"),
        ("flow a. -> a;", "2:9: error[SYNTAX] expected a path segment, found '->'"),
    ],
)
def test_parse_malformed_paths_are_syntax_errors(flow, message):
    result = dsl.parse(f"thimac a {{ stage create; }}\n{flow}", "path.tm")
    assert result.model is None
    assert [d.render() for d in result.diagnostics] == [f"path.tm:{message}"]


def test_parse_deterministic():
    source = (
        "thimac a { stage create; stage process; }\n"
        "flow a.create -> a.process;\n"
        "event E { region { a; } }\nchronology { E; }"
    )
    first = dsl.parse(source, "d.tm")
    second = dsl.parse(source, "d.tm")
    assert dsl.to_json(first) == dsl.to_json(second)


# -- format ---------------------------------------------------------------


def test_format_empty_model():
    result = dsl.parse("", "e.tm")
    assert dsl.format(result) == ""


def test_format_round_trip_on_corpus(load_corpus):
    for name in CORPUS_NAMES:
        first = load_corpus(name)
        text = dsl.format(first)
        second = dsl.parse(text, name)
        assert errors(second) == [], name
        assert model_equal(first.model, second.model), name
        assert dsl.format(second) == text, name


def test_format_deterministic_bytes(load_corpus):
    result = load_corpus("atm_full.tm")
    assert dsl.format(result).encode() == dsl.format(result).encode()


def test_format_requires_model():
    bad = dsl.parse("flow a.b -> c.d;", "bad.tm")
    assert bad.model is None
    with pytest.raises(ValueError):
        dsl.format(bad)
    with pytest.raises(ValueError, match="without a model"):
        dsl.to_json(bad)


# -- JSON -------------------------------------------------------------------


def test_to_json_empty_model_exact_document():
    result = dsl.parse("", "e.tm")
    doc = json.loads(dsl.to_json(result))
    assert doc == {
        "thimacs": [],
        "flows": [],
        "triggers": [],
        "events": [],
        "chronology": None,
    }


def test_to_json_matches_the_json_dumps_oracle_on_the_corpus(load_corpus):
    for name in CORPUS_NAMES:
        raw = load_corpus(name)
        norm = dsl.ParseResult(
            normalize(raw.model, strict=False), raw.events, raw.chronology, []
        )
        for result in (raw, norm):
            assert dsl.to_json(result) == reference_to_json(result), name


_LABELS = st.one_of(
    st.none(), st.text(max_size=8), st.sampled_from(['"', "\\", "\n\té\U0001f600"])
)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 1_000_000),
    labels=st.lists(_LABELS, max_size=4),
    chronology=st.sampled_from(["none", "empty", "chain"]),
)
def test_to_json_matches_the_oracle_on_generated_models(seed, labels, chronology):
    rng = random.Random(seed)
    if seed % 2:
        # a legal chain normalizes, so the model has a declared record
        model = normalize(random_legal_chain_model(rng, machines=4))
    else:
        model = random_model(rng)
    for element in [*model.thimacs.values(), *model.stages.values()]:
        element.annotation = rng.choice([None, None, 0, 7, 12345])
    stages = sorted(model.stages)
    events = [
        EventDef(
            f"E{k}",
            label,
            set(rng.sample(stages, rng.randint(0, len(stages)))),
            rng.randint(1, 5),
            [f"E{j}" for j in range(k)],
        )
        for k, label in enumerate(labels)
    ]
    nodes = [e.id for e in events]
    chrono = {
        "none": None,
        "empty": Chronology(),
        "chain": Chronology(nodes=nodes, edges=list(zip(nodes, nodes[1:]))),
    }[chronology]
    result = dsl.ParseResult(model, events, chrono, [])
    assert dsl.to_json(result) == reference_to_json(result)


def test_to_json_escapes_names_as_json_dumps_does():
    # the library API takes names that the DSL could not write
    model = Model()
    tid = model.add_thimac('q"\\\n\té\U0001f600')
    model.add_flow(
        model.add_stage(tid, StageKind.CREATE), model.add_stage(tid, StageKind.PROCESS)
    )
    result = dsl.ParseResult(model, [], None, [])
    text = dsl.to_json(result)
    assert text == reference_to_json(result)
    assert '"q\\"\\\\\\n\\t\\u00e9\\ud83d\\ude00.create"' in text


# Model documents in the exact layout of ``json.dumps(doc, indent=2)``:
# every key present and in to_json's order, regions sorted by name.
CORNER_DOCUMENTS = {
    "everything": {
        "thimacs": [
            {
                "name": "a",
                "parent": None,
                "annotation": 3,
                "stages": [
                    {"kind": "create", "annotation": 1},
                    {"kind": "release", "annotation": None},
                    {"kind": "transfer", "annotation": None},
                ],
            },
            {
                "name": "a.b",
                "parent": "a",
                "annotation": None,
                "stages": [
                    {"kind": "receive", "annotation": 0},
                    {"kind": "process", "annotation": None},
                ],
            },
            {"name": "c", "parent": None, "annotation": 12, "stages": []},
        ],
        "flows": [
            {
                "from": "a.create",
                "to": "a.b.process",
                "implicitSegments": [],
            },
            {"from": "a.b.process", "to": "a.create", "implicitSegments": []},
        ],
        "triggers": [{"from": "a.b.process", "to": "a.release"}],
        "events": [
            {
                "id": "E",
                "label": 'say "hi" \\ then\nnewline\ttab é \U0001f600',
                "region": ["a.b.process", "a.create"],
                "repeat": 2,
                "contains": [],
            },
            {"id": "F", "label": None, "region": [], "repeat": 1, "contains": ["E"]},
        ],
        "chronology": {"nodes": ["E", "F", "G"], "edges": [["E", "F"], ["F", "G"]]},
    },
    "empty sections, no chronology": {
        "thimacs": [{"name": "a", "parent": None, "annotation": None, "stages": []}],
        "flows": [],
        "triggers": [],
        "events": [],
        "chronology": None,
    },
    "empty chronology": {
        "thimacs": [],
        "flows": [],
        "triggers": [],
        "events": [],
        "chronology": {"nodes": [], "edges": []},
    },
}


@pytest.mark.parametrize("name", CORNER_DOCUMENTS)
def test_to_json_writes_corner_documents_as_json_dumps_does(name):
    # ASCII: é is written \u00e9, and U+1F600 as the pair \ud83d\ude00
    text = json.dumps(CORNER_DOCUMENTS[name], indent=2) + "\n"
    result = dsl.from_json(text)
    assert result.diagnostics == []
    assert dsl.to_json(result) == reference_to_json(result) == text


def test_from_json_reads_an_empty_chronology_object():
    result = dsl.from_json('{"chronology": {}}')
    assert result.diagnostics == []
    text = dsl.to_json(result)
    assert text == reference_to_json(result)
    assert '"chronology": {\n    "nodes": [],\n    "edges": []\n  }' in text


def test_from_json_reports_each_dangling_reference_where_it_occurs():
    """An end or region entry that names nothing is one DANGLING_REF per
    occurrence, with the parser's message after the entry's context.
    Entries that DSL syntax cannot write are read the same way and raise
    nothing: an empty path or segment, a bare stage kind, and a stage
    kind before the end."""
    messages = {
        "ghost": "no thimac at path 'ghost'",
        "": "no thimac at path ''",
        "create": "no thimac at path ''",
        "a..create": "no thimac at path 'a.'",
        "a.create.b": "no thimac at path 'a.create.b'",
        ".": "no thimac at path '.'",
    }
    for ref, message in messages.items():
        doc = {
            "thimacs": [
                {
                    "name": "a",
                    "stages": [{"kind": "create"}, {"kind": "process"}, {"kind": "transfer"}],
                }
            ],
            "flows": [{"from": ref, "to": ref}],
            "triggers": [{"from": ref, "to": "a.create"}, {"from": "a.process", "to": ref}],
            "events": [{"id": "E", "region": [ref, "a.create", ref]}],
        }
        result = dsl.from_json(json.dumps(doc))
        assert result.model is None
        assert [d.render() for d in result.diagnostics] == [
            f"<model>: error[DANGLING_REF] flow: {message}",
            f"<model>: error[DANGLING_REF] flow: {message}",
            f"<model>: error[DANGLING_REF] trigger: {message}",
            f"<model>: error[DANGLING_REF] trigger: {message}",
            f"<model>: error[DANGLING_REF] event 'E' region: {message}",
            f"<model>: error[DANGLING_REF] event 'E' region: {message}",
        ], ref


def test_from_json_resolves_each_distinct_reference_of_a_document_once(
    load_corpus, monkeypatch
):
    """A region entry that names a stage is read as an end of the same
    text is, through the end memo: every flow end, trigger end and region
    entry of a corpus document names a stage, so each distinct one is
    resolved once in all."""
    from tmkit.dsl import json_io

    resolved = Counter()

    def spy(read):
        def counted(model, segments):
            resolved[".".join(segments)] += 1
            return read(model, segments)

        return counted

    monkeypatch.setattr(json_io, "stage_at", spy(json_io.stage_at))
    monkeypatch.setattr(json_io, "stages_at", spy(json_io.stages_at))
    for name in CORPUS_NAMES:
        doc = json.loads(dsl.to_json(load_corpus(name)))
        edges = doc["flows"] + doc["triggers"]
        refs = {
            *(edge[end] for edge in edges for end in ("from", "to")),
            *(ref for event in doc["events"] for ref in event["region"]),
        }
        resolved.clear()
        assert errors(dsl.from_json(json.dumps(doc))) == [], name
        assert resolved == Counter(refs), name


def test_a_port_made_by_a_bare_end_resolves_after_it_in_both_front_ends():
    """A transfer stage named before a bare end makes it is unresolved
    there, and resolves after it: an unresolved reference is read again
    where it recurs."""
    text = (
        "thimac a { stage create; } thimac b { stage receive; }\n"
        "flow a.create -> b.transfer;\nflow a.create -> b;\n"
        "flow b.transfer -> b.receive;\n"
    )
    parsed = dsl.parse(text, "p.tm")
    assert [d.render() for d in parsed.diagnostics] == [
        "p.tm:2:18: error[UNRESOLVED_PATH] thimac 'b' has no transfer stage"
    ]
    loaded = dsl.from_json(json.dumps({
        "thimacs": [
            {"name": "a", "stages": [{"kind": "create"}]},
            {"name": "b", "stages": [{"kind": "receive"}]},
        ],
        "flows": [
            {"from": "a.create", "to": "b.transfer"},
            {"from": "a.create", "to": "b"},
            {"from": "b.transfer", "to": "b.receive"},
        ],
    }))
    assert [d.render() for d in loaded.diagnostics] == [
        "<model>: error[DANGLING_REF] flow: thimac 'b' has no transfer stage"
    ]


def test_json_round_trip_on_corpus(load_corpus):
    for name in CORPUS_NAMES:
        first = load_corpus(name)
        second = dsl.from_json(dsl.to_json(first))
        assert errors(second) == [], name
        assert model_equal(first.model, second.model), name
        assert [e.id for e in second.events] == [e.id for e in first.events]
        if first.chronology is None:
            assert second.chronology is None
        else:
            assert second.chronology.nodes == first.chronology.nodes
            assert second.chronology.edges == first.chronology.edges


def test_json_round_trip_preserves_regions_and_repeat(load_corpus):
    first = load_corpus("ships.tm")
    second = dsl.from_json(dsl.to_json(first))
    by_id = {e.id: e for e in second.events}
    assert by_id["E_passing"].multiplicity == 4000
    assert by_id["E_lastyear"].subevents == ["E_passing"]
    m1, m2 = first.model, second.model
    r1 = {m1.qualified_name(s) for s in first.events[0].region}
    r2 = {m2.qualified_name(s) for s in second.events[0].region}
    assert r1 == r2


def test_from_json_unknown_stage_kind():
    doc = {
        "thimacs": [
            {
                "name": "a",
                "parent": None,
                "annotation": None,
                "stages": [{"kind": "destroy", "annotation": None}],
            }
        ],
        "flows": [],
        "triggers": [],
        "events": [],
        "chronology": None,
    }
    result = dsl.from_json(json.dumps(doc))
    assert any(d.code == "UNKNOWN_STAGE_KIND" for d in errors(result))


def test_from_json_dangling_reference():
    doc = {
        "thimacs": [],
        "flows": [{"from": "a.create", "to": "b.process", "implicitSegments": []}],
        "triggers": [],
        "events": [],
        "chronology": None,
    }
    result = dsl.from_json(json.dumps(doc))
    assert any(d.code == "DANGLING_REF" for d in errors(result))


def test_from_json_malformed_text():
    result = dsl.from_json("{not json")
    assert result.model is None
    assert any(d.code == "JSON_MALFORMED" for d in errors(result))


def test_from_json_number_too_long_to_convert():
    digits = "9" * 5000  # over the interpreter's 4300-digit conversion limit
    result = dsl.from_json('{"thimacs": [{"name": "a", "annotation": ' + digits + "}]}")
    assert result.model is None
    assert [d.code for d in result.diagnostics] == ["JSON_MALFORMED"]


@pytest.mark.parametrize(
    "doc",
    [
        {"thimacs": [1]},
        {"thimacs": [{"name": "a", "stages": [1]}]},
        {"flows": [[1, 2]]},
        {"events": [3]},
        {"chronology": []},
    ],
)
def test_from_json_entries_that_are_not_objects(doc):
    result = dsl.from_json(json.dumps(doc))
    assert result.model is None
    assert any(d.code == "JSON_MALFORMED" for d in errors(result))


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"events": [{"id": "E", "region": 5}]}, "event 'E' region"),
        ({"events": [{"id": "E", "contains": "F"}]}, "event 'E' contains"),
        ({"flows": {"from": "a.transfer", "to": "b.transfer"}}, "flows"),
        ({"chronology": {"nodes": 5}}, "chronology nodes"),
        ({"chronology": {"edges": {"E": "F"}}}, "chronology edges"),
    ],
)
def test_from_json_list_fields_that_are_not_lists(doc, field):
    result = dsl.from_json(json.dumps(doc))
    assert result.model is None
    assert [(d.code, d.message) for d in errors(result)] == [
        ("JSON_MALFORMED", f"{field} must be a list")
    ]


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            {
                "thimacs": [{"name": "a", "stages": [{"kind": "create"}]}],
                "flows": [{"from": "a.create", "to": 5}],
            },
            "flow: stage reference must be a string",
        ),
        (
            {"thimacs": [{"name": "a", "parent": [1]}]},
            "thimac 'a' parent must be a string or null",
        ),
        (
            {"events": [{"id": "E", "contains": [{}]}]},
            "event 'E' contains entry {} must be a string",
        ),
        # a thimac's name is its parent's name, a dot and its local name
        (
            {"thimacs": [{"name": "a"}, {"name": "x"}, {"name": "x.y", "parent": "a"}]},
            "thimac 'x.y' should be named 'a.y' under parent \"a\"",
        ),
        (
            {"thimacs": [{"name": "x.y"}]},
            "thimac 'x.y' should be named 'y' under parent null",
        ),
    ],
)
def test_from_json_values_of_the_wrong_shape(doc, message):
    result = dsl.from_json(json.dumps(doc))
    assert result.model is None
    assert [(d.code, d.message) for d in errors(result)] == [
        ("JSON_MALFORMED", message)
    ]


def test_a_self_flow_is_an_illegal_flow_in_both_front_ends(tmp_path, capsys):
    """Text and JSON both accept a flow from a stage to itself; what
    ``tm validate`` and ``tm normalize`` report for it is the same line,
    but for the location."""
    path = tmp_path / "self.tm"
    path.write_text(
        "thimac a { stage create; stage process; }\n"
        "flow a.create -> a.process;\n"
        "flow a.process -> a.process;\n"
    )
    flow = "flow a.process -> a.process"
    illegal = f"error[FLOW_ILLEGAL] {flow} is not a legal within-machine step"
    ambiguous = f"error[AMBIGUOUS_EXPANSION] {flow} has no legal expansion"
    assert run(["parse", str(path)]) == 0
    assert capsys.readouterr().err == ""
    assert run(["validate", str(path)]) == 1
    assert capsys.readouterr().err == f"{path}:3:1: {illegal}\n"
    assert run(["normalize", str(path)]) == 1
    assert capsys.readouterr().err == f"{path}:3:1: {ambiguous}\n"

    loaded = dsl.from_json(json.dumps({
        "thimacs": [
            {"name": "a", "stages": [{"kind": "create"}, {"kind": "process"}]}
        ],
        "flows": [
            {"from": "a.create", "to": "a.process"},
            {"from": "a.process", "to": "a.process"},
        ],
    }))
    assert loaded.diagnostics == []
    # the steps of tm validate and tm normalize
    diags = validate(normalize(loaded.model, strict=False), loaded.events)
    assert [d.render() for d in diags] == [f"<model>: {illegal}"]
    with pytest.raises(AmbiguousExpansion) as raised:
        normalize(loaded.model)
    assert f"error[AMBIGUOUS_EXPANSION] {raised.value}" == ambiguous


@pytest.mark.parametrize(
    "doc, diagnostic",
    [
        (
            {"thimacs": [{"name": "a b", "stages": [{"kind": "create"}]}]},
            ("JSON_MALFORMED", "thimac name 'a b' is not an identifier or is a keyword"),
        ),
        (
            {"thimacs": [{"name": "stage", "stages": []}]},
            ("JSON_MALFORMED", "thimac name 'stage' is not an identifier or is a keyword"),
        ),
        (
            {"events": [{"id": "E 1"}]},
            ("JSON_MALFORMED", "event id 'E 1' is not an identifier or is a keyword"),
        ),
        (
            {"events": [{"id": "region"}]},
            ("JSON_MALFORMED", "event id 'region' is not an identifier or is a keyword"),
        ),
        (
            {"chronology": {"nodes": ["E-1"], "edges": []}},
            ("JSON_MALFORMED", "chronology node 'E-1' is not an identifier or is a keyword"),
        ),
        (
            {"chronology": {"nodes": [1], "edges": []}},
            ("JSON_MALFORMED", "chronology node 1 must be a string"),
        ),
        (
            {"chronology": {"nodes": [], "edges": [["E", "\u00c9"]]}},
            ("JSON_MALFORMED", "chronology node '\u00c9' is not an identifier or is a keyword"),
        ),
        (
            {"events": [{"id": "E"}, {"id": "E"}]},
            ("DUPLICATE_DEF", "event 'E' already declared"),
        ),
        (
            {"thimacs": [{"name": "a", "stages": [{"kind": "create"}, {"kind": "create"}]}]},
            ("DUPLICATE_DEF", "a already has a create stage"),
        ),
        (
            {"events": [{"id": "E", "contains": ["F"]}, {"id": "F", "contains": ["E"]}]},
            ("EVENT_CYCLE", "event containment cycle: E -> F -> E"),
        ),
    ],
)
def test_from_json_rejects_what_the_dsl_cannot_write(doc, diagnostic):
    result = dsl.from_json(json.dumps(doc))
    assert result.model is None
    assert [(d.code, d.message) for d in errors(result)] == [diagnostic]


def test_json_labels_with_newlines_and_backslashes_print_and_parse_back():
    doc = {
        "thimacs": [{"name": "a", "stages": [{"kind": "create"}]}],
        "events": [{"id": "E", "label": 'two\nlines, a \\ and a "', "region": ["a.create"]}],
    }
    result = dsl.from_json(json.dumps(doc))
    text = dsl.format_parts(result.model, result.events)
    assert 'event E "two\\nlines, a \\\\ and a \\"" {' in text
    assert dsl.parse(text).events[0].label == doc["events"][0]["label"]


def test_from_json_rejects_a_label_that_is_not_a_string():
    doc = {
        "thimacs": [{"name": "a", "stages": [{"kind": "create"}]}],
        "events": [{"id": "E", "label": [1], "region": ["a.create"]}],
    }
    result = dsl.from_json(json.dumps(doc))
    assert result.model is None
    assert [(d.code, d.message) for d in errors(result)] == [
        ("JSON_MALFORMED", "event 'E' label must be a string or null")
    ]
    assert result.events[0].label is None


@pytest.mark.parametrize("value", [[1], "x", True, -3, 1.5])
def test_from_json_rejects_a_thimac_annotation_the_dsl_cannot_write(value):
    doc = {"thimacs": [{"name": "a", "annotation": value, "stages": [{"kind": "create"}]}]}
    result = dsl.from_json(json.dumps(doc))
    assert result.model is None
    assert [(d.code, d.message) for d in errors(result)] == [
        ("JSON_MALFORMED", "thimac 'a' annotation must be a non-negative integer or null")
    ]


@pytest.mark.parametrize("value", [[1], "x", True, -3, 1.5])
def test_from_json_rejects_a_stage_annotation_the_dsl_cannot_write(value):
    doc = {"thimacs": [{"name": "a", "stages": [{"kind": "arrive", "annotation": value}]}]}
    result = dsl.from_json(json.dumps(doc))
    assert result.model is None
    assert [(d.code, d.message) for d in errors(result)] == [
        (
            "JSON_MALFORMED",
            "thimac 'a' receive stage annotation must be a non-negative integer or null",
        )
    ]


def test_from_json_accepts_annotations_the_dsl_writes():
    text = "thimac a @0 { stage create @12; stage process; }\n"
    result = dsl.from_json(dsl.to_json(dsl.parse(text)))
    assert result.diagnostics == []
    assert dsl.format_parts(result.model) == (
        "thimac a @0 {\n  stage create @12;\n  stage process;\n}\n"
    )


def test_from_json_rejects_a_boolean_repeat():
    doc = {
        "thimacs": [{"name": "a", "stages": [{"kind": "create"}]}],
        "events": [{"id": "E", "region": ["a.create"], "repeat": True}],
    }
    result = dsl.from_json(json.dumps(doc))
    assert [(d.code, d.message) for d in errors(result)] == [
        ("JSON_MALFORMED", "event 'E' repeat must be a positive integer")
    ]


def test_from_json_duplicate_definitions_become_diagnostics():
    doc = {
        "thimacs": [
            {"name": "a", "parent": None, "annotation": None, "stages": []},
            {
                "name": "a",
                "parent": None,
                "annotation": None,
                "stages": [
                    {"kind": "create", "annotation": None},
                    {"kind": "create", "annotation": None},
                ],
            },
        ],
        "flows": [],
        "triggers": [],
        "events": [],
        "chronology": None,
    }
    result = dsl.from_json(json.dumps(doc))
    assert result.model is None
    assert any(d.code == "DUPLICATE_DEF" for d in errors(result))


# what a flow's implicitSegments may hold in a document: any JSON, stage
# lists, unknown paths and bare thimacs
_SEGMENTS = st.one_of(
    st.none(),
    st.integers(),
    st.text(max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    st.lists(
        st.one_of(
            st.sampled_from(
                ["a", "b", "a.c", "ghost", "a.create", "a.release", "zz.release", "", "create"]
            ),
            st.integers(),
            st.none(),
        ),
        max_size=4,
    ),
)


@settings(max_examples=200, deadline=None)
@given(doc=_document(), data=st.data())
def test_from_json_ignores_implicit_segments(doc, data):
    """A flow's implicitSegments, whatever it holds, changes neither the
    diagnostics nor the model that ``from_json`` reads."""
    flows = doc["flows"] if isinstance(doc["flows"], list) else []
    entries = [entry for entry in flows if isinstance(entry, dict)]
    for entry in entries:
        entry.pop("implicitSegments", None)
    without = dsl.from_json(json.dumps(doc))
    for entry in entries:
        entry["implicitSegments"] = data.draw(_SEGMENTS)
    loaded = dsl.from_json(json.dumps(doc))
    assert loaded.diagnostics == without.diagnostics
    assert (loaded.model is None) == (without.model is None)
    if without.model is not None:
        assert dsl.to_json(loaded) == dsl.to_json(without)


def test_from_json_repeated_flow_keeps_the_first_entry():
    flow = {"from": "a.release", "to": "a.transfer"}
    doc = {
        "thimacs": [
            {"name": "a", "stages": [{"kind": "release"}, {"kind": "transfer"}]}
        ],
        "flows": [
            {**flow, "implicitSegments": ["a.release"]},
            {**flow, "implicitSegments": []},
        ],
    }
    result = dsl.from_json(json.dumps(doc))
    assert errors(result) == []
    model = result.model
    [edge] = model.flows
    assert model.qualified_name(edge.id) == "a.release->a.transfer"
    # neither entry's implicitSegments is read, and a loaded model has no record
    assert model.declared() is None
    assert '"implicitSegments": []' in dsl.to_json(result)
    assert [d.render() for d in result.diagnostics] == [
        "<model>: warning[DUPLICATE_EDGE] duplicate flow a.release -> a.transfer collapsed"
    ]


def test_from_json_reports_a_repeated_flow_as_the_parser_does():
    source = (
        "thimac a { stage create; stage process; thimac b { stage transfer; } }\n"
        "flow a.create -> a.process;\n"
        "flow a.create -> a.process -> a.b;\n"
        "flow a.b.transfer -> a.process;\n"
        "flow a.b -> a.process;\n"
        "trigger a.process ~> a.create;\n"
        "trigger a.b ~> a.create;\n"
        "trigger a.process ~> a.create;\n"
        "trigger a.b.transfer ~> a.create;\n"
    )
    parsed = dsl.parse(source, "dup.tm")
    doc = json.loads(dsl.to_json(parsed))
    # the flows as written, repeats included; a bare thimac is its port
    doc["flows"] = [
        {"from": a, "to": b}
        for a, b in [
            ("a.create", "a.process"),
            ("a.create", "a.process"),
            ("a.process", "a.b"),
            ("a.b.transfer", "a.process"),
            ("a.b", "a.process"),
        ]
    ]
    doc["triggers"] = [
        {"from": a, "to": "a.create"}
        for a in ["a.process", "a.b", "a.process", "a.b.transfer"]
    ]
    loaded = dsl.from_json(json.dumps(doc))
    want = [(d.severity, d.code, d.message) for d in parsed.diagnostics]
    assert [(d.severity, d.code, d.message) for d in loaded.diagnostics] == want
    assert [(code, message) for _, code, message in want] == [
        ("DUPLICATE_EDGE", "duplicate flow a.create -> a.process collapsed"),
        ("DUPLICATE_EDGE", "duplicate flow a.b.transfer -> a.process collapsed"),
        ("DUPLICATE_EDGE", "duplicate trigger a.process ~> a.create collapsed"),
        ("DUPLICATE_EDGE", "duplicate trigger a.b.transfer ~> a.create collapsed"),
    ]
    assert [len(m.triggers) for m in (parsed.model, loaded.model)] == [2, 2]
    assert dsl.to_json(loaded) == dsl.to_json(parsed)


def test_from_json_rejects_memories():
    first = dsl.parse(
        "thimac a { stage create; stage process; }\n"
        "thimac b { stage create; }\n"
        "flow a.create -> a.process;\n",
        "memory.tm",
    )
    doc = json.loads(dsl.to_json(first))
    assert "memories" not in doc
    # one error per entry, whatever the entry names
    doc["memories"] = [
        {"from": "b.create", "to": "a.process"},
        {"from": "nowhere", "to": 5},
        {},
    ]
    result = dsl.from_json(json.dumps(doc))
    assert result.model is None
    assert [(d.severity, d.code, d.message, d.span) for d in result.diagnostics] == [
        (Severity.ERROR, "MEMORY_UNSUPPORTED", MEMORY_MESSAGE, None)
    ] * 3
    # an empty list is accepted, and other values are malformed
    doc["memories"] = []
    accepted = dsl.from_json(json.dumps(doc))
    assert accepted.diagnostics == []
    assert model_equal(first.model, accepted.model)
    for value in ({"from": "b.create", "to": "a.process"}, "b.create", 3, None):
        doc["memories"] = value
        rejected = dsl.from_json(json.dumps(doc))
        assert rejected.model is None
        assert [(d.code, d.message) for d in rejected.diagnostics] == [
            ("JSON_MALFORMED", "memories must be a list")
        ]
    doc["memories"] = [1]
    assert [(d.code, d.message) for d in dsl.from_json(json.dumps(doc)).diagnostics] == [
        ("JSON_MALFORMED", "memories entry 1 must be an object")
    ]


def test_json_round_trip_preserves_normalization_provenance(load_corpus):
    simp = load_corpus("atm_simplified.tm")
    norm = normalize(simp.model)
    round1 = dsl.ParseResult(norm, simp.events, simp.chronology, [])
    text = dsl.to_json(round1)
    back = dsl.from_json(text)
    assert model_equal(back.model, norm)
    assert all(f["implicitSegments"] == [] for f in json.loads(text)["flows"])
    # the inserted stages come back; the record of them stays with ``norm``
    inserted = {norm.qualified_name(s) for s in norm.declared()[1]}
    assert inserted  # normalization really inserted stages
    assert inserted <= {back.model.qualified_name(s) for s in back.model.stages}
    assert back.model.declared() is None


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 1_000_000))
def test_json_round_trip_property_on_generated_models(seed):
    model = random_model(random.Random(seed))
    result = dsl.ParseResult(model, [], None, [])
    back = dsl.from_json(dsl.to_json(result))
    assert back.model is not None
    assert model_equal(model, back.model)


def _shipped_schema() -> dict:
    from pathlib import Path

    path = Path(__file__).parent.parent / "schemas" / "tm-model.schema.json"
    return json.loads(path.read_text())


def test_corpus_json_conforms_to_shipped_schema(load_corpus):
    jsonschema = pytest.importorskip("jsonschema")
    schema = _shipped_schema()
    for name in CORPUS_NAMES:
        doc = json.loads(dsl.to_json(load_corpus(name)))
        jsonschema.validate(doc, schema)
    # a document may not carry memories, not even an empty list of them
    flow = doc["flows"][0]
    for memories in ([], [{"from": flow["from"], "to": flow["to"]}]):
        with pytest.raises(jsonschema.ValidationError, match="memories"):
            jsonschema.validate({**doc, "memories": memories}, schema)


def test_shipped_schema_admits_what_from_json_reads():
    """A path that ends at a thimac, as a flow or trigger end and as a
    region entry, and a flow's implicitSegments in any form or left out:
    the schema accepts the document and ``from_json`` loads it with no
    diagnostic."""
    jsonschema = pytest.importorskip("jsonschema")
    stages = [{"kind": k, "annotation": None} for k in ("create", "release", "transfer")]
    doc = {
        "thimacs": [
            {"name": "a", "parent": None, "annotation": None, "stages": stages},
            {"name": "b", "parent": None, "annotation": None, "stages": []},
        ],
        "flows": [
            {"from": "a.create", "to": "a.release", "implicitSegments": ["a.release"]},
            {"from": "a.release", "to": "a.transfer", "implicitSegments": 5},
            {"from": "a.transfer", "to": "b"},
        ],
        "triggers": [{"from": "b", "to": "a.create"}],
        "events": [
            {"id": "E", "label": None, "region": ["b"], "repeat": 1, "contains": []}
        ],
        "chronology": None,
    }
    jsonschema.validate(doc, _shipped_schema())
    result = dsl.from_json(json.dumps(doc))
    assert result.diagnostics == []
    b_port = result.model.find_stage("b.transfer")
    assert result.events[0].region == {b_port}
