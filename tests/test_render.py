"""DOT output: structure counts, determinism, overlays, simplification."""

from __future__ import annotations

import json

import pytest

from tmkit import dsl
from tmkit.core import normalize
from tmkit.errors import UnknownHighlightEvent
from tmkit.render import RenderMode, RenderOptions, render_dot

from _support import dot_strings, read_dot
from conftest import CORPUS_NAMES


def test_empty_model_renders_bare_digraph():
    result = dsl.parse("", "e.tm")
    dot = render_dot(result.model, [], None)
    info = read_dot(dot)
    assert dot.startswith("digraph tm {")
    assert dot.rstrip().endswith("}")
    assert info == {"nodes": 0, "edges": 0, "clusters": 0, "dashed_edges": 0}


def test_five_stage_machine_is_one_cluster_of_five_nodes():
    result = dsl.parse(
        "thimac m { stage create; stage process; stage release;"
        " stage transfer; stage receive; }",
        "m.tm",
    )
    info = read_dot(render_dot(result.model, [], None))
    assert info["clusters"] == 1
    assert info["nodes"] == 5
    assert info["edges"] == 0


def test_static_mode_counts_match_model(load_corpus):
    for name in CORPUS_NAMES:
        result = load_corpus(name)
        model = result.model
        info = read_dot(render_dot(model, result.events, result.chronology))
        assert info["nodes"] == len(model.stages), name
        assert info["clusters"] == len(model.thimacs), name
        expected_edges = len(model.flows) + len(model.triggers)
        assert info["edges"] == expected_edges, name
        assert info["dashed_edges"] == len(model.triggers), name


def test_render_deterministic(load_corpus):
    result = load_corpus("atm_full.tm")
    opts = RenderOptions(mode=RenderMode.EVENT_OVERLAY)
    first = render_dot(result.model, result.events, result.chronology, opts)
    second = render_dot(result.model, result.events, result.chronology, opts)
    assert first == second


def test_chronology_mode_emits_event_graph(load_corpus):
    result = load_corpus("atm_full.tm")
    dot = render_dot(
        result.model,
        result.events,
        result.chronology,
        RenderOptions(mode=RenderMode.CHRONOLOGY),
    )
    info = read_dot(dot)
    assert info["nodes"] == 15
    assert info["edges"] == 14
    assert '"E12" -> "E15"' in dot


def test_event_overlay_highlight_fills_region(load_corpus):
    result = load_corpus("davidson.tm")
    dot = render_dot(
        result.model,
        result.events,
        result.chronology,
        RenderOptions(mode=RenderMode.EVENT_OVERLAY, highlight="E4"),
    )
    assert dot.count("fillcolor") == 2  # stairs.process and the light
    assert "legend" in dot


def test_event_overlay_unknown_highlight():
    result = dsl.parse("thimac a { stage create; }", "a.tm")
    with pytest.raises(UnknownHighlightEvent):
        render_dot(
            result.model,
            [],
            None,
            RenderOptions(mode=RenderMode.EVENT_OVERLAY, highlight="nope"),
        )


def test_simplified_render_restores_source_stage_set(load_corpus):
    simplified = load_corpus("atm_simplified.tm")
    source = simplified.model
    norm = normalize(source)
    dot = render_dot(norm, [], None, RenderOptions(simplified=True))
    info = read_dot(dot)
    assert info["nodes"] == len(source.stages)
    source_names = {source.qualified_name(s.id) for s in source.stages.values()}
    hidden_names = {
        norm.qualified_name(s)
        for f in norm.flows
        for s in f.implicit_segments
    }
    assert hidden_names  # normalization really inserted stages
    for name in hidden_names:
        assert f'"{name}"' not in dot
    for name in source_names:
        assert f'"{name}"' in dot
    # contraction may route through source-visible ports but never fewer
    # edges than the source declared
    assert info["edges"] - info["dashed_edges"] >= len(source.flows)
    full_dot = render_dot(norm, [], None, RenderOptions(simplified=False))
    assert read_dot(full_dot)["nodes"] == len(norm.stages)


def test_simplified_render_noop_without_provenance(load_corpus):
    result = load_corpus("atm_full.tm")
    plain = render_dot(result.model, [], None, RenderOptions())
    simplified = render_dot(result.model, [], None, RenderOptions(simplified=True))
    assert plain == simplified


def test_simplified_render_drops_a_trigger_at_a_hidden_stage():
    doc = {
        "thimacs": [
            {"name": "a", "stages": [{"kind": "create"}, {"kind": "release"}]},
            {"name": "b", "stages": [{"kind": "create"}]},
        ],
        "flows": [
            {"from": "a.create", "to": "a.release", "implicitSegments": ["a.release"]}
        ],
        "triggers": [{"from": "b.create", "to": "a.release"}],
    }
    model = dsl.from_json(json.dumps(doc)).model
    trigger = '"b.create" -> "a.release" [style=dashed];'
    assert trigger in render_dot(model)
    simplified = render_dot(model, [], None, RenderOptions(simplified=True))
    assert '"a.release"' not in simplified
    assert "style=dashed" not in simplified


# an event label ending in a backslash, and one with quotes, a newline
# and a backslash before "l" (a DOT line break if left unescaped)
AWKWARD_LABELS = r"""
thimac a { stage create; stage process; }
flow a.create -> a.process;
event E "back\\" { region { a; } }
event F "say \"hi\"\nthen \\l" { region { a.process; } }
chronology { E -> F; }
"""


def _render_all(result):
    for mode in RenderMode:
        for simplified in (False, True):
            opts = RenderOptions(mode, simplified=simplified)
            yield render_dot(result.model, result.events, result.chronology, opts)


def test_every_render_mode_writes_well_formed_dot_strings(load_corpus):
    for result in [dsl.parse(AWKWARD_LABELS, "awkward.tm")] + [
        load_corpus(name) for name in CORPUS_NAMES
    ]:
        for dot in _render_all(result):
            dot_strings(dot)


def test_labels_are_escaped_once_and_keep_their_line_breaks():
    result = dsl.parse(AWKWARD_LABELS, "awkward.tm")
    assert [e.label for e in result.events] == ["back\\", 'say "hi"\nthen \\l']
    chronology = render_dot(
        result.model, result.events, result.chronology,
        RenderOptions(mode=RenderMode.CHRONOLOGY),
    )
    assert r'"E" [label="E\nback\\"];' in chronology
    assert r'"F" [label="F\nsay \"hi\"\nthen \\l"];' in chronology
    overlay = render_dot(
        result.model, result.events, result.chronology,
        RenderOptions(mode=RenderMode.EVENT_OVERLAY),
    )
    assert r'label="E: back\\\lF: say \"hi\"\nthen \\l\l"];' in overlay


def test_dot_string_checker_rejects_an_escaped_closing_quote():
    with pytest.raises(AssertionError):
        dot_strings('  "E" [label="E\\nback\\"];\n')
    assert dot_strings('  "E" [label="E\\nback\\\\"];\n') == ['"E"', '"E\\nback\\\\"']
