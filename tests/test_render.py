"""DOT output: structure counts, determinism, overlays, simplification."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmkit import dsl
from tmkit.behavior import EventDef
from tmkit.core import StageKind, normalize
from tmkit.errors import UnknownHighlightEvent
from tmkit.render import RenderMode, RenderOptions, render_dot

from _support import dot_strings, random_legal_chain_model, random_model, read_dot
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


# two declared flows that share m1's inserted release and transfer
SHARED_PORT = """
thimac m1 { stage create; stage process; }
thimac m2 { stage process; }
thimac m3 { stage process; }
flow m1.create -> m2.process;
flow m1.process -> m3.process;
"""


def _flow_lines(dot: str) -> list[str]:
    return [
        line.strip() for line in dot.splitlines()
        if " -> " in line and "style=dashed" not in line
    ]


def test_simplified_render_restores_source_stage_set(load_corpus):
    for source in (
        load_corpus("atm_simplified.tm").model,
        dsl.parse(SHARED_PORT, "shared.tm").model,
    ):
        norm = normalize(source)
        dot = render_dot(norm, [], None, RenderOptions(simplified=True))
        info = read_dot(dot)
        assert info["nodes"] == len(source.stages)
        source_names = {source.qualified_name(s.id) for s in source.stages.values()}
        hidden_names = {norm.qualified_name(s) for s in norm.declared()[1]}
        assert hidden_names  # normalization really inserted stages
        for name in hidden_names:
            assert f'"{name}"' not in dot
        for name in source_names:
            assert f'"{name}"' in dot
        # exactly the declared flows, in declaration order
        assert _flow_lines(dot) == [
            f'"{source.qualified_name(f.from_stage)}" -> '
            f'"{source.qualified_name(f.to_stage)}";'
            for f in source.flows
        ]
        full_dot = render_dot(norm, [], None, RenderOptions(simplified=False))
        assert read_dot(full_dot)["nodes"] == len(norm.stages)
    # the last source, SHARED_PORT: m1.create -> m3.process is not drawn
    assert _flow_lines(dot) == [
        '"m1.create" -> "m2.process";', '"m1.process" -> "m3.process";'
    ]


# a from_json model that names a stage in implicitSegments, which is not
# read, and aims a trigger at it: with no normalize record, nothing is hidden
HIDDEN_TRIGGER_DOC = {
    "thimacs": [
        {"name": "a", "stages": [{"kind": "create"}, {"kind": "release"}]},
        {"name": "b", "stages": [{"kind": "create"}]},
    ],
    "flows": [
        {"from": "a.create", "to": "a.release", "implicitSegments": ["a.release"]}
    ],
    "triggers": [{"from": "b.create", "to": "a.release"}],
}


def test_simplified_render_keeps_a_trigger_at_an_implicit_segment():
    model = dsl.from_json(json.dumps(HIDDEN_TRIGGER_DOC)).model
    plain = render_dot(model, [], None, RenderOptions())
    assert '"b.create" -> "a.release" [style=dashed];' in plain
    assert render_dot(model, [], None, RenderOptions(simplified=True)) == plain


def test_simplified_render_noop_without_provenance(load_corpus):
    simplified = load_corpus("atm_simplified.tm")
    normalized = dsl.ParseResult(normalize(simplified.model), [], None, [])
    models = [
        load_corpus("atm_full.tm").model,
        dsl.from_json(dsl.to_json(simplified)).model,
        dsl.from_json(dsl.to_json(normalized)).model,
    ]
    for model in models:
        plain = render_dot(model, [], None, RenderOptions())
        assert render_dot(model, [], None, RenderOptions(simplified=True)) == plain


def _law_sources(seed: int):
    rng = random.Random(seed)
    for source in (
        random_model(rng, max_thimacs=5, max_stages=12, max_flows=14),
        random_legal_chain_model(rng, machines=5),
    ):
        region = {s for s in source.stages if rng.random() < 0.5}
        yield source, [EventDef("E", label="region", region=region)], rng


def _changed(model, rng: random.Random) -> dict:
    """Copies of ``model``, each changed once after ``normalize``."""
    out = {}
    out["add_thimac"] = model.copy()
    out["add_thimac"].add_thimac("fresh")
    for tid, thimac in model.thimacs.items():
        missing = [k for k in StageKind if k not in thimac.stages]
        if missing:
            out["add_stage"] = model.copy()
            out["add_stage"].add_stage(tid, rng.choice(missing))
            break
    stages = list(model.stages)
    pairs = [
        (a, b) for a in stages for b in stages
        if a != b and model.find_flow(a, b) is None
    ]
    if pairs:
        out["add_flow"] = model.copy()
        out["add_flow"].add_flow(*rng.choice(pairs))
    out["replace_flows"] = model.copy()
    out["replace_flows"].replace_flows(out["replace_flows"].flows)
    return out


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 1_000_000))
def test_simplified_render_draws_the_declared_model(seed):
    """The law: a simplified render of ``normalize(S)`` is the plain render
    of ``S``, byte for byte; a model changed after ``normalize`` is drawn
    in full."""
    for source, events, rng in _law_sources(seed):
        norm = normalize(source, strict=False)
        for mode in (RenderMode.STATIC, RenderMode.EVENT_OVERLAY):
            plain, simple = RenderOptions(mode), RenderOptions(mode, simplified=True)
            want = render_dot(source, events, None, plain)
            for label, model in (
                ("normalize", norm),
                ("normalize twice", normalize(norm, strict=False)),
                ("copy", norm.copy()),
            ):
                assert render_dot(model, events, None, simple) == want, label
            for label, model in _changed(norm, rng).items():
                full = render_dot(model, events, None, plain)
                assert render_dot(model, events, None, simple) == full, label


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
