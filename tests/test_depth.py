"""Inputs far deeper than the interpreter's recursion limit (1000 frames).

Nesting and containment run at 10^4. The DSL text, DOT and JSON of a
model grow quadratically with its nesting depth (indentation and
qualified names), so those outputs are checked at 2000 levels, which
is still twice the recursion limit.
"""

from __future__ import annotations

import tracemalloc

import pytest

from tmkit import dsl
from tmkit.behavior import flatten
from tmkit.core import model_equal, normalize
from tmkit.errors import ContainmentCycle
from tmkit.render import RenderMode, RenderOptions, render_dot
from tmkit.sim import FiringKind, simulate
from tmkit.validate import validate

DEEP = 10_000
WIDE_OUTPUT_DEPTH = 2_000


def nested_source(depth: int) -> str:
    """A machine at the root and one at the bottom of ``depth`` nested
    thimacs, a flow between them and an event over the whole tree."""
    names = [f"t{d}" for d in range(depth)]
    text = "thimac t0 {\nstage create; stage release; stage transfer;\n"
    text += "".join(f"thimac {name} {{\n" for name in names[1:-1])
    text += f"thimac {names[-1]} {{ stage transfer; stage receive; stage process; }}\n"
    text += "}\n" * (depth - 1)
    text += f"flow t0.create -> {'.'.join(names)}.process;\n"
    text += "event E { region { t0; } }\nchronology { E; }\n"
    return text


@pytest.fixture(scope="module")
def deep():
    result = dsl.parse(nested_source(DEEP), "deep.tm")
    assert result.diagnostics == []
    return result


def test_deep_nesting_parses_normalizes_validates_and_simulates(deep):
    model = deep.model
    assert len(model.thimacs) == DEEP
    assert [t.name for t in model.iter_thimacs()] == [f"t{d}" for d in range(DEEP)]
    (event,) = deep.events
    assert event.region == set(model.stages)
    norm = normalize(model)
    assert len(norm.flows) == 5  # create, release, transfer, transfer, receive, process
    assert validate(norm, deep.events, deep.chronology) == []
    trace = simulate(norm, deep.events, deep.chronology)
    moves = [f for f in trace.firings if f.kind is FiringKind.FLOW_MOVE]
    assert len(moves) == 5
    dot = render_dot(norm, deep.events, deep.chronology, RenderOptions(RenderMode.CHRONOLOGY))
    assert '"E" [label="E"];' in dot


def test_naming_the_bottom_stage_stores_one_name():
    # Each of the 10^4 thimacs has a name as long as its depth: storing
    # them all (or a prefix for each ancestor) would hold about 2.9e8
    # characters, where naming the bottom stage needs one 5.9e4 string.
    model = dsl.parse(nested_source(DEEP), "deep.tm").model
    path = ".".join(f"t{d}" for d in range(DEEP)) + ".process"
    stage = model.find_stage(path)
    tracemalloc.start()
    try:
        name = model.qualified_name(stage)
        again = model.qualified_name(stage)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert name == again == path
    assert peak < 5 * 1024 * 1024


def test_deep_nesting_prints_renders_and_round_trips():
    result = dsl.parse(nested_source(WIDE_OUTPUT_DEPTH), "deep.tm")
    norm = normalize(result.model)
    text = dsl.format_parts(norm, result.events, result.chronology)
    again = dsl.parse(text, "again.tm")
    assert again.diagnostics == [] and model_equal(again.model, norm)
    for mode in RenderMode:
        for simplified in (False, True):
            opts = RenderOptions(mode, simplified=simplified)
            dot = render_dot(norm, result.events, result.chronology, opts)
            assert dot.endswith("}\n")
    static = render_dot(norm, [], None, RenderOptions(RenderMode.STATIC))
    assert static.count("subgraph cluster_") == WIDE_OUTPUT_DEPTH
    back = dsl.from_json(dsl.to_json(result))
    assert back.diagnostics == [] and model_equal(back.model, result.model)


def _contains_chain(length: int, loop: bool) -> str:
    lines = ["thimac a { stage create; stage process; }", "flow a.create -> a.process;"]
    for k in range(length):
        nxt = (k + 1) % length if loop else k + 1
        tail = f" contains K{nxt};" if loop or nxt < length else ""
        lines.append(f"event K{k} {{ region {{ a.{'create' if k % 2 else 'process'}; }}{tail} }}")
    return "\n".join(lines) + "\n"


def test_contains_chain_parses_and_flattens():
    result = dsl.parse(_contains_chain(DEEP, loop=False), "chain.tm")
    assert result.diagnostics == []
    assert flatten(result.events, "K0") == set(result.model.stages)
    assert flatten(result.events, f"K{DEEP - 1}") == {result.model.find_stage("a.create")}


def test_contains_loop_is_reported_with_its_witness():
    result = dsl.parse(_contains_chain(DEEP, loop=True), "loop.tm")
    (diag,) = result.diagnostics
    assert diag.code == "EVENT_CYCLE"
    assert diag.message.startswith("event containment cycle: K0 -> K1 -> ")
    assert diag.message.endswith(f" -> K{DEEP - 1} -> K0")
    with pytest.raises(ContainmentCycle):
        flatten(result.events, "K5")


def test_containment_diamond_flattens_each_event_once():
    # 200 levels of two events that both contain both events of the next
    # level: 2^200 paths from the top, 400 events
    levels = 200
    lines = ["thimac a { stage create; stage process; }"]
    for k in range(levels):
        tail = f" contains A{k + 1}, B{k + 1};" if k + 1 < levels else ""
        for name, stage in (("A", "create"), ("B", "process")):
            lines.append(f"event {name}{k} {{ region {{ a.{stage}; }}{tail} }}")
    result = dsl.parse("\n".join(lines), "diamond.tm")
    assert result.diagnostics == []
    assert flatten(result.events, "A0") == set(result.model.stages)
