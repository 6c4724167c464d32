"""Token-flow simulation: semantics, determinism, conservation."""

from __future__ import annotations

import json
import logging
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tmkit
from tmkit import cli, dsl, graph
from tmkit.behavior import (
    Chronology,
    EventDef,
    region_connected,
    region_edges,
    topological_orders_contains,
)
from tmkit.core import Model, StageKind, edge_legal, normalize
from tmkit.corpus import corpus_path
from tmkit.errors import PreconditionViolated, StepBudgetExceeded
from tmkit.sim import (
    Firing,
    FiringKind,
    SimConfig,
    Token,
    Trace,
    _CHUNK,
    _Run,
    _simulate_validated,
    coverage,
    linear_extension,
    simulate,
    trace_to_json,
)

from _support import (
    random_digraph,
    random_legal_chain_model,
    random_model,
    reference_linear_extension,
    reference_simulate,
    reference_trace_to_json,
)
from conftest import CORPUS_NAMES

# Hand-written scenarios, each exercising one rule of the semantics; the
# reference-interpreter tests below run every one of them.

# a thing left resting by E1 triggers work in E2
START_PASS = (
    "thimac msg { stage create; stage process; }\n"
    "flow msg.create -> msg.process;\n"
    "thimac reply { stage create; }\n"
    "trigger msg.process ~> reply.create;\n"
    "event E1 { region { msg; } }\n"
    "event E2 { region { msg.process; reply.create; } }\n"
    "chronology { E1 -> E2; }"
)
# a trigger enables the box token waiting in its machine
WAITING_TOKEN = (
    "thimac gate { stage process; stage create; }\n"
    "flow gate.create -> gate.process;\n"
    "thimac box { stage create; stage release; stage transfer; }\n"
    "flow box.create -> box.release -> box.transfer;\n"
    "trigger gate.process ~> box.release;\n"
    "event E1 \"box readied\" { region { box.create; } }\n"
    "event E2 \"gate lets it go\" { region { gate; box; } }\n"
    "chronology { E1 -> E2; }"
)
# a pure port relays onward, never straight back
PORT_RELAY = (
    "thimac src { stage create; stage release; stage transfer; }\n"
    "thimac relay { stage transfer; }\n"
    "thimac dst { stage transfer; stage receive; }\n"
    "flow src.create -> src.release -> src.transfer;\n"
    "flow src.transfer -> relay.transfer -> dst.transfer -> dst.receive;\n"
    "flow relay.transfer -> src.transfer;\n"
    "event E { region { src; relay; dst; } }\n"
    "chronology { E; }"
)
BROADCAST = (
    "thimac a { stage create; stage process; stage release; }\n"
    "flow a.create -> a.process;\n"
    "flow a.create -> a.release;\n"
    "event E { region { a; } }\n"
    "chronology { E; }"
)
# movement order: a's token rests after one move while b's keeps moving;
# b's token entering b.process spawns one at c.create mid-round, and
# that one broadcasts in the next round
REST_SPAWN_BROADCAST = (
    "thimac a { stage create; stage process; }\n"
    "flow a.create -> a.process;\n"
    "thimac b { stage create; stage process; stage release; stage transfer; }\n"
    "flow b.create -> b.process -> b.release -> b.transfer;\n"
    "thimac c { stage create; stage process; stage release; }\n"
    "flow c.create -> c.process;\n"
    "flow c.create -> c.release;\n"
    "trigger b.process ~> c.create;\n"
    "event E { region { a; b; c; } repeat 2; }\n"
    "chronology { E; }"
)
# two machines bouncing the same thing back and forth forever
FLOW_LOOP = (
    "thimac a { stage create; stage release; stage transfer; stage receive; }\n"
    "thimac b { stage transfer; stage receive; stage release; }\n"
    "flow a.create -> a.release -> a.transfer;\n"
    "flow a.transfer -> b.transfer -> b.receive -> b.release -> b.transfer;\n"
    "flow b.transfer -> a.transfer -> a.receive -> a.release;\n"
    "event E { region { a; b; } }\n"
    "chronology { E; }"
)
# mutually creating things never quiesce
TRIGGER_LOOP = (
    "thimac seed { stage create; }\n"
    "thimac a { stage create; }\n"
    "thimac b { stage create; }\n"
    "trigger seed.create ~> a.create;\n"
    "trigger a.create ~> b.create;\n"
    "trigger b.create ~> a.create;\n"
    "event E { region { seed; a; b; } }\n"
    "chronology { E; }"
)
# Fill leaves a token in each machine; each Poke instance then makes a
# StageFire and a TriggerFire that enables b's token, and no token, so its
# copies are written in chunks of up to _CHUNK // 2 copies: three such
# chunks' worth and one more copy. Idle's instances make no firing at all.
TOKENLESS_REPEATS = (
    "thimac a { stage create; stage process; }\n"
    "flow a.create -> a.process;\n"
    "thimac b { stage create; stage process; }\n"
    "flow b.create -> b.process;\n"
    "trigger a.process ~> b.process;\n"
    "event Fill { region { a; b; } }\n"
    "event Poke { region { a.process; b.process; } "
    f"repeat {3 * (_CHUNK // 2) + 2}; }}\n"
    "event Idle { region { a.process; } repeat 3; }\n"
    "chronology { Fill -> Poke; Poke -> Idle; }"
)


def run_source(source: str, config: SimConfig | None = None):
    result = dsl.parse(source, "sim.tm")
    assert result.model is not None, [d.render() for d in result.diagnostics]
    model = normalize(result.model)
    trace = simulate(model, result.events, result.chronology, config)
    return model, result, trace


def kinds(trace):
    return [f.kind for f in trace.firings]


# -- the single-chain example -------------------------------------------


def test_single_chain_trace_is_spawn_plus_two_moves():
    model, result, trace = run_source(
        "thimac A { stage create; stage release; stage transfer; }\n"
        "flow A.create -> A.release -> A.transfer;\n"
        "event E { region { A; } }\n"
        "chronology { E; }"
    )
    assert kinds(trace) == [
        FiringKind.TOKEN_SPAWN,
        FiringKind.FLOW_MOVE,
        FiringKind.FLOW_MOVE,
    ]
    assert len(trace.final_tokens) == 1
    assert model.qualified_name(trace.final_tokens[0].location) == "A.transfer"
    assert coverage(model, trace, result.events)["events"]["E"] == 1.0


# -- determinism -----------------------------------------------------------


def test_traces_byte_identical_across_runs(load_corpus):
    result = load_corpus("atm_full.tm")
    model = result.model
    one = trace_to_json(model, simulate(model, result.events, result.chronology))
    two = trace_to_json(model, simulate(model, result.events, result.chronology))
    assert one == two


def test_steps_strictly_increase_and_ticks_index_event_order(load_corpus):
    result = load_corpus("davidson.tm")
    trace = simulate(result.model, result.events, result.chronology)
    steps = [f.step for f in trace.firings]
    assert steps == sorted(set(steps))
    assert [t for _, _, t in trace.event_order] == list(range(len(trace.event_order)))


# -- trace bytes -------------------------------------------------------------


def assert_trace_json_matches_reference(model, trace):
    assert trace_to_json(model, trace) == reference_trace_to_json(model, trace)


def assert_columns_aligned(trace):
    """The five firing columns have one entry per firing each: the event
    and instance columns, filled once per instance, kept up."""
    assert (
        len(trace.events) == len(trace.instances) == len(trace.elements)
        == len(trace.kinds) == len(trace.tokens)
    )


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_trace_json_matches_reference_on_corpus(load_corpus, name):
    result = load_corpus(name)
    model = normalize(result.model)
    trace = simulate(model, result.events, result.chronology)
    assert_columns_aligned(trace)
    assert_trace_json_matches_reference(model, trace)


def test_trace_json_of_a_run_without_events():
    model = Model()
    trace = simulate(model, [], None)
    assert_trace_json_matches_reference(model, trace)
    assert trace_to_json(model, trace) == (
        '{\n  "eventOrder": [],\n  "firings": [],\n  "finalTokens": []\n}\n'
    )


def test_trace_json_with_stage_and_trigger_fires():
    model, _, trace = run_source(START_PASS)
    fired = {f.kind for f in trace.firings if f.token is None}
    assert fired == {FiringKind.STAGE_FIRE, FiringKind.TRIGGER_FIRE}
    assert_trace_json_matches_reference(model, trace)


def test_trace_json_escapes_names_and_event_ids():
    # neither the DSL nor JSON import accepts these names, but a model
    # built through the Python API can hold them
    quote, clef = 'say "hi" \\ bye', "zo\u0142w \U0001d11e"
    raw = Model()
    for name, stage_kinds in (
        (quote, (StageKind.CREATE, StageKind.PROCESS)),
        (clef, (StageKind.CREATE, StageKind.TRANSFER)),
    ):
        tid = raw.add_thimac(name)
        for kind in stage_kinds:
            raw.add_stage(tid, kind)
    raw.add_flow(f"{quote}.create", f"{quote}.process")
    raw.add_flow(f"{clef}.create", f"{clef}.transfer")
    raw.add_trigger(f"{quote}.process", f"{clef}.create")
    model = normalize(raw)

    def region(*paths):
        return {model.find_stage(p) for p in paths}

    events = [
        EventDef('E"\\\u00e9', region=region(f"{quote}.create", f"{quote}.process")),
        EventDef(
            "E\U0001d11e",
            region=region(f"{quote}.process", f"{clef}.create", f"{clef}.transfer"),
        ),
    ]
    trace = simulate(model, events, None)
    assert FiringKind.TRIGGER_FIRE in kinds(trace)
    text = trace_to_json(model, trace)
    assert text.isascii() and "\\ud834\\udd1e" in text
    assert_trace_json_matches_reference(model, trace)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 1_000_000))
def test_trace_json_matches_reference_on_generated_models(seed):
    model = normalize(random_legal_chain_model(random.Random(seed)))
    event = EventDef("E", region=set(model.stages), multiplicity=2)
    trace = simulate(model, [event], None)
    assert_columns_aligned(trace)
    assert_trace_json_matches_reference(model, trace)


def test_trace_json_of_hand_built_traces():
    # numbers no run makes: the writer's number table must still give each
    # integer the document writes, and None as null (an empty trace is the
    # run without events above)
    model = Model()
    tid = model.add_thimac("m")
    create = model.add_stage(tid, StageKind.CREATE)
    process = model.add_stage(tid, StageKind.PROCESS)
    flow = model.add_flow(create, process)
    trigger = model.add_trigger(process, create)
    spawn, move = FiringKind.TOKEN_SPAWN, FiringKind.FLOW_MOVE
    big = 10**18
    traces = {
        "an event_order instance with no firing": Trace(
            ["E", "E"], [1, 1], [create, flow], [spawn, move], [1, 1],
            [("E", 1, 0), ("E", 7, 1), ("F", 12345, 2)], [Token(1, "m", create)],
        ),
        "token ids past the final tokens, and huge": Trace(
            ["E"] * 3, [1, 3, big], [create, flow, process],
            [spawn, move, FiringKind.STAGE_FIRE], [5, big, None],
            [("E", 1, 0), ("E", big, 1)],
            [Token(2, "m", process), Token(big + 1, "m", create)],
        ),
        "instance 0": Trace(["E"], [0], [create], [spawn], [0], [("E", 0, 0)]),
        "trigger fires only": Trace(
            ["E", "E"], [1, 2], [trigger, trigger],
            [FiringKind.TRIGGER_FIRE] * 2, [None, None], [("E", 1, 0), ("E", 2, 1)],
        ),
    }
    for case, trace in traces.items():
        assert trace_to_json(model, trace) == reference_trace_to_json(model, trace), case


@pytest.mark.parametrize(
    "count",
    [
        0, 1, 15, 16, 17, 33, 999, 1000, 1001, _CHUNK - 1, _CHUNK, _CHUNK + 1,
        2 * _CHUNK + 1, 9999, 10000, 10001,
    ],
)
def test_trace_json_across_chunk_boundaries(count):
    # the writer appends the firings in chunks of 16, 16, 32, 64, ... up to
    # _CHUNK, reusing one list of slots while the chunk size stays, and
    # writes a step as its thousands and its last three digits: counts that
    # end on a chunk or a thousands boundary and just before or after one
    model = Model()
    tid = model.add_thimac("m")
    create = model.add_stage(tid, StageKind.CREATE)
    process = model.add_stage(tid, StageKind.PROCESS)
    flow = model.add_flow(create, process)
    spawn, move = FiringKind.TOKEN_SPAWN, FiringKind.FLOW_MOVE
    instances = [1 + n // 3 for n in range(count)]
    trace = Trace(
        ["E"] * count,
        instances,
        [flow if n % 3 else create for n in range(count)],
        [move if n % 3 else spawn for n in range(count)],
        [None if n % 3 == 2 else n // 3 + 1 for n in range(count)],
        [("E", i, i - 1) for i in sorted(set(instances))],
        [Token(t, "m", process) for t in range(1, count // 3 + 2)],
    )
    assert trace_to_json(model, trace) == reference_trace_to_json(model, trace)


def test_trace_json_of_a_million_firings_has_every_step():
    # steps of up to seven digits, past the counts compared above; the
    # document is parsed keeping only each firing's step
    model = Model()
    create = model.add_stage(model.add_thimac("m"), StageKind.CREATE)
    count = 1_000_001
    trace = Trace(
        ["E"] * count, [1] * count, [create] * count,
        [FiringKind.TOKEN_SPAWN] * count, [None] * count, [("E", 1, 0)],
    )
    doc = json.loads(
        trace_to_json(model, trace), object_hook=lambda entry: entry.get("step", entry)
    )
    assert doc["firings"] == list(range(count))


# Prints, from a fresh interpreter (argv: tmkit's source folder), the
# length of the ships trace text and the tracemalloc peak of writing it:
# a first call, as in ``tm``, which nothing before it has warmed up.
_SHIPS_TRACE_PEAK = """
import sys, tracemalloc
sys.path.insert(0, sys.argv[1])
from tmkit import dsl
from tmkit.core import normalize
from tmkit.corpus import corpus_path
from tmkit.sim import simulate, trace_to_json
result = dsl.parse(corpus_path("ships.tm").read_text(encoding="utf-8"), "ships.tm")
model = normalize(result.model)
trace = simulate(model, result.events, result.chronology)
tracemalloc.start()
text = trace_to_json(model, trace)
print(len(text), tracemalloc.get_traced_memory()[1])
"""


def test_trace_json_holds_its_text_about_once():
    # the ships trace (40000 firings, about 8 MB): one entry per firing
    # joined at the end, or a text that is copied as it grows, holds the
    # text about twice
    src = str(Path(tmkit.__file__).parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", _SHIPS_TRACE_PEAK, src],
        capture_output=True, text=True, check=True,
    )
    length, peak = map(int, done.stdout.split())
    assert length > 7_000_000
    assert peak <= 1.5 * length


# -- event ordering -----------------------------------------------------------


def test_event_order_is_linear_extension(load_corpus):
    for name in ("davidson.tm", "atm_full.tm", "mud.tm"):
        result = load_corpus(name)
        trace = simulate(result.model, result.events, result.chronology)
        order = [e for e, _, _ in trace.event_order if True]
        seen = []
        for event in order:
            if event not in seen:
                seen.append(event)
        assert topological_orders_contains(result.chronology, seen), name


def test_missing_chronology_runs_all_events_in_declaration_order():
    _, result, trace = run_source(
        "thimac a { stage create; }\n"
        "event E2 { region { a.create; } }\n"
        "event E1 { region { a.create; } }"
    )
    assert [e for e, _, _ in trace.event_order] == ["E2", "E1"]


# -- token conservation ---------------------------------------------------------


def test_token_conservation(load_corpus):
    for name in ("atm_full.tm", "davidson.tm", "mud.tm"):
        result = load_corpus(name)
        trace = simulate(result.model, result.events, result.chronology)
        spawns = [f for f in trace.firings if f.kind is FiringKind.TOKEN_SPAWN]
        assert len(trace.final_tokens) == len(spawns), name
        assert [t.id for t in trace.final_tokens] == list(
            range(1, len(spawns) + 1)
        ), name


# -- recurrence -------------------------------------------------------------------


def test_mud_instances_identical_and_sequential(load_corpus):
    result = load_corpus("mud.tm")
    model = result.model
    trace = simulate(model, result.events, result.chronology)
    assert [(e, i) for e, i, _ in trace.event_order] == [
        ("E_lastnight", 1),
        ("E_tonight", 1),
    ]
    shapes = {}
    for firing in trace.firings:
        shapes.setdefault(firing.event, []).append(
            (firing.kind, model.qualified_name(firing.element))
        )
    assert shapes["E_lastnight"] == shapes["E_tonight"]
    last = max(f.step for f in trace.firings if f.event == "E_lastnight")
    first = min(f.step for f in trace.firings if f.event == "E_tonight")
    assert last < first


def test_small_repeat_produces_one_instance_per_occurrence():
    _, result, trace = run_source(
        "thimac ship { stage create; stage release; stage transfer; }\n"
        "flow ship.create -> ship.release -> ship.transfer;\n"
        "event E { region { ship; } repeat 5; }\n"
        "chronology { E; }"
    )
    assert [(e, i) for e, i, _ in trace.event_order] == [("E", k) for k in range(1, 6)]
    assert len(trace.final_tokens) == 5


# -- trigger semantics ---------------------------------------------------------


def test_trigger_to_create_spawns_new_thing():
    model, _, trace = run_source(
        "thimac a { stage create; stage process; }\n"
        "thimac b { stage create; }\n"
        "flow a.create -> a.process;\n"
        "trigger a.process ~> b.create;\n"
        "event E { region { a; b; } }\n"
        "chronology { E; }"
    )
    spawn_stages = [
        model.qualified_name(f.element)
        for f in trace.firings
        if f.kind is FiringKind.TOKEN_SPAWN
    ]
    assert spawn_stages == ["a.create", "b.create"]
    assert any(f.kind is FiringKind.TRIGGER_FIRE for f in trace.firings)


def test_trigger_to_transfer_injects_boundary_token():
    model, _, trace = run_source(
        "thimac card { stage create; stage process; }\n"
        "flow card.create -> card.process;\n"
        "thimac serial { stage transfer; stage receive; }\n"
        "flow serial.transfer -> serial.receive;\n"
        "trigger card.process ~> serial.transfer;\n"
        "event E { region { card; serial; } }\n"
        "chronology { E; }"
    )
    final = {t.thing: model.qualified_name(t.location) for t in trace.final_tokens}
    assert final["serial"] == "serial.receive"


def test_trigger_enables_waiting_token_without_duplicating():
    model, _, trace = run_source(WAITING_TOKEN)
    box_tokens = [t for t in trace.final_tokens if t.thing == "box"]
    assert len(box_tokens) == 1
    assert model.qualified_name(box_tokens[0].location) == "box.transfer"


def test_cross_event_handoff_via_start_pass():
    model, _, trace = run_source(START_PASS)
    stage_fires = [
        (f.event, model.qualified_name(f.element))
        for f in trace.firings
        if f.kind is FiringKind.STAGE_FIRE
    ]
    assert stage_fires == [("E2", "msg.process")]
    spawned_in = {
        f.token: f.event
        for f in trace.firings
        if f.kind is FiringKind.TOKEN_SPAWN
    }
    reply = next(t for t in trace.final_tokens if t.thing == "reply")
    assert spawned_in[reply.id] == "E2"


# -- branching -------------------------------------------------------------------


def test_broadcast_replicates_token_and_warns(caplog):
    with caplog.at_level(logging.WARNING, logger="tmkit.sim"):
        model, _, trace = run_source(BROADCAST)
    assert any("broadcast" in r.message for r in caplog.records)
    locations = sorted(
        model.qualified_name(t.location) for t in trace.final_tokens
    )
    assert locations == ["a.process", "a.release"]
    spawns = [f for f in trace.firings if f.kind is FiringKind.TOKEN_SPAWN]
    assert len(spawns) == len(trace.final_tokens)


# -- ports -----------------------------------------------------------------------


def test_transfer_port_keeps_direction():
    # outbound things cross; inbound things continue to receive
    model, _, trace = run_source(
        "thimac a { stage create; stage release; stage transfer; }\n"
        "thimac b { stage transfer; stage receive; stage process; }\n"
        "flow a.create -> a.release -> a.transfer;\n"
        "flow a.transfer -> b.transfer -> b.receive -> b.process;\n"
        "event E { region { a; b; } }\n"
        "chronology { E; }"
    )
    token = trace.final_tokens[0]
    assert model.qualified_name(token.location) == "b.process"


def test_pure_port_relays_without_uturn():
    model, _, trace = run_source(PORT_RELAY)
    assert model.qualified_name(trace.final_tokens[0].location) == "dst.receive"


# -- region connectivity -------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 1_000_000))
def test_region_connected_matches_components(seed):
    # the union-find against the component walk, on regions that may hold
    # thimac ids and ids of nothing as well as stages
    rng = random.Random(seed)
    model = random_model(rng, max_stages=12, max_flows=14)
    ids = [*model.stages, *model.thimacs, 10**6]
    for _ in range(5):
        region = set(rng.sample(ids, rng.randint(0, len(ids))))
        members = {s for s in region if s in model.stages}
        flows, triggers = region_edges(model, members)
        pairs = [(e.from_stage, e.to_stage) for e in flows + triggers]
        assert region_connected(model, region) == (
            len(graph.components(members, pairs)) <= 1
        )


# -- failure modes ----------------------------------------------------------------


def test_step_budget_exceeded_on_flow_loop():
    result = dsl.parse(FLOW_LOOP, "loop.tm")
    assert result.model is not None, [d.render() for d in result.diagnostics]
    model = normalize(result.model, strict=False)
    with pytest.raises(StepBudgetExceeded):
        simulate(model, result.events, result.chronology, SimConfig(max_steps_per_event=50))


def test_step_budget_exceeded_on_trigger_cycle():
    # must fail cleanly even with a budget far beyond the interpreter's
    # recursion depth
    result = dsl.parse(TRIGGER_LOOP, "trigloop.tm")
    with pytest.raises(StepBudgetExceeded):
        simulate(result.model, result.events, result.chronology,
                 SimConfig(max_steps_per_event=9000))


# one token moving twice; the budget is met by a FlowMove
MOVES_ONLY = (
    "thimac A { stage create; stage release; stage transfer; }\n"
    "flow A.create -> A.release -> A.transfer;\n"
    "event E { region { A; } }\n"
    "chronology { E; }"
)
# a move whose stage starts a chain of two triggers, each spawning
MOVE_THEN_TRIGGERS = (
    "thimac a { stage create; stage process; }\n"
    "flow a.create -> a.process;\n"
    "thimac b { stage create; }\n"
    "thimac c { stage create; }\n"
    "trigger a.process ~> b.create;\n"
    "trigger b.create ~> c.create;\n"
    "event E { region { a; b; c; } }\n"
    "chronology { E; }"
)


@pytest.mark.parametrize(
    "source, count", [(MOVES_ONLY, 3), (MOVE_THEN_TRIGGERS, 6)],
    ids=["moves-only", "move-then-triggers"],
)
def test_step_budget_of_exactly_the_firings_passes_and_one_less_raises(
    source, count
):
    model, events, chronology = parse_normalized(source)
    trace = _simulate_validated(
        model, events, chronology, SimConfig(max_steps_per_event=count)
    )
    assert len(trace.kinds) == count
    assert_columns_aligned(trace)
    for budget in range(1, count):
        config = SimConfig(max_steps_per_event=budget)
        with pytest.raises(StepBudgetExceeded) as ours:
            _simulate_validated(model, events, chronology, config)
        with pytest.raises(StepBudgetExceeded) as oracle:
            reference_simulate(model, events, chronology, config)
        assert str(ours.value) == str(oracle.value) == (
            f"event 'E' instance 1 exceeded {budget} steps without quiescing"
        )


def test_precondition_rejects_invalid_model():
    result = dsl.parse(
        "thimac a { stage process; } thimac b { stage process; }\n"
        "flow a.process -> b.process;\n"
        "event E { region { a; b; } }\nchronology { E; }",
        "bad.tm",
    )
    with pytest.raises(PreconditionViolated):
        simulate(result.model, result.events, result.chronology)


def test_precondition_rejects_unnormalized_model():
    # legality holds only after normalization; simulate must refuse raw form
    result = dsl.parse(
        "thimac a { stage create; } thimac b { stage process; }\n"
        "flow a.create -> b.process;\n"
        "event E { region { a; b; } }\nchronology { E; }",
        "raw.tm",
    )
    with pytest.raises(PreconditionViolated, match="FLOW_ILLEGAL"):
        simulate(result.model, result.events, result.chronology)


def test_sim_config_rejects_nonpositive_budget():
    with pytest.raises(ValueError):
        SimConfig(max_steps_per_event=0)


# -- the ATM thread ---------------------------------------------------------------


def test_atm_card_token_identity_e2_to_e15(load_corpus):
    result = load_corpus("atm_full.tm")
    model = result.model
    trace = simulate(model, result.events, result.chronology)
    card_spawns = [
        f
        for f in trace.firings
        if f.kind is FiringKind.TOKEN_SPAWN
        and model.qualified_name(f.element) == "user.card.create"
    ]
    assert len(card_spawns) == 1
    assert card_spawns[0].event == "E2"
    token_id = card_spawns[0].token
    final = {t.id: model.qualified_name(t.location) for t in trace.final_tokens}
    assert final[token_id] == "user.card.receive"
    delivering_moves = [
        f
        for f in trace.firings
        if f.kind is FiringKind.FLOW_MOVE
        and f.token == token_id
        and f.event == "E15"
    ]
    assert delivering_moves, "the E2 card token moves during E15"


def test_atm_full_run_every_region_stage_fires(load_corpus):
    result = load_corpus("atm_full.tm")
    trace = simulate(result.model, result.events, result.chronology)
    report = coverage(result.model, trace, result.events)
    assert report["neverFired"] == []


def test_unreachable_region_stage_reported_never_fired():
    model, result, trace = run_source(
        "thimac a { stage create; stage process; }\n"
        "flow a.create -> a.process;\n"
        "thimac orphan { stage process; stage receive; }\n"
        "flow orphan.receive -> orphan.process;\n"
        "thimac feeder { stage create; stage release; stage transfer; }\n"
        "flow feeder.create -> feeder.release -> feeder.transfer;\n"
        "flow feeder.transfer -> orphan.receive;\n"
        "event E { region { a; orphan.process; } }\n"
        "chronology { E; }"
    )
    report = coverage(model, trace, result.events)
    assert report["neverFired"] == ["orphan.process"]
    assert report["events"]["E"] < 1.0


def test_coverage_counts_the_firings_of_contained_events(load_corpus):
    ships = load_corpus("ships.tm")
    trace = simulate(ships.model, ships.events, ships.chronology)
    report = coverage(ships.model, trace, ships.events)
    # E_lastyear is not in the chronology; E_passing, which it contains,
    # fires the whole shared region
    assert report == {"events": {"E_passing": 1.0, "E_lastyear": 1.0}, "neverFired": []}


def test_coverage_follows_containment_transitively_and_nothing_else():
    model, result, trace = run_source(
        "thimac a { stage create; stage process; }\n"
        "flow a.create -> a.process;\n"
        "thimac b { stage create; }\n"
        "event E { region { a; } }\n"
        "event F { region { a; } contains E; }\n"
        "event G { region { a.process; } contains F; }\n"
        "event H { region { a; b; } }\n"
        "chronology { E; }"
    )
    report = coverage(model, trace, result.events)
    # H shares a with E but contains nothing: its stages fired for E only
    assert report["events"] == {"E": 1.0, "F": 1.0, "G": 1.0, "H": 0.0}
    assert report["neverFired"] == ["b.create"]


def test_coverage_of_atm_full_is_unchanged_by_containment(load_corpus):
    result = load_corpus("atm_full.tm")
    trace = simulate(result.model, result.events, result.chronology)
    partial = {
        "E6": 10 / 12, "E7": 11 / 12, "E9": 7 / 8, "E11": 7 / 8, "E15": 10 / 12
    }
    expected = {f"E{i}": partial.get(f"E{i}", 1.0) for i in range(1, 16)}
    assert coverage(result.model, trace, result.events)["events"] == expected


def test_firings_view_is_a_read_only_sequence_of_firing():
    model, _, trace = run_source(START_PASS)
    firings = trace.firings
    every = list(firings)
    count = len(every)
    assert len(firings) == len(trace.kinds) == count > 3
    assert [f.step for f in every] == list(range(count))
    assert firings[0] == Firing(
        0, "E1", 1, model.find_stage("msg.create"), FiringKind.TOKEN_SPAWN, 1
    )
    assert firings[0] != Firing(
        1, "E1", 1, model.find_stage("msg.create"), FiringKind.TOKEN_SPAWN, 1
    )
    assert firings[-1] == firings[count - 1] == every[-1]
    assert firings[-count] == every[0]
    assert firings[1:3] == every[1:3]
    assert firings[::-2] == every[::-2]
    assert firings[count:] == []
    for index in (count, -count - 1):
        with pytest.raises(IndexError):
            firings[index]
    with pytest.raises(TypeError):
        firings[0] = every[0]
    # a new view on each read, over the same columns
    assert trace.firings is not firings
    assert list(trace.firings) == every
    again = run_source(START_PASS)[2]
    assert list(again.firings) == every and again == trace


def test_runs_of_copies_are_built_once_on_the_first_column_read(
    monkeypatch, tmp_path, capsys
):
    builds = []
    build = Trace._build

    def counted(trace):
        builds.append(trace)
        build(trace)

    monkeypatch.setattr(Trace, "_build", counted)
    # tm simulate counts and writes the ships passage's 4000 instances, 3999
    # of them copies, without building them
    ships_file = str(corpus_path("ships.tm"))
    assert cli.run(["simulate", ships_file]) == 0
    assert "40000 firing(s)" in capsys.readouterr().out
    assert cli.run(["simulate", ships_file, "--trace", str(tmp_path / "t.json")]) == 0
    assert builds == []

    model, events, chronology = ships(50)
    trace = _simulate_validated(model, events, chronology)
    text = trace_to_json(model, trace)
    assert len(trace.firings) == 500 and builds == []
    columns = [trace.events, trace.instances, trace.elements, trace.kinds, trace.tokens]
    assert builds == [trace]
    for name, column in zip(Trace._fields, columns):
        # later reads return the same list, made once at its exact length
        assert getattr(trace, name) is column
        assert sys.getsizeof(column) == sys.getsizeof([None] * 500)
    assert builds == [trace] and trace_to_json(model, trace) == text
    # an edit in place persists
    trace.tokens[-1] = None
    assert trace.firings[-1].token is None

    # writing a column of an unbuilt trace builds the others first
    other = _simulate_validated(model, events, chronology)
    other.events = ["X"] * 500
    assert builds == [trace, other]
    assert [(f.event, f.step) for f in other.firings] == [("X", n) for n in range(500)]
    assert other.kinds == trace.kinds

    # a hand-built trace reads and writes the lists it was given
    hand = [["E"], [1], [5], [FiringKind.TOKEN_SPAWN], [1]]
    made = Trace(*hand, [("E", 1, 0)])
    for name, column in zip(Trace._fields, hand):
        assert getattr(made, name) is column
    made.kinds = [FiringKind.FLOW_MOVE]
    assert made.firings[0] == Firing(0, "E", 1, 5, FiringKind.FLOW_MOVE, 1)
    assert builds == [trace, other]


# -- the reference interpreter ---------------------------------------------------


class _Records(logging.Handler):
    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.seen: list[tuple[str, str]] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.seen.append((record.levelname, record.getMessage()))


def recorded(trace):
    """What a run recorded, in terms that the simulator's ``Trace`` and
    the oracle's ``ReferenceTrace`` share: every firing with its step,
    the event order and each final token's id, thing and location."""
    tokens = [(t.id, t.thing, t.location) for t in trace.final_tokens]
    return list(trace.firings), trace.event_order, tokens


def run_form_json(model, trace):
    """``trace_to_json`` of a simulated trace that no column was read from,
    so that its replayed copies are still runs, checked against the column
    form: once the columns are read, the firing count is the same, and a
    ``Trace`` rebuilt from them and the reference writer give the same
    text."""
    count, text = len(trace.firings), trace_to_json(model, trace)
    rebuilt = Trace(
        trace.events, trace.instances, trace.elements, trace.kinds, trace.tokens,
        trace.event_order, trace.final_tokens,
    )
    assert len(trace.firings) == count == len(trace.kinds)
    assert trace_to_json(model, rebuilt) == text
    assert reference_trace_to_json(model, trace) == text
    return text


def assert_matches_reference(model, events, chronology, config=None):
    """The simulator and the reference interpreter record the same run
    (or raise the same step-budget message) and log the same records:
    ``list(trace.firings)`` equals the oracle's stored ``Firing`` list,
    steps included. Returns the simulator's trace JSON (or that message),
    written before any column was read (``run_form_json``), and its log
    records."""
    logger = logging.getLogger("tmkit.sim")
    traces, outcomes = [], []
    for run in (_simulate_validated, reference_simulate):
        records = _Records()
        level = logger.level
        logger.addHandler(records)
        logger.setLevel(logging.WARNING)
        try:
            trace = run(model, events, chronology, config)
            if run is _simulate_validated:
                text = run_form_json(model, trace)
            outcome = recorded(trace)
        except StepBudgetExceeded as exc:
            trace, outcome = None, f"StepBudgetExceeded: {exc}"
        finally:
            logger.removeHandler(records)
            logger.setLevel(level)
        traces.append(trace)
        outcomes.append((outcome, records.seen))
    if traces[0] is not None:
        assert_columns_aligned(traces[0])
    assert outcomes[0] == outcomes[1]
    outcome, seen = outcomes[0]
    return (outcome if traces[0] is None else text), seen


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_simulate_matches_reference_on_corpus(load_corpus, name):
    result = load_corpus(name)
    assert_matches_reference(
        normalize(result.model), result.events, result.chronology
    )


@pytest.mark.parametrize(
    "source, outcome, replayed",
    [
        (START_PASS, "StageFire", []),
        (WAITING_TOKEN, "FlowMove", []),
        (PORT_RELAY, "FlowMove", []),
        (BROADCAST, "broadcast", []),
        (REST_SPAWN_BROADCAST, "broadcast", []),
        (FLOW_LOOP, "StepBudgetExceeded", []),
        (TRIGGER_LOOP, "StepBudgetExceeded", []),
        (
            TOKENLESS_REPEATS, "TriggerFire",
            [("Poke", 1, 3 * (_CHUNK // 2) + 2), ("Idle", 1, 3)],
        ),
    ],
    ids=[
        "start-pass",
        "waiting-token",
        "port-relay",
        "broadcast",
        "rest-spawn-broadcast",
        "flow-loop",
        "trigger-loop",
        "tokenless-repeats",
    ],
)
def test_simulate_matches_reference_on_scenarios(replays, source, outcome, replayed):
    result = dsl.parse(source, "scenario.tm")
    model = normalize(result.model, strict=False)
    text, records = assert_matches_reference(
        model, result.events, result.chronology, SimConfig(max_steps_per_event=200)
    )
    assert outcome in text or any(outcome in message for _, message in records)
    assert replays == replayed


def test_rest_spawn_broadcast_trace_is_the_references_byte_for_byte():
    result = dsl.parse(REST_SPAWN_BROADCAST, "scenario.tm")
    model = normalize(result.model)
    trace = _simulate_validated(model, result.events, result.chronology)
    want = reference_simulate(model, result.events, result.chronology)
    assert trace_to_json(model, trace) == reference_trace_to_json(model, want)
    name = model.qualified_name
    first = [
        (name(f.element), f.kind.value, f.token)
        for f in trace.firings
        if f.instance == 1
    ]
    # a's token 1 rests at a.process after its first round, b's token 2
    # moves on; token 3 appears at c.create in round 1 and broadcasts in
    # round 2 (clone 4), where token 1 is no longer visited
    assert first == [
        ("a.create", "TokenSpawn", 1),
        ("b.create", "TokenSpawn", 2),
        ("a.create->a.process", "FlowMove", 1),
        ("b.create->b.process", "FlowMove", 2),
        ("b.process~>c.create", "TriggerFire", None),
        ("c.create", "TokenSpawn", 3),
        ("b.process->b.release", "FlowMove", 2),
        ("c.create", "TokenSpawn", 4),
        ("c.create->c.process", "FlowMove", 3),
        ("c.create->c.release", "FlowMove", 4),
        ("b.release->b.transfer", "FlowMove", 2),
    ]


def _random_scenario(rng: random.Random, max_multiplicity: int = 3):
    """A normalized chain model with extra legal flows (branches, loops)
    and triggers, random events over it and a random chronology DAG."""
    model = normalize(random_legal_chain_model(rng, machines=4))
    stages = sorted(model.stages)
    for _ in range(rng.randint(0, 4)):
        a, b = rng.choice(stages), rng.choice(stages)
        src, dst = model.stages[a], model.stages[b]
        if a != b and edge_legal(src.kind, dst.kind, src.thimac == dst.thimac):
            model.add_flow(a, b)
    for _ in range(rng.randint(0, 3)):
        model.add_trigger(rng.choice(stages), rng.choice(stages))
    events = [
        EventDef(
            f"E{k}",
            region=set(rng.sample(stages, rng.randint(1, len(stages)))),
            multiplicity=rng.randint(1, max_multiplicity),
        )
        for k in range(rng.randint(1, 4))
    ]
    order = rng.sample([e.id for e in events], len(events))
    chronology = Chronology(nodes=list(order))
    for i, a in enumerate(order):
        for b in order[i + 1 :]:
            if rng.random() < 0.4:
                chronology.add_edge(a, b)
    return model, events, chronology


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 1_000_000))
def test_simulate_matches_reference_on_generated_models(seed):
    model, events, chronology = _random_scenario(random.Random(seed))
    assert_matches_reference(
        model, events, chronology, SimConfig(max_steps_per_event=300)
    )


def test_generated_models_cover_every_semantic_rule():
    wanted = ("StageFire", "TriggerFire", "StepBudgetExceeded", "broadcast")
    seen = set()
    for seed in range(300):
        text, records = assert_matches_reference(
            *_random_scenario(random.Random(seed)), SimConfig(max_steps_per_event=300)
        )
        seen |= {k for k in wanted if k in text or any(k in m for _, m in records)}
    assert seen == set(wanted)


# -- recurrence replay -----------------------------------------------------------

# E's first instance fills machine b through the trigger, so only the
# second leaves the watched occupancy unchanged and becomes the template
FILLS_THEN_REPEATS = (
    "thimac a { stage create; stage release; stage transfer; }\n"
    "flow a.create -> a.release -> a.transfer;\n"
    "thimac b { stage create; stage release; stage transfer; }\n"
    "flow b.create -> b.release -> b.transfer;\n"
    "trigger a.create ~> b.release;\n"
    "event E { region { a; b.release; b.transfer; } repeat 6; }\n"
    "chronology { E; }"
)


@pytest.fixture
def replays(monkeypatch):
    """Records ``(event, template instance, instance count)`` for every
    node whose later instances are replayed instead of interpreted."""
    seen = []
    replay = _Run._replay

    def recording(self, event_id, first_firing, first_token, template, count):
        seen.append((event_id, template, count))
        replay(self, event_id, first_firing, first_token, template, count)

    monkeypatch.setattr(_Run, "_replay", recording)
    return seen


def parse_normalized(source: str):
    result = dsl.parse(source, "scenario.tm")
    assert result.model is not None, [d.render() for d in result.diagnostics]
    return normalize(result.model, strict=False), result.events, result.chronology


def ships(repeat: int):
    """ships.tm with ``E_passing`` repeated ``repeat`` times, normalized."""
    text = corpus_path("ships.tm").read_text(encoding="utf-8")
    text, count = re.subn(r"repeat \d+;", f"repeat {repeat};", text)
    assert count == 1
    return parse_normalized(text)


# E_passing makes 10 firings and one token an instance. Its copies are
# written in chunks of up to _CHUNK // 10 copies: one chunk's worth
# exactly, and several plus one; and their tokens are made in groups of
# _CHUNK: one group exactly, and several plus part of one. Repeats 1 and 2
# have no copy and one.
@pytest.mark.parametrize(
    "repeat",
    [1, 2, 4000, 16000, 1 + _CHUNK // 10, 2 + 3 * (_CHUNK // 10), 1 + _CHUNK],
)
def test_ships_replay_matches_reference(replays, repeat):
    model, events, chronology = ships(repeat)
    trace_json, records = assert_matches_reference(model, events, chronology)
    assert records == []
    assert len(json.loads(trace_json)["firings"]) == 10 * repeat
    assert replays == ([("E_passing", 1, repeat)] if repeat > 1 else [])


def test_replay_waits_for_the_trigger_target_machine_to_fill(replays):
    text, _ = assert_matches_reference(*parse_normalized(FILLS_THEN_REPEATS))
    assert replays == [("E", 2, 6)]
    firings = json.loads(text)["firings"]
    b_spawns = [
        f for f in firings if f["kind"] == "TokenSpawn" and f["element"] == "b.release"
    ]
    assert len(b_spawns) == 1
    # the template's firings, copied into instances 3 to 6, mix tokens and
    # the None of a TriggerFire
    template = [(f["kind"], f["token"]) for f in firings if f["instance"] == 2]
    assert ("TriggerFire", None) in template
    assert any(token is not None for _, token in template)


def test_broadcasting_repeat_is_interpreted_and_logged_every_time(replays):
    source = BROADCAST.replace("region { a; } }", "region { a; } repeat 4; }")
    _, records = assert_matches_reference(*parse_normalized(source))
    assert len(records) == 4
    assert replays == []


def test_repeat_failing_its_first_instance_raises_as_interpreted(replays):
    source = FLOW_LOOP.replace("region { a; b; } }", "region { a; b; } repeat 5; }")
    text, _ = assert_matches_reference(
        *parse_normalized(source), SimConfig(max_steps_per_event=50)
    )
    assert text.startswith("StepBudgetExceeded: event 'E' instance 1 ")
    assert replays == []


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 1_000_000))
def test_simulate_matches_reference_on_generated_repeats(seed):
    model, events, chronology = _random_scenario(random.Random(seed), 8)
    assert_matches_reference(
        model, events, chronology, SimConfig(max_steps_per_event=300)
    )


@settings(max_examples=50, deadline=None)
@given(repeat=st.integers(1, 50))
def test_simulate_matches_reference_on_replayed_ships(repeat):
    assert_matches_reference(*ships(repeat))


def test_generated_repeats_take_the_replay_path(replays):
    replayed, templates = 0, set()
    for seed in range(200):
        replays.clear()
        assert_matches_reference(
            *_random_scenario(random.Random(seed), 8),
            SimConfig(max_steps_per_event=300),
        )
        replayed += bool(replays)
        templates |= {template for _, template, _ in replays}
    assert replayed >= 100
    assert max(templates) > 1


# -- linear extension ------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 1_000_000))
def test_linear_extension_matches_reference(seed):
    rng = random.Random(seed)
    nodes, edges = random_digraph(rng, max_nodes=12, edge_prob=0.2)
    rng.shuffle(nodes)
    chronology = Chronology(nodes=nodes, edges=edges)
    try:
        expected = reference_linear_extension(chronology)
    except PreconditionViolated:
        with pytest.raises(PreconditionViolated, match="chronology has a cycle"):
            linear_extension(chronology)
    else:
        assert linear_extension(chronology) == expected


def test_linear_extension_of_a_long_chain_matches_reference():
    nodes = [f"E{i}" for i in range(10_000)]
    chronology = Chronology(nodes=nodes, edges=list(zip(nodes, nodes[1:])))
    assert linear_extension(chronology) == reference_linear_extension(chronology)
    # listed against the edges, the quadratic scan took seconds
    backwards = Chronology(nodes=nodes[::-1], edges=chronology.edges)
    assert linear_extension(backwards) == nodes
