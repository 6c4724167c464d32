"""Validation rules, the legality matrix, and oracle equivalence."""

from __future__ import annotations

import random
from itertools import product

from tmkit import dsl
from tmkit.behavior import Chronology, EventDef
from tmkit.core import Model, StageKind, normalize
from tmkit.diagnostics import Severity
from tmkit.validate import chronology_cycle, legality, legality_matrix, validate

from _support import (
    ORACLE_LEGAL,
    oracle_flow_illegal,
    oracle_has_cycle,
    random_legal_chain_model,
    random_model,
    reference_chronology_cycle,
)


def codes(diags, severity=None):
    return [
        d.code
        for d in diags
        if severity is None or d.severity is severity
    ]


# -- legality matrix -----------------------------------------------------


def test_legality_matrix_matches_the_documented_relation():
    for a, b, same in product(StageKind, StageKind, (True, False)):
        expected = (a.value, b.value, same) in ORACLE_LEGAL
        assert legality(a, b, same) == expected, (a, b, same)


def test_legality_key_examples():
    assert legality(StageKind.RELEASE, StageKind.TRANSFER, True)
    assert not legality(StageKind.RELEASE, StageKind.RECEIVE, True)
    assert legality(StageKind.TRANSFER, StageKind.TRANSFER, False)
    assert not legality(StageKind.TRANSFER, StageKind.TRANSFER, True)
    # pass-through without processing, the relay pattern
    assert legality(StageKind.RECEIVE, StageKind.RELEASE, True)


def test_legality_matrix_is_closed_and_small():
    assert len(legality_matrix()) == 8


# -- flow rules ------------------------------------------------------------


def test_flow_illegal_before_normalization_clean_after():
    result = dsl.parse(
        "thimac A { stage process; } thimac B { stage process; }\n"
        "flow A.process -> B.process;",
        "x.tm",
    )
    raw = validate(result.model)
    assert "FLOW_ILLEGAL" in codes(raw, Severity.ERROR)
    assert codes(validate(normalize(result.model)), Severity.ERROR) == []


def test_origin_missing_for_sourceless_component():
    result = dsl.parse(
        "thimac lone { stage receive; stage process; stage release; stage transfer; }\n"
        "flow lone.receive -> lone.process -> lone.release -> lone.transfer;",
        "lone.tm",
    )
    diags = validate(result.model)
    assert "ORIGIN_MISSING" in codes(diags, Severity.ERROR)


def test_origin_satisfied_by_create():
    result = dsl.parse(
        "thimac t { stage create; stage release; stage transfer; }\n"
        "flow t.create -> t.release -> t.transfer;",
        "c.tm",
    )
    assert "ORIGIN_MISSING" not in codes(validate(result.model))


def test_origin_satisfied_by_root_boundary_transfer():
    # a root-level port imports things from outside the system
    result = dsl.parse(
        "thimac gate { stage transfer; stage receive; stage process; }\n"
        "flow gate.transfer -> gate.receive -> gate.process;",
        "gate.tm",
    )
    assert "ORIGIN_MISSING" not in codes(validate(result.model))


def test_origin_not_satisfied_by_nested_transfer():
    result = dsl.parse(
        "thimac outer { thimac inner {"
        " stage transfer; stage receive; stage process; } }\n"
        "flow outer.inner.transfer -> outer.inner.receive -> outer.inner.process;",
        "nested.tm",
    )
    assert "ORIGIN_MISSING" in codes(validate(result.model), Severity.ERROR)


def test_origin_satisfied_by_trigger_target():
    # embedded data arrives by triggering its transfer and receipt
    result = dsl.parse(
        "thimac card { stage create; stage process; }\n"
        "thimac serial { thimac data { stage transfer; stage receive; } }\n"
        "flow card.create -> card.process;\n"
        "flow serial.data.transfer -> serial.data.receive;\n"
        "trigger card.process ~> serial.data.transfer;",
        "serial.tm",
    )
    assert "ORIGIN_MISSING" not in codes(validate(result.model))


# -- warnings ----------------------------------------------------------------


def test_trigger_self_warning():
    result = dsl.parse(
        "thimac a { stage process; }\ntrigger a.process ~> a.process;", "s.tm"
    )
    diags = validate(result.model)
    assert "TRIGGER_SELF" in codes(diags, Severity.WARNING)
    assert "TRIGGER_SELF" not in codes(diags, Severity.ERROR)


def test_stage_unreachable_warning():
    result = dsl.parse(
        "thimac a { stage create; stage process; stage transfer; }\n"
        "flow a.create -> a.process;",
        "u.tm",
    )
    diags = validate(result.model)
    unreachable = [
        d for d in diags if d.code == "STAGE_UNREACHABLE"
    ]
    assert len(unreachable) == 1
    assert unreachable[0].severity is Severity.WARNING


def test_trigger_counts_for_reachability():
    result = dsl.parse(
        "thimac a { stage process; stage create; }\n"
        "flow a.create -> a.process;\n"
        "thimac b { stage create; }\n"
        "trigger a.process ~> b.create;",
        "r.tm",
    )
    assert "STAGE_UNREACHABLE" not in codes(validate(result.model))


# -- events and regions -------------------------------------------------------


def test_event_empty_region_error():
    result = dsl.parse(
        "thimac a { stage create; }\nevent E { region { } }", "e.tm"
    )
    assert "EVENT_EMPTY" in codes(validate(result.model, result.events))


def test_region_dangling_reference():
    model = Model()
    tid = model.add_thimac("a")
    sid = model.add_stage(tid, StageKind.CREATE)
    event = EventDef("E", region={sid, 999})
    assert "REGION_DANGLING" in codes(validate(model, [event]), Severity.ERROR)


def test_region_disconnected_warning():
    result = dsl.parse(
        "thimac a { stage create; stage process; }\n"
        "thimac b { stage create; stage process; }\n"
        "flow a.create -> a.process;\n"
        "flow b.create -> b.process;\n"
        "event E { region { a.create; b.create; } }",
        "rd.tm",
    )
    diags = validate(result.model, result.events)
    assert "REGION_DISCONNECTED" in codes(diags, Severity.WARNING)


def test_memory_unsupported():
    result = dsl.parse(
        "thimac a { stage create; stage process; }\n"
        "flow a.create -> a.process;\n"
        "memory a.process ~> a.create;",
        "m.tm",
    )
    assert "MEMORY_UNSUPPORTED" in codes(validate(result.model), Severity.ERROR)


# -- chronology ----------------------------------------------------------------


def _events_for(nodes):
    model = Model()
    tid = model.add_thimac("t")
    sid = model.add_stage(tid, StageKind.CREATE)
    return model, [EventDef(n, region={sid}) for n in nodes]


def test_chronology_cycle_detected():
    model, events = _events_for(["A", "B", "C"])
    chrono = Chronology()
    for pair in [("A", "B"), ("B", "C"), ("C", "A")]:
        chrono.add_edge(*pair)
    assert "CHRONO_CYCLE" in codes(validate(model, events, chrono), Severity.ERROR)


def test_chronology_unknown_event():
    model, events = _events_for(["A"])
    chrono = Chronology()
    chrono.add_edge("A", "GHOST")
    assert "CHRONO_UNKNOWN_EVENT" in codes(validate(model, events, chrono))


def test_chronology_lint_is_opt_in():
    model = Model()
    t1 = model.add_thimac("a")
    s1 = model.add_stage(t1, StageKind.CREATE)
    t2 = model.add_thimac("b")
    s2 = model.add_stage(t2, StageKind.CREATE)
    events = [EventDef("A", region={s1}), EventDef("B", region={s2})]
    chrono = Chronology()
    chrono.add_edge("A", "B")
    assert "CHRONO_UNJUSTIFIED" not in codes(validate(model, events, chrono))
    linted = validate(model, events, chrono, lint_chronology=True)
    assert "CHRONO_UNJUSTIFIED" in codes(linted, Severity.WARNING)
    model.add_trigger(s2, s1)
    linted = validate(model, events, chrono, lint_chronology=True)
    assert "CHRONO_UNJUSTIFIED" not in codes(linted)


def test_chronology_lint_skips_an_edge_to_an_undeclared_event():
    model = Model()
    sid = model.add_stage(model.add_thimac("a"), StageKind.CREATE)
    chrono = Chronology()
    chrono.add_edge("A", "GHOST")
    diags = validate(model, [EventDef("A", region={sid})], chrono, lint_chronology=True)
    assert "CHRONO_UNKNOWN_EVENT" in codes(diags)
    assert "CHRONO_UNJUSTIFIED" not in codes(diags)


def test_chronology_lint_accepts_justified_edges(load_corpus):
    result = load_corpus("atm_full.tm")
    diags = validate(
        result.model, result.events, result.chronology, lint_chronology=True
    )
    assert "CHRONO_UNJUSTIFIED" not in codes(diags)


# -- determinism ---------------------------------------------------------------


def test_diagnostics_sorted_and_stable():
    source = (
        "thimac z { stage transfer; stage receive; stage process; stage release; }\n"
        "flow z.receive -> z.process;\n"
        "flow z.release -> z.receive;\n"
        "memory z.process ~> z.release;\n"
    )
    result = dsl.parse(source, "order.tm")
    first = validate(result.model)
    second = validate(result.model)
    assert [d.render() for d in first] == [d.render() for d in second]
    spans = [
        (d.span.start_line, d.span.start_col, d.code)
        for d in first
        if d.span is not None
    ]
    assert spans == sorted(spans)


# -- oracle equivalence ----------------------------------------------------------


def test_flow_illegal_matches_bruteforce_oracle_on_random_models():
    rng = random.Random(1234)
    for _ in range(1000):
        model = random_model(rng, max_thimacs=4, max_stages=8, max_flows=10)
        expected = oracle_flow_illegal(model)
        found = {
            d.element
            for d in validate(model)
            if d.code == "FLOW_ILLEGAL"
        }
        assert found == expected


def test_chronology_cycles_match_dfs_oracle_on_random_digraphs():
    from _support import random_digraph

    rng = random.Random(999)
    for _ in range(1000):
        nodes, edges = random_digraph(rng, max_nodes=10)
        model, events = _events_for(nodes)
        chrono = Chronology(nodes=list(nodes), edges=list(edges))
        reported = "CHRONO_CYCLE" in codes(validate(model, events, chrono))
        assert reported == oracle_has_cycle(nodes, edges)
        assert chronology_cycle(chrono) == reference_chronology_cycle(chrono)


def test_chronology_cycle_witness_text():
    model, events = _events_for(["A", "B", "C", "D"])
    chrono = Chronology()
    for pair in [("D", "A"), ("A", "B"), ("B", "D"), ("B", "C"), ("C", "A")]:
        chrono.add_edge(*pair)
    cycle = [d for d in validate(model, events, chrono) if d.code == "CHRONO_CYCLE"]
    assert [d.message for d in cycle] == [
        "chronology has a directed cycle: D -> A -> B -> D"
    ]


def test_chronology_cycle_on_long_chains():
    nodes = [f"E{i}" for i in range(10_000)]
    chain = Chronology(nodes=list(nodes), edges=list(zip(nodes, nodes[1:])))
    assert chronology_cycle(chain) is None
    model, events = _events_for(nodes)
    assert "CHRONO_CYCLE" not in codes(validate(model, events, chain))
    looped = Chronology(nodes=list(nodes), edges=chain.edges + [(nodes[-1], nodes[0])])
    assert chronology_cycle(looped) == nodes + [nodes[0]]


def test_normalization_output_never_flow_illegal():
    rng = random.Random(777)
    for _ in range(300):
        model = random_legal_chain_model(rng)
        norm = normalize(model)
        assert "FLOW_ILLEGAL" not in codes(validate(norm))
