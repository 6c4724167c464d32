"""Validation rules, the legality matrix, and oracle equivalence."""

from __future__ import annotations

import importlib
import random
import runpy
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmkit import dsl
from tmkit.behavior import Chronology, EventDef
from tmkit.core import LEGAL, Model, StageKind, normalize
from tmkit.diagnostics import Severity
from tmkit.errors import PreconditionViolated
from tmkit.sim import simulate
from tmkit.validate import RULE_CODES, chronology_cycle, legality, validate

from _support import (
    ORACLE_LEGAL,
    oracle_flow_illegal,
    oracle_has_cycle,
    oracle_origin_missing,
    oracle_stage_unreachable,
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
    assert {(a.value, b.value, same) for a, b, same in LEGAL} == ORACLE_LEGAL
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
    assert len(LEGAL) == 8


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
    # the parser reports a memory where it reads one, so validation never
    # sees it: the code is no validation rule
    source = "thimac a { stage create; stage process; }\nflow a.create -> a.process;\n"
    result = dsl.parse(source + "memory a.process ~> a.create;", "m.tm")
    assert result.model is None
    assert codes(result.diagnostics) == ["MEMORY_UNSUPPORTED"]
    assert "MEMORY_UNSUPPORTED" not in RULE_CODES
    assert validate(dsl.parse(source, "m.tm").model) == []


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


# -- determinism ---------------------------------------------------------------


def test_diagnostics_sorted_and_stable():
    source = (
        "thimac z { stage transfer; stage receive; stage process; stage release; }\n"
        "flow z.receive -> z.process;\n"
        "flow z.release -> z.receive;\n"
        "trigger z.process ~> z.process;\n"
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


def _assert_origin_and_reachability_match_the_oracles(model):
    diags = validate(model)
    found = {
        code: sorted(d.element for d in diags if d.code == code)
        for code in ("ORIGIN_MISSING", "STAGE_UNREACHABLE")
    }
    assert found["ORIGIN_MISSING"] == oracle_origin_missing(model)
    assert found["STAGE_UNREACHABLE"] == oracle_stage_unreachable(model)
    return found


def test_origin_and_reachability_match_bruteforce_oracles_on_random_models():
    rng = random.Random(4321)
    seen = {"ORIGIN_MISSING": 0, "STAGE_UNREACHABLE": 0}
    for _ in range(1000):
        model = random_model(rng, max_thimacs=5, max_stages=10, max_flows=10)
        for code, elements in _assert_origin_and_reachability_match_the_oracles(
            model
        ).items():
            seen[code] += len(elements)
        _assert_origin_and_reachability_match_the_oracles(
            normalize(model, strict=False)
        )
    # both rules fire on the generated models, not only stay silent
    assert seen["ORIGIN_MISSING"] > 100 and seen["STAGE_UNREACHABLE"] > 100


@pytest.mark.parametrize(
    "workload, variant",
    [("ladder", 0), ("ladder", 3), ("chronology", 0), ("chronology", 1)],
)
def test_origin_and_reachability_match_the_oracles_on_benchmark_models(
    workload, variant
):
    """The benchmark's generated models (the ladder's smaller rung), as
    written and normalized, where neither rule fires, and normalized
    with every other flow dropped, where both do."""
    gen = runpy.run_path(str(Path(__file__).parent.parent / "tmbench" / "gen.py"))
    if workload == "ladder":
        text = gen["ladder"](variant, *gen["LADDER_RUNGS"][0])
    else:
        text = gen["chronology"](variant)
    model = dsl.parse(text, f"{workload}.tm").model
    norm = normalize(model)
    for each in (model, norm):
        assert _assert_origin_and_reachability_match_the_oracles(each) == {
            "ORIGIN_MISSING": [],
            "STAGE_UNREACHABLE": [],
        }
    sparse = norm.copy()
    sparse.replace_flows(sparse.flows[::2])
    found = _assert_origin_and_reachability_match_the_oracles(sparse)
    assert found["ORIGIN_MISSING"] and found["STAGE_UNREACHABLE"]


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


# -- the stored model-level verdict -------------------------------------------

CLEAN = (
    "thimac a { stage create; stage process; stage release; }\n"
    "thimac b { stage create; stage process; }\n"
    "flow a.create -> a.process -> a.release;\n"
    "flow b.create -> b.process;\n"
    "event E { region { a; } }\n"
)

# each change to the clean model, through one mutator, and the finding it adds
MUTATIONS = {
    "add_stage": (
        lambda m: m.add_stage(m.find_thimac("b"), StageKind.RELEASE),
        "STAGE_UNREACHABLE",
    ),
    "add_flow": (lambda m: m.add_flow("b.process", "b.create"), "FLOW_ILLEGAL"),
    "add_trigger": (lambda m: m.add_trigger("b.process", "b.process"), "TRIGGER_SELF"),
    "ensure_transfer": (
        lambda m: m.ensure_transfer(m.find_thimac("b")), "STAGE_UNREACHABLE"
    ),
    # drops a.create -> a.process: a.process -> a.release has no origin
    "replace_flows": (lambda m: m.replace_flows(m.flows[1:]), "ORIGIN_MISSING"),
}


def _clean():
    result = dsl.parse(CLEAN, "clean.tm")
    model = normalize(result.model)
    assert validate(model, result.events, result.chronology) == []
    return model, result.events, result.chronology


@pytest.mark.parametrize("mutator", list(MUTATIONS))
def test_a_change_after_validation_is_found(mutator):
    mutate, code = MUTATIONS[mutator]
    model, events, chronology = _clean()
    simulate(model, events, chronology)
    mutate(model)
    diags = validate(model, events, chronology)
    assert code in codes(diags)
    assert diags == validate(model.copy(), events, chronology)
    if any(d.is_error for d in diags):
        assert code in ("FLOW_ILLEGAL", "ORIGIN_MISSING")
        with pytest.raises(PreconditionViolated, match=code):
            simulate(model, events, chronology)
    else:
        assert code in ("STAGE_UNREACHABLE", "TRIGGER_SELF")
        simulate(model, events, chronology)
    # each call returns its own diagnostics: an edit does not reach the next
    diags[0].message = "edited"
    assert validate(model, events, chronology) == validate(
        model.copy(), events, chronology
    )


def test_simulate_after_validate_runs_no_model_rule_again(monkeypatch):
    rules = importlib.import_module("tmkit.validate")
    model, events, chronology = _clean()
    calls = []
    check_flows = rules._check_flows
    monkeypatch.setattr(
        rules, "_check_flows", lambda m: calls.append(m) or check_flows(m)
    )
    simulate(model, events, chronology)
    simulate(model, events, chronology)
    validate(model, events, chronology)
    assert calls == []
    model.add_trigger("a.release", "b.create")
    simulate(model, events, chronology)
    validate(model, events, chronology)
    assert calls == [model]
    # a copy starts with no verdict
    other = model.copy()
    validate(other)
    assert calls == [model, other]


_OP = st.one_of(
    st.tuples(st.just("stage"), st.integers(0, 2), st.sampled_from(list(StageKind))),
    st.tuples(
        st.sampled_from(["flow", "trigger"]), st.integers(0, 15), st.integers(0, 15)
    ),
    st.tuples(st.just("transfer"), st.integers(0, 2)),
    st.tuples(st.just("replace"), st.integers(0, 15), st.booleans()),
    st.tuples(
        st.sampled_from(["region_add", "region_remove"]),
        st.integers(0, 1),
        st.integers(0, 15),
    ),
    st.tuples(st.just("region_unknown"), st.integers(0, 1)),
    st.tuples(st.just("order"), st.integers(0, 2), st.integers(0, 2)),
    st.just(("validate",)),
)


def _fresh(events, chronology):
    """Copies of the events and the chronology that share nothing mutable."""
    return [
        EventDef(
            e.id, e.label, set(e.region), e.multiplicity, list(e.subevents), e.span
        )
        for e in events
    ], Chronology(list(chronology.nodes), list(chronology.edges), chronology.span)


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(_OP, max_size=40))
def test_validate_equals_validate_of_a_copy_across_mutations(ops):
    model = Model()
    owners = [model.add_thimac(name) for name in "abc"]
    for owner in owners:
        model.add_stage(owner, StageKind.CREATE)
        model.add_stage(owner, StageKind.PROCESS)
    # two components with an origin, one of them joined by an illegal flow:
    # dropping or adding an edge changes what the rules find
    model.add_flow("a.create", "a.process")
    model.add_flow("a.process", "b.process")
    model.add_flow("c.create", "c.process")
    # events and a chronology that the ops edit in place ("X" is
    # undeclared); every step checks them, and a "validate" op checks the
    # model alone, which replaces the stored verdict
    events = [
        EventDef("E", region=set(model.thimacs[owners[0]].stages.values())),
        EventDef("F", region=set(model.thimacs[owners[2]].stages.values())),
    ]
    chronology = Chronology(["E", "F"], [("E", "F")])
    for op in ops + [("validate",)]:
        stages = list(model.stages)
        if op[0] == "validate":
            assert validate(model) == validate(model.copy())
        elif op[0] == "stage":
            if op[2] not in model.thimacs[owners[op[1]]].stages:
                model.add_stage(owners[op[1]], op[2])
        elif op[0] == "transfer":
            model.ensure_transfer(owners[op[1]])
        elif op[0] == "replace":
            # drops a flow, if any, and may reverse the rest (diagnostics
            # without spans keep the order of the flows)
            kept = list(model.flows)
            if kept:
                del kept[op[1] % len(kept)]
            model.replace_flows(kept[::-1] if op[2] else kept)
        elif op[0] == "region_add":
            events[op[1]].region.add(stages[op[2] % len(stages)])
        elif op[0] == "region_unknown":
            events[op[1]].region.add(10**6)
        elif op[0] == "region_remove":
            region = events[op[1]].region
            if region:
                region.remove(sorted(region)[op[2] % len(region)])
        elif op[0] == "order":
            # may close a cycle, or name an undeclared event
            names = "EFX"
            chronology.add_edge(names[op[1]], names[op[2]])
        else:
            a, b = stages[op[1] % len(stages)], stages[op[2] % len(stages)]
            if op[0] == "trigger":
                model.add_trigger(a, b)
            elif a != b:
                model.add_flow(a, b)
        assert validate(model, events, chronology) == validate(
            model.copy(), *_fresh(events, chronology)
        )
