"""Event regions, containment, recurrence, and chronology orders."""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmkit.behavior import (
    Chronology,
    EventDef,
    check_region,
    flatten,
    instances,
    region_coverage,
    topological_orders_contains,
)
from tmkit.core import Model, StageKind
from tmkit.errors import ContainmentCycle, NotAPermutation, UnknownEvent
from tmkit.validate import chronology_cycle

from _support import enumerate_linear_extensions, oracle_has_cycle, random_digraph


def _single_stage_model():
    model = Model()
    tid = model.add_thimac("t")
    sid = model.add_stage(tid, StageKind.CREATE)
    return model, sid


# -- check_region -------------------------------------------------------


def test_check_region_single_create_ok():
    model, sid = _single_stage_model()
    assert check_region(model, EventDef("E", region={sid})) == []


def test_check_region_dangling():
    model, sid = _single_stage_model()
    diags = check_region(model, EventDef("E", region={sid, 424242}))
    assert [d.code for d in diags] == ["REGION_DANGLING"]


def test_check_region_davidson_awakening_connected(load_corpus):
    result = load_corpus("davidson.tm")
    event = next(e for e in result.events if e.id == "E1")
    assert check_region(result.model, event) == []
    model = result.model
    names = {model.qualified_name(s) for s in event.region}
    assert "someone.violin.process" in names
    assert "me.awake.create" in names
    assert any(n.startswith("me.getup") for n in names)


# -- flatten ---------------------------------------------------------------


def test_flatten_no_subevents_is_own_region():
    events = [EventDef("A", region={1, 2})]
    assert flatten(events, "A") == {1, 2}


def test_flatten_contains_subregions(load_corpus):
    result = load_corpus("ships.tm")
    flat = flatten(result.events, "E_lastyear")
    passing = next(e for e in result.events if e.id == "E_passing")
    assert flat >= passing.region


def test_flatten_monotone_over_containment():
    events = [
        EventDef("leaf", region={1}),
        EventDef("mid", region={2}, subevents=["leaf"]),
        EventDef("top", region={3}, subevents=["mid"]),
    ]
    assert flatten(events, "top") >= flatten(events, "mid") >= flatten(events, "leaf")
    assert flatten(events, "top") == {1, 2, 3}


def test_flatten_cycle_raises():
    events = [
        EventDef("A", region={1}, subevents=["B"]),
        EventDef("B", region={2}, subevents=["A"]),
    ]
    with pytest.raises(ContainmentCycle):
        flatten(events, "A")


def test_flatten_unknown_event():
    with pytest.raises(UnknownEvent):
        flatten([EventDef("A", region={1})], "missing")


# -- instances ---------------------------------------------------------------


def test_instances_default_one():
    assert instances(EventDef("E", region={1})) == 1


def test_instances_ships_repeat(load_corpus):
    result = load_corpus("ships.tm")
    passing = next(e for e in result.events if e.id == "E_passing")
    assert instances(passing) == 4000


def test_instances_mud_two_nodes_one_region(load_corpus):
    result = load_corpus("mud.tm")
    assert [instances(e) for e in result.events] == [1, 1]
    first, second = result.events
    assert first.region == second.region
    assert len(result.chronology.nodes) == 2


# -- topological_orders_contains ------------------------------------------------


def _chain(*nodes):
    chrono = Chronology()
    for a, b in zip(nodes, nodes[1:]):
        chrono.add_edge(a, b)
    return chrono


def test_chronology_keeps_first_mention_order_and_drops_repeated_edges():
    chrono = Chronology(nodes=["B"], edges=[("B", "C")])
    chrono.add_edge("A", "B")
    chrono.add_edge("B", "C")
    chrono.add_edge("A", "B")
    chrono.add_node("C")
    chrono.add_node("D")
    assert chrono.nodes == ["B", "A", "C", "D"]
    assert chrono.edges == [("B", "C"), ("A", "B")]


def test_long_chronology_chain_builds_in_linear_time():
    # membership tests on lists made a 10^4-edge chain take seconds
    nodes = [f"C{k}" for k in range(10_001)]
    start = time.perf_counter()
    chrono = _chain(*nodes)
    for a, b in zip(nodes, nodes[1:]):
        chrono.add_edge(a, b)
    assert time.perf_counter() - start < 1.0
    assert chrono.nodes == nodes
    assert len(chrono.edges) == 10_000


def test_linear_extension_chain():
    chrono = _chain("E1", "E2", "E3")
    assert topological_orders_contains(chrono, ["E1", "E2", "E3"])
    assert not topological_orders_contains(chrono, ["E2", "E1", "E3"])


def test_linear_extension_requires_permutation():
    chrono = _chain("E1", "E2")
    with pytest.raises(NotAPermutation):
        topological_orders_contains(chrono, ["E1"])
    with pytest.raises(NotAPermutation):
        topological_orders_contains(chrono, ["E1", "E1"])


def test_davidson_parallel_pair_both_orders(load_corpus):
    chrono = load_corpus("davidson.tm").chronology
    base = ["E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8"]
    swapped = ["E1", "E2", "E4", "E3", "E5", "E6", "E7", "E8"]
    assert topological_orders_contains(chrono, base)
    assert topological_orders_contains(chrono, swapped)
    # everything else about the chain is rigid
    assert not topological_orders_contains(
        chrono, ["E2", "E1", "E3", "E4", "E5", "E6", "E7", "E8"]
    )


def test_davidson_has_exactly_two_linear_extensions(load_corpus):
    chrono = load_corpus("davidson.tm").chronology
    extensions = enumerate_linear_extensions(chrono)
    assert len(extensions) >= 2
    assert len(extensions) == 2  # only E3/E4 commute
    for order in extensions:
        assert topological_orders_contains(chrono, order)


def test_atm_numbered_order_is_a_linear_extension(load_corpus):
    chrono = load_corpus("atm_full.tm").chronology
    order = [f"E{i}" for i in range(1, 16)]
    assert topological_orders_contains(chrono, order)


def test_atm_extension_count_matches_bruteforce(load_corpus):
    chrono = load_corpus("atm_full.tm").chronology
    # E13, E14, E15 commute freely after E12
    assert len(enumerate_linear_extensions(chrono)) == 6


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_linear_extension_check_agrees_with_enumerator(seed):
    rng = random.Random(seed)
    nodes, edges = random_digraph(rng, max_nodes=5, edge_prob=0.3)
    if oracle_has_cycle(nodes, edges):
        return
    chrono = Chronology(nodes=list(nodes), edges=list(edges))
    valid = {tuple(o) for o in enumerate_linear_extensions(chrono)}
    from itertools import permutations

    for perm in permutations(nodes):
        assert topological_orders_contains(chrono, list(perm)) == (
            tuple(perm) in valid
        )


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000), keep=st.floats(0.0, 1.0))
def test_acyclicity_preserved_by_edge_subsets(seed, keep):
    rng = random.Random(seed)
    nodes, edges = random_digraph(rng, max_nodes=8)
    if oracle_has_cycle(nodes, edges):
        return
    subset = [e for e in edges if rng.random() <= keep]
    chrono = Chronology(nodes=list(nodes), edges=subset)
    assert chronology_cycle(chrono) is None


# -- coverage report ---------------------------------------------------------


def test_region_coverage_reports_uncovered_stages():
    model = Model()
    tid = model.add_thimac("t")
    covered = model.add_stage(tid, StageKind.CREATE)
    model.add_stage(tid, StageKind.PROCESS)
    report = region_coverage(model, [EventDef("E", region={covered})])
    assert report == {"uncovered": ["t.process"]}


def test_region_coverage_full_on_atm_corpus(load_corpus):
    result = load_corpus("atm_full.tm")
    report = region_coverage(result.model, result.events)
    assert report == {"uncovered": []}


def test_region_coverage_full_on_davidson(load_corpus):
    result = load_corpus("davidson.tm")
    assert region_coverage(result.model, result.events) == {"uncovered": []}
