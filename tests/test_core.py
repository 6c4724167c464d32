"""Core model construction, normalization, and structural equality."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmkit import dsl
from tmkit.behavior import region_edges
from tmkit.core import (
    STAGE_KIND_NAMES,
    Model,
    StageKind,
    _expansion,
    _signature,
    is_normalized,
    model_equal,
    normalize,
)
from tmkit.errors import (
    AmbiguousExpansion,
    DuplicateName,
    DuplicateStageKind,
    UnknownEndpoint,
    UnknownParent,
    UnknownThimac,
)
from tmkit.validate import validate

from conftest import CORPUS_NAMES
from _support import (
    KINDS,
    random_legal_chain_model,
    random_model,
    reference_expansion,
    reference_qualified_name,
    reference_region_edges,
    scan_edge,
    scan_stage,
    scan_thimac,
)


# -- add_thimac --------------------------------------------------------


def test_add_thimac_to_empty_model():
    model = Model()
    tid = model.add_thimac("ATM")
    assert model.roots == [tid]
    assert model.thimacs[tid].stages == {}


def test_add_thimac_duplicate_sibling_name():
    model = Model()
    atm = model.add_thimac("ATM")
    model.add_thimac("Card", parent=atm)
    with pytest.raises(DuplicateName):
        model.add_thimac("Card", parent=atm)


def test_add_thimac_same_name_under_different_parents():
    model = Model()
    a = model.add_thimac("a")
    b = model.add_thimac("b")
    model.add_thimac("card", parent=a)
    model.add_thimac("card", parent=b)
    assert model.find_thimac("a.card") != model.find_thimac("b.card")


def test_add_thimac_unknown_parent():
    model = Model()
    with pytest.raises(UnknownParent):
        model.add_thimac("x", parent=99)


@pytest.mark.parametrize("name", ["", "a.b", *STAGE_KIND_NAMES])
def test_add_thimac_rejects_names_no_path_can_reach(name):
    model = Model()
    x = model.add_thimac("x")
    for parent in (None, x):
        with pytest.raises(ValueError):
            model.add_thimac(name, parent)
    assert model.roots == [x] and model.thimacs[x].children == []


# -- add_stage ---------------------------------------------------------


def test_add_stage_basic_and_duplicate():
    model = Model()
    tid = model.add_thimac("t")
    model.add_stage(tid, StageKind.CREATE)
    model.add_stage(tid, StageKind.RECEIVE)
    with pytest.raises(DuplicateStageKind):
        model.add_stage(tid, StageKind.RECEIVE)


def test_full_generic_machine_has_all_five_stages():
    model = Model()
    tid = model.add_thimac("machine")
    for kind in StageKind:
        model.add_stage(tid, kind)
    assert set(model.thimacs[tid].stages) == set(StageKind)
    assert len(model.thimacs[tid].stages) == 5


def test_add_stage_unknown_thimac():
    model = Model()
    with pytest.raises(UnknownThimac):
        model.add_stage(42, StageKind.CREATE)


# -- add_flow / add_trigger --------------------------------------------


def _machine(model, name, *kinds):
    tid = model.add_thimac(name)
    return {k: model.add_stage(tid, k) for k in kinds}


def test_add_flow_within_machine():
    model = Model()
    a = _machine(model, "a", StageKind.RELEASE, StageKind.TRANSFER)
    model.add_flow(a[StageKind.RELEASE], a[StageKind.TRANSFER])
    assert len(model.flows) == 1


def test_add_flow_cross_machine_ports():
    model = Model()
    a = _machine(model, "a", StageKind.TRANSFER)
    b = _machine(model, "b", StageKind.TRANSFER)
    model.add_flow(a[StageKind.TRANSFER], b[StageKind.TRANSFER])
    assert len(model.flows) == 1


def test_add_flow_unknown_endpoint():
    model = Model()
    a = _machine(model, "a", StageKind.CREATE)
    with pytest.raises(UnknownEndpoint):
        model.add_flow(a[StageKind.CREATE], 12345)
    with pytest.raises(UnknownEndpoint):
        model.add_flow("a.create", "a.transfer")
    assert model.flows == []
    # equal endpoints make an edge, which validation reports as illegal
    edge = model.add_flow(a[StageKind.CREATE], a[StageKind.CREATE])
    assert [f.id for f in model.flows] == [edge]
    [illegal] = [d for d in validate(model) if d.code == "FLOW_ILLEGAL"]
    assert illegal.element == edge


# each add method with the list it appends to
_ADDS = (("add_flow", "flows"), ("add_trigger", "triggers"))


def test_add_flow_accepts_paths():
    for add, table in _ADDS:
        model = Model()
        a = _machine(model, "a", StageKind.CREATE, StageKind.PROCESS)
        eid = getattr(model, add)("a.create", "a.process")
        [edge] = getattr(model, table)
        assert (edge.id, edge.from_stage, edge.to_stage) == (
            eid, a[StageKind.CREATE], a[StageKind.PROCESS]
        ), add


def test_duplicate_parallel_flows_collapse():
    for add, table in _ADDS:
        model = Model()
        a = _machine(model, "a", StageKind.CREATE, StageKind.PROCESS)
        first = getattr(model, add)(a[StageKind.CREATE], a[StageKind.PROCESS])
        changes = model._changes
        second = getattr(model, add)("a.create", a[StageKind.PROCESS])
        assert first == second, add
        assert len(getattr(model, table)) == len(model.edges) == 1, add
        assert model._changes == changes, add


def test_add_edge_with_an_unknown_end_changes_nothing():
    """Neither add method leaves an edge, an index entry, a port or a
    change count behind when an end names no stage."""

    def state(model):
        return (
            dict(model.edges), list(model.flows), list(model.triggers),
            {s: dict(out) for s, out in model.flows_from.items()},
            {s: dict(out) for s, out in model.triggers_from.items()},
            dict(model.stages), model._changes,
        )

    for add, _ in _ADDS:
        model = Model()
        a = _machine(model, "a", StageKind.CREATE, StageKind.PROCESS)
        model.add_thimac("b")  # no stages, so no transfer port
        model.add_flow(a[StageKind.CREATE], a[StageKind.PROCESS])
        model.add_trigger(a[StageKind.PROCESS], a[StageKind.CREATE])
        before = state(model)
        for bad in (12345, "nope", "a.nope", "a.release", "b", "b.transfer"):
            for ends in ((a[StageKind.PROCESS], bad), (bad, a[StageKind.CREATE])):
                with pytest.raises(UnknownEndpoint):
                    getattr(model, add)(*ends)
                assert state(model) == before, (add, ends)


def test_add_trigger_any_kinds_allowed():
    model = Model()
    a = _machine(model, "a", StageKind.PROCESS)
    b = _machine(model, "b", StageKind.CREATE)
    model.add_trigger(a[StageKind.PROCESS], b[StageKind.CREATE])
    # self-trigger is structurally allowed; the validator warns
    model.add_trigger(a[StageKind.PROCESS], a[StageKind.PROCESS])
    assert len(model.triggers) == 2


# -- normalize ---------------------------------------------------------


def test_normalize_cross_machine_process_to_process():
    model = Model()
    a = _machine(model, "a", StageKind.CREATE, StageKind.PROCESS)
    b = _machine(model, "b", StageKind.PROCESS)
    model.add_flow(a[StageKind.CREATE], a[StageKind.PROCESS])
    model.add_flow(a[StageKind.PROCESS], b[StageKind.PROCESS])
    norm = normalize(model)
    # release+transfer on the source side, transfer+receive on the target
    assert len(norm.stages) == len(model.stages) + 4
    assert is_normalized(norm)
    declared, created = norm.declared()
    assert declared == tuple((f.from_stage, f.to_stage) for f in model.flows)
    assert created == norm.stages.keys() - model.stages.keys()
    assert len(created) == 4
    # the expanded flow became a chain of five through the created stages
    chain = [f for f in norm.flows if {f.from_stage, f.to_stage} & created]
    assert len(chain) == 5


def test_normalize_within_machine_receive_to_transfer():
    model = Model()
    a = _machine(model, "a", StageKind.RECEIVE, StageKind.TRANSFER)
    model.add_flow(a[StageKind.RECEIVE], a[StageKind.TRANSFER])
    norm = normalize(model)
    assert is_normalized(norm)
    kinds = {s.kind for s in norm.stages.values()}
    assert StageKind.RELEASE in kinds


def test_normalize_reuses_existing_stages():
    model = Model()
    a = _machine(model, "a", StageKind.CREATE, StageKind.RELEASE, StageKind.TRANSFER)
    b = _machine(model, "b", StageKind.PROCESS)
    model.add_flow(a[StageKind.CREATE], b[StageKind.PROCESS])
    norm = normalize(model)
    assert is_normalized(norm)
    # only transfer+receive on b's side are new; a's release/transfer reused
    assert len(norm.stages) == len(model.stages) + 2


def test_normalize_idempotent_and_monotone_on_random_models():
    rng = random.Random(20260809)
    for _ in range(200):
        model = random_model(rng)
        once = normalize(model, strict=False)
        twice = normalize(once, strict=False)
        assert model_equal(once, twice)
        # user-declared thimacs and stages all survive
        assert len(once.thimacs) >= len(model.thimacs)
        assert len(once.stages) >= len(model.stages)
        before_thimacs = {model.qualified_name(t.id) for t in model.thimacs.values()}
        after_thimacs = {once.qualified_name(t.id) for t in once.thimacs.values()}
        assert before_thimacs <= after_thimacs
        before_stages = {model.qualified_name(s.id) for s in model.stages.values()}
        after_stages = {once.qualified_name(s.id) for s in once.stages.values()}
        assert before_stages <= after_stages
        # a legal user edge is never dropped; an expanded one leaves a
        # path from its source toward its target
        after_pairs = {(f.from_stage, f.to_stage) for f in once.flows}
        after_srcs = {a for a, _ in after_pairs}
        for edge in model.flows:
            if model.flow_legal(edge):
                assert (edge.from_stage, edge.to_stage) in after_pairs
            elif (edge.from_stage, edge.to_stage) not in after_pairs:
                assert edge.from_stage in after_srcs
        # inserting a stage always shows up under model_equal; a model
        # already in normal form is untouched
        inserted = bool(once.declared()[1])
        if inserted:
            assert not model_equal(model, once)
        if is_normalized(model):
            assert model_equal(model, once)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 1_000_000))
def test_declared_record_names_the_stages_normalize_added(seed):
    """``declared()`` is the one record of what ``normalize`` inserted:
    its second member is exactly the stages the reference expansion
    finds missing along the flows that are not legal."""
    rng = random.Random(seed)
    if seed % 2:
        model = random_legal_chain_model(rng, machines=4)
    else:
        model = random_model(rng)
    missing = set()
    for f in model.flows:
        if not model.flow_legal(f):
            for kind, owner in reference_expansion(model, f.from_stage, f.to_stage) or ():
                if kind not in model.thimacs[owner].stages:
                    missing.add(f"{reference_qualified_name(model, owner)}.{kind.value}")
    norm = normalize(model, strict=False)
    declared, created = norm.declared()
    assert declared == tuple((f.from_stage, f.to_stage) for f in model.flows)
    assert {reference_qualified_name(norm, s) for s in created} == missing
    assert created <= norm.stages.keys()


def test_normalize_strict_raises_on_inexpansible_edge():
    model = Model()
    a = _machine(model, "a", StageKind.RELEASE, StageKind.RECEIVE)
    model.add_flow(a[StageKind.RELEASE], a[StageKind.RECEIVE])
    with pytest.raises(AmbiguousExpansion) as err:
        normalize(model)
    assert str(err.value) == "flow a.release -> a.receive has no legal expansion"
    lenient = normalize(model, strict=False)
    assert not is_normalized(lenient)


@pytest.mark.parametrize("same", [True, False], ids=["within", "across"])
@pytest.mark.parametrize("y", KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("x", KINDS, ids=lambda k: k.value)
def test_expansion_matches_the_two_old_rules(x, y, same):
    model = Model()
    m, n = _machine(model, "m", *KINDS), _machine(model, "n", *KINDS)
    src, dst = m[x], (m if same else n)[y]
    expected = reference_expansion(model, src, dst)
    assert _expansion(model.stages[src], model.stages[dst]) == expected


def test_normalize_never_targets_create():
    model = Model()
    a = _machine(model, "a", StageKind.PROCESS)
    b = _machine(model, "b", StageKind.CREATE)
    model.add_flow(a[StageKind.PROCESS], b[StageKind.CREATE])
    with pytest.raises(AmbiguousExpansion) as err:
        normalize(model)
    assert str(err.value) == "flow a.process -> b.create has no legal expansion"


def test_normalize_never_duplicates_user_declared_edges():
    # the expansion of the elided edge recreates release->transfer,
    # which the model already declares further down the list
    model = Model()
    a = _machine(model, "a", StageKind.CREATE, StageKind.RELEASE, StageKind.TRANSFER)
    b = _machine(model, "b", StageKind.PROCESS)
    model.add_flow(a[StageKind.CREATE], b[StageKind.PROCESS])
    model.add_flow(a[StageKind.RELEASE], a[StageKind.TRANSFER])
    norm = normalize(model)
    assert is_normalized(norm)
    pairs = [(f.from_stage, f.to_stage) for f in norm.flows]
    assert len(pairs) == len(set(pairs))


def test_normalize_does_not_mutate_input():
    model = Model()
    a = _machine(model, "a", StageKind.CREATE)
    b = _machine(model, "b", StageKind.PROCESS)
    model.add_flow(a[StageKind.CREATE], b[StageKind.PROCESS])
    before = model.element_count()
    normalize(model)
    assert model.element_count() == before


def test_is_normalized_cases():
    assert is_normalized(Model())
    model = Model()
    a = _machine(model, "a", StageKind.PROCESS)
    b = _machine(model, "b", StageKind.PROCESS)
    model.add_flow(a[StageKind.PROCESS], b[StageKind.PROCESS])
    assert not is_normalized(model)


# -- model_equal -------------------------------------------------------


def test_model_equal_reflexive_on_corpus(load_corpus):
    result = load_corpus("atm_full.tm")
    assert model_equal(result.model, result.model)


def test_model_equal_ignores_edge_declaration_order():
    def build(swapped: bool) -> Model:
        model = Model()
        a = _machine(model, "a", StageKind.CREATE, StageKind.PROCESS, StageKind.RELEASE)
        pairs = [
            (a[StageKind.CREATE], a[StageKind.PROCESS]),
            (a[StageKind.PROCESS], a[StageKind.RELEASE]),
        ]
        if swapped:
            pairs.reverse()
        for src, dst in pairs:
            model.add_flow(src, dst)
        return model

    assert model_equal(build(False), build(True))


def test_model_equal_ignores_annotations_and_declaration_order():
    m1 = Model()
    t1 = m1.add_thimac("a", annotation=7)
    m1.add_stage(t1, StageKind.CREATE, annotation=1)
    m1.add_thimac("b")
    m2 = Model()
    m2.add_thimac("b")  # different id assignment and root order
    t2 = m2.add_thimac("a")
    m2.add_stage(t2, StageKind.CREATE)
    assert model_equal(m1, m2)


def test_model_equal_distinguishes_structure():
    m1 = Model()
    t1 = m1.add_thimac("a")
    m1.add_stage(t1, StageKind.CREATE)
    m2 = Model()
    t2 = m2.add_thimac("a")
    m2.add_stage(t2, StageKind.PROCESS)
    assert not model_equal(m1, m2)


@settings(max_examples=60, deadline=None)
@given(
    seed_a=st.integers(0, 10_000),
    seed_b=st.integers(0, 10_000),
    seed_c=st.integers(0, 10_000),
)
def test_model_equal_is_an_equivalence_relation(seed_a, seed_b, seed_c):
    models = [
        random_model(random.Random(seed), max_thimacs=3, max_stages=6, max_flows=5)
        for seed in (seed_a, seed_b, seed_c)
    ]
    a, b, c = models
    assert model_equal(a, a)
    if model_equal(a, b):
        assert model_equal(b, a)
    if model_equal(a, b) and model_equal(b, c):
        assert model_equal(a, c)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_stage_kind_uniqueness_invariant_after_random_ops(seed):
    model = random_model(random.Random(seed))
    for thimac in model.thimacs.values():
        kinds = [model.stages[s].kind for s in thimac.stages.values()]
        assert len(kinds) == len(set(kinds))
    for edge in model.flows:
        assert edge.from_stage != edge.to_stage
        assert edge.from_stage in model.stages
        assert edge.to_stage in model.stages


def test_model_equal_false_only_when_normalize_inserted(load_corpus):
    full = load_corpus("atm_full.tm").model
    assert model_equal(full, normalize(full))
    simp = load_corpus("atm_simplified.tm").model
    assert not model_equal(simp, normalize(simp))


# -- indexes against brute-force scans -----------------------------------


def _variants(model: Model) -> dict[str, Model]:
    """The model as built, normalized, copied, and re-read from DSL text
    and from JSON: every way a model with indexes comes to exist."""
    raw = dsl.ParseResult(model, [], None, [])
    parsed = dsl.parse(dsl.format_parts(model, [], None), "random.tm")
    read = dsl.from_json(dsl.to_json(raw))
    out = {
        "built": model,
        "normalize": normalize(model, strict=False),
        "copy": model.copy(),
        "from_json": read.model,
    }
    if parsed.model is not None:
        out["parse"] = parsed.model
    assert out["from_json"] is not None
    return out


def _probe_paths(model: Model) -> list[str]:
    names = [model.qualified_name(t) for t in model.thimacs]
    paths = ["", "nope", "create", "t0.nope", "t0..create"]
    for name in names:
        paths.append(name)
        paths.append(f"{name}.nope")
        paths.extend(f"{name}.{kind}" for kind in sorted(STAGE_KIND_NAMES))
    return paths


def _by_source(edges) -> dict:
    """``{from: [(to, edge object's identity), ...]}`` in the edges' order."""
    out: dict = {}
    for e in edges:
        out.setdefault(e.from_stage, []).append((e.to_stage, id(e)))
    return out


def _check_out_edges(model: Model, label: str) -> None:
    """The per-source indexes hold exactly the model's edges, each source's
    in model order, the triggers are in ascending id order, and ``edges``
    holds exactly the flows and triggers, as the same objects."""
    assert {eid: id(e) for eid, e in model.edges.items()} == {
        e.id: id(e) for e in (*model.flows, *model.triggers)
    }, label
    assert len(model.edges) == len(model.flows) + len(model.triggers), label
    for index, edges in (
        (model.flows_from, model.flows), (model.triggers_from, model.triggers)
    ):
        held = {
            src: [(dst, id(e)) for dst, e in out.items()] for src, out in index.items()
        }
        assert held == _by_source(edges), label
    ids = [t.id for t in model.triggers]
    assert ids == sorted(ids), label


def _check_indexes(model: Model, rng: random.Random, label: str) -> None:
    for path in _probe_paths(model):
        assert model.find_thimac(path) == scan_thimac(model, path), (label, path)
        assert model.find_stage(path) == scan_stage(model, path), (label, path)
    stages = list(model.stages)
    for src in stages:
        for dst in stages:
            assert model.find_flow(src, dst) is scan_edge(model.flows, src, dst), label
    _check_out_edges(model, label)
    # edge dedup: an existing (from, to) pair returns its edge, a new one
    # appends exactly one edge
    for _ in range(6):
        src, dst = rng.choice(stages), rng.choice(stages)
        existing = scan_edge(model.triggers, src, dst)
        count = len(model.triggers)
        tid = model.add_trigger(src, dst)
        if existing is not None:
            assert tid == existing.id and len(model.triggers) == count, label
        else:
            assert len(model.triggers) == count + 1, label
            assert model.triggers[-1].id == tid, label
        if src != dst:
            existing = scan_edge(model.flows, src, dst)
            fid = model.add_flow(src, dst)
            want = model.flows[-1] if existing is None else existing
            assert fid == want.id, label
        assert model.find_flow(src, dst) is scan_edge(model.flows, src, dst), label
    _check_out_edges(model, f"{label} grown")


@pytest.mark.parametrize("seed", range(40))
def test_indexes_agree_with_brute_force_scans(seed):
    rng = random.Random(seed)
    if seed % 2:
        model = random_legal_chain_model(rng, machines=4)
    else:
        model = random_model(rng, max_thimacs=5, max_stages=10, max_flows=12)
    for label, variant in _variants(model).items():
        _check_indexes(variant, rng, label)


def _check_region_edges(model: Model, rng: random.Random, label: str) -> None:
    """``region_edges`` against the full scan over random regions, which
    may hold thimac ids, edge ids and ids of nothing: the same flows and
    triggers, the triggers in the same order, and each source's flows in
    the same order."""
    ids = [*model.stages, *model.thimacs, *model.edges, 0, model._next_id]
    for _ in range(6):
        region = set(rng.sample(ids, rng.randint(0, len(ids))))
        flows, triggers = region_edges(model, region)
        want_flows, want_triggers = reference_region_edges(model, region)
        assert [id(t) for t in triggers] == [id(t) for t in want_triggers], label
        assert _by_source(flows) == _by_source(want_flows), label


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_region_edges_matches_the_scan_on_random_models(seed):
    rng = random.Random(seed)
    if seed % 2:
        model = random_legal_chain_model(rng, machines=4)
    else:
        model = random_model(rng, max_thimacs=5, max_stages=12, max_flows=16)
    stages = list(model.stages)
    for _ in range(rng.randint(0, 6)):
        model.add_trigger(rng.choice(stages), rng.choice(stages))
    for label, variant in _variants(model).items():
        _check_region_edges(variant, rng, label)


def test_index_lookups_on_corpus(load_corpus):
    rng = random.Random(7)
    for name in ("atm_full.tm", "davidson.tm", "ships.tm"):
        model = load_corpus(name).model
        for label, variant in _variants(model.copy()).items():
            _check_indexes(variant, rng, f"{name} {label}")


def _snapshot(model: Model):
    return (
        _signature(model),
        model._next_id,
        list(model.roots),
        [(t.id, t.name, t.parent, dict(t.stages), list(t.children)) for t in model.thimacs.values()],
        [(s.id, s.kind, s.thimac) for s in model.stages.values()],
        [(f.id, f.from_stage, f.to_stage) for f in model.flows],
        [(t.id, t.from_stage, t.to_stage) for t in model.triggers],
        model.declared(),
    )


@pytest.mark.parametrize("seed", range(30))
def test_normalize_leaves_input_unchanged(seed):
    rng = random.Random(1000 + seed)
    if seed % 2:
        model = random_legal_chain_model(rng, machines=4)
    else:
        model = random_model(rng, max_thimacs=5, max_stages=10, max_flows=12)
    before = _snapshot(model)
    flows = list(model.flows)
    out = normalize(model, strict=False)
    assert _snapshot(model) == before
    assert all(a is b for a, b in zip(model.flows, flows))
    # the result shares no mutable part with its input
    for tid, thimac in out.thimacs.items():
        assert thimac is not model.thimacs[tid]
        assert thimac.stages is not model.thimacs[tid].stages
    assert {id(edge) for edge in out.edges.values()}.isdisjoint(
        map(id, model.edges.values())
    )
    flows_from = {src: dict(dsts) for src, dsts in model.flows_from.items()}
    fresh = out.add_stage(out.add_thimac("fresh"), StageKind.PROCESS)
    assert model.find_thimac("fresh") is None
    for src in model.stages:
        out.add_flow(src, fresh)
    assert model.flows_from == flows_from


def test_copy_is_independent():
    model = random_legal_chain_model(random.Random(3), machines=4)
    before = _snapshot(model)
    dup = model.copy()
    assert _snapshot(dup) == before
    tid = dup.add_thimac("extra")
    dup.add_stage(tid, StageKind.TRANSFER)
    dup.add_trigger(dup.flows[0].from_stage, dup.flows[0].to_stage)
    dup.flows[0].to_stage = dup.flows[0].from_stage
    assert _snapshot(model) == before


# -- the name table against the parent-walk namer -------------------------


def _element_ids(model: Model) -> list[int]:
    edges = (*model.flows, *model.triggers)
    return [*model.thimacs, *model.stages, *(e.id for e in edges)]


def _check_names(model: Model, rng: random.Random, label: str) -> None:
    ids = _element_ids(model)
    rng.shuffle(ids)  # the memo must not depend on which name is asked first
    for eid in ids:
        want = reference_qualified_name(model, eid)
        assert model.qualified_name(eid) == want, (label, eid)
    for unknown in (0, -1, model._next_id):
        with pytest.raises(KeyError):
            model.qualified_name(unknown)


def _check_name_table(model: Model, rng: random.Random, label: str) -> None:
    _check_names(model, rng, label)
    norm = normalize(model, strict=False)
    _check_names(norm, rng, f"{label} normalize")
    for eid in set(_element_ids(model)) - set(_element_ids(norm)):
        with pytest.raises(KeyError):
            norm.qualified_name(eid)
    before = {eid: model.qualified_name(eid) for eid in _element_ids(model)}
    dup = model.copy()
    _check_names(dup, rng, f"{label} copy")
    tid = dup.add_thimac("grown", rng.choice([None, *dup.thimacs]))
    a = dup.add_stage(tid, StageKind.PROCESS)
    b = dup.add_stage(tid, StageKind.RELEASE)
    grown = [tid, a, b, dup.add_flow(a, b), dup.add_trigger(b, a)]
    _check_names(dup, rng, f"{label} grown copy")
    assert {eid: model.qualified_name(eid) for eid in before} == before, label
    for eid in grown:
        with pytest.raises(KeyError):
            model.qualified_name(eid)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_qualified_name_matches_the_parent_walk_on_random_models(seed):
    rng = random.Random(seed)
    model = random_model(rng, max_thimacs=8, max_stages=14, max_flows=14)
    stages = list(model.stages)
    for _ in range(rng.randint(0, 3)):
        model.add_trigger(rng.choice(stages), rng.choice(stages))
    _check_name_table(model, rng, "random")


def test_qualified_name_matches_the_parent_walk_on_corpus(load_corpus):
    rng = random.Random(11)
    for name in CORPUS_NAMES:
        _check_name_table(load_corpus(name).model.copy(), rng, name)

