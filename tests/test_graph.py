"""The iterative walks of ``tmkit.graph``, and their callers checked
against the recursive walks they replaced (kept in ``_support``)."""

from __future__ import annotations

import json
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmkit import graph
from tmkit.behavior import EventDef, flatten
from tmkit.core import normalize
from tmkit.diagnostics import sorted_diagnostics
from tmkit.dsl import from_json, parse, to_json
from tmkit.errors import ContainmentCycle, UnknownEvent
from tmkit.validate import validate

from _support import (
    random_digraph,
    random_model,
    reference_containment_cycles,
    reference_flatten,
    reference_iter_thimacs,
    reference_parse,
)


def _random_succ(rng: random.Random) -> tuple[list[int], dict[int, list[int]]]:
    """A digraph with self-loops and repeated edges, as successor lists."""
    count = rng.randint(1, 9)
    succ = {n: [rng.randrange(count) for _ in range(rng.randint(0, 3))] for n in range(count)}
    roots = [rng.randrange(count) for _ in range(rng.randint(1, count))]
    return roots, succ


def _recursive_preorder(roots, succ) -> list:
    seen: set = set()
    out: list = []

    def visit(node) -> None:
        seen.add(node)
        out.append(node)
        for nxt in succ[node]:
            if nxt not in seen:
                visit(nxt)

    for root in roots:
        if root not in seen:
            visit(root)
    return out


def _recursive_cycles(roots, succ) -> list[list]:
    done: set = set()
    path: list = []
    out: list[list] = []

    def visit(node) -> None:
        path.append(node)
        for nxt in succ[node]:
            if nxt in path:
                out.append(path[path.index(nxt):] + [nxt])
            elif nxt not in done:
                visit(nxt)
        path.pop()
        done.add(node)

    for root in roots:
        if root not in done:
            visit(root)
    return out


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 1_000_000))
def test_preorder_and_cycles_match_recursive_search(seed):
    roots, succ = _random_succ(random.Random(seed))
    assert list(graph.preorder(roots, succ.__getitem__)) == _recursive_preorder(roots, succ)
    assert list(graph.cycles(roots, succ.__getitem__)) == _recursive_cycles(roots, succ)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 1_000_000))
def test_tree_matches_recursive_walk(seed):
    rng = random.Random(seed)
    children: dict[int, list[int]] = {0: []}
    roots = [0]
    for node in range(1, rng.randint(1, 15)):
        children[node] = []
        if rng.random() < 0.3:
            roots.append(node)
        else:
            children[rng.randrange(node)].append(node)
    expected: list = []

    def walk(node: int, depth: int) -> None:
        expected.append((node, depth, True))
        for child in children[node]:
            walk(child, depth + 1)
        expected.append((node, depth, False))

    for root in roots:
        walk(root, 0)
    assert list(graph.tree(roots, children.__getitem__)) == expected


def _brute_force_components(nodes, edges) -> list[set]:
    """Merge singleton sets across every edge until nothing changes."""
    parts = [{n} for n in dict.fromkeys(nodes)]
    merged = True
    while merged:
        merged = False
        for a, b in edges:
            pa = next(p for p in parts if a in p)
            pb = next(p for p in parts if b in p)
            if pa is not pb:
                pa |= pb
                parts.remove(pb)
                merged = True
    order = list(dict.fromkeys(nodes))
    return sorted(parts, key=lambda p: min(order.index(n) for n in p))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 1_000_000))
def test_components_match_brute_force(seed):
    rng = random.Random(seed)
    nodes, edges = random_digraph(rng, max_nodes=12, edge_prob=rng.random() * 0.3)
    rng.shuffle(nodes)
    found = list(graph.components(nodes, edges))
    assert [set(c) for c in found] == _brute_force_components(nodes, edges)
    # each is a list of distinct nodes, headed by its first node in ``nodes``
    order = list(dict.fromkeys(nodes))
    for comp in found:
        assert type(comp) is list and len(set(comp)) == len(comp)
        assert comp[0] == min(comp, key=order.index)


def test_topological_leaves_out_what_a_cycle_blocks():
    edges = [("a", "b"), ("b", "c"), ("c", "b"), ("a", "d")]
    assert graph.topological(["a", "b", "c", "d"], edges) == ["a", "d"]
    assert graph.topological(["d", "c", "b", "a"], [("a", "b")]) == ["d", "c", "a", "b"]


def test_walks_are_iterative_on_long_chains():
    n = 100_000
    chain = {i: [i + 1] for i in range(n)}
    chain[n] = [0]
    assert list(graph.preorder([0], chain.__getitem__)) == list(range(n + 1))
    assert [len(c) for c in graph.cycles([0], chain.__getitem__)] == [n + 2]
    assert len(list(graph.tree([0], lambda i: [i + 1] if i < n else []))) == 2 * (n + 1)
    chain_edges = [(i, i + 1) for i in range(n)]
    assert [len(c) for c in graph.components(range(n + 1), chain_edges)] == [n + 1]
    assert graph.topological(range(n, -1, -1), chain_edges) == list(range(n + 1))


# -- callers against the walks they replaced -----------------------------------


def _containment_events(rng: random.Random) -> list[tuple[str, list[str]]]:
    """``(id, contains)`` pairs with random ``contains`` lists: cycles,
    self-loops, repeats, undeclared and duplicate events."""
    count = rng.randint(1, 7)
    names = [f"E{i}" for i in range(count)] + ["Undeclared"]
    return [
        (rng.choice(names[:count]), [rng.choice(names) for _ in range(rng.randint(0, 3))])
        for _ in range(count + rng.randint(0, 2))
    ]


def _containment_source(events: list[tuple[str, list[str]]]) -> str:
    lines = ["thimac a { stage create; }"]
    for eid, subs in events:
        contains = f" contains {', '.join(subs)};" if subs else ""
        lines.append(f"event {eid} {{ region {{ a.create; }}{contains} }}")
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 1_000_000))
def test_event_cycle_diagnostics_match_recursive_check(seed):
    text = _containment_source(_containment_events(random.Random(seed)))
    result = parse(text, "c.tm")
    cycles = [d for d in result.diagnostics if d.code == "EVENT_CYCLE"]
    assert cycles == sorted_diagnostics(reference_containment_cycles(result.events))
    assert result.diagnostics == reference_parse(text, "c.tm").diagnostics


_KIND_WORDS = ["create", "process", "release", "transfer", "receive"]


def _element_spec(rng: random.Random) -> dict:
    """Root thimacs, each with stage kinds and at most one child, which
    may have none: some names and kinds repeated. Flows (chains too) and
    triggers between paths of every kind: a declared stage, a thimac
    (its port, made if absent), and a path that names nothing (no such
    thimac, a kind the thimac lacks). Self-edges, a thimac's port to
    itself among them, and repeats. Events from ``_containment_events``,
    or up to two that contain none, each over one or two paths: a stage,
    a thimac (all its stages and its child's), or a path that names
    nothing."""
    thimacs = []  # (name, kinds, child's (name, kinds) or None)
    stage_paths: list[str] = []
    thimac_paths: list[str] = []
    names = rng.sample("abc", rng.randint(1, 3))
    if rng.random() < 0.3:
        names.append(rng.choice(names))
    for i, name in enumerate(names):
        kinds = rng.sample(_KIND_WORDS, rng.randint(1, 3))
        if rng.random() < 0.2:
            kinds.append(rng.choice(kinds))
        if name in names[:i]:
            # dropped with its body, so it gets no child and no paths
            thimacs.append((name, kinds, None))
            continue
        child = ("d", rng.sample(_KIND_WORDS, rng.randint(0, 3))) if rng.random() < 0.4 else None
        thimacs.append((name, kinds, child))
        owners = [(name, kinds)] + ([(f"{name}.d", child[1])] if child else [])
        for path, declared in owners:
            stage_paths += [f"{path}.{kind}" for kind in dict.fromkeys(declared)]
            thimac_paths.append(path)
    missing = ["x.process", "a.d.d"]

    def path() -> str:
        if rng.random() < 0.95:
            return rng.choice(stage_paths + thimac_paths)
        if rng.random() < 0.5:
            return rng.choice(missing)
        return f"{rng.choice(thimac_paths)}.{rng.choice(_KIND_WORDS)}"

    flows = [[path() for _ in range(rng.randint(2, 3))] for _ in range(rng.randint(0, 5))]
    triggers = [[path(), path()] for _ in range(rng.randint(0, 4))]
    if rng.random() < 0.5:
        events = _containment_events(rng)
    else:  # none, or some with no containment to report
        events = [(f"R{i}", []) for i in range(rng.randint(0, 2))]
    return {
        "thimacs": thimacs,
        "flows": flows,
        "triggers": triggers,
        "events": [
            (eid, subs, [path() for _ in range(rng.randint(1, 2))]) for eid, subs in events
        ],
    }


def _element_source(spec: dict) -> str:
    lines = []
    for name, kinds, child in spec["thimacs"]:
        body = " ".join(f"stage {kind};" for kind in kinds)
        if child:
            body += f" thimac {child[0]} {{ "
            body += " ".join(f"stage {kind};" for kind in child[1]) + " }"
        lines.append(f"thimac {name} {{ {body} }}")
    lines += [f"flow {' -> '.join(chain)};" for chain in spec["flows"]]
    lines += [f"trigger {a} ~> {b};" for a, b in spec["triggers"]]
    for eid, subs, region in spec["events"]:
        contains = f" contains {', '.join(subs)};" if subs else ""
        members = " ".join(f"{path};" for path in region)
        lines.append(f"event {eid} {{ region {{ {members} }}{contains} }}")
    return "\n".join(lines)


def _element_document(spec: dict) -> str:
    """The same spec as a model document, a flow chain as its steps."""
    thimacs = []
    for name, kinds, child in spec["thimacs"]:
        thimacs.append({"name": name, "stages": [{"kind": k} for k in kinds]})
        if child:
            thimacs.append({
                "name": f"{name}.{child[0]}",
                "parent": name,
                "stages": [{"kind": k} for k in child[1]],
            })
    return json.dumps({
        "thimacs": thimacs,
        "flows": [
            {"from": a, "to": b} for chain in spec["flows"] for a, b in zip(chain, chain[1:])
        ],
        "triggers": [{"from": a, "to": b} for a, b in spec["triggers"]],
        "events": [
            {"id": eid, "region": region, "contains": subs}
            for eid, subs, region in spec["events"]
        ],
    })


# the context ``from_json`` puts before an unresolved path's message
_JSON_CONTEXT = re.compile(r"^(flow|trigger|event '\w+' region): ")


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 1_000_000))
def test_json_containment_diagnostics_match_parse(seed):
    """``from_json`` reads every path and reports every element rule as
    ``parse`` does: repeated thimacs and stage kinds, flow and trigger
    ends and region paths of every kind, repeated flows and triggers,
    and containment. JSON names an unresolved path DANGLING_REF after
    its entry's context, where the text reports UNRESOLVED_PATH. Each
    finding is reported once per place its path is written: the document
    writes a chain's interior path in two flow entries, where the text
    writes it once. A self-flow is no front-end finding in either. Where
    both give a model, they write the same document and validation
    judges both alike."""
    spec = _element_spec(random.Random(seed))
    parsed = parse(_element_source(spec), "c.tm")
    loaded = from_json(_element_document(spec))
    # where each chain's interior paths start in the text: its flow line
    # follows the thimac lines, and its paths follow "flow ", each
    # followed by " -> "
    interior = {
        (len(spec["thimacs"]) + 1 + j, 6 + sum(len(p) + 4 for p in chain[:k]))
        for j, chain in enumerate(spec["flows"])
        for k in range(1, len(chain) - 1)
    }
    expected = Counter()
    for d in parsed.diagnostics:
        at = (d.span.start_line, d.span.start_col)
        expected[d.severity, d.code, d.message] += 2 if at in interior else 1
    assert Counter(
        (
            d.severity,
            "UNRESOLVED_PATH" if d.code == "DANGLING_REF" else d.code,
            _JSON_CONTEXT.sub("", d.message),
        )
        for d in loaded.diagnostics
    ) == expected
    if parsed.model is None:
        assert loaded.model is None
        return
    assert to_json(loaded) == to_json(parsed)
    found = [
        sorted(
            (d.code, d.message)
            for d in validate(normalize(r.model, strict=False), r.events, r.chronology)
        )
        for r in (parsed, loaded)
    ]
    assert found[0] == found[1]


def _flatten_outcome(fn, events, root):
    try:
        return "ok", fn(events, root)
    except (UnknownEvent, ContainmentCycle) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(0, 1_000_000))
def test_flatten_matches_recursive_flatten(seed):
    rng = random.Random(seed)
    count = rng.randint(1, 6)
    names = [f"E{i}" for i in range(count)]
    events = [
        EventDef(
            eid,
            region={rng.randrange(20) for _ in range(rng.randint(0, 3))},
            subevents=[rng.choice(names + ["X"]) for _ in range(rng.randint(0, 3))],
        )
        for eid in names
    ]
    for root in names + ["X"]:
        kind, got = _flatten_outcome(flatten, events, root)
        old_kind, want = _flatten_outcome(reference_flatten, events, root)
        assert kind == old_kind
        if kind == "ContainmentCycle":
            # the new message names the witness, the old one the whole path
            witness = got.split(": ", 1)[1]
            assert want.endswith(" " + witness)
            first = witness.split(" -> ")[0]
            assert witness.startswith(first) and witness.endswith(" -> " + first)
        else:
            assert got == want


def test_flatten_cycle_message_names_the_witness():
    events = [
        EventDef("A", region={1}, subevents=["B"]),
        EventDef("B", region={2}, subevents=["C"]),
        EventDef("C", region={3}, subevents=["B"]),
    ]
    with pytest.raises(ContainmentCycle, match=r"^event containment cycle: B -> C -> B$"):
        flatten(events, "A")


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 1_000_000))
def test_iter_thimacs_matches_recursive_walk(seed):
    model = random_model(random.Random(seed), max_thimacs=10)
    assert model.iter_thimacs() == reference_iter_thimacs(model)


_THIMAC_WORDS = [
    "thimac", "thimac", "thimac", "stage", "create", "process", "transfer",
    "receive", "arrive", "a", "b", "c", "{", "{", "}", "}", ";", ";", "@", "7",
    ".", "flow", "->", "event", "region", "x",
]


def _nested_source(rng: random.Random, depth: int = 0) -> str:
    """Well-formed nested thimacs, with repeated names and stage kinds."""
    parts = [f"thimac {rng.choice('abc')}" + (" @3" if rng.random() < 0.2 else "") + " {"]
    for _ in range(rng.randint(0, 3)):
        if depth < 4 and rng.random() < 0.5:
            parts.append(_nested_source(rng, depth + 1))
        else:
            parts.append(f"stage {rng.choice(['create', 'process', 'transfer', 'arrive'])};")
    parts.append("}")
    return " ".join(parts)


def _malformed(rng: random.Random, text: str) -> str:
    """Words deleted or inserted, and sometimes the text cut short."""
    words = text.split()
    if rng.random() < 0.3:
        words = words[: rng.randint(0, len(words))]
    for _ in range(rng.randint(0, 4)):
        op = rng.random()
        at = rng.randint(0, len(words))
        if op < 0.4 and words:
            del words[min(at, len(words) - 1)]
        else:
            words.insert(at, rng.choice(_THIMAC_WORDS))
    return " ".join(words)


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(0, 1_000_000))
def test_thimac_parsing_matches_recursive_parser(seed):
    rng = random.Random(seed)
    text = " ".join(_nested_source(rng) for _ in range(rng.randint(1, 3)))
    text += " flow a.create -> b; event E { region { a; b.c; } }"
    if rng.random() < 0.7:
        text = _malformed(rng, text)
    got, want = parse(text, "t.tm"), reference_parse(text, "t.tm")
    assert got.diagnostics == want.diagnostics
    assert [(e.id, e.region) for e in got.events] == [(e.id, e.region) for e in want.events]
    assert (got.model is None) == (want.model is None)
    if got.model is not None:
        assert list(got.model.thimacs.values()) == list(want.model.thimacs.values())
        assert list(got.model.stages.values()) == list(want.model.stages.values())
        assert got.model.flows == want.model.flows
