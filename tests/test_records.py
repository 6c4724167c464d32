"""The contract of tmkit's public record classes.

Constructors (parameter names, order and defaults), field-wise ``==``,
``repr`` and ``SourceSpan``'s immutability are pinned literally, so a
change of how the records are written keeps them.
"""

from __future__ import annotations

import inspect

import pytest

from tmkit.behavior import Chronology, EventDef
from tmkit.core import FlowEdge, Stage, StageKind, Thimac, TriggerEdge
from tmkit.diagnostics import Diagnostic, Record, Severity, SourceSpan
from tmkit.dsl.parser import ParseResult
from tmkit.render import RenderMode, RenderOptions
from tmkit.sim import Firing, FiringKind, SimConfig, Token, Trace

REQUIRED = inspect.Parameter.empty
# a mutable default: each instance gets a new empty one of these types
FRESH = (list, dict, set)

# Each record's parameters with their defaults, a type from FRESH for a
# mutable one.
SIGNATURES = {
    SourceSpan: [
        ("file", REQUIRED), ("start_line", REQUIRED), ("start_col", REQUIRED),
        ("end_line", REQUIRED), ("end_col", REQUIRED),
    ],
    Diagnostic: [
        ("severity", REQUIRED), ("code", REQUIRED), ("message", REQUIRED),
        ("span", None), ("element", None),
    ],
    Thimac: [
        ("id", REQUIRED), ("name", REQUIRED), ("parent", REQUIRED), ("stages", dict),
        ("children", list), ("annotation", None), ("span", None),
    ],
    Stage: [
        ("id", REQUIRED), ("kind", REQUIRED), ("thimac", REQUIRED),
        ("annotation", None), ("span", None),
    ],
    FlowEdge: [
        ("id", REQUIRED), ("from_stage", REQUIRED), ("to_stage", REQUIRED),
        ("span", None),
    ],
    TriggerEdge: [
        ("id", REQUIRED), ("from_stage", REQUIRED), ("to_stage", REQUIRED),
        ("span", None),
    ],
    EventDef: [
        ("id", REQUIRED), ("label", None), ("region", set), ("multiplicity", 1),
        ("subevents", list), ("span", None),
    ],
    Chronology: [("nodes", list), ("edges", list), ("span", None)],
    ParseResult: [
        ("model", REQUIRED), ("events", REQUIRED), ("chronology", REQUIRED),
        ("diagnostics", REQUIRED),
    ],
    Token: [
        ("id", REQUIRED), ("thing", REQUIRED), ("location", REQUIRED),
        ("prev_stage", None),
    ],
    Firing: [
        ("step", REQUIRED), ("event", REQUIRED), ("instance", REQUIRED),
        ("element", REQUIRED), ("kind", REQUIRED), ("token", None),
    ],
    Trace: [
        ("events", list), ("instances", list), ("elements", list), ("kinds", list),
        ("tokens", list), ("event_order", list), ("final_tokens", list),
    ],
    SimConfig: [("max_steps_per_event", 10000)],
    RenderOptions: [
        ("mode", RenderMode.STATIC), ("highlight", None), ("simplified", False),
    ],
}
RECORDS = list(SIGNATURES)


def _required(cls) -> dict[str, int]:
    """A distinct placeholder for each required parameter."""
    return {
        name: 100 + i
        for i, (name, default) in enumerate(SIGNATURES[cls])
        if default is REQUIRED
    }


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_constructor_parameters_and_defaults(cls):
    params = inspect.signature(cls).parameters.values()
    assert [p.name for p in params] == [name for name, _ in SIGNATURES[cls]]
    for p, (_, default) in zip(params, SIGNATURES[cls]):
        assert p.kind is p.POSITIONAL_OR_KEYWORD
        if default is REQUIRED:
            assert p.default is REQUIRED, p.name
        elif default in FRESH:
            # a mutable default is a fresh container, checked below
            assert p.default is not REQUIRED, p.name
        else:
            assert (type(p.default), p.default) == (type(default), default), p.name


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_default_built_instances_share_no_container(cls):
    a, b = cls(**_required(cls)), cls(**_required(cls))
    for name, default in SIGNATURES[cls]:
        if default in FRESH:
            assert getattr(a, name) == default() and type(getattr(a, name)) is default
            assert getattr(a, name) is not getattr(b, name), name
        elif default is not REQUIRED:
            assert getattr(a, name) == default, name


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_equality_is_field_wise(cls):
    args = _required(cls)
    assert cls(**args) == cls(**args)
    assert cls(**args) != object()
    for name, default in SIGNATURES[cls]:
        # any one field differing makes the records differ
        if default is dict:
            other = {7: 7}
        elif default in FRESH:
            other = default([7])
        else:
            other = 7
        assert cls(**args) != cls(**{**args, name: other}), name


def test_records_of_two_classes_with_the_same_fields_differ():
    class Twin(Record):
        __slots__ = _fields = ("id", "from_stage", "to_stage", "span")

        def __init__(self, id, from_stage, to_stage, span=None):
            self.id, self.from_stage, self.to_stage = id, from_stage, to_stage
            self.span = span

    # a trigger is a plain record of its own, with no shared edge base
    assert TriggerEdge.__bases__ == (Record,)
    assert TriggerEdge.__slots__ == TriggerEdge._fields == Twin._fields
    assert TriggerEdge(1, 2, 3) != Twin(1, 2, 3)
    assert Twin(1, 2, 3) != TriggerEdge(1, 2, 3)
    assert (TriggerEdge.arrow, FlowEdge.arrow) == ("~>", "->")


@pytest.mark.parametrize(
    "cls", [c for c in RECORDS if c is not SourceSpan], ids=lambda c: c.__name__
)
def test_mutable_records_are_unhashable(cls):
    with pytest.raises(TypeError):
        hash(cls(**_required(cls)))


def test_chronology_equality_ignores_its_lookup_sets():
    grown = Chronology()
    grown.add_edge("a", "b")
    assert grown == Chronology(["a", "b"], [("a", "b")])
    appended = Chronology()
    appended.nodes.append("a")  # past add_node, so its set misses "a"
    assert appended == Chronology(["a"])
    assert Chronology(["a"], span=SourceSpan("f", 1, 1, 1, 1)) != Chronology(["a"])


def test_token_equality_includes_the_routing_state():
    assert Token(1, "a", 2, 3) == Token(1, "a", 2, 3)
    assert Token(1, "a", 2, 3) != Token(1, "a", 2, 4)
    assert Token(1, "a", 2) != Token(1, "a", 2, 3)


def test_source_span_is_immutable_and_hashable():
    span = SourceSpan("f.tm", 3, 4, 5, 6)
    for name, _ in SIGNATURES[SourceSpan]:
        with pytest.raises(AttributeError):
            setattr(span, name, 1)
    assert span == SourceSpan("f.tm", 3, 4, 5, 6)
    assert hash(span) == hash(SourceSpan("f.tm", 3, 4, 5, 6))
    other = SourceSpan("f.tm", 3, 4, 5, 7)
    assert len({span, SourceSpan("f.tm", 3, 4, 5, 6), other}) == 2
    assert str(span) == "f.tm:3:4"
    fields = (span.file, span.start_line, span.start_col, span.end_line, span.end_col)
    assert fields == ("f.tm", 3, 4, 5, 6)


def test_reprs():
    assert repr(SimConfig()) == "SimConfig(max_steps_per_event=10000)"
    # a token's repr leaves out its routing state
    assert repr(Token(1, "atm", 5, 4)) == "Token(id=1, thing='atm', location=5)"
    assert repr(SourceSpan("f.tm", 1, 2, 3, 4)) == (
        "SourceSpan(file='f.tm', start_line=1, start_col=2, end_line=3, end_col=4)"
    )
    assert repr(Diagnostic(Severity.ERROR, "X", "m")) == (
        "Diagnostic(severity=<Severity.ERROR: 'error'>, code='X', message='m', "
        "span=None, element=None)"
    )
    assert repr(Stage(3, StageKind.CREATE, 1)) == (
        "Stage(id=3, kind=<StageKind.CREATE: 'create'>, thimac=1, annotation=None, "
        "span=None)"
    )
    assert repr(FlowEdge(5, 3, 4)) == "FlowEdge(id=5, from_stage=3, to_stage=4, span=None)"
    assert repr(TriggerEdge(7, 3, 4, SourceSpan("f", 1, 2, 1, 8))) == (
        "TriggerEdge(id=7, from_stage=3, to_stage=4, span=SourceSpan(file='f', "
        "start_line=1, start_col=2, end_line=1, end_col=8))"
    )
    assert repr(Chronology(["a"])) == "Chronology(nodes=['a'], edges=[], span=None)"
    assert repr(RenderOptions()) == (
        "RenderOptions(mode=<RenderMode.STATIC: 'static'>, highlight=None, "
        "simplified=False)"
    )
    assert repr(Firing(0, "E", 1, 2, FiringKind.TOKEN_SPAWN, 1)) == (
        "Firing(step=0, event='E', instance=1, element=2, "
        "kind=<FiringKind.TOKEN_SPAWN: 'TokenSpawn'>, token=1)"
    )


@pytest.mark.parametrize("steps", [0, -1])
def test_sim_config_rejects_a_step_budget_below_one(steps):
    with pytest.raises(ValueError, match="max_steps_per_event must be at least 1"):
        SimConfig(steps)
    with pytest.raises(ValueError):
        SimConfig(max_steps_per_event=steps)
    assert SimConfig(1).max_steps_per_event == 1

