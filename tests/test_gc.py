"""The pipeline makes no reference cycles, and a trace stores no object
per firing.

Every step runs with the cyclic collector off and ``gc.DEBUG_SAVEALL``
set, so each ``gc.collect()`` keeps in ``gc.garbage`` whatever only the
collector could have freed. No such object may come from tmkit: a
tmkit object in a cycle (a back-pointer, a stored exception) fails here.
The standard library's indenting JSON encoder, which ``to_json`` uses,
leaves closures of its own in cycles; they are not tmkit's.
"""

from __future__ import annotations

import gc
import random
import re
import types

import pytest

from tmkit import dsl
from tmkit.behavior import Chronology, EventDef
from tmkit.core import normalize
from tmkit.corpus import corpus_path
from tmkit.diagnostics import has_errors
from tmkit.errors import StepBudgetExceeded, TmError
from tmkit.render import RenderMode, RenderOptions, render_dot
from tmkit.sim import SimConfig, coverage, simulate, trace_to_json
from tmkit.validate import validate

from _support import random_legal_chain_model, random_model
from conftest import CORPUS_NAMES

MALFORMED = [
    "thimac a { stage create; ",
    "flow a.create -> ;\nthimac",
    "thimac a { stage create; stage create; }\nflow a.create -> b.process;",
    'event E "open { region { x; } }',
    "chronology { E -> ; }\n}}}",
    "thimac a { stage create; }\nevent E { region { a; } contains E; }\n"
    "chronology { E; }",
    "\x00� @@ ~> -> ~~",
]
MALFORMED_JSON = ['{"thimacs": 5}', '{"events": [{"id": "E", "region": 5}]}', "[", ""]


def _from_tmkit(obj) -> bool:
    if isinstance(obj, types.FunctionType):
        module = obj.__module__
    else:
        module = type(obj).__module__
    return (module or "").split(".")[0] == "tmkit"


@pytest.fixture
def no_cycles():
    """``check(step)`` collects and fails if tmkit made cyclic garbage."""
    gc.collect()
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    del gc.garbage[:]

    def check(step: str) -> None:
        gc.collect()
        found = sorted({type(o).__qualname__ for o in gc.garbage if _from_tmkit(o)})
        del gc.garbage[:]
        assert not found, f"{step} left tmkit objects in reference cycles: {found}"

    try:
        yield check
    finally:
        gc.set_debug(flags)
        del gc.garbage[:]
        if enabled:
            gc.enable()


def run_pipeline(text: str, name: str, check) -> None:
    """Every pipeline step on one source, checking after each."""
    result = dsl.parse(text, name)
    check(f"{name}: parse")
    if result.model is None:
        return
    model = normalize(result.model, strict=False)
    check(f"{name}: normalize")
    found = validate(model, result.events, result.chronology)
    check(f"{name}: validate")
    if not has_errors(found):
        trace = simulate(model, result.events, result.chronology)
        check(f"{name}: simulate")
        trace_to_json(model, trace)
        check(f"{name}: trace_to_json")
        coverage(model, trace, result.events)
        check(f"{name}: coverage")
        del trace
        try:
            simulate(model, result.events, result.chronology, SimConfig(2))
        except StepBudgetExceeded:
            pass
        check(f"{name}: simulate past its step budget")
    dsl.format_parts(model, result.events, result.chronology)
    check(f"{name}: format_parts")
    for mode in RenderMode:
        opts = RenderOptions(mode=mode)
        try:
            render_dot(model, result.events, result.chronology, opts)
        except TmError:
            pass
        check(f"{name}: render {mode.value}")
    dsl.from_json(dsl.to_json(result))
    check(f"{name}: to_json and from_json")


def generated_sources(count: int) -> list[str]:
    """DSL text for random models: legal chains with random events and
    chronologies, and arbitrary models that validation may reject."""
    rng = random.Random(1729)
    sources = []
    for _ in range(count):
        model = random_legal_chain_model(rng, machines=4)
        stages = sorted(model.stages)
        events = [
            EventDef(
                f"E{k}",
                region=set(rng.sample(stages, rng.randint(1, len(stages)))),
                multiplicity=rng.randint(1, 4),
            )
            for k in range(rng.randint(1, 3))
        ]
        nodes = [e.id for e in events]
        chronology = Chronology(nodes=nodes, edges=list(zip(nodes, nodes[1:])))
        sources.append(dsl.format_parts(model, events, chronology))
        sources.append(dsl.format_parts(random_model(rng), [], None))
    return sources


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_pipeline_makes_no_cycles(no_cycles, name):
    run_pipeline(corpus_path(name).read_text(encoding="utf-8"), name, no_cycles)


def test_generated_and_malformed_pipelines_make_no_cycles(no_cycles):
    for index, text in enumerate(generated_sources(15) + MALFORMED):
        run_pipeline(text, f"input{index}.tm", no_cycles)
    for index, text in enumerate(MALFORMED_JSON):
        dsl.from_json(text)
        no_cycles(f"from_json of malformed document {index}")


def test_a_trace_holds_no_tracked_object_per_firing():
    text = corpus_path("ships.tm").read_text(encoding="utf-8")
    text = re.sub(r"repeat \d+;", "repeat 2000;", text)
    result = dsl.parse(text, "ships.tm")
    model = normalize(result.model, strict=False)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = len(gc.get_objects())
        trace = simulate(model, result.events, result.chronology)
        added = len(gc.get_objects()) - before
    finally:
        if enabled:
            gc.enable()
    assert len(trace.firings) == 20000
    # the tokens and event order grow with instances, not with firings
    assert added < len(trace.firings) // 2
