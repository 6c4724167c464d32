"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its arguments: the same variant
gives the same source text, byte for byte. A run's ``--seed`` picks the
variant as ``seed % VARIANTS``, so every input a run can see has output
digests recorded in ``digests.json``.
"""

from __future__ import annotations

import random
import re
from pathlib import Path

VARIANTS = 16

STAGES = ("create", "process", "release", "transfer", "receive")

# Ladder rungs: (machines, deepest nesting of a machine's parts). The
# two sizes are 4x apart so the parser's growth exponent shows.
LADDER_RUNGS = ((150, 2), (600, 2))

RECURRENCE_REPEAT = 16000

CHRONOLOGY_MACHINES = 200
CHRONOLOGY_EVENTS = 100
CHRONOLOGY_CHAIN = 10


def _dealt(rng: random.Random, values: tuple, count: int) -> list:
    """``count`` values cycled from ``values`` in a seeded order, so that
    every variant has the same mix and so about the same amount of work."""
    out = [values[i % len(values)] for i in range(count)]
    rng.shuffle(out)
    return out


def _lead(values: list, *wanted) -> list:
    """``values`` with ``wanted[i]`` moved to index ``i`` by swaps, so
    the first entries are fixed and the mix is unchanged."""
    for i, want in enumerate(wanted):
        j = values.index(want, i)
        values[i], values[j] = values[j], values[i]
    return values


def _machine(out: list[str], name: str) -> None:
    """Opens a thimac with all five stages; the caller closes it."""
    out.append(f"thimac {name} {{")
    for kind in STAGES:
        out.append(f"  stage {kind};")


def ladder(variant: int, machines: int, depth: int) -> str:
    """Front-end scale model with no behaviour to speak of.

    Every machine ``m<i>`` has all five stages and a chain of nested
    parts ``d1 { d2 { ... } }`` holding only a process stage. Flows from
    a machine into its parts are written in simplified form, so
    ``normalize`` inserts the missing transfer/receive/release stages.
    Neighbouring machines are joined either by a full-stage
    ``transfer -> transfer`` chain or by a simplified
    ``process -> process`` flow. Each machine has one trigger. A single
    small event over the first two machines, whose shape is the same in
    every variant, keeps the simulator's share of a pass negligible
    while every end-to-end metric stays defined.
    """
    rng = random.Random(f"ladder:{variant}:{machines}:{depth}")
    out: list[str] = [f"// ladder variant {variant}: {machines} machines, depth {depth}"]
    parts: list[list[str]] = []
    # m0 and m1, the event's region, have the same shape in every
    # variant, so the simulator does the same work in each.
    nesting = _lead(_dealt(rng, tuple(range(depth + 1)), machines), depth, depth)
    for i in range(machines):
        name = f"m{i}"
        _machine(out, name)
        nest = nesting[i]
        path = [name]
        for d in range(1, nest + 1):
            pad = "  " * d
            out.append(f"{pad}thimac d{d} {{")
            out.append(f"{pad}  stage process;")
            path.append(f"d{d}")
        for d in range(nest, 0, -1):
            out.append("  " * d + "}")
        out.append("}")
        parts.append(path)
    for i, path in enumerate(parts):
        m = path[0]
        out.append(f"flow {m}.create -> {m}.process -> {m}.release -> {m}.transfer;")
        out.append(f"flow {m}.transfer -> {m}.receive -> {m}.process;")
        for j in range(1, len(path)):
            src = ".".join(path[:j])
            dst = ".".join(path[: j + 1])
            out.append(f"flow {src}.process -> {dst}.process;")
    # Each link m<i-1> -> m<i> is simplified or full-stage, half each;
    # consecutive full-stage links form one transfer -> transfer chain.
    simplified = _lead(_dealt(rng, (True, False), machines - 1), False)
    chain: list[str] = []
    for i in range(1, machines):
        if simplified[i - 1]:
            out.append(f"flow m{i - 1}.process -> m{i}.process;")
            continue
        chain = chain or [f"m{i - 1}.transfer"]
        chain.append(f"m{i}.transfer")
        if i + 1 == machines or simplified[i]:
            out.append("flow " + " -> ".join(chain) + ";")
            chain = []
    for i in range(machines):
        target = rng.randrange(machines)
        if i < 2 and target < 2:
            target = i + 2  # the event's machines trigger outside its region
        elif target == i:
            target = (i + 1) % machines
        out.append(f"trigger m{i}.receive ~> m{target}.create;")
    out.append('event E_probe "Two neighbouring machines" {')
    out.append("  region {")
    out.append("    m0;")
    out.append("    m1;")
    out.append("  }")
    out.append("}")
    return "\n".join(out) + "\n"


def recurrence(ships_text: str) -> str:
    """The bundled ships model with the passage repeated many times."""
    text, count = re.subn(r"repeat \d+;", f"repeat {RECURRENCE_REPEAT};", ships_text)
    if count != 1:
        raise ValueError("ships model must hold exactly one repeat statement")
    return text


def chronology(variant: int) -> str:
    """Event-heavy model over full-stage machines.

    Machines ``c<i>`` are written with all five stages and legal flows
    only, so normalization adds nothing and every region stage is
    explicit. They form chains of CHRONOLOGY_CHAIN machines joined
    port to port; things left resting at the end of a chain stay
    there, which bounds how far one event's leftovers travel in later
    events. Each event covers a window of 4-6 machines of one chain
    and repeats 2-3 times; some events contain a later one, a few
    machines trigger a neighbour, and the chronology is a layered DAG
    several events wide.
    """
    rng = random.Random(f"chronology:{variant}")
    n = CHRONOLOGY_MACHINES
    out: list[str] = [f"// chronology variant {variant}: {n} machines"]
    for i in range(n):
        _machine(out, f"c{i}")
        out.append("}")
    for i in range(n):
        c = f"c{i}"
        out.append(f"flow {c}.create -> {c}.process -> {c}.release -> {c}.transfer;")
        out.append(f"flow {c}.transfer -> {c}.receive -> {c}.process;")
        if (i + 1) % CHRONOLOGY_CHAIN:
            out.append(f"flow {c}.transfer -> c{i + 1}.transfer;")
    for i in range(0, n - 2, 9):
        out.append(f"trigger c{i}.receive ~> c{i + 2}.create;")
    events = [f"V{k}" for k in range(CHRONOLOGY_EVENTS)]
    widths = _dealt(rng, (4, 5, 6), len(events))
    repeats = _dealt(rng, (2, 3), len(events))
    chains = _dealt(rng, tuple(range(n // CHRONOLOGY_CHAIN)), len(events))
    for k, ev in enumerate(events):
        start = chains[k] * CHRONOLOGY_CHAIN + rng.randint(0, CHRONOLOGY_CHAIN - widths[k])
        out.append(f'event {ev} "window at c{start}" {{')
        out.append("  region {")
        for i in range(start, start + widths[k]):
            out.append(f"    c{i};")
        out.append("  }")
        out.append(f"  repeat {repeats[k]};")
        if k + 1 < len(events) and rng.random() < 0.3:
            subs = sorted(rng.sample(events[k + 1 :], min(2, len(events) - k - 1)))
            out.append(f"  contains {', '.join(subs)};")
        out.append("}")
    out.append("chronology {")
    for ev in events:
        out.append(f"  {ev};")
    layers: list[list[str]] = []
    pos = 0
    while pos < len(events):
        width = rng.randint(2, 5)
        layers.append(events[pos : pos + width])
        pos += width
    for upper, lower in zip(layers, layers[1:]):
        for ev in lower:
            for src in rng.sample(upper, min(len(upper), rng.randint(1, 2))):
                out.append(f"  {src} -> {ev};")
    out.append("}")
    return "\n".join(out) + "\n"


# -- deep-input probes ------------------------------------------------
#
# Each probe is a well-formed model whose only difficulty is depth. The
# front end should accept it; at the time these were written it raises
# RecursionError instead, and the benchmark counts that as a failure.


def deep_nesting(depth: int = 1200) -> str:
    out = [f"thimac n{d} {{" for d in range(depth)]
    out.append("stage create; stage process;")
    out += ["}"] * depth
    path = ".".join(f"n{d}" for d in range(depth))
    out.append(f"flow {path}.create -> {path}.process;")
    return "\n".join(out) + "\n"


def _one_machine() -> list[str]:
    return [
        "thimac a { stage create; stage process; }",
        "flow a.create -> a.process;",
    ]


def chronology_chain(length: int = 1000) -> str:
    out = _one_machine()
    for k in range(length):
        out.append(f"event C{k} {{ region {{ a; }} }}")
    out.append("chronology {")
    out += [f"  C{k} -> C{k + 1};" for k in range(length - 1)]
    out.append("}")
    return "\n".join(out) + "\n"


def contains_chain(length: int = 1500) -> str:
    out = _one_machine()
    for k in range(length):
        tail = f" contains K{k + 1};" if k + 1 < length else ""
        out.append(f"event K{k} {{ region {{ a; }}{tail} }}")
    return "\n".join(out) + "\n"


# Workloads whose inputs do not depend on the seed; for them the seed
# only orders the `tm` calls.
SEEDLESS = ("corpus", "recurrence")


def variant_key(workload: str, seed: int) -> str:
    return "all" if workload in SEEDLESS else str(seed % VARIANTS)


def workload_inputs(workload: str, seed: int, corpus_dir: Path) -> dict[str, str]:
    """Source text of each input of a workload, by input name."""
    variant = seed % VARIANTS
    if workload == "corpus":
        return {p.name: p.read_text(encoding="utf-8") for p in sorted(corpus_dir.glob("*.tm"))}
    if workload == "ladder":
        return {
            f"ladder_n{n}.tm": ladder(variant, n, depth) for n, depth in LADDER_RUNGS
        }
    if workload == "recurrence":
        ships = (corpus_dir / "ships.tm").read_text(encoding="utf-8")
        return {f"ships_r{RECURRENCE_REPEAT}.tm": recurrence(ships)}
    if workload == "chronology":
        return {f"chronology_v{variant}.tm": chronology(variant)}
    raise ValueError(f"unknown workload {workload!r}")


def workload_probes(workload: str) -> dict[str, str]:
    """Deep-input probes that belong to a workload (counted, never timed)."""
    if workload == "ladder":
        return {"deep_nesting_1200": deep_nesting()}
    if workload == "chronology":
        return {
            "chronology_chain_1000": chronology_chain(),
            "contains_chain_1500": contains_chain(),
        }
    return {}
