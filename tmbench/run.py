"""Seeded benchmark of the tmkit pipeline and the ``tm`` command.

Run from the repository root:

    python3 tmbench/run.py --workload ladder --seed 1 --seconds 14 --trace 0
    python3 tmbench/run.py --workload all --seed 1 --seconds 14

One run measures one workload in this process, closed loop: each
operation starts when the previous one has ended, and ``tm``
subprocesses run one at a time. ``--trace 0`` reports the end-to-end
metrics with nothing patched; ``--trace 1`` reports the per-layer
metrics from spans taken around calls into each tmkit module (see
``spans.py``). Timings are scaled to a nominal machine speed (see
``Speed``). Every output is checked against the SHA-256 digests in
``digests.json``, recorded before any optimisation, and against
invariants that do not come from tmkit. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. Generated inputs, results and spans go to ``.tmbench/``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import gen
from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CORPUS = SRC / "tmkit" / "corpus"
WORK = ROOT / ".tmbench"
DIGESTS = BENCH / "digests.json"

WORKLOADS = ("corpus", "ladder", "recurrence", "chronology")

# Shares of --seconds: in-process passes (with the simulator
# repetitions between them), extra front-end repetitions, and (the
# rest) `tm` subprocesses. At least MIN_PASSES passes (and MIN_TRACED
# traced ones) run whatever the budget.
PASS_SHARE = 0.6
FRONT_SHARE = 0.1
# After each pass, simulator repetitions for up to this share of the
# pass's time. Spread over the pass loop, they see the host's speed
# swings that the passes see, not those of one short stretch.
SIM_PER_PASS = 0.3
MIN_PASSES = 4
MIN_TRACED = 2
SETUP_REPS = 15
# cli_ms_tail is the highest percentile with at least this many samples
# beyond it. Every run takes at least 2 * TAIL_BEYOND + 1 calls, so the
# tail is never below the median.
TAIL_BEYOND = 10
GROWTH_REPS = 5

OUTPUT_KEYS = (
    "model_json",
    "diagnostics",
    "trace_json",
    "dot_static",
    "dot_events",
    "dot_chronology",
    "dsl",
    "behavior",
)

# `tm` subcommands: (arguments after the file, output key, stream).
SUBCOMMANDS = {
    "parse": (["parse", "{file}", "--json"], "model_json", "stdout"),
    "validate": (["validate", "{file}"], "diagnostics", "stderr"),
    "normalize": (["normalize", "{file}"], "dsl", "stdout"),
    "simulate": (["simulate", "{file}", "--trace", "-"], "trace_json", "stdout"),
    "render_static": (["render", "{file}", "--mode", "static"], "dot_static", "stdout"),
    "render_events": (["render", "{file}", "--mode", "events"], "dot_events", "stdout"),
    "render_chronology": (
        ["render", "{file}", "--mode", "chronology"],
        "dot_chronology",
        "stdout",
    ),
}
FRONT_END = [name for name in SUBCOMMANDS if name != "simulate"]

# Which inputs and subcommands each workload sends through `tm`. The
# corpus runs every subcommand on every model, as users do. The ladder
# runs them on its small rung only. On recurrence and chronology a
# `tm simulate --trace` call takes seconds, too few for a tail in one
# run; their simulator cost is in pass_s and firings_per_s instead.
CLI_PLAN = {
    "corpus": (None, list(SUBCOMMANDS)),
    "ladder": (0, list(SUBCOMMANDS)),
    "recurrence": (None, FRONT_END),
    "chronology": (None, FRONT_END),
}

CLI_MAIN = "from tmkit.cli import main; main()"
SETUP_CODE = (
    "import sys\n"
    "import tmkit.cli\n"
    "for path in sys.argv[1:]:\n"
    "    with open(path, encoding='utf-8') as handle:\n"
    "        handle.read()\n"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "cli_ms_p50": "ms",
    "cli_ms_tail": "ms",
    "source_kb_per_s": "kB/s",
    "firings_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here (for example, no tmkit source)."""


def sha(text: str | bytes) -> str:
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


# -- bookkeeping ---------------------------------------------------------


@dataclass
class Tally:
    """Operations attempted and failed.

    An operation is one distinct check, named by ``key``: one output of
    one input, one `tm` call, one invariant, one probe. The timing loops
    repeat operations as often as the time allows, and a repeat that
    fails fails its operation, so ``attempted`` and ``failed`` depend on
    the workload's inputs and not on the speed of the machine. Probe
    failures are known defects and leave ``correct`` set; any other
    failure clears it.
    """

    ok: dict[str, bool] = field(default_factory=dict)
    probes: set[str] = field(default_factory=set)
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, key: str, note: str = "", probe: bool = False) -> None:
        if not ok and self.ok.get(key, True) and len(self.notes) < 20:
            self.notes.append(note)
        self.ok[key] = self.ok.get(key, True) and ok
        if probe:
            self.probes.add(key)

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return sum(not ok for ok in self.ok.values())

    @property
    def probe_failures(self) -> int:
        return sum(not self.ok[key] for key in self.probes)

    @property
    def wrong(self) -> int:
        return self.failed - self.probe_failures


# -- machine speed -----------------------------------------------------------

# Three fixed pure-Python kernels stand for the pipeline's mix of work:
# building small objects and dicts, walking a large list in random
# order, and pretty-printing JSON. REF_KERNEL_S holds their nominal
# times. Scaled timings are seconds on a machine that runs them in those
# times.
REF_KERNEL_S = (0.004, 0.003, 0.003)
# On the host this was tuned on, pipeline time moved about 0.7 times as
# much as the kernels' geometric mean (log scale) over its speed swings.
SENSITIVITY = 0.7
# Least wall time between two speed probes inside a timed stretch.
PROBE_EVERY_S = 0.2


class _Node:
    __slots__ = ("id", "name")

    def __init__(self, ident: int, name: str) -> None:
        self.id = ident
        self.name = name


def _build(count: int = 4000) -> int:
    nodes = [_Node(i, f"n{i}") for i in range(count)]
    by_name = {n.name: n for n in nodes}
    rows = [{"id": n.id, "name": n.name, "next": [n.id + 1]} for n in nodes]
    return sum(by_name[r["name"]].id + r["next"][0] for r in rows)


def _walk(items: list) -> int:
    total = 0
    for item in items:
        total += item[0]
    return total


def _dump(doc: list) -> int:
    return len(json.dumps(doc, indent=2))


class WallClock:
    """Plain wall time: for unscaled figures and for passes whose timing
    is not used."""

    def probe(self) -> None:
        pass

    def tick(self) -> None:
        pass

    def seconds(self, start: float, end: float) -> float:
        return end - start


class Speed(WallClock):
    """Wall time scaled to a nominal machine speed.

    The host this was written on swings by up to 2x within seconds, and
    the swings move fixed pure-Python kernels and the pipeline alike. The
    kernels are timed at the edges of every timed stretch and every
    PROBE_EVERY_S inside it. ``seconds`` scales each piece of wall time
    between two probes by the speed the probes saw, and leaves the
    probes' own time out.
    """

    def __init__(self) -> None:
        # A random quarter of a shuffled 80000-tuple list: the walk
        # touches memory all over a few megabytes.
        items = [(i, i) for i in range(80000)]
        random.Random(0).shuffle(items)
        self._heap = items
        self._items = items[:20000]
        self._doc = [
            {"step": i, "event": "E", "element": f"a.b{i}", "kind": "FlowMove", "token": i}
            for i in range(500)
        ]
        self.probes: list[tuple[float, float, float]] = []  # start, end, log factor
        self._ends: list[float] = []
        self.probe()

    def probe(self) -> None:
        # With the collector on, the kernels' allocations would trigger
        # collections of the pipeline's heap and time those instead.
        logs = 0.0
        gc.disable()
        try:
            start = time.perf_counter()
            for kernel, arg, ref in zip(
                (_build, _walk, _dump), (4000, self._items, self._doc), REF_KERNEL_S
            ):
                t0 = time.perf_counter()
                kernel(arg)
                logs += math.log((time.perf_counter() - t0) / ref)
            end = time.perf_counter()
        finally:
            gc.enable()
        self.probes.append((start, end, -SENSITIVITY * logs / len(REF_KERNEL_S)))
        self._ends.append(end)

    def tick(self) -> None:
        if time.perf_counter() - self.probes[-1][1] >= PROBE_EVERY_S:
            self.probe()

    def seconds(self, start: float, end: float) -> float:
        total = 0.0
        i = max(bisect.bisect_right(self._ends, start) - 1, 0)
        while i + 1 < len(self.probes) and self.probes[i][1] < end:
            (_, e0, f0), (s1, _, f1) = self.probes[i], self.probes[i + 1]
            lo, hi = max(start, e0), min(end, s1)
            if hi > lo:
                total += (hi - lo) * math.exp((f0 + f1) / 2)
            i += 1
        return total


# -- the pipeline ---------------------------------------------------------

_tm = {}


def _import_tmkit() -> None:
    if not (SRC / "tmkit" / "__init__.py").is_file():
        raise BenchError(f"no tmkit source under {SRC}")
    sys.path.insert(0, str(SRC))
    import tmkit.behavior
    import tmkit.cli
    import tmkit.core
    import tmkit.dsl
    import tmkit.dsl.lexer
    import tmkit.render
    import tmkit.sim
    import tmkit.validate  # noqa: F401  (the module, not the function)

    for name in ("behavior", "cli", "core", "dsl", "render", "sim"):
        _tm[name] = sys.modules[f"tmkit.{name}"]
    _tm["lexer"] = sys.modules["tmkit.dsl.lexer"]
    _tm["validate"] = sys.modules["tmkit.validate"]


@dataclass
class PassResult:
    outputs: dict[str, str]
    raw: object
    norm: object
    trace: object
    back: object
    n_validate: int
    front: tuple[float, float]
    sim: tuple[float, float]


def pipeline(name: str, text: str, clock: WallClock) -> PassResult:
    """Every layer once over one input, through module attributes so a
    tracer can intercept each call. The call order is fixed."""
    dsl, core, sim, render = _tm["dsl"], _tm["core"], _tm["sim"], _tm["render"]
    behavior, validate = _tm["behavior"], _tm["validate"]
    t0 = time.perf_counter()
    raw = dsl.parse(text, name)
    if raw.model is None:
        raise ValueError(f"{name} did not parse")
    clock.tick()
    norm = core.normalize(raw.model, strict=False)
    clock.tick()
    found = validate.validate(norm, raw.events, raw.chronology)
    t1 = time.perf_counter()
    clock.tick()
    t1b = time.perf_counter()
    trace = sim.simulate(norm, raw.events, raw.chronology)
    clock.tick()
    trace_json = sim.trace_to_json(norm, trace)
    t2 = time.perf_counter()
    clock.tick()
    dots = {}
    for mode in render.RenderMode:
        dots[f"dot_{mode.value}"] = render.render_dot(
            norm, raw.events, raw.chronology, render.RenderOptions(mode=mode)
        )
        clock.tick()
    dsl_text = dsl.format_parts(norm, raw.events, raw.chronology)
    clock.tick()
    model_json = dsl.to_json(raw)
    clock.tick()
    back = dsl.from_json(model_json)
    clock.tick()
    flat = {e.id: sorted(behavior.flatten(raw.events, e.id)) for e in raw.events}
    region = [d.render() for e in raw.events for d in behavior.check_region(norm, e)]
    uncovered = behavior.region_coverage(norm, raw.events)
    outputs = {
        "model_json": model_json,
        "diagnostics": "".join(
            d.render() + "\n" for d in list(raw.diagnostics) + found
        ),
        "trace_json": trace_json,
        **dots,
        "dsl": dsl_text,
        "behavior": json.dumps(
            {"flatten": flat, "regions": region, "coverage": uncovered},
            sort_keys=True,
        ),
    }
    return PassResult(outputs, raw, norm, trace, back, len(found), (t0, t1), (t1b, t2))


@dataclass
class PassStats:
    """Wall-clock stretches of one pass; ``seconds`` turns them into time."""

    spans: list[tuple[float, float]]
    front: list[tuple[float, float]]
    sim: list[tuple[float, float]]
    firings: int
    last: list[tuple[str, PassResult]] | None = None

    def seconds(self, clock: WallClock) -> float:
        return sum(clock.seconds(a, b) for a, b in self.spans)


def run_pass(inputs, expected, tally, keep: bool, clock: WallClock) -> PassStats:
    """One pass over every input; outputs are checked, then dropped
    unless ``keep`` is set."""
    gc.collect()
    stats = PassStats([], [], [], 0)
    kept = []
    for name, text in inputs.items():
        clock.probe()
        start = time.perf_counter()
        try:
            result = pipeline(name, text, clock)
        except Exception as exc:  # a failed operation, not a benchmark crash
            stats.spans.append((start, time.perf_counter()))
            clock.probe()
            for key in OUTPUT_KEYS:
                tally.check(False, f"{name} {key}", f"{name}: {key} not produced: {exc!r}")
            continue
        stats.spans.append((start, time.perf_counter()))
        clock.probe()
        stats.front.append(result.front)
        stats.sim.append(result.sim)
        stats.firings += len(result.trace.firings)
        want = expected.get(name, {})
        for key in OUTPUT_KEYS:
            tally.check(
                sha(result.outputs[key]) == want.get(key),
                f"{name} {key}",
                f"{name}: {key} digest differs from the recorded one",
            )
        if keep:
            kept.append((name, result))
        del result
    stats.last = kept if keep else None
    return stats


def timed_passes(inputs, expected, tally, budget: float, clock: WallClock, between) -> list[PassStats]:
    """Closed loop of passes until about ``budget`` seconds have gone and
    at least MIN_PASSES have run. Each pass's stats, results included,
    go to ``between`` before the next pass; only the last pass's results
    are kept."""
    stats: list[PassStats] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        mean = elapsed / len(stats) if stats else 0.0
        last = len(stats) + 1 >= MIN_PASSES and elapsed + mean >= budget
        stats.append(run_pass(inputs, expected, tally, keep=True, clock=clock))
        between(stats[-1])
        if last:
            return stats
        stats[-1].last = None


def front_end(inputs, budget: float, clock: WallClock) -> list[list[tuple[float, float]]]:
    """Extra repetitions of parse + normalize + validate over every input
    for ``budget`` seconds (at least one), so that a workload whose front
    end takes milliseconds still gives a steady rate."""
    dsl, core, validate = _tm["dsl"], _tm["core"], _tm["validate"]
    reps: list[list[tuple[float, float]]] = []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < budget:
        gc.collect()
        rep = []
        clock.probe()
        for name, text in inputs.items():
            clock.tick()
            t0 = time.perf_counter()
            raw = dsl.parse(text, name)
            clock.tick()
            norm = core.normalize(raw.model, strict=False)
            clock.tick()
            validate.validate(norm, raw.events, raw.chronology)
            rep.append((t0, time.perf_counter()))
        clock.probe()
        reps.append(rep)
    return reps


def sim_reps(kept, expected, tally, budget: float, estimate: float, clock: WallClock):
    """Extra repetitions of simulate + trace_to_json over a pass's
    models while another one, taking about ``estimate`` seconds at
    first, still fits in ``budget``. A workload whose simulator takes
    milliseconds so gets a steady rate; one whose simulator takes
    seconds gets none and keeps the passes' figures. Returns the
    (firings, stretches) of each repetition; traces are digest-checked."""
    sim = _tm["sim"]
    reps: list[tuple[int, list[tuple[float, float]]]] = []
    start = time.perf_counter()
    while time.perf_counter() - start + estimate <= budget:
        gc.collect()
        t_rep = time.perf_counter()
        firings, stretches = 0, []
        clock.probe()
        for name, r in kept:
            clock.tick()
            t0 = time.perf_counter()
            trace = sim.simulate(r.norm, r.raw.events, r.raw.chronology)
            clock.tick()
            trace_json = sim.trace_to_json(r.norm, trace)
            stretches.append((t0, time.perf_counter()))
            firings += len(trace.firings)
            tally.check(
                sha(trace_json) == expected.get(name, {}).get("trace_json"),
                f"{name} trace_json",
                f"{name}: trace_json digest differs from the recorded one",
            )
            del trace, trace_json
        clock.probe()
        reps.append((firings, stretches))
        estimate = time.perf_counter() - t_rep
    return reps


# -- invariants and probes ---------------------------------------------------


def check_invariants(kept, tally: Tally) -> dict:
    """Checks that do not come from tmkit; returns counts for the report."""
    dsl, core, sim = _tm["dsl"], _tm["core"], _tm["sim"]
    counts = {"instances": 0, "firings": 0, "region_stages": 0, "fired": 0}
    for name, r in kept:
        try:
            doc = json.loads(r.outputs["trace_json"])
            parsed = ""
        except ValueError as exc:
            doc, parsed = {"eventOrder": None, "firings": None}, str(exc)
        tally.check(not parsed, f"{name} trace parses", f"{name}: trace JSON does not parse: {parsed}")
        chrono = r.raw.chronology
        runs = [e for e in r.raw.events if chrono is None or e.id in chrono.nodes]
        tally.check(
            doc["eventOrder"] is not None
            and len(doc["eventOrder"]) == sum(e.multiplicity for e in runs),
            f"{name} event order",
            f"{name}: eventOrder length is not the sum of the repeats",
        )
        if name.startswith("ships"):
            repeat = next(e.multiplicity for e in r.raw.events if e.id == "E_passing")
            fired = None if doc["firings"] is None else len(doc["firings"])
            tally.check(
                fired == 10 * repeat,
                f"{name} ships firings",
                f"{name}: {fired} firings, not 10 x {repeat}",
            )
        again = dsl.parse(r.outputs["dsl"], name)
        renorm = (
            dsl.format_parts(
                core.normalize(again.model, strict=False), again.events, again.chronology
            )
            if again.model is not None
            else None
        )
        tally.check(
            renorm == r.outputs["dsl"],
            f"{name} re-normalizes",
            f"{name}: normalized text does not re-normalize to the same bytes",
        )
        tally.check(
            r.back.model is not None and core.model_equal(r.raw.model, r.back.model),
            f"{name} round-trips",
            f"{name}: to_json -> from_json does not round-trip",
        )
        counts["instances"] += len(r.trace.event_order)
        counts["firings"] += len(r.trace.firings)
        cover = sim.coverage(r.norm, r.trace, r.raw.events)
        region = {s for e in r.raw.events for s in e.region if s in r.norm.stages}
        counts["region_stages"] += len(region)
        counts["fired"] += len(region) - len(cover["neverFired"])
    return counts


def run_probes(workload: str, tally: Tally) -> None:
    """Deep inputs the front end should accept. Counted, never timed."""
    dsl, core, validate = _tm["dsl"], _tm["core"], _tm["validate"]
    for name, text in gen.workload_probes(workload).items():
        try:
            raw = dsl.parse(text, name)
            ok = raw.model is not None
            if ok:
                validate.validate(
                    core.normalize(raw.model, strict=False), raw.events, raw.chronology
                )
            note = f"probe {name}: parse reported errors"
        except Exception as exc:  # RecursionError at the time of writing
            ok, note = False, f"probe {name}: {type(exc).__name__}"
        tally.check(ok, f"probe {name}", note, probe=True)


# -- subprocesses ------------------------------------------------------------


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["TM_COLOR"] = "never"
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def measure_setup(paths: list[Path], env, clock: WallClock) -> list[tuple[float, float]]:
    """Stretches of wall time of fresh interpreters that import tmkit.cli
    and read the workload's input files."""
    out = []
    for _ in range(SETUP_REPS):
        clock.probe()
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE, *map(str, paths)],
            env=env,
            check=True,
            timeout=120,
        )
        out.append((start, time.perf_counter()))
    clock.probe()
    return out


def cli_ops(workload: str, paths: dict[str, Path]) -> list[tuple[str, str, list[str]]]:
    """`tm` calls as (input, subcommand, argv). Files are named relative
    to their folder, the working directory of every call, so diagnostics
    carry the same file name as in the in-process passes."""
    which, subcommands = CLI_PLAN[workload]
    names = list(paths) if which is None else [list(paths)[which]]
    ops = []
    for name in names:
        for sub in subcommands:
            args, _, _ = SUBCOMMANDS[sub]
            argv = [a.replace("{file}", name) for a in args]
            ops.append((name, sub, argv))
    return ops


def run_cli_rounds(ops, folder, expected, tally, env, rng, budget, clock, in_process=None):
    """Whole rounds of ``ops`` in a seeded order until ``budget`` seconds
    have gone and more than 2 * TAIL_BEYOND calls have been timed. Returns
    the wall-clock stretch of each call, and what ``in_process`` returns."""
    calls: list[tuple[float, float]] = []
    local: list[float] = []
    start = time.perf_counter()
    clock.probe()
    while time.perf_counter() - start < budget or len(calls) <= 2 * TAIL_BEYOND:
        order = list(ops)
        rng.shuffle(order)
        for name, sub, argv in order:
            _, key, stream = SUBCOMMANDS[sub]
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", CLI_MAIN, *argv],
                cwd=folder,
                env=env,
                capture_output=True,
                timeout=170,
            )
            calls.append((t0, time.perf_counter()))
            clock.probe()
            got = proc.stdout if stream == "stdout" else proc.stderr
            tally.check(
                proc.returncode == 0 and sha(got) == expected.get(name, {}).get(key),
                f"tm {sub} {name}",
                f"tm {sub} {name}: exit {proc.returncode} or output digest differs",
            )
            if in_process is not None:
                local.append(in_process(name, sub, argv, key, stream))
                clock.probe()
    return calls, local


def cli_in_process(argv, folder, stream):
    """`cli.run` in this process, in ``folder``, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(folder)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = _tm["cli"].run(argv)
        finally:
            os.chdir(here)
    return code, (out if stream == "stdout" else err).getvalue()


# -- reporting ---------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def meta(workload: str, seed: int, inputs: dict[str, str]) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=30,
            ).stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "tmkit").rglob("*")):
        if path.suffix in (".py", ".tm"):
            src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "variant": gen.variant_key(workload, seed),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "inputs": {n: {"kB": len(t.encode()) / 1000, "sha256": sha(t)} for n, t in inputs.items()},
    }


def emit(report: dict, metrics: dict, rows: list[tuple[str, float, str, str]], tally: Tally) -> None:
    m = report["meta"]
    print(
        f"# tmbench {m['workload']} seed={m['seed']} variant={m['variant']} "
        f"python={m['python']} nproc={m['nproc']} commit={m['git_commit']} "
        f"src={m['src_sha256'][:12]}"
    )
    for name, info in m["inputs"].items():
        print(f"#   input {name} {info['kB']:.1f} kB sha256={info['sha256']}")
    for note in tally.notes:
        print(f"#   failure: {note}")
    for name, value, unit, extra in rows:
        print(f"{m['workload']:<11} {name:<24} {value:>14.6g} {unit:<6} {extra}")
    report.update(
        correct=tally.wrong == 0,
        attempted=tally.attempted,
        failed=tally.failed,
        probe_failures=tally.probe_failures,
        metrics=metrics,
        notes=tally.notes,
    )
    out = WORK / "results" / f"{m['workload']}-seed{m['seed']}-trace{report['trace']}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(
        json.dumps(
            {
                "correct": tally.wrong == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )


# -- one workload ------------------------------------------------------------


def prepare(workload: str, seed: int, tally: Tally):
    inputs = gen.workload_inputs(workload, seed, CORPUS)
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    expected = recorded.get(workload, {}).get(gen.variant_key(workload, seed), {})
    folder = WORK / "inputs" / f"{workload}-{gen.variant_key(workload, seed)}"
    folder.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, text in inputs.items():
        tally.check(
            sha(text) == expected.get(name, {}).get("source"),
            f"{name} source",
            f"{name}: generated source differs from the recorded one",
        )
        paths[name] = folder / name
        paths[name].write_text(text, encoding="utf-8")
    return inputs, expected, folder, paths


def end_to_end(workload: str, seed: int, seconds: float) -> None:
    tally = Tally()
    inputs, expected, folder, paths = prepare(workload, seed, tally)
    report = {"meta": meta(workload, seed, inputs), "trace": 0}
    env = _env()
    run_probes(workload, tally)
    speed = Speed()
    setup = measure_setup(list(paths.values()), env, speed)

    extra_sims = []

    def between(s: PassStats) -> None:
        wall = sum(b - a for a, b in s.spans)
        extra_sims.extend(
            sim_reps(s.last, expected, tally, SIM_PER_PASS * wall,
                     sum(b - a for a, b in s.sim), speed)
        )

    stats = timed_passes(inputs, expected, tally, seconds * PASS_SHARE, speed, between)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    counts = check_invariants(stats[-1].last, tally)
    stats[-1].last = None
    sims = [(s.firings, s.sim) for s in stats] + extra_sims
    fronts = [s.front for s in stats] + front_end(inputs, seconds * FRONT_SHARE, speed)

    rng = random.Random(f"cli:{workload}:{seed}")
    calls, _ = run_cli_rounds(
        cli_ops(workload, paths), folder, expected, tally, env, rng,
        seconds * (1 - PASS_SHARE - FRONT_SHARE), speed,
    )

    kb = sum(len(t.encode()) for t in inputs.values()) / 1000

    def measured(clock: WallClock) -> dict[str, list[float]]:
        return {
            "setup_s": [clock.seconds(a, b) for a, b in setup],
            "pass_s": [s.seconds(clock) for s in stats],
            "cli_ms_p50": [clock.seconds(a, b) * 1000 for a, b in calls],
            "source_kb_per_s": [kb / sum(clock.seconds(a, b) for a, b in f) for f in fronts],
            "firings_per_s": [
                firings / sum(clock.seconds(a, b) for a, b in stretches)
                for firings, stretches in sims
            ],
        }

    samples = measured(speed)
    unscaled = measured(WallClock())
    cli_tail, tail_pct = tail(samples["cli_ms_p50"])
    values = {k: statistics.median(v) for k, v in samples.items()}
    values["cli_ms_tail"] = cli_tail
    values["peak_rss_mb"] = peak_rss_mb
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    rows = []
    for k, unit in END_TO_END_UNITS.items():
        if k in samples:
            q1, _, q3 = quartiles(samples[k])
            extra = (
                f"median of {len(samples[k])}; q1={q1:.6g} q3={q3:.6g}; "
                f"unscaled median={statistics.median(unscaled[k]):.6g}"
            )
        elif k == "cli_ms_tail":
            extra = (
                f"p{tail_pct:.1f} of {len(calls)} calls; "
                f"unscaled={tail(unscaled['cli_ms_p50'])[0]:.6g}"
            )
        else:
            extra = "this process, after the passes"
        rows.append((k, values[k], unit, extra))
    rows.append(
        (
            "fail_ratio",
            tally.failed / tally.attempted,
            "ratio",
            f"{tally.failed} failed of {tally.attempted} attempted "
            f"({tally.probe_failures} deep-input probes)",
        )
    )
    report["samples"] = samples
    report["unscaled"] = unscaled
    report["speed_factors"] = [math.exp(f) for _, _, f in speed.probes]
    report["counts"] = counts
    report["cli_tail_percentile"] = tail_pct
    emit(report, metrics, rows, tally)


PER_LAYER = {
    # name: unit
    "lexer.ms": "ms",
    "lexer.tokens": "count",
    "lexer.tokens_per_s": "1/s",
    "lexer.peak_mb": "MB",
    "parser.ms": "ms",
    "parser.elements": "count",
    "parser.growth": "ratio",
    "parser.peak_mb": "MB",
    "core.normalize_ms": "ms",
    "core.stages_added": "count",
    "core.peak_mb": "MB",
    "validate.ms": "ms",
    "validate.diagnostics": "count",
    "validate.peak_mb": "MB",
    "behavior.ms": "ms",
    "behavior.peak_mb": "MB",
    "sim.simulate_ms": "ms",
    "sim.region_edges_ms": "ms",
    "sim.instances": "count",
    "sim.firings": "count",
    "sim.ms_per_instance": "ms",
    "sim.coverage_ratio": "ratio",
    "sim.peak_mb": "MB",
    "sim.trace_json_ms": "ms",
    "sim.trace_bytes": "bytes",
    "sim.trace_peak_mb": "MB",
    "printer.ms": "ms",
    "printer.bytes": "bytes",
    "printer.peak_mb": "MB",
    "json_io.to_ms": "ms",
    "json_io.from_ms": "ms",
    "json_io.bytes": "bytes",
    "json_io.peak_mb": "MB",
    "render.static_ms": "ms",
    "render.events_ms": "ms",
    "render.chronology_ms": "ms",
    "render.bytes": "bytes",
    "render.peak_mb": "MB",
    "cli.run_ms": "ms",
    "cli.startup_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

# Per-layer self-time metrics: metric -> span names whose self time it sums.
SELF_TIME = {
    "lexer.ms": ("dsl.lexer.tokenize",),
    "parser.ms": ("dsl.parser.parse",),
    "core.normalize_ms": ("core.normalize",),
    "validate.ms": ("validate.validate",),
    "behavior.ms": ("behavior.flatten", "behavior.check_region", "behavior.region_coverage"),
    "sim.simulate_ms": ("sim.simulate",),
    "sim.region_edges_ms": ("behavior.region_edges",),
    "sim.trace_json_ms": ("sim.trace_to_json",),
    "printer.ms": ("dsl.printer.format_parts",),
    "json_io.to_ms": ("dsl.json_io.to_json",),
    "json_io.from_ms": ("dsl.json_io.from_json",),
    "render.static_ms": ("render.render_dot:static",),
    "render.events_ms": ("render.render_dot:events",),
    "render.chronology_ms": ("render.render_dot:chronology",),
}

PEAKS = {
    "lexer.peak_mb": ("dsl.lexer.tokenize",),
    "parser.peak_mb": ("dsl.parser.parse",),
    "core.peak_mb": ("core.normalize",),
    "validate.peak_mb": ("validate.validate",),
    "behavior.peak_mb": SELF_TIME["behavior.ms"],
    "sim.peak_mb": ("sim.simulate",),
    "sim.trace_peak_mb": ("sim.trace_to_json",),
    "printer.peak_mb": ("dsl.printer.format_parts",),
    "json_io.peak_mb": ("dsl.json_io.to_json", "dsl.json_io.from_json"),
    "render.peak_mb": SELF_TIME["render.static_ms"]
    + SELF_TIME["render.events_ms"]
    + SELF_TIME["render.chronology_ms"],
}


def per_pass_self_ms(tracer, prefix: str, clock) -> dict[str, dict[str, float]]:
    """{pass id: {span name: summed self time in ms}} for matching passes."""
    out: dict[str, dict[str, float]] = {}
    for span, t in zip(tracer.spans, tracer.self_times(clock)):
        pid = span[4]
        if pid is None or not pid.startswith(prefix):
            continue
        bucket = out.setdefault(pid, {})
        bucket[span[0]] = bucket.get(span[0], 0.0) + t * 1000
    return out


def growth_probe(tracer, seed: int, clock: WallClock) -> float:
    """Parser self time on the larger ladder rung over the smaller one."""
    rungs = [gen.ladder(seed % gen.VARIANTS, n, d) for n, d in gen.LADDER_RUNGS]
    for rep in range(GROWTH_REPS):
        for i, text in enumerate(rungs):
            gc.collect()
            tracer.pass_id = f"growth{i}-{rep}"
            clock.probe()
            with tracer.installed():
                _tm["dsl"].parse(text, f"rung{i}")
            clock.probe()
    selfs = per_pass_self_ms(tracer, "growth", clock)
    small, large = (
        statistics.median(t["dsl.parser.parse"] for pid, t in selfs.items() if pid.startswith(f"growth{i}-"))
        for i in range(2)
    )
    return large / small


def per_layer(workload: str, seed: int, seconds: float) -> None:
    tally = Tally()
    inputs, expected, folder, paths = prepare(workload, seed, tally)
    report = {"meta": meta(workload, seed, inputs), "trace": 1}
    env = _env()
    run_probes(workload, tally)
    tracer = Tracer()
    speed = Speed()

    # Untraced and traced passes alternate, so the overhead ratio
    # compares passes made under the same conditions.
    plain: list[PassStats] = []
    traced: list[PassStats] = []
    start = time.perf_counter()
    while len(traced) < MIN_TRACED or time.perf_counter() - start < seconds * PASS_SHARE:
        plain.append(run_pass(inputs, expected, tally, False, speed))
        tracer.pass_id = f"pass{len(traced)}"
        with tracer.installed():
            traced.append(run_pass(inputs, expected, tally, False, speed))
    last = run_pass(inputs, expected, tally, True, speed)
    counts = check_invariants(last.last, tally)

    memory = Tracer(memory=True)
    memory.pass_id = "memory"
    with memory.installed():
        run_pass(inputs, expected, tally, False, WallClock())

    # `tm` as a subprocess and `cli.run` in process on the same calls.
    def in_process(name, sub, argv, key, stream) -> int:
        tracer.pass_id = "cli"
        index = len(tracer.spans)
        with tracer.installed():
            code, got = cli_in_process(argv, folder, stream)
        tally.check(
            code == 0 and sha(got) == expected.get(name, {}).get(key),
            f"cli.run {sub} {name}",
            f"cli.run {sub} {name}: exit {code} or output digest differs",
        )
        return index

    rng = random.Random(f"cli:{workload}:{seed}")
    calls, run_spans = run_cli_rounds(
        cli_ops(workload, paths), folder, expected, tally, env, rng,
        seconds * (1 - PASS_SHARE), speed, in_process,
    )
    cli_ms = [speed.seconds(a, b) * 1000 for a, b in calls]
    run_ms = [speed.seconds(*tracer.spans[i][1:3]) * 1000 for i in run_spans]
    growth = growth_probe(tracer, seed, speed)

    # Per-pass values, then the median over traced passes.
    selfs = per_pass_self_ms(tracer, "pass", speed)
    med = {
        metric: statistics.median(sum(p.get(n, 0.0) for n in names) for p in selfs.values())
        for metric, names in SELF_TIME.items()
    }
    peaks = {
        metric: max((s[5] for s in memory.spans if s[0] in names), default=0.0)
        for metric, names in PEAKS.items()
    }
    lexer = _tm["lexer"]
    tokens = sum(len(lexer.tokenize(t, n)[0]) for n, t in inputs.items())
    kept = last.last
    outputs = [r.outputs for _, r in kept]
    values = dict(med)
    values.update(peaks)
    values.update(
        {
            "lexer.tokens": tokens,
            "lexer.tokens_per_s": tokens / (med["lexer.ms"] / 1000),
            "parser.elements": sum(
                r.raw.model.element_count() + len(r.raw.events) for _, r in kept
            ),
            "parser.growth": growth,
            "core.stages_added": sum(
                len(r.norm.stages) - len(r.raw.model.stages) for _, r in kept
            ),
            "validate.diagnostics": sum(r.n_validate for _, r in kept),
            "sim.instances": counts["instances"],
            "sim.firings": counts["firings"],
            "sim.ms_per_instance": (med["sim.simulate_ms"] + med["sim.region_edges_ms"])
            / counts["instances"],
            "sim.coverage_ratio": counts["fired"] / counts["region_stages"],
            "sim.trace_bytes": sum(len(o["trace_json"].encode()) for o in outputs),
            "printer.bytes": sum(len(o["dsl"].encode()) for o in outputs),
            "json_io.bytes": sum(len(o["model_json"].encode()) for o in outputs),
            "render.bytes": sum(
                len(o[k].encode())
                for o in outputs
                for k in ("dot_static", "dot_events", "dot_chronology")
            ),
            "cli.run_ms": statistics.median(run_ms),
            "cli.startup_ms": statistics.median(c - r for c, r in zip(cli_ms, run_ms)),
            "trace.overhead_ratio": statistics.median(s.seconds(speed) for s in traced)
            / statistics.median(s.seconds(speed) for s in plain),
        }
    )
    del kept, outputs, last
    metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}
    rows = [(k, values[k], u, "") for k, u in PER_LAYER.items()]
    spans_path = WORK / "spans" / f"{workload}-seed{seed}.json"
    tracer.write(spans_path)
    memory.write(spans_path.with_name(f"{workload}-seed{seed}-memory.json"))
    report["spans"] = str(spans_path.relative_to(ROOT))
    report["counts"] = counts
    emit(report, metrics, rows, tally)


def run_all(seed: int, seconds: float) -> None:
    """Every workload, end to end and then traced, each in a fresh process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900,
            )
            lines = proc.stdout.strip().splitlines()
            for line in lines[:-1]:
                print(line)
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                raise BenchError(f"{workload} trace={trace} exited {proc.returncode}")
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One CPU for this process and every subprocess, so the speed kernel
    # runs where the timed work runs.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        _import_tmkit()
        if args.workload == "all":
            run_all(args.seed, args.seconds)
        elif args.trace:
            per_layer(args.workload, args.seed, args.seconds)
        else:
            end_to_end(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"tmbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
