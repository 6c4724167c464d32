"""In-memory span recorder for the traced benchmark run.

Spans are taken from outside the package: while a ``Tracer`` is
installed, the public functions listed in ``TRACED`` are replaced by
wrappers that open a span around each call, and the originals are put
back on exit. Because tmkit modules call each other through the same
attributes (``cli`` calls ``dsl.parse``, ``parse`` calls ``tokenize``,
``simulate`` calls ``validate`` and ``region_edges``), those inner
calls become child spans, and a layer's self time is its duration
minus its children's. Nothing is patched in an untraced run.
"""

from __future__ import annotations

import importlib
import json
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

# (module, attribute, span name). A span name is the defining module
# (relative to ``tmkit``) and the function.
TRACED = (
    ("tmkit.dsl.parser", "tokenize", "dsl.lexer.tokenize"),
    ("tmkit.dsl", "parse", "dsl.parser.parse"),
    ("tmkit.dsl", "format_parts", "dsl.printer.format_parts"),
    ("tmkit.dsl", "to_json", "dsl.json_io.to_json"),
    ("tmkit.dsl", "from_json", "dsl.json_io.from_json"),
    ("tmkit.core", "normalize", "core.normalize"),
    ("tmkit.validate", "validate", "validate.validate"),
    ("tmkit.cli", "validate", "validate.validate"),
    ("tmkit.sim", "validate", "validate.validate"),
    ("tmkit.behavior", "flatten", "behavior.flatten"),
    ("tmkit.behavior", "check_region", "behavior.check_region"),
    ("tmkit.behavior", "region_coverage", "behavior.region_coverage"),
    ("tmkit.sim", "region_edges", "behavior.region_edges"),
    ("tmkit.sim", "simulate", "sim.simulate"),
    ("tmkit.sim", "trace_to_json", "sim.trace_to_json"),
    ("tmkit.render", "render_dot", "render.render_dot"),
    ("tmkit.cli", "run", "cli.run"),
)

_MB = 1024 * 1024


class Tracer:
    """Records spans as [name, start, end, parent, pass_id, peak_mb].

    With ``memory`` set, tracemalloc runs and each span also records the
    peak memory allocated above its starting point (children included).
    Timings from a memory-tracing tracer are distorted and not used.
    """

    def __init__(self, memory: bool = False) -> None:
        self.memory = memory
        self.spans: list[list] = []
        self.pass_id: str | None = None
        self._stack: list[int] = []
        self._peaks: list[list[int]] = []  # [start_current, peak_abs] per open span

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = [name, 0.0, 0.0, parent, self.pass_id, 0.0]
        self.spans.append(record)
        self._stack.append(index)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._peaks:
                self._peaks[-1][1] = max(self._peaks[-1][1], peak)
            tracemalloc.reset_peak()
            self._peaks.append([current, current])
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
            if self.memory:
                _, peak = tracemalloc.get_traced_memory()
                start, peak_abs = self._peaks.pop()
                peak_abs = max(peak_abs, peak)
                record[5] = (peak_abs - start) / _MB
                if self._peaks:
                    self._peaks[-1][1] = max(self._peaks[-1][1], peak_abs)
                tracemalloc.reset_peak()

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            label = name
            if name == "render.render_dot":
                opts = args[3] if len(args) > 3 else kwargs.get("opts")
                label = f"{name}:{opts.mode.value if opts else 'static'}"
            with self.span(label):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Route the traced functions through this tracer while open."""
        saved = []
        for module_name, attr, name in TRACED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        if self.memory:
            tracemalloc.start()
        try:
            yield self
        finally:
            if self.memory:
                tracemalloc.stop()
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self, clock) -> list[float]:
        """Each span's duration minus the time its direct children cover,
        in the seconds of ``clock`` (see ``run.Speed``)."""
        full = [clock.seconds(s[1], s[2]) for s in self.spans]
        own = list(full)
        for s, t in zip(self.spans, full):
            if s[3] is not None:
                own[s[3]] -= t
        return own

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "pass", "peak_mb")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([dict(zip(keys, s)) for s in self.spans], handle)
