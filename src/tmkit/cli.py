"""Command-line driver: parse, validate, normalize, simulate, render.

Exit codes: 0 success, 1 parse/validation errors, 2 usage errors,
3 simulation errors (running out of memory among them, reported by
``main`` as one line). Warnings alone exit 0 unless --deny-warnings.

Start-up rule: a subcommand imports only the modules it runs. ``core``,
``dsl`` and ``validate`` serve every subcommand and are imported here
(``validate`` is also eager in ``tmkit/__init__``); ``sim`` and
``render`` are imported inside their subcommands, and ``dsl`` loads
the printer and ``json_io`` on first use. Functions are called through
their modules (``dsl.parse``, ``render.render_dot``), so a wrapper set
on the module attribute sees every call.

``main`` turns the cyclic collector off before it runs a command, for
the whole process. The pipeline makes no reference cycles
(``tests/test_gc.py`` checks every step), so the collector could free
nothing, and its passes walk the whole model and trace for nothing.
Memory is still freed by reference counting. A program that calls
``run`` or the library in-process keeps its own setting: each pipeline
function pauses the collector for its call only
(``diagnostics.collector_paused``) and turns it back on if it was on.
So a program that switches the collector from another thread while a
call runs may find it on when the call returns.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import core, dsl
from .diagnostics import Diagnostic, Severity
from .errors import AmbiguousExpansion, StepBudgetExceeded, TmError
from .validate import validate

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_SIM = 3


def _use_color(stream) -> bool:
    mode = os.environ.get("TM_COLOR", "auto")
    if mode == "always":
        return True
    if mode == "never":
        return False
    return hasattr(stream, "isatty") and stream.isatty()


def _print_diagnostics(diags: list[Diagnostic], stream=None) -> None:
    stream = stream or sys.stderr
    color = _use_color(stream)
    for diag in diags:
        line = diag.render()
        if color:
            tint = "31" if diag.severity is Severity.ERROR else "33"
            marker = f"{diag.severity.value}[{diag.code}]"
            line = line.replace(marker, f"\x1b[{tint}m{marker}\x1b[0m", 1)
        print(line, file=stream)


def _read_source(path: str) -> tuple[str, str]:
    # strict UTF-8 for files and stdin, whatever the locale; a leading
    # byte-order mark is skipped
    if path == "-":
        if hasattr(sys.stdin, "reconfigure"):
            sys.stdin.reconfigure(encoding="utf-8-sig", errors="strict")
        return sys.stdin.read(), "<stdin>"
    with open(path, encoding="utf-8-sig") as handle:
        return handle.read(), path


# characters per write of _write_output
_SLICE = 1 << 20


def _write_output(text: str, out: str | None) -> None:
    # in slices: a text stream encodes what it is given into one bytes
    # object, so one write of a trace would hold it twice, as text and as
    # UTF-8, where a slice at a time adds at most one slice and its bytes;
    # a text shorter than a slice is the slice itself, and is not copied
    if out is None or out == "-":
        _write_slices(sys.stdout, text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            _write_slices(handle, text)


def _write_slices(stream, text: str) -> None:
    for start in range(0, len(text), _SLICE):
        stream.write(text[start : start + _SLICE])


def _load(path: str) -> dsl.ParseResult:
    text, name = _read_source(path)
    return dsl.parse(text, name)


def _cmd_parse(args: argparse.Namespace) -> int:
    result = _load(args.file)
    _print_diagnostics(result.diagnostics)
    if result.model is None:
        return EXIT_INVALID
    if args.json:
        _write_output(dsl.to_json(result), None)
    return EXIT_OK


def _load_checked(
    path: str,
) -> tuple[dsl.ParseResult, core.Model | None, list[Diagnostic]]:
    """Parse, normalize leniently and validate, printing the diagnostics.

    The model is the normalized one, or None if any diagnostic is an error.
    """
    result = _load(path)
    diags = list(result.diagnostics)
    if result.model is not None:
        model = core.normalize(result.model, strict=False)
        diags += validate(model, result.events, result.chronology)
    _print_diagnostics(diags)
    if result.model is None or any(d.is_error for d in diags):
        return result, None, diags
    return result, model, diags


def _cmd_validate(args: argparse.Namespace) -> int:
    _, model, diags = _load_checked(args.file)
    if model is None or (args.deny_warnings and diags):
        return EXIT_INVALID
    return EXIT_OK


def _cmd_normalize(args: argparse.Namespace) -> int:
    result = _load(args.file)
    _print_diagnostics(result.diagnostics)
    if result.model is None:
        return EXIT_INVALID
    try:
        model = core.normalize(result.model, strict=True)
    except AmbiguousExpansion as exc:
        _print_diagnostics(
            [Diagnostic(Severity.ERROR, "AMBIGUOUS_EXPANSION", str(exc), exc.span)]
        )
        return EXIT_INVALID
    _write_output(
        dsl.format_parts(model, result.events, result.chronology), args.output
    )
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    from . import sim

    result, model, _ = _load_checked(args.file)
    if model is None:
        return EXIT_INVALID
    config = sim.SimConfig(max_steps_per_event=args.max_steps)
    try:
        # validated just above: simulate reuses the model's stored verdict
        # and runs only the event and chronology rules again
        trace = sim.simulate(model, result.events, result.chronology, config)
    except StepBudgetExceeded as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_SIM
    if args.trace:
        _write_output(sim.trace_to_json(model, trace), args.trace)
    else:
        # counted from the runs of replayed copies, which stay unbuilt
        instances, firings, tokens = trace._sizes()
        print(
            f"{instances} event instance(s), {firings} firing(s), {tokens} token(s)"
        )
    return EXIT_OK


def _cmd_render(args: argparse.Namespace) -> int:
    from . import render

    result = _load(args.file)
    if result.model is None:
        _print_diagnostics(result.diagnostics)
        return EXIT_INVALID
    model = core.normalize(result.model, strict=False)
    opts = render.RenderOptions(
        mode=render.RenderMode(args.mode),
        highlight=args.highlight,
        simplified=args.simplified,
    )
    try:
        dot = render.render_dot(model, result.events, result.chronology, opts)
    except TmError as exc:
        print(f"render error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _write_output(dot, args.output)
    return EXIT_OK


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        # argparse's own wording for a plain ``type=int``
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tm",
        description="Thinging Machine model toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a model and optionally dump JSON")
    p.add_argument("file", help="model file, or - for stdin")
    p.add_argument("--json", action="store_true", help="dump model JSON to stdout")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("validate", help="run all validation rules")
    p.add_argument("file", help="model file, or - for stdin")
    p.add_argument(
        "--deny-warnings",
        action="store_true",
        help="treat warnings as failures",
    )
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("normalize", help="print the canonical full-stage form")
    p.add_argument("file", help="model file, or - for stdin")
    p.add_argument("-o", "--output", help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("simulate", help="execute the chronology over the model")
    p.add_argument("file", help="model file, or - for stdin")
    p.add_argument("--trace", help="write the trace JSON to this path")
    p.add_argument(
        "--max-steps",
        type=_positive_int,
        default=10000,
        metavar="N",
        help="per-instance quiescence budget (default 10000)",
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("render", help="emit a Graphviz DOT diagram")
    p.add_argument("file", help="model file, or - for stdin")
    p.add_argument(
        "--mode",
        choices=["static", "events", "chronology"],
        default="static",
    )
    p.add_argument(
        "--simplified",
        action="store_true",
        help="hide normalization-inserted stages",
    )
    p.add_argument("--highlight", help="event id to highlight (events mode)")
    p.add_argument("-o", "--output", help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_render)

    return parser


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UnicodeDecodeError as exc:
        source = "<stdin>" if args.file == "-" else args.file
        print(f"error: {source}: not UTF-8 ({exc})", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    import gc

    gc.disable()  # nothing cyclic to collect: see the module docstring
    # output is UTF-8 whatever the locale, as input is read and -o FILE is
    # written; a locale's encoding could fail on a non-ASCII name midway
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(encoding="utf-8")
    try:
        status = run(sys.argv[1:])
    except MemoryError:
        status = None
    if status is None:
        # once the except block has ended, the traceback and the frames it
        # kept (and with them the trace) are freed, so printing has room
        print("simulation error: out of memory", file=sys.stderr)
        status = EXIT_SIM
    sys.exit(status)


if __name__ == "__main__":
    main()
