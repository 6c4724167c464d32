"""Command-line driver: parse, validate, normalize, simulate, render.

Exit codes: 0 success, 1 parse/validation errors, 2 usage errors,
3 simulation errors. Warnings alone exit 0 unless --deny-warnings.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import core, dsl, render, sim
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
    if path == "-":
        # stdin is read as strict UTF-8, like files, whatever the locale
        if hasattr(sys.stdin, "reconfigure"):
            sys.stdin.reconfigure(encoding="utf-8", errors="strict")
        return sys.stdin.read(), "<stdin>"
    with open(path, encoding="utf-8") as handle:
        return handle.read(), path


def _write_output(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


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
    result, model, _ = _load_checked(args.file)
    if model is None:
        return EXIT_INVALID
    config = sim.SimConfig(max_steps_per_event=args.max_steps)
    try:
        # validated just above; simulate would validate again
        trace = sim._simulate_validated(
            model, result.events, result.chronology, config
        )
    except StepBudgetExceeded as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_SIM
    if args.trace:
        _write_output(sim.trace_to_json(model, trace), args.trace)
    else:
        print(
            f"{len(trace.event_order)} event instance(s), "
            f"{len(trace.firings)} firing(s), "
            f"{len(trace.final_tokens)} token(s)"
        )
    return EXIT_OK


def _cmd_render(args: argparse.Namespace) -> int:
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
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
