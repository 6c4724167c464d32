"""CLI behavior: subcommands, exit codes, streams, determinism."""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import tmkit
from tmkit.cli import run
from tmkit.corpus import corpus_path


@pytest.fixture()
def broken_file(tmp_path):
    path = tmp_path / "broken.tm"
    path.write_text(
        "thimac a { stage release; stage receive; stage create; }\n"
        "flow a.create -> a.release;\n"
        "flow a.release -> a.receive;\n"
    )
    return path


def test_validate_corpus_exits_zero_with_empty_stderr(capsys):
    code = run(["validate", str(corpus_path("atm_full.tm"))])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""


def test_validate_broken_reports_flow_illegal(broken_file, capsys):
    code = run(["validate", str(broken_file)])
    captured = capsys.readouterr()
    assert code == 1
    lines = [l for l in captured.err.splitlines() if "FLOW_ILLEGAL" in l]
    assert len(lines) == 1
    assert lines[0].startswith(f"{broken_file}:")
    # file:line:col: severity[CODE] message
    assert "error[FLOW_ILLEGAL]" in lines[0]


def test_validate_deny_warnings(tmp_path, capsys):
    path = tmp_path / "warn.tm"
    path.write_text("thimac a { stage process; }\ntrigger a.process ~> a.process;\n")
    assert run(["validate", str(path)]) == 0
    assert run(["validate", str(path), "--deny-warnings"]) == 1
    capsys.readouterr()


def test_parse_json_dump(capsys):
    code = run(["parse", str(corpus_path("davidson.tm")), "--json"])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    assert len(doc["events"]) == 8


def test_parse_errors_exit_one(tmp_path, capsys):
    path = tmp_path / "bad.tm"
    path.write_text("flow nowhere.create -> elsewhere.process;\n")
    assert run(["parse", str(path)]) == 1
    assert "UNRESOLVED_PATH" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["parse"], ["parse", "--json"], ["validate"], ["normalize"], ["render"]]
)
def test_memory_source_exits_one_before_output(argv, tmp_path, capsys):
    path = tmp_path / "memory.tm"
    path.write_text(
        "thimac a { stage create; stage process; }\n"
        "flow a.create -> a.process;\n"
        "memory a.process ~> a.create;\n"
    )
    assert run([argv[0], str(path), *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"{path}:3:1: error[MEMORY_UNSUPPORTED] the 'memory' relation is reserved "
        "notation with no defined semantics; use a trigger instead\n"
    )


def test_usage_error_exit_two(capsys):
    assert run(["no-such-command"]) == 2
    assert run(["validate", "x.tm", "--no-such-flag"]) == 2
    capsys.readouterr()
    for steps in ("0", "-3"):
        assert run(["simulate", "x.tm", "--max-steps", steps]) == 2
        assert "argument --max-steps: must be at least 1" in capsys.readouterr().err


def test_max_steps_that_is_not_a_number_exit_two(capsys):
    assert run(["simulate", "x.tm", "--max-steps", "abc"]) == 2
    assert "argument --max-steps: invalid int value: 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["normalize", "render"])
def test_parse_errors_exit_one_before_output(command, tmp_path, capsys):
    path = tmp_path / "bad.tm"
    path.write_text("thimac a { stage create; }\nflow a. -> a;\n")
    assert run([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error[SYNTAX] expected a path segment" in captured.err


def test_normalize_inexpansible_flow_exit_one(tmp_path, capsys):
    path = tmp_path / "stuck.tm"
    path.write_text("thimac a { stage release; stage receive; }\nflow a.release -> a.receive;\n")
    assert run(["normalize", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"{path}:2:1: error[AMBIGUOUS_EXPANSION] flow a.release -> a.receive "
        "has no legal expansion\n"
    )


def test_normalize_inexpansible_flow_from_stdin_names_stdin(capsys, monkeypatch):
    import io

    source = "thimac a { stage release; stage receive; }\nflow a.release -> a.receive;\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(source))
    assert run(["normalize", "-"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "<stdin>:2:1: error[AMBIGUOUS_EXPANSION] flow a.release -> a.receive "
        "has no legal expansion\n"
    )


def test_simulate_validation_error_exit_one(broken_file, capsys):
    assert run(["simulate", str(broken_file)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error[FLOW_ILLEGAL]" in captured.err


def test_render_unknown_highlight_exit_two(capsys):
    atm = str(corpus_path("atm_full.tm"))
    assert run(["render", atm, "--mode", "events", "--highlight", "NOPE"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "render error: no event 'NOPE' to highlight\n"


def test_missing_file_exit_two(capsys):
    assert run(["validate", "/nonexistent/y.tm"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, option", [("simulate", "--trace"), ("render", "-o"), ("normalize", "-o")]
)
def test_empty_output_path_exits_two(command, option, capsys):
    # an empty path names no file: it is not stdout, nor "no output"
    assert run([command, str(corpus_path("mud.tm")), option, ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: [Errno 2] No such file or directory: ''\n"


def test_normalize_output_simplified_to_full(tmp_path, capsys):
    out = tmp_path / "norm.tm"
    code = run(["normalize", str(corpus_path("atm_simplified.tm")), "-o", str(out)])
    assert code == 0
    import tmkit
    from tmkit.core import model_equal

    normalized = tmkit.parse(out.read_text(), "norm.tm")
    full = tmkit.parse(corpus_path("atm_full.tm").read_text(), "full.tm")
    assert model_equal(normalized.model, full.model)
    capsys.readouterr()


def test_model_that_is_not_utf8_exits_two(tmp_path, capsys, monkeypatch):
    import io

    path = tmp_path / "latin1.tm"
    path.write_bytes("thimac caf\u00e9 { stage create; }\n".encode("latin-1"))
    assert run(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: not UTF-8 (")
    assert captured.err.count("\n") == 1
    # stdin is decoded as UTF-8 too, even where its encoding says otherwise
    stdin = io.TextIOWrapper(io.BytesIO(path.read_bytes()), encoding="latin-1")
    monkeypatch.setattr(sys, "stdin", stdin)
    assert run(["parse", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: <stdin>: not UTF-8 (")
    assert captured.err.count("\n") == 1


def test_simulate_writes_trace(tmp_path, capsys):
    out = tmp_path / "trace.json"
    code = run(
        ["simulate", str(corpus_path("mud.tm")), "--trace", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert [e["event"] for e in doc["eventOrder"]] == ["E_lastnight", "E_tonight"]
    assert set(doc) == {"eventOrder", "firings", "finalTokens"}
    capsys.readouterr()


def test_output_is_written_in_slices_with_the_same_bytes(
    tmp_path, capsysbinary, monkeypatch
):
    from tmkit import cli

    size = cli._SLICE
    # a two-byte and a four-byte character on either side of the first
    # slice boundary, a two-byte and a three-byte one around the second
    text = (
        "a" * (size - 1) + "\u00e9\U0001d11e" + "b" * (size - 2) + "\u00f8\u20ac"
    )
    assert len(text) > 2 * size
    path = tmp_path / "out.txt"
    cli._write_output(text, str(path))
    assert path.read_bytes() == text.encode("utf-8")
    cli._write_output(text, "-")
    assert capsysbinary.readouterr().out == text.encode("utf-8")

    class Recorder:
        def __init__(self) -> None:
            self.writes = []

        def write(self, piece: str) -> None:
            self.writes.append(piece)

    stdout = Recorder()
    monkeypatch.setattr(sys, "stdout", stdout)
    cli._write_output(text, None)
    assert [len(piece) for piece in stdout.writes] == [size, size, 1]
    # a text shorter than a slice is written as itself, not copied
    stdout.writes.clear()
    short = "x" * 100
    cli._write_output(short, None)
    assert len(stdout.writes) == 1 and stdout.writes[0] is short


def test_stdout_is_utf8_whatever_the_locale(tmp_path):
    # with an ASCII stdout, a non-ASCII event label still comes out as the
    # UTF-8 that -o FILE writes, with no traceback
    source = tmp_path / "cafe.tm"
    source.write_text(
        "thimac a { stage create; stage process; }\n"
        "flow a.create -> a.process;\n"
        'event E "caf\u00e9" { region { a; } }\n'
        "chronology { E; }\n",
        encoding="utf-8",
    )
    src = str(Path(tmkit.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="ascii")
    for argv in (["normalize"], ["render", "--mode", "events"]):
        out = tmp_path / "out.txt"
        tm = [sys.executable, "-m", "tmkit", *argv, str(source)]
        done = subprocess.run(tm, capture_output=True, env=env)
        assert done.returncode == 0, argv
        assert done.stderr == b"", argv
        assert subprocess.run([*tm, "-o", str(out)], env=env).returncode == 0
        assert done.stdout == out.read_bytes(), argv
        assert "caf\u00e9".encode("utf-8") in done.stdout, argv


def test_simulate_summary_line(capsys):
    code = run(["simulate", str(corpus_path("mud.tm"))])
    captured = capsys.readouterr()
    assert code == 0
    assert "2 event instance(s)" in captured.out


def test_simulate_trace_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(["simulate", str(corpus_path("atm_full.tm")), "--trace", str(a)])
    run(["simulate", str(corpus_path("atm_full.tm")), "--trace", str(b)])
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_simulate_step_budget_exit_three(tmp_path, capsys):
    path = tmp_path / "loop.tm"
    path.write_text(
        "thimac a { stage create; stage release; stage transfer; stage receive; }\n"
        "thimac b { stage transfer; stage receive; stage release; }\n"
        "flow a.create -> a.release -> a.transfer;\n"
        "flow a.transfer -> b.transfer -> b.receive -> b.release -> b.transfer;\n"
        "flow b.transfer -> a.transfer -> a.receive -> a.release;\n"
        "event E { region { a; b; } }\n"
        "chronology { E; }\n"
    )
    code = run(["simulate", str(path), "--max-steps", "40"])
    captured = capsys.readouterr()
    assert code == 3
    assert "simulation error" in captured.err


def test_render_modes_and_output_file(tmp_path, capsys):
    out = tmp_path / "d.dot"
    for mode in ("static", "events", "chronology"):
        code = run(
            [
                "render",
                str(corpus_path("davidson.tm")),
                "--mode",
                mode,
                "-o",
                str(out),
            ]
        )
        assert code == 0
        assert out.read_text().startswith("digraph")
    capsys.readouterr()


def test_render_deterministic_bytes(tmp_path, capsys):
    a = tmp_path / "a.dot"
    b = tmp_path / "b.dot"
    run(["render", str(corpus_path("atm_full.tm")), "--mode", "static", "-o", str(a)])
    run(["render", str(corpus_path("atm_full.tm")), "--mode", "static", "-o", str(b)])
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_render_simplified_flag(tmp_path, capsys):
    out = tmp_path / "simp.dot"
    code = run(
        [
            "render",
            str(corpus_path("atm_simplified.tm")),
            "--mode",
            "static",
            "--simplified",
            "-o",
            str(out),
        ]
    )
    assert code == 0
    text = out.read_text()
    # the elided stages stay hidden in simplified renderings
    assert '"atm.okmsg.receive"' not in text
    assert '"atm.okmsg.process"' in text
    capsys.readouterr()


def test_every_subcommand_reads_stdin(tmp_path, capsys, monkeypatch):
    import io
    import sys

    source = corpus_path("mud.tm").read_text()
    out = tmp_path / "out"
    invocations = [
        ["parse", "-"],
        ["validate", "-"],
        ["normalize", "-", "-o", str(out)],
        ["simulate", "-", "--trace", str(out)],
        ["render", "-", "--mode", "static", "-o", str(out)],
    ]
    for argv in invocations:
        monkeypatch.setattr(sys, "stdin", io.StringIO(source))
        assert run(argv) == 0, argv
        capsys.readouterr()


def test_parse_stdin_json(capsys, monkeypatch):
    import io
    import sys

    monkeypatch.setattr(sys, "stdin", io.StringIO("thimac x { stage create; }"))
    code = run(["parse", "-", "--json"])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    assert doc["thimacs"][0]["name"] == "x"


def test_color_env_var(monkeypatch, capsys, broken_file):
    monkeypatch.setenv("TM_COLOR", "always")
    run(["validate", str(broken_file)])
    captured = capsys.readouterr()
    assert "\x1b[31m" in captured.err
    monkeypatch.setenv("TM_COLOR", "never")
    run(["validate", str(broken_file)])
    captured = capsys.readouterr()
    assert "\x1b[" not in captured.err


def test_simulate_validates_once(monkeypatch, capsys):
    # the CLI validates, and simulate checks through validate again, which
    # reuses the model's stored verdict: every rule runs once, the region
    # rules once per event
    import tmkit.cli
    import tmkit.sim

    rules = importlib.import_module("tmkit.validate")
    calls = []

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(tmkit.cli, "validate", counted("cli", tmkit.cli.validate))
    monkeypatch.setattr(tmkit.sim, "validate", counted("sim", tmkit.sim.validate))
    monkeypatch.setattr(
        rules, "_check_flows", counted("model", rules._check_flows)
    )
    behavior = importlib.import_module("tmkit.behavior")
    monkeypatch.setattr(
        behavior, "check_region", counted("region", behavior.check_region)
    )
    monkeypatch.setattr(
        rules, "_check_chronology", counted("chronology", rules._check_chronology)
    )
    path = corpus_path("davidson.tm")
    events = tmkit.dsl.parse(path.read_text(), str(path)).events
    assert run(["simulate", str(path)]) == 0
    capsys.readouterr()
    assert calls == [
        "cli", "model", *["region"] * len(events), "chronology", "sim"
    ]


# A flow written twice: the parser collapses it with a warning.
REPEATED_FLOW = (
    "thimac a { stage create; stage process; } "
    "flow a.create -> a.process; flow a.create -> a.process;"
)


@pytest.mark.parametrize(
    "command", ["parse", "validate", "normalize", "simulate", "render"]
)
def test_every_subcommand_prints_the_parser_warnings(command, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(REPEATED_FLOW))
    assert run([command, "-"]) == 0
    assert capsys.readouterr().err == (
        "<stdin>:1:71: warning[DUPLICATE_EDGE] "
        "duplicate flow a.create -> a.process collapsed\n"
    )


@pytest.mark.parametrize("module", ["tmkit", "tmkit.cli"])
def test_python_dash_m_runs_tm(module, capsys):
    src = str(Path(tmkit.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    args = ["simulate", str(corpus_path("ships.tm"))]
    done = subprocess.run(
        [sys.executable, "-m", module, *args], capture_output=True, text=True, env=env
    )
    assert run(args) == done.returncode == 0
    assert done.stdout == capsys.readouterr().out != ""
    done = subprocess.run(
        [sys.executable, "-m", module, "no-such-command"],
        capture_output=True, text=True, env=env,
    )
    assert done.returncode == 2



# A model whose create stage broadcasts, so ``tm simulate`` logs a warning.
BROADCAST = (
    "thimac a { stage create; stage process; stage release; }\n"
    "flow a.create -> a.process;\n"
    "flow a.create -> a.release;\n"
    "event E { region { a; } }\n"
    "chronology { E; }\n"
)

# Every subcommand once: argv after ``tm``, with {model} for atm_full.tm
# and {broadcast} for a model written from BROADCAST.
SUBCOMMANDS = [
    ["parse", "{model}", "--json"],
    ["validate", "{model}"],
    ["normalize", "{model}"],
    ["simulate", "{broadcast}", "--trace", "-"],
    ["render", "{model}", "--mode", "static"],
    ["render", "{model}", "--mode", "events"],
    ["render", "{model}", "--mode", "chronology"],
]


@pytest.fixture()
def subcommand_argvs(tmp_path):
    broadcast = tmp_path / "broadcast.tm"
    broadcast.write_text(BROADCAST)
    paths = {"model": str(corpus_path("atm_full.tm")), "broadcast": str(broadcast)}
    return [[a.format(**paths) for a in argv] for argv in SUBCOMMANDS]


# Imports every tmkit module (``tmkit.__main__`` runs ``tm --help``, which
# exits), runs each `tm` subcommand given as a JSON list of argvs, and
# prints the names of all loaded modules.
_IMPORT_ALL = """
import contextlib, importlib, io, json, pkgutil, sys
sys.path.insert(0, sys.argv[1])
sys.argv = ["tm", "--help"]
import tmkit
for info in pkgutil.walk_packages(tmkit.__path__, "tmkit."):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
        importlib.import_module(info.name)
from tmkit.cli import run
for argv in json.loads(sys.stdin.read()):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert run(argv) == 0, argv
print(json.dumps(sorted(sys.modules)))
"""


def test_every_module_imports_only_the_standard_library(subcommand_argvs):
    package = Path(tmkit.__file__).parent
    ours = {
        ".".join(("tmkit", *path.relative_to(package).with_suffix("").parts))
        .removesuffix(".__init__")
        for path in package.rglob("*.py")
    }
    # -S: no site hooks, which can import third-party modules themselves
    done = subprocess.run(
        [sys.executable, "-S", "-c", _IMPORT_ALL, str(package.parent)],
        input=json.dumps(subcommand_argvs), capture_output=True, text=True, check=True,
    )
    loaded = set(json.loads(done.stdout))
    # a module whose import raised, as ``tmkit.__main__``'s exit does,
    # leaves sys.modules again
    assert ours - {"tmkit.__main__"} <= loaded
    # imports inside functions ran too: only a broadcast imports logging
    assert "logging" in loaded
    others = {name.partition(".")[0] for name in loaded - ours} - {"__main__"}
    assert others <= sys.stdlib_module_names, others - sys.stdlib_module_names


# Runs ``tm`` in a fresh interpreter (argv: tmkit's source folder, then
# the arguments of ``tm``) and prints the exit code and the loaded
# modules after its output, without importing json, which ``tm`` may
# load only for ``parse --json``.
_RUN_TM = """
import sys
sys.path.insert(0, sys.argv[1])
from tmkit.cli import run
code = run(sys.argv[2:])
print("\\nmodules:", code, *sorted(sys.modules))
"""


def _run_tm(argv: list[str]) -> tuple[int, set[str], str, str]:
    """Exit code, loaded modules, stdout and stderr of a fresh ``tm`` run."""
    src = str(Path(tmkit.__file__).parent.parent)
    done = subprocess.run(
        [sys.executable, "-S", "-c", _RUN_TM, src, *argv],
        capture_output=True, text=True, check=True,
    )
    out, _, tail = done.stdout.rpartition("\nmodules: ")
    code, *modules = tail.split()
    return int(code), set(modules), out, done.stderr


# Standard-library modules that no subcommand loads: tmkit's records are
# plain classes, and it imports neither ``dataclasses`` (which loads
# ``inspect``, ``ast`` and ``dis``) nor ``typing``.
UNUSED = {"dataclasses", "inspect", "typing", "ast", "dis"}


@pytest.mark.parametrize(
    "argv, loads",
    [
        (["parse", "--json"], {"tmkit.dsl.json_io", "json"}),
        (["validate"], set()),
        (["normalize"], {"tmkit.dsl.printer"}),
        (["render", "--mode", "static"], {"tmkit.render"}),
        (["parse"], set()),
    ],
)
def test_a_subcommand_imports_only_what_it_runs(argv, loads):
    # modules that only some subcommands need
    optional = {
        "tmkit.sim", "tmkit.render", "tmkit.dsl.printer", "tmkit.dsl.json_io",
        "json", "logging",
    }
    model = str(corpus_path("atm_full.tm"))
    code, modules, _, err = _run_tm([argv[0], model, *argv[1:]])
    assert (code, err) == (0, "")
    assert modules & optional == loads
    assert not modules & UNUSED


def test_simulate_loads_logging_only_to_warn(tmp_path):
    code, modules, _, err = _run_tm(["simulate", str(corpus_path("atm_full.tm"))])
    assert (code, err) == (0, "")
    assert "tmkit.sim" in modules and "logging" not in modules
    assert not modules & UNUSED
    path = tmp_path / "broadcast.tm"
    path.write_text(BROADCAST)
    code, modules, out, err = _run_tm(["simulate", str(path)])
    assert code == 0
    assert "logging" in modules
    assert out == "1 event instance(s), 4 firing(s), 2 token(s)\n"
    assert err == "broadcast: token 1 at a.create replicates along 2 flows (event E)\n"


@pytest.mark.parametrize("enabled", [True, False])
def test_run_leaves_the_collector_as_it_found_it(enabled, subcommand_argvs):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for argv in subcommand_argvs:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                io.StringIO()
            ):
                assert run(argv) == 0, argv
            assert gc.isenabled() is enabled, argv
    finally:
        (gc.enable if was else gc.disable)()


# Runs ``tm`` through ``cli.main`` in a fresh interpreter (argv: tmkit's
# source folder, then the arguments of ``tm``) and reports on stderr
# whether the collector was on while ``run`` ran.
_MAIN = """
import gc, sys
sys.path.insert(0, sys.argv[1])
from tmkit import cli
real_run = cli.run
def spied(argv):
    code = real_run(argv)
    print("collector on:", gc.isenabled(), file=sys.stderr)
    return code
cli.run = spied
sys.argv = ["tm", *sys.argv[2:]]
cli.main()
"""


def test_main_runs_without_the_collector_and_writes_the_same_bytes(
    subcommand_argvs, capsys
):
    src = str(Path(tmkit.__file__).parent.parent)
    for argv in subcommand_argvs:
        done = subprocess.run(
            [sys.executable, "-c", _MAIN, src, *argv], capture_output=True, text=True
        )
        assert run(argv) == done.returncode == 0, argv
        assert done.stdout == capsys.readouterr().out, argv
        assert done.stderr.endswith("collector on: False\n"), argv


# Runs ``tm`` through ``cli.main`` in a fresh interpreter that caps its own
# address space (argv: tmkit's source folder, the cap in bytes, then the
# arguments of ``tm``); the cap binds that interpreter alone.
_CAPPED_MAIN = """
import resource, sys
cap = int(sys.argv[2])
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
sys.path.insert(0, sys.argv[1])
from tmkit import cli
sys.argv = ["tm", *sys.argv[3:]]
cli.main()
"""

# One machine, one event: every instance after the first is a replayed
# copy. {repeat} is the count.
HUGE_REPEAT = (
    "thimac a { stage create; stage process; }\n"
    "flow a.create -> a.process;\n"
    "event E { region { a; } repeat {repeat}; }\n"
    "chronology { E; }\n"
)
# the counts that fill memory, a count past any index-sized integer too
HUGE_COUNTS = ("100000000", "99999999999999999999")


def _run_capped(tmp_path, repeat: str, *args: str) -> subprocess.CompletedProcess:
    """``tm simulate`` of HUGE_REPEAT at ``repeat`` under a 256 MiB address
    space, with the extra arguments."""
    src = str(Path(tmkit.__file__).parent.parent)
    source = tmp_path / f"huge{repeat}.tm"
    source.write_text(HUGE_REPEAT.replace("{repeat}", repeat), encoding="utf-8")
    return subprocess.run(
        [sys.executable, "-c", _CAPPED_MAIN, src, str(256 * 2**20), "simulate",
         str(source), *args],
        capture_output=True, text=True,
    )


@pytest.mark.skipif(
    sys.platform != "linux", reason="RLIMIT_AS bounds allocation on Linux only"
)
def test_out_of_memory_is_one_line_and_exit_3(tmp_path):
    # the written trace grows per firing: it must run out of memory, not
    # overflow, and leave no file behind
    for repeat in HUGE_COUNTS:
        out = tmp_path / f"huge{repeat}.json"
        done = _run_capped(tmp_path, repeat, "--trace", str(out))
        assert done.returncode == 3, repeat
        assert done.stdout == "", repeat
        assert done.stderr == "simulation error: out of memory\n", repeat
        assert not out.exists(), repeat


@pytest.mark.skipif(
    sys.platform != "linux", reason="RLIMIT_AS bounds allocation on Linux only"
)
def test_counting_a_huge_repeat_costs_its_template(tmp_path):
    # without --trace, the copies stay one run: the counts are exact under
    # the same cap
    for repeat in HUGE_COUNTS:
        done = _run_capped(tmp_path, repeat)
        assert (done.returncode, done.stderr) == (0, ""), repeat
        n = int(repeat)
        assert done.stdout == (
            f"{n} event instance(s), {2 * n} firing(s), {n} token(s)\n"
        ), repeat


# Runs ``tm`` through ``cli.main`` in a fresh interpreter where the writer
# that ``cli`` calls runs out of memory (argv: tmkit's source folder, then
# the arguments of ``tm``).
_WRITER_OUT_OF_MEMORY = """
import sys
sys.path.insert(0, sys.argv[1])
from tmkit import cli
def write(text, out):
    raise MemoryError
cli._write_output = write
sys.argv = ["tm", *sys.argv[2:]]
cli.main()
"""


def test_out_of_memory_names_what_ran_out(tmp_path):
    # simulate reports a simulation error; a subcommand that does not
    # simulate reports a plain error; each exits 3 with one line and no
    # output
    src = str(Path(tmkit.__file__).parent.parent)
    model = str(corpus_path("atm_full.tm"))
    for argv, line in (
        (["render", model], "error: out of memory\n"),
        (["normalize", model, "-o", str(tmp_path / "n.tm")], "error: out of memory\n"),
        (["simulate", model, "--trace", "-"], "simulation error: out of memory\n"),
    ):
        done = subprocess.run(
            [sys.executable, "-c", _WRITER_OUT_OF_MEMORY, src, *argv],
            capture_output=True, text=True,
        )
        assert (done.returncode, done.stdout, done.stderr) == (3, "", line), argv


# Each public name of tmkit and the module it is defined in or re-exported from.
PUBLIC_HOMES = {
    "tmkit.behavior": [
        "Chronology", "EventDef", "check_region", "flatten", "instances",
        "region_coverage", "topological_orders_contains",
    ],
    "tmkit.core": ["Model", "StageKind", "is_normalized", "model_equal", "normalize"],
    "tmkit.diagnostics": ["Diagnostic", "Severity", "SourceSpan"],
    "tmkit.dsl": ["ParseResult", "from_json", "parse", "to_json"],
    "tmkit.render": ["RenderMode", "RenderOptions", "render_dot"],
    "tmkit.sim": ["SimConfig", "Trace", "coverage", "simulate", "trace_to_json"],
    "tmkit.validate": ["legality", "validate"],
}

# In a fresh interpreter: which modules ``import tmkit`` loads, then
# for each public name reached by ``from tmkit import *``, by attribute
# before and after a run of every subcommand (argvs as JSON on stdin),
# whether it is the object its home module holds.
_PUBLIC_NAMES = """
import contextlib, importlib, io, json, sys
sys.path.insert(0, sys.argv[1])
homes = {n: m for m, names in json.loads(sys.argv[2]).items() for n in names}
import tmkit
report = {"loaded": sorted(sys.modules), "all": tmkit.__all__, "dir": dir(tmkit)}
def same(get):
    return sorted(n for n in homes
                  if get(n) is getattr(importlib.import_module(homes[n]), n))
star = {}
exec("from tmkit import *", star)
report["star"] = same(star.get)
report["attr"] = same(lambda n: getattr(tmkit, n))
import tmkit.cli
for argv in json.loads(sys.stdin.read()):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert tmkit.cli.run(argv) == 0, argv
report["after_cli"] = same(lambda n: getattr(tmkit, n))
report["validate"] = tmkit.validate is sys.modules["tmkit.validate"].validate
print(json.dumps(report))
"""


def test_public_names_are_lazy_and_keep_their_objects(subcommand_argvs):
    src = str(Path(tmkit.__file__).parent.parent)
    done = subprocess.run(
        [sys.executable, "-S", "-c", _PUBLIC_NAMES, src, json.dumps(PUBLIC_HOMES)],
        input=json.dumps(subcommand_argvs), capture_output=True, text=True, check=True,
    )
    report = json.loads(done.stdout)
    public = sorted(n for names in PUBLIC_HOMES.values() for n in names)
    assert report["all"] == public == tmkit.__all__
    assert set(public) <= set(report["dir"])
    # import tmkit loads tmkit.validate and its imports, and no more
    assert not {"tmkit.sim", "tmkit.render", "logging"} & set(report["loaded"])
    assert report["star"] == report["attr"] == report["after_cli"] == public
    # not shadowed by the submodule of the same name
    assert report["validate"] is True
    assert callable(tmkit.validate) and not isinstance(tmkit.validate, type(sys))


def test_unknown_attribute_is_an_attribute_error():
    import tmkit.dsl

    for module in (tmkit, tmkit.dsl):
        assert not hasattr(module, "no_such_name")
        assert set(module.__all__) <= set(dir(module))


def _traced() -> list[tuple[str, str, str]]:
    """``TRACED`` of ``tmbench/spans.py``: the attributes its tracer patches."""
    return runpy.run_path(str(Path(__file__).parent.parent / "tmbench" / "spans.py"))[
        "TRACED"
    ]


def test_benchmark_traced_attributes_resolve_after_a_fresh_import():
    root = Path(__file__).parent.parent
    script = (
        "import importlib, sys\n"
        "sys.path[:0] = sys.argv[1:3]\n"
        "from tmbench.spans import TRACED\n"
        "for module, attr, _ in TRACED:\n"
        "    assert callable(getattr(importlib.import_module(module), attr)), attr\n"
        "print(len(TRACED))\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", script, str(root / "src"), str(root)],
        capture_output=True, text=True, check=True,
    )
    assert int(done.stdout) == len(_traced())


@pytest.mark.parametrize(
    "module, attr, argv",
    [
        ("tmkit.dsl", "parse", ["parse", "{model}"]),
        ("tmkit.dsl", "to_json", ["parse", "{model}", "--json"]),
        ("tmkit.dsl", "format_parts", ["normalize", "{model}"]),
        ("tmkit.cli", "validate", ["validate", "{model}"]),
        ("tmkit.sim", "trace_to_json", ["simulate", "{model}", "--trace", "-"]),
        ("tmkit.render", "render_dot", ["render", "{model}", "--mode", "events"]),
        ("tmkit.behavior", "check_region", ["validate", "{model}"]),
    ],
)
def test_cli_calls_the_traced_attributes(module, attr, argv, monkeypatch, capsys):
    # each is called once, but validation checks each event's region
    assert (module, attr) in {(m, a) for m, a, _ in _traced()}
    model = str(corpus_path("atm_full.tm"))
    events = tmkit.dsl.parse(Path(model).read_text(encoding="utf-8")).events
    target = importlib.import_module(module)
    real = getattr(target, attr)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(target, attr, counted)
    assert run([a.format(model=model) for a in argv]) == 0
    capsys.readouterr()
    assert len(calls) == (len(events) if attr == "check_region" else 1)


@pytest.mark.parametrize(
    "argv",
    [["parse", "--json"], ["validate"], ["normalize"], ["simulate", "--trace", "-"],
     ["render", "--mode", "events"]],
)
@pytest.mark.parametrize("source", ["atm_full", "broken"])
def test_leading_byte_order_mark_is_skipped(
    argv, source, broken_file, tmp_path, capsys, monkeypatch
):
    import io

    text = (
        corpus_path("atm_full.tm").read_bytes()
        if source == "atm_full"
        else broken_file.read_bytes()
    )
    outcomes = []
    for data in (text, b"\xef\xbb\xbf" + text):
        # the same file name in two folders, so diagnostics read alike
        folder = tmp_path / str(len(outcomes))
        folder.mkdir()
        (folder / "model.tm").write_bytes(data)
        monkeypatch.chdir(folder)
        code = run([argv[0], "model.tm", *argv[1:]])
        outcomes.append((code, *capsys.readouterr()))
        # stdin may carry another encoding; tm reads it as UTF-8 anyway
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="latin-1")
        monkeypatch.setattr(sys, "stdin", stdin)
        code = run([argv[0], "-", *argv[1:]])
        outcomes.append((code, *capsys.readouterr()))
    plain, plain_stdin, bom, bom_stdin = outcomes
    assert bom == plain and bom_stdin == plain_stdin
