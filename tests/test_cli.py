"""CLI behavior: subcommands, exit codes, streams, determinism."""

from __future__ import annotations

import json
import os
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
    import tmkit.cli
    import tmkit.sim

    calls = []

    def counted(real):
        def wrapper(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(tmkit.cli, "validate", counted(tmkit.cli.validate))
    monkeypatch.setattr(tmkit.sim, "validate", counted(tmkit.sim.validate))
    assert run(["simulate", str(corpus_path("davidson.tm"))]) == 0
    capsys.readouterr()
    assert len(calls) == 1


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



# Imports every tmkit module (``tmkit.__main__`` runs ``tm --help``, which
# exits) and prints the names of all loaded modules.
_IMPORT_ALL = """
import contextlib, importlib, io, json, pkgutil, sys
sys.path.insert(0, sys.argv[1])
sys.argv = ["tm", "--help"]
import tmkit
for info in pkgutil.walk_packages(tmkit.__path__, "tmkit."):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
        importlib.import_module(info.name)
print(json.dumps(sorted(sys.modules)))
"""


def test_every_module_imports_only_the_standard_library():
    package = Path(tmkit.__file__).parent
    ours = {
        ".".join(("tmkit", *path.relative_to(package).with_suffix("").parts))
        .removesuffix(".__init__")
        for path in package.rglob("*.py")
    }
    # -S: no site hooks, which can import third-party modules themselves
    done = subprocess.run(
        [sys.executable, "-S", "-c", _IMPORT_ALL, str(package.parent)],
        capture_output=True, text=True, check=True,
    )
    loaded = set(json.loads(done.stdout))
    # a module whose import raised, as ``tmkit.__main__``'s exit does,
    # leaves sys.modules again
    assert ours - {"tmkit.__main__"} <= loaded
    others = {name.partition(".")[0] for name in loaded - ours} - {"__main__"}
    assert others <= sys.stdlib_module_names, others - sys.stdlib_module_names
