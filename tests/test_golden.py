"""Golden SHA-256 digests of every corpus output of the `tm` command.

Each entry records the exit code and the digests of stdout and stderr
of one `tm` call on one bundled corpus file, run from the corpus
directory so diagnostics carry the bare file name. A change that moves
any output byte fails here. Re-record (only for an intended output
change) with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from tmkit.cli import run
from tmkit.corpus import corpus_files, corpus_path

GOLDEN = Path(__file__).with_name("golden_digests.json")

COMMANDS = {
    "parse --json": ["parse", "{}", "--json"],
    "normalize": ["normalize", "{}"],
    "validate": ["validate", "{}"],
    "simulate --trace -": ["simulate", "{}", "--trace", "-"],
    "render static": ["render", "{}", "--mode", "static"],
    "render events": ["render", "{}", "--mode", "events"],
    "render chronology": ["render", "{}", "--mode", "chronology"],
    "render static --simplified": ["render", "{}", "--mode", "static", "--simplified"],
    "render events --simplified": ["render", "{}", "--mode", "events", "--simplified"],
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def corpus_outputs() -> dict[str, dict[str, dict]]:
    """Exit code and output digests of every command on every corpus file."""
    out: dict[str, dict[str, dict]] = {}
    old_cwd = os.getcwd()
    old_color = os.environ.get("TM_COLOR")
    os.environ["TM_COLOR"] = "never"
    try:
        for path in corpus_files():
            os.chdir(path.parent)
            row = out.setdefault(path.name, {})
            for label, argv in COMMANDS.items():
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(
                    stderr
                ):
                    code = run([a.format(path.name) for a in argv])
                row[label] = {
                    "exit": code,
                    "stdout": _sha(stdout.getvalue()),
                    "stderr": _sha(stderr.getvalue()),
                }
    finally:
        os.chdir(old_cwd)
        if old_color is None:
            os.environ.pop("TM_COLOR", None)
        else:
            os.environ["TM_COLOR"] = old_color
    return out


@pytest.fixture(scope="module")
def outputs():
    return corpus_outputs()


@pytest.mark.parametrize("name", [p.name for p in corpus_files()])
def test_corpus_outputs_match_golden_digests(name, outputs):
    golden = json.loads(GOLDEN.read_text())[name]
    assert set(golden) == set(COMMANDS)
    for label, want in golden.items():
        assert outputs[name][label] == want, f"{name}: tm {label}"


def test_golden_covers_every_corpus_file():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == [p.name for p in corpus_files()]
    # a name outside the corpus is refused with the bundled names
    with pytest.raises(FileNotFoundError) as excinfo:
        corpus_path("nope.tm")
    assert str(excinfo.value) == f"no corpus file 'nope.tm' (have: {', '.join(sorted(golden))})"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(corpus_outputs(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
