"""Shared test helpers: random model generators and independent oracles."""

from __future__ import annotations

import json
import random
import re

from tmkit.behavior import Chronology
from tmkit.core import STAGE_KIND_NAMES, Model, StageKind
from tmkit.diagnostics import Diagnostic, Severity, SourceSpan
from tmkit.dsl.lexer import KEYWORDS, Token, TokenKind
from tmkit.sim import Trace

KINDS = list(StageKind)

# The stage-wiring matrix restated literally, independent of the
# implementation's tables: the oracle side of the legality check.
ORACLE_LEGAL = {
    ("create", "process", True),
    ("create", "release", True),
    ("receive", "process", True),
    ("receive", "release", True),
    ("process", "release", True),
    ("release", "transfer", True),
    ("transfer", "receive", True),
    ("transfer", "transfer", False),
}


def oracle_flow_illegal(model: Model) -> set[int]:
    """Brute-force per-edge legality check; returns offending edge ids."""
    bad = set()
    for edge in model.flows:
        src = model.stages[edge.from_stage]
        dst = model.stages[edge.to_stage]
        key = (src.kind.value, dst.kind.value, src.thimac == dst.thimac)
        if key not in ORACLE_LEGAL:
            bad.add(edge.id)
    return bad


def oracle_has_cycle(nodes: list[str], edges: list[tuple[str, str]]) -> bool:
    """Plain DFS cycle search over a digraph."""
    adj: dict[str, list[str]] = {n: [] for n in nodes}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, [])
    state: dict[str, int] = {}

    def visit(node: str) -> bool:
        state[node] = 1
        for nxt in adj[node]:
            if state.get(nxt) == 1:
                return True
            if state.get(nxt, 0) == 0 and visit(nxt):
                return True
        state[node] = 2
        return False

    return any(state.get(n, 0) == 0 and visit(n) for n in adj)


def enumerate_linear_extensions(chronology: Chronology) -> list[list[str]]:
    """All linear extensions, by exhaustive backtracking over prefixes."""
    nodes = list(chronology.nodes)
    preds: dict[str, set[str]] = {n: set() for n in nodes}
    for a, b in chronology.edges:
        preds[b].add(a)
    out: list[list[str]] = []
    prefix: list[str] = []
    placed: set[str] = set()

    def extend() -> None:
        if len(prefix) == len(nodes):
            out.append(list(prefix))
            return
        for node in nodes:
            if node in placed or not preds[node] <= placed:
                continue
            prefix.append(node)
            placed.add(node)
            extend()
            placed.discard(node)
            prefix.pop()

    extend()
    return out


def random_model(
    rng: random.Random,
    max_thimacs: int = 4,
    max_stages: int = 8,
    max_flows: int = 10,
    nested: bool = True,
) -> Model:
    """A structurally well-formed model with arbitrary (often illegal) flows."""
    model = Model()
    thimacs = []
    for i in range(rng.randint(1, max_thimacs)):
        parent = None
        if nested and thimacs and rng.random() < 0.3:
            parent = rng.choice(thimacs)
        thimacs.append(model.add_thimac(f"t{i}", parent))
    stage_ids = []
    budget = rng.randint(1, max_stages)
    while len(stage_ids) < budget:
        tid = rng.choice(thimacs)
        available = [k for k in KINDS if k not in model.thimacs[tid].stages]
        if not available:
            if all(len(model.thimacs[t].stages) == 5 for t in thimacs):
                break
            continue
        stage_ids.append(model.add_stage(tid, rng.choice(available)))
    if len(stage_ids) >= 2:
        for _ in range(rng.randint(0, max_flows)):
            a, b = rng.sample(stage_ids, 2)
            model.add_flow(a, b)
        for _ in range(rng.randint(0, 3)):
            a = rng.choice(stage_ids)
            b = rng.choice(stage_ids)
            model.add_trigger(a, b)
    return model


def scan_thimac(model: Model, path: str) -> int | None:
    """``Model.find_thimac`` by scanning each scope's children in order."""
    scope = model.roots
    current = None
    for part in path.split("."):
        current = next((t for t in scope if model.thimacs[t].name == part), None)
        if current is None:
            return None
        scope = model.thimacs[current].children
    return current


def scan_stage(model: Model, path: str) -> int | None:
    """``Model.find_stage`` over ``scan_thimac``: a trailing stage kind
    names that stage, a bare thimac path its transfer port."""
    parts = path.split(".")
    kind = StageKind.TRANSFER
    if parts[-1] in STAGE_KIND_NAMES:
        kind = StageKind.from_name(parts.pop())
    if not parts:
        return None
    tid = scan_thimac(model, ".".join(parts))
    return None if tid is None else model.thimacs[tid].stages.get(kind)


def scan_edge(edges, src: int, dst: int):
    """The first edge of ``edges`` from ``src`` to ``dst``, or None."""
    return next((e for e in edges if e.from_stage == src and e.to_stage == dst), None)


def random_legal_chain_model(rng: random.Random, machines: int = 3) -> Model:
    """A simplified-style model whose flows all admit legal expansion.

    Machines hold create/process stages plus optional ports; edges skip
    release/transfer/receive the way simplified diagrams do.
    """
    model = Model()
    heads = []
    tails = []
    for i in range(rng.randint(2, machines + 1)):
        tid = model.add_thimac(f"m{i}")
        create = model.add_stage(tid, StageKind.CREATE)
        if rng.random() < 0.6:
            proc = model.add_stage(tid, StageKind.PROCESS)
            model.add_flow(create, proc)
            tails.append(proc)
        else:
            tails.append(create)
        heads.append(tid)
    # chain machine i's tail to machine i+1's entry stage
    for src_tail, dst_tid in zip(tails, heads[1:]):
        dst_thimac = model.thimacs[dst_tid]
        entry = dst_thimac.stages.get(StageKind.PROCESS) or dst_thimac.stages.get(
            StageKind.CREATE
        )
        dst = model.thimacs[dst_tid].stages.get(StageKind.PROCESS)
        if dst is None:
            dst = model.add_stage(dst_tid, StageKind.RECEIVE)
        del entry
        if src_tail != dst:
            model.add_flow(src_tail, dst)
    return model


def reference_trace_to_json(model: Model, trace: Trace) -> str:
    """The trace document through ``json.dumps``: the byte-format oracle
    for ``tmkit.sim.trace_to_json``."""
    doc = {
        "eventOrder": [
            {"event": e, "instance": i, "tick": t}
            for e, i, t in trace.event_order
        ],
        "firings": [
            {
                "step": f.step,
                "event": f.event,
                "instance": f.instance,
                "element": model.qualified_name(f.element),
                "kind": f.kind.value,
                "token": f.token,
            }
            for f in trace.firings
        ],
        "finalTokens": [
            {
                "id": t.id,
                "thing": t.thing,
                "location": model.qualified_name(t.location),
            }
            for t in trace.final_tokens
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def random_digraph(
    rng: random.Random, max_nodes: int = 10, edge_prob: float = 0.25
) -> tuple[list[str], list[tuple[str, str]]]:
    count = rng.randint(1, max_nodes)
    nodes = [f"E{i}" for i in range(count)]
    edges = []
    for a in nodes:
        for b in nodes:
            if a != b and rng.random() < edge_prob:
                edges.append((a, b))
    return nodes, edges


_NODE_LINE = re.compile(r'^\s*"[^"]+"\s*\[')
_EDGE_LINE = re.compile(r'^\s*"[^"]+"\s*->\s*"[^"]+"')


def read_dot(text: str) -> dict:
    """Minimal DOT reader: counts clusters, node lines, and edge lines."""
    nodes = 0
    edges = 0
    clusters = 0
    dashed_edges = 0
    for line in text.splitlines():
        if line.strip().startswith("subgraph cluster_"):
            clusters += 1
        elif _EDGE_LINE.match(line):
            edges += 1
            if "style=dashed" in line:
                dashed_edges += 1
        elif _NODE_LINE.match(line):
            nodes += 1
    return {
        "nodes": nodes,
        "edges": edges,
        "clusters": clusters,
        "dashed_edges": dashed_edges,
    }


_PUNCT = {
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    ";": TokenKind.SEMI,
    ".": TokenKind.DOT,
    ",": TokenKind.COMMA,
    "@": TokenKind.AT,
}


def reference_tokenize(
    text: str, file: str
) -> tuple[list[Token], list[Diagnostic]]:
    """The per-character tokenizer the regex lexer replaced: the oracle for
    ``tmkit.dsl.lexer.tokenize``."""
    tokens: list[Token] = []
    diags: list[Diagnostic] = []
    line, col = 1, 1
    i, n = 0, len(text)

    def advance(count: int = 1) -> None:
        nonlocal i, line, col
        for _ in range(count):
            if i < n and text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance()
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                advance()
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "*":
            start = SourceSpan(file, line, col, line, col + 1)
            advance(2)
            closed = False
            while i < n:
                if text[i] == "*" and i + 1 < n and text[i + 1] == "/":
                    advance(2)
                    closed = True
                    break
                advance()
            if not closed:
                diags.append(
                    Diagnostic(
                        Severity.ERROR, "LEX", "unterminated block comment", start
                    )
                )
            continue

        start_line, start_col = line, col
        if ch == "-" and i + 1 < n and text[i + 1] == ">":
            advance(2)
            tokens.append(
                Token(TokenKind.ARROW, "->", start_line, start_col, line, col - 1)
            )
            continue
        if ch == "~" and i + 1 < n and text[i + 1] == ">":
            advance(2)
            tokens.append(
                Token(TokenKind.DASH_ARROW, "~>", start_line, start_col, line, col - 1)
            )
            continue
        if ch in _PUNCT:
            advance()
            tokens.append(
                Token(_PUNCT[ch], ch, start_line, start_col, line, col - 1)
            )
            continue
        if ch == '"':
            advance()
            buf = []
            terminated = False
            while i < n:
                c = text[i]
                if c == '"':
                    advance()
                    terminated = True
                    break
                if c == "\n":
                    break
                if c == "\\" and i + 1 < n:
                    advance()
                    esc = text[i]
                    buf.append({"n": "\n", "t": "\t"}.get(esc, esc))
                    advance()
                    continue
                buf.append(c)
                advance()
            if not terminated:
                diags.append(
                    Diagnostic(
                        Severity.ERROR,
                        "LEX",
                        "unterminated string literal",
                        SourceSpan(file, start_line, start_col, line, col),
                    )
                )
            tokens.append(
                Token(
                    TokenKind.STRING,
                    "".join(buf),
                    start_line,
                    start_col,
                    line,
                    max(start_col, col - 1),
                )
            )
            continue
        if "0" <= ch <= "9":  # str.isdigit also accepts digits such as "²"
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            word = text[i:j]
            advance(j - i)
            tokens.append(
                Token(TokenKind.INT, word, start_line, start_col, line, col - 1)
            )
            continue
        if ch.isalpha() and ch.isascii():
            j = i
            while j < n and (text[j].isalnum() and text[j].isascii() or text[j] == "_"):
                j += 1
            word = text[i:j]
            advance(j - i)
            kind = TokenKind.KEYWORD if word in KEYWORDS else TokenKind.IDENT
            tokens.append(
                Token(kind, word, start_line, start_col, line, col - 1)
            )
            continue
        diags.append(
            Diagnostic(
                Severity.ERROR,
                "LEX",
                f"unexpected character {ch!r}",
                SourceSpan(file, start_line, start_col, start_line, start_col),
            )
        )
        advance()

    tokens.append(Token(TokenKind.EOF, "", line, col, line, col))
    return tokens, diags
