"""Parser and lowering to core models.

The parser reads the lexer's token columns (``lexer.Tokens``) with a
plain index: one loop per statement that compares kinds and texts in
place, with no token object, no per-token method call and no
recursion (nested thimac bodies are a stack). Line and column are
worked out only when a span is built: once per declared element, and
once per diagnostic. A path keeps the indexes of its first and last
tokens and builds its span only if lowering reports it.

Parsing recovers at statement boundaries (semicolons and braces), so a
single run reports every diagnosable problem it can. A well-formed
``memory P ~> Q;`` statement is parsed like a trigger and reported as
MEMORY_UNSUPPORTED; its endpoints are not resolved. Chronology
statements name only events, so the parser builds the chronology
itself. Lowering happens in two passes: thimac declarations first,
then one loop over every flow statement and then every trigger
statement (a trigger is a chain of two paths), followed by events; so
edges and events may reference thimacs declared later in the file.
"""

from __future__ import annotations

from itertools import pairwise

from .. import graph
from ..behavior import Chronology, EventDef, check_containment
from ..core import Model, StageKind, STAGE_KIND_NAMES
from ..diagnostics import (
    Diagnostic, Record, Severity, SourceSpan, collector_paused, has_errors,
    sorted_diagnostics,
)
from ..errors import DuplicateName, DuplicateStageKind, UnknownEndpoint
from .lexer import TokenKind, Tokens, string_value, tokenize


class ParseResult(Record):
    __slots__ = _fields = ("model", "events", "chronology", "diagnostics")

    def __init__(
        self, model: Model | None, events: list[EventDef],
        chronology: Chronology | None, diagnostics: list[Diagnostic],
    ) -> None:
        self.model, self.events = model, events
        self.chronology, self.diagnostics = chronology, diagnostics

    @property
    def ok(self) -> bool:
        return self.model is not None


def memory_unsupported(span: SourceSpan | None = None) -> Diagnostic:
    """The error for a ``memory`` relation, which the parser and
    ``from_json`` report where they read one: the notation gives it no
    meaning, so no model carries it."""
    return Diagnostic(
        Severity.ERROR,
        "MEMORY_UNSUPPORTED",
        "the 'memory' relation is reserved notation with no defined "
        "semantics; use a trigger instead",
        span,
    )


def add_edge(
    model: Model, arrow: str, src: int, dst: int, span: SourceSpan | None = None
) -> list[Diagnostic]:
    """Add a flow (``->``) or a trigger (``~>``) from ``src`` to ``dst``,
    as the parser and ``from_json`` do for every edge they read. A
    repeated edge collapses to the first one, and the one DUPLICATE_EDGE
    warning that reports it is returned; a new edge returns none."""
    flow = arrow == "->"
    before = len(model.edges)
    (model.add_flow if flow else model.add_trigger)(src, dst, span)
    if len(model.edges) > before:
        return []
    name = model.qualified_name
    return [
        Diagnostic(
            Severity.WARNING,
            "DUPLICATE_EDGE",
            f"duplicate {'flow' if flow else 'trigger'} {name(src)} {arrow} "
            f"{name(dst)} collapsed",
            span,
        )
    ]


def stage_at(model: Model, segments: list[str]) -> int:
    """The stage a flow or trigger end names, in both front ends: a
    trailing stage kind names that stage, and a path that ends at a
    thimac names its transfer port, which is made if absent. Raises
    ``UnknownEndpoint`` if the path names neither."""
    tid, kind = model.resolve(segments)
    return _stage(model, segments, tid, kind)


def _stage(
    model: Model, segments: list[str], tid: int | None, kind: StageKind | None
) -> int:
    """``stage_at`` of a path that ``Model.resolve`` read as ``(tid, kind)``."""
    if tid is None:
        named = segments[:-1] if kind is not None else segments
        raise UnknownEndpoint(f"no thimac at path '{'.'.join(named)}'")
    if kind is None:
        return model.ensure_transfer(tid)
    sid = model.thimacs[tid].stages.get(kind)
    if sid is None:
        raise UnknownEndpoint(
            f"thimac '{'.'.join(segments[:-1])}' has no {kind.value} stage"
        )
    return sid


def stages_at(model: Model, segments: list[str]) -> list[int]:
    """The stages a region path names, in both front ends: one stage, or
    every stage of a thimac and of its parts. Raises ``UnknownEndpoint``
    as ``stage_at`` does, or if the thimac and its parts have no stage."""
    tid, kind = model.resolve(segments)
    if tid is None or kind is not None:
        return [_stage(model, segments, tid, kind)]
    stages = [
        sid
        for cur, _, entering in graph.tree([tid], model.children)
        if entering
        for sid in model.thimacs[cur].stages.values()
    ]
    if not stages:
        raise UnknownEndpoint(f"thimac '{'.'.join(segments)}' has no stages to include")
    return stages


# -- statement-level AST ----------------------------------------------
# Slotted classes without ``Record``'s ``==`` and ``repr``: lowering
# only reads them.


class _Path:
    """A path's segments and the tokens it was written with; its span is
    built only when a diagnostic asks for it."""

    __slots__ = ("segments", "tokens", "first", "last")

    def __init__(self, segments: list[str], tokens: Tokens, first: int, last: int) -> None:
        self.segments, self.tokens = segments, tokens
        self.first, self.last = first, last

    @property
    def span(self) -> SourceSpan:
        return self.tokens.span(self.first, self.last)


class _StageDecl:
    __slots__ = ("kind_name", "annotation", "span")

    def __init__(self, kind_name: str, annotation: int | None, span: SourceSpan) -> None:
        self.kind_name, self.annotation, self.span = kind_name, annotation, span


class _ThimacDecl:
    __slots__ = ("name", "annotation", "span", "stages", "children")

    def __init__(self, name: str, annotation: int | None, span: SourceSpan) -> None:
        self.name, self.annotation, self.span = name, annotation, span
        self.stages: list[_StageDecl] = []
        self.children: list[_ThimacDecl] = []


class _EdgeStmt:
    """A flow chain, or a trigger as a chain of two paths."""

    __slots__ = ("paths", "span")

    def __init__(self, paths: list[_Path], span: SourceSpan) -> None:
        self.paths, self.span = paths, span


class _EventDecl:
    __slots__ = ("id", "label", "region", "repeat", "contains", "span")

    def __init__(
        self, id: str, label: str | None, region: list[_Path], repeat: int | None,
        contains: list[str], span: SourceSpan,
    ) -> None:
        self.id, self.label, self.region = id, label, region
        self.repeat, self.contains, self.span = repeat, contains, span


# token kinds as module globals: the parser compares one per token, and
# a global lookup is cheaper than an attribute of the enum class
_IDENT = TokenKind.IDENT
_INT = TokenKind.INT
_STRING = TokenKind.STRING
_LBRACE = TokenKind.LBRACE
_RBRACE = TokenKind.RBRACE
_SEMI = TokenKind.SEMI
_DOT = TokenKind.DOT
_COMMA = TokenKind.COMMA
_AT = TokenKind.AT
_ARROW = TokenKind.ARROW
_DASH_ARROW = TokenKind.DASH_ARROW
_EOF = TokenKind.EOF


class _Parser:
    """Statements from the token columns.

    Each method takes the index of the token it starts at and returns
    the index just past what it consumed. The index never moves past
    EOF. A keyword is recognised by its text alone: every word that is a
    keyword lexes as one, and no other token's text is a word.
    """

    def __init__(self, tokens: Tokens) -> None:
        self.tokens = tokens
        self.kinds = tokens.kinds
        self.texts = tokens.texts
        self.diagnostics: list[Diagnostic] = []
        self.thimacs: list[_ThimacDecl] = []
        self.flows: list[_EdgeStmt] = []
        self.triggers: list[_EdgeStmt] = []
        self.events: list[_EventDecl] = []
        # chronology statements name only events, so need no lowering
        self.chronology: Chronology | None = None

    # diagnostics and recovery

    def error(self, i: int, message: str) -> None:
        """A syntax error spanning token ``i``."""
        self.diagnostics.append(
            Diagnostic(Severity.ERROR, "SYNTAX", message, self.tokens.span(i))
        )

    def found(self, i: int) -> str:
        """Token ``i``'s text as an error message quotes it."""
        return self.tokens[i].text

    def expected(self, i: int, what: str) -> None:
        kind = self.kinds[i].value
        self.error(i, f"expected {what}, found {kind} '{self.found(i)}'")

    def expect(self, i: int, kind: TokenKind, what: str) -> int:
        if self.kinds[i] is kind:
            return i + 1
        self.expected(i, what)
        return i

    def sync(self, i: int) -> int:
        """Just past the next ';' (or at the '}' or EOF before it)."""
        kinds = self.kinds
        while True:
            kind = kinds[i]
            if kind is _SEMI:
                return i + 1
            if kind is _RBRACE or kind is _EOF:
                return i
            i += 1

    def integer(self, i: int) -> int | None:
        text = self.texts[i]
        try:
            return int(text)
        except ValueError:  # over the interpreter's int-to-string digit limit
            self.error(i, f"integer literal too long ({len(text)} digits)")
            return None

    # grammar

    def parse(self) -> None:
        kinds, texts = self.kinds, self.texts
        i = 0
        while kinds[i] is not _EOF:
            word = texts[i]
            if word == "thimac":
                i = self.thimac_decl(i)
            elif word == "flow":
                i = self.flow_stmt(i)
            elif word == "trigger" or word == "memory":
                i = self.dash_stmt(i)
            elif word == "event":
                i = self.event_decl(i)
            elif word == "chronology":
                i = self.chrono_decl(i)
            else:
                self.error(
                    i,
                    "expected a declaration (thimac, flow, trigger, event, "
                    f"chronology), found '{self.found(i)}'",
                )
                i = self.sync(i)
                if kinds[i] is _RBRACE:
                    i += 1

    def annot(self, i: int) -> tuple[int | None, int]:
        """An optional ``@n``: its value and the index after it."""
        if self.kinds[i] is not _AT:
            return None, i
        i += 1
        if self.kinds[i] is _INT:
            return self.integer(i), i + 1
        self.expected(i, "an integer annotation")
        return None, i

    def thimac_head(self, i: int) -> tuple[_ThimacDecl | None, bool, int]:
        """``thimac NAME @n {``: the declaration, whether its body opened,
        and the index after it."""
        i += 1  # thimac
        if self.kinds[i] is not _IDENT:
            self.expected(i, "a thimac name")
            return None, False, self.sync(i)
        name = i
        annotation, i = self.annot(i + 1)
        decl = _ThimacDecl(self.texts[name], annotation, self.tokens.span(name))
        if self.kinds[i] is not _LBRACE:
            self.expected(i, "'{'")
            return decl, False, self.sync(i)
        return decl, True, i + 1

    def thimac_decl(self, i: int) -> int:
        """A thimac and its nested bodies, with one stack of open bodies."""
        kinds, texts = self.kinds, self.texts
        decl, opened, i = self.thimac_head(i)
        open_bodies = [decl] if opened else []
        while open_bodies:
            kind = kinds[i]
            word = texts[i]
            if kind is _RBRACE:
                open_bodies.pop()
                i += 1
            elif kind is _EOF:
                self.expected(i, "'}'")
                open_bodies.pop()
            elif word == "stage":
                i += 1
                kind_name = texts[i]
                if kind_name not in STAGE_KIND_NAMES:
                    self.error(
                        i,
                        f"expected a stage kind ({', '.join(STAGE_KIND_NAMES)}), "
                        f"found '{self.found(i)}'",
                    )
                    i = self.sync(i)
                    continue
                at = i
                annotation, i = self.annot(i + 1)
                i = self.expect(i, _SEMI, "';'")
                open_bodies[-1].stages.append(
                    _StageDecl(kind_name, annotation, self.tokens.span(at))
                )
            elif word == "thimac":
                child, opened, i = self.thimac_head(i)
                if child:
                    open_bodies[-1].children.append(child)
                if opened:
                    open_bodies.append(child)
            else:
                self.error(
                    i,
                    "expected 'stage' or 'thimac' inside thimac body, "
                    f"found '{self.found(i)}'",
                )
                i = self.sync(i)
        if decl:
            self.thimacs.append(decl)
        return i

    def path(self, i: int) -> tuple[_Path | None, int]:
        """A dotted path, or None after reporting why there is none."""
        kinds, texts = self.kinds, self.texts
        first = i
        if kinds[i] is not _IDENT:
            if texts[i] in STAGE_KIND_NAMES:
                self.error(i, "a path must start with a thimac name, not a stage kind")
                return None, i + 1
            self.error(i, f"expected a path, found '{self.found(i)}'")
            return None, i
        segments = [texts[i]]
        i += 1
        while kinds[i] is _DOT:
            i += 1
            segment = texts[i]
            if kinds[i] is _IDENT:
                segments.append(segment)
                i += 1
            elif segment in STAGE_KIND_NAMES:
                segments.append(segment)
                i += 1
                if kinds[i] is _DOT:
                    self.error(i, "a stage kind may only end a path")
                    return None, i
            else:
                self.error(i, f"expected a path segment, found '{self.found(i)}'")
                return None, i
        return _Path(segments, self.tokens, first, i - 1), i

    def flow_stmt(self, i: int) -> int:
        start = i  # flow
        path, i = self.path(i + 1)
        if path is None:
            return self.sync(i)
        paths = [path]
        while self.kinds[i] is _ARROW:
            path, i = self.path(i + 1)
            if path is None:
                return self.sync(i)
            paths.append(path)
        if len(paths) == 1:
            self.error(i, "a flow statement needs at least one '->'")
            return self.sync(i)
        i = self.expect(i, _SEMI, "';'")
        self.flows.append(_EdgeStmt(paths, self.tokens.span(start)))
        return i

    def dash_stmt(self, i: int) -> int:
        keyword = i  # trigger | memory
        src, i = self.path(i + 1)
        if src is None:
            return self.sync(i)
        if self.kinds[i] is not _DASH_ARROW:
            self.error(i, f"expected '~>' in {self.texts[keyword]} statement")
            return self.sync(i)
        dst, i = self.path(i + 1)
        if dst is None:
            return self.sync(i)
        i = self.expect(i, _SEMI, "';'")
        if self.texts[keyword] == "trigger":
            self.triggers.append(_EdgeStmt([src, dst], self.tokens.span(keyword)))
        else:
            self.diagnostics.append(memory_unsupported(self.tokens.span(keyword)))
        return i

    def event_decl(self, i: int) -> int:
        kinds, texts = self.kinds, self.texts
        i += 1  # event
        if kinds[i] is not _IDENT:
            self.expected(i, "an event name")
            return self.sync(i)
        name = i
        i += 1
        label = None
        if kinds[i] is _STRING:
            label = string_value(texts[i])
            i += 1
        if kinds[i] is not _LBRACE:
            self.expected(i, "'{'")
            return self.sync(i)
        i += 1
        region: list[_Path] = []
        repeat: int | None = None
        contains: list[str] = []
        if texts[i] == "region":
            i += 1
            if kinds[i] is not _LBRACE:
                self.expected(i, "'{'")
            else:
                i += 1
                while kinds[i] is not _RBRACE and kinds[i] is not _EOF:
                    path, i = self.path(i)
                    if path is None:
                        i = self.sync(i)
                        continue
                    region.append(path)
                    i = self.expect(i, _SEMI, "';'")
                i = self.expect(i, _RBRACE, "'}'")
        else:
            self.error(i, "an event body must start with a region block")
        if texts[i] == "repeat":
            at = i
            i += 1
            if kinds[i] is _INT:
                repeat = self.integer(i)
                i += 1
                if repeat is not None and repeat < 1:
                    self.error(at, "repeat count must be at least 1")
                    repeat = None
            else:
                self.expected(i, "a repeat count")
            i = self.expect(i, _SEMI, "';'")
        if texts[i] == "contains":
            while True:
                i += 1  # contains, or a comma
                if kinds[i] is _IDENT:
                    contains.append(texts[i])
                    i += 1
                else:
                    self.expected(i, "an event name")
                if kinds[i] is not _COMMA:
                    break
            i = self.expect(i, _SEMI, "';'")
        i = self.expect(i, _RBRACE, "'}'")
        self.events.append(
            _EventDecl(
                texts[name], label, region, repeat, contains, self.tokens.span(name)
            )
        )
        return i

    def chrono_decl(self, i: int) -> int:
        kinds, texts = self.kinds, self.texts
        i += 1  # chronology
        if self.chronology is None:
            self.chronology = Chronology()
        chrono = self.chronology
        if kinds[i] is not _LBRACE:
            self.expected(i, "'{'")
            return self.sync(i)
        i += 1
        while kinds[i] is not _RBRACE and kinds[i] is not _EOF:
            if kinds[i] is not _IDENT:
                self.expected(i, "an event name")
                i = self.sync(i)
                continue
            src = i
            i += 1
            dst = None
            if kinds[i] is _ARROW:
                i += 1
                if kinds[i] is _IDENT:
                    dst = texts[i]
                    i += 1
                else:
                    self.expected(i, "an event name")
            i = self.expect(i, _SEMI, "';'")
            if chrono.span is None:
                chrono.span = self.tokens.span(src)
            if dst is None:
                chrono.add_node(texts[src])
            else:
                chrono.add_edge(texts[src], dst)
        return self.expect(i, _RBRACE, "'}'")


# -- lowering ----------------------------------------------------------


class _Lowering:
    def __init__(self, parser: _Parser) -> None:
        self.p = parser
        self.model = Model()
        self.diagnostics: list[Diagnostic] = []

    def diag(self, code: str, message: str, span: SourceSpan) -> None:
        self.diagnostics.append(Diagnostic(Severity.ERROR, code, message, span))

    def declare_thimacs(self) -> None:
        """Declarations in preorder, so ids are allocated as written; a
        thimac that cannot be declared drops its whole body."""
        pending = [(decl, None) for decl in reversed(self.p.thimacs)]
        while pending:
            decl, parent = pending.pop()
            try:
                tid = self.model.add_thimac(
                    decl.name, parent, decl.annotation, decl.span
                )
            except DuplicateName as exc:
                self.diag("DUPLICATE_DEF", str(exc), decl.span)
                continue
            for stage in decl.stages:
                kind = STAGE_KIND_NAMES[stage.kind_name]
                try:
                    self.model.add_stage(tid, kind, stage.annotation, stage.span)
                except DuplicateStageKind as exc:
                    self.diag("DUPLICATE_DEF", str(exc), stage.span)
            pending.extend((child, tid) for child in reversed(decl.children))

    def resolve(self, path: _Path, read=stage_at):
        """What ``read`` finds at the path, or None, reported at its span."""
        try:
            return read(self.model, path.segments)
        except UnknownEndpoint as exc:
            self.diag("UNRESOLVED_PATH", str(exc), path.span)
            return None

    def lower_edges(self) -> None:
        """Every flow statement, then every trigger statement, one hop at
        a time: a hop's end is the next hop's start, so each path of a
        statement is read once, in order, just before the first hop that
        uses it is lowered, and a chain's interior path is reported once.
        The element ids are those of reading both ends of every hop, since
        a second read of a resolved path would allocate nothing.

        So each distinct path is read until it resolves, and its id is
        kept by its segments, as ``from_json`` keeps its ``ends``. A path
        that did not resolve is read, and reported, again where it
        recurs, since a later end may make the port it names."""
        ids: dict[tuple[str, ...], int] = {}

        def read(path: _Path) -> int | None:
            key = tuple(path.segments)
            found = ids.get(key)
            if found is None:
                found = self.resolve(path)
                if found is not None:
                    ids[key] = found
            return found

        for arrow, stmts in (("->", self.p.flows), ("~>", self.p.triggers)):
            for stmt in stmts:
                for src, dst in pairwise(map(read, stmt.paths)):
                    if src is not None and dst is not None:
                        self.diagnostics += add_edge(self.model, arrow, src, dst, stmt.span)

    def lower_events(self) -> list[EventDef]:
        events: list[EventDef] = []
        seen: set[str] = set()
        for decl in self.p.events:
            if decl.id in seen:
                self.diag(
                    "DUPLICATE_DEF", f"event '{decl.id}' already declared", decl.span
                )
                continue
            seen.add(decl.id)
            region: set[int] = set()
            for path in decl.region:
                region.update(self.resolve(path, stages_at) or ())
            events.append(
                EventDef(
                    decl.id,
                    decl.label,
                    region,
                    decl.repeat if decl.repeat is not None else 1,
                    list(decl.contains),
                    decl.span,
                )
            )
        self.diagnostics += check_containment(events, "UNRESOLVED_PATH")
        return events


@collector_paused
def parse(text: str, file: str = "<input>") -> ParseResult:
    """Parse TM source text into a model plus behavior definitions."""
    tokens, diagnostics = tokenize(text, file)
    parser = _Parser(tokens)
    parser.parse()
    lowering = _Lowering(parser)
    lowering.declare_thimacs()
    lowering.lower_edges()
    events = lowering.lower_events()
    diagnostics = sorted_diagnostics(
        diagnostics + parser.diagnostics + lowering.diagnostics
    )
    model = None if has_errors(diagnostics) else lowering.model
    return ParseResult(model, events, parser.chronology, diagnostics)
