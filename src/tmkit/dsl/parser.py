"""Recursive-descent parser and lowering to core models.

Parsing recovers at statement boundaries (semicolons and braces), so a
single run reports every diagnosable problem it can. Chronology
statements name only events, so the parser builds the chronology
itself. Lowering happens in two passes: thimac declarations first,
then flows, triggers and events, which may therefore reference thimacs
declared later in the file.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import graph
from ..behavior import Chronology, EventDef, containment_cycles
from ..core import Model, StageKind, STAGE_KIND_NAMES
from ..diagnostics import Diagnostic, Severity, SourceSpan, has_errors, sorted_diagnostics
from ..errors import DuplicateName, DuplicateStageKind
from .lexer import Token, TokenKind, tokenize


@dataclass
class ParseResult:
    model: Model | None
    events: list[EventDef]
    chronology: Chronology | None
    diagnostics: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return self.model is not None


# -- statement-level AST ----------------------------------------------


@dataclass
class _Path:
    segments: list[str]
    span: SourceSpan

    def text(self) -> str:
        return ".".join(self.segments)


@dataclass
class _StageDecl:
    kind_name: str
    annotation: int | None
    span: SourceSpan


@dataclass
class _ThimacDecl:
    name: str
    annotation: int | None
    span: SourceSpan
    stages: list[_StageDecl] = field(default_factory=list)
    children: list["_ThimacDecl"] = field(default_factory=list)


@dataclass
class _FlowStmt:
    paths: list[_Path]
    span: SourceSpan


@dataclass
class _DashStmt:
    keyword: str  # trigger | memory
    src: _Path
    dst: _Path
    span: SourceSpan


@dataclass
class _EventDecl:
    id: str
    label: str | None
    region: list[_Path]
    repeat: int | None
    contains: list[str]
    span: SourceSpan


class _Parser:
    def __init__(self, tokens: list[Token], file: str) -> None:
        self.tokens = tokens
        self.file = file
        self.pos = 0
        self.diagnostics: list[Diagnostic] = []
        self.thimacs: list[_ThimacDecl] = []
        self.flows: list[_FlowStmt] = []
        self.dashes: list[_DashStmt] = []
        self.events: list[_EventDecl] = []
        # chronology statements name only events, so need no lowering
        self.chronology: Chronology | None = None

    # token helpers

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def at(self, kind: TokenKind, text: str | None = None) -> bool:
        return self.cur.kind is kind and (text is None or self.cur.text == text)

    def at_keyword(self, *words: str) -> bool:
        return self.cur.kind is TokenKind.KEYWORD and self.cur.text in words

    def take(self) -> Token:
        tok = self.cur
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    def error(self, message: str, span: SourceSpan | None = None) -> None:
        self.diagnostics.append(
            Diagnostic(
                Severity.ERROR, "SYNTAX", message, span or self.cur.span(self.file)
            )
        )

    def expect(self, kind: TokenKind, what: str) -> Token | None:
        if self.cur.kind is kind:
            return self.take()
        self.error(f"expected {what}, found {self.cur.kind.value} '{self.cur.text}'")
        return None

    def sync_statement(self) -> None:
        """Skip to just past the next ';' (or stop before '}'/EOF)."""
        while True:
            if self.cur.kind is TokenKind.SEMI:
                self.take()
                return
            if self.cur.kind in (TokenKind.RBRACE, TokenKind.EOF):
                return
            self.take()

    # grammar

    def parse(self) -> None:
        while self.cur.kind is not TokenKind.EOF:
            if self.at_keyword("thimac"):
                decl = self.thimac_decl()
                if decl:
                    self.thimacs.append(decl)
            elif self.at_keyword("flow"):
                self.flow_stmt()
            elif self.at_keyword("trigger", "memory"):
                self.dash_stmt()
            elif self.at_keyword("event"):
                self.event_decl()
            elif self.at_keyword("chronology"):
                self.chrono_decl()
            else:
                self.error(
                    "expected a declaration (thimac, flow, trigger, event, "
                    f"chronology), found '{self.cur.text}'"
                )
                self.sync_statement()
                if self.cur.kind is TokenKind.RBRACE:
                    self.take()

    def annot(self) -> int | None:
        if self.cur.kind is TokenKind.AT:
            self.take()
            tok = self.expect(TokenKind.INT, "an integer annotation")
            return int(tok.text) if tok else None
        return None

    def thimac_head(self) -> tuple[_ThimacDecl | None, bool]:
        """``thimac NAME @n {``: the declaration, and whether its body opened."""
        self.take()  # thimac
        name_tok = self.expect(TokenKind.IDENT, "a thimac name")
        if name_tok is None:
            self.sync_statement()
            return None, False
        annotation = self.annot()
        decl = _ThimacDecl(name_tok.text, annotation, name_tok.span(self.file))
        if self.expect(TokenKind.LBRACE, "'{'") is None:
            self.sync_statement()
            return decl, False
        return decl, True

    def thimac_decl(self) -> _ThimacDecl | None:
        """A thimac and its nested bodies, with one stack of open bodies."""
        decl, opened = self.thimac_head()
        open_bodies = [decl] if opened else []
        while open_bodies:
            if self.at(TokenKind.RBRACE) or self.cur.kind is TokenKind.EOF:
                self.expect(TokenKind.RBRACE, "'}'")
                open_bodies.pop()
            elif self.at_keyword("stage"):
                stage = self.stage_decl()
                if stage:
                    open_bodies[-1].stages.append(stage)
            elif self.at_keyword("thimac"):
                child, opened = self.thimac_head()
                if child:
                    open_bodies[-1].children.append(child)
                if opened:
                    open_bodies.append(child)
            else:
                self.error(
                    f"expected 'stage' or 'thimac' inside thimac body, "
                    f"found '{self.cur.text}'"
                )
                self.sync_statement()
        return decl

    def stage_decl(self) -> _StageDecl | None:
        self.take()  # stage
        tok = self.cur
        if tok.kind is TokenKind.KEYWORD and tok.text in STAGE_KIND_NAMES:
            self.take()
            annotation = self.annot()
            self.expect(TokenKind.SEMI, "';'")
            return _StageDecl(tok.text, annotation, tok.span(self.file))
        self.error(
            f"expected a stage kind ({', '.join(STAGE_KIND_NAMES)}), "
            f"found '{tok.text}'"
        )
        self.sync_statement()
        return None

    def path(self) -> _Path | None:
        first = self.cur
        segments: list[str] = []
        if first.kind is TokenKind.IDENT:
            segments.append(self.take().text)
        elif first.kind is TokenKind.KEYWORD and first.text in STAGE_KIND_NAMES:
            self.error("a path must start with a thimac name, not a stage kind")
            self.take()
            return None
        else:
            self.error(f"expected a path, found '{first.text}'")
            return None
        last = first
        while self.cur.kind is TokenKind.DOT:
            self.take()
            seg = self.cur
            if seg.kind is TokenKind.IDENT or (
                seg.kind is TokenKind.KEYWORD and seg.text in STAGE_KIND_NAMES
            ):
                last = self.take()
                segments.append(last.text)
                if last.text in STAGE_KIND_NAMES and self.cur.kind is TokenKind.DOT:
                    self.error("a stage kind may only end a path")
                    return None
            else:
                self.error(f"expected a path segment, found '{seg.text}'")
                return None
        span = SourceSpan(
            self.file, first.line, first.col, last.end_line, last.end_col
        )
        return _Path(segments, span)

    def flow_stmt(self) -> None:
        start = self.take()  # flow
        paths: list[_Path] = []
        p = self.path()
        if p is None:
            self.sync_statement()
            return
        paths.append(p)
        hops = 0
        while self.cur.kind is TokenKind.ARROW:
            self.take()
            p = self.path()
            if p is None:
                self.sync_statement()
                return
            paths.append(p)
            hops += 1
        if hops == 0:
            self.error("a flow statement needs at least one '->'")
            self.sync_statement()
            return
        self.expect(TokenKind.SEMI, "';'")
        self.flows.append(_FlowStmt(paths, start.span(self.file)))

    def dash_stmt(self) -> None:
        keyword = self.take()  # trigger | memory
        src = self.path()
        if src is None:
            self.sync_statement()
            return
        if self.cur.kind is not TokenKind.DASH_ARROW:
            self.error(f"expected '~>' in {keyword.text} statement")
            self.sync_statement()
            return
        self.take()
        dst = self.path()
        if dst is None:
            self.sync_statement()
            return
        self.expect(TokenKind.SEMI, "';'")
        self.dashes.append(
            _DashStmt(keyword.text, src, dst, keyword.span(self.file))
        )

    def event_decl(self) -> None:
        self.take()  # event
        name_tok = self.expect(TokenKind.IDENT, "an event name")
        if name_tok is None:
            self.sync_statement()
            return
        label = None
        if self.cur.kind is TokenKind.STRING:
            label = self.take().text
        if self.expect(TokenKind.LBRACE, "'{'") is None:
            self.sync_statement()
            return
        region: list[_Path] = []
        repeat: int | None = None
        contains: list[str] = []
        if self.at_keyword("region"):
            self.take()
            if self.expect(TokenKind.LBRACE, "'{'") is not None:
                while not self.at(TokenKind.RBRACE) and self.cur.kind is not TokenKind.EOF:
                    p = self.path()
                    if p is None:
                        self.sync_statement()
                        continue
                    region.append(p)
                    self.expect(TokenKind.SEMI, "';'")
                self.expect(TokenKind.RBRACE, "'}'")
        else:
            self.error("an event body must start with a region block")
        if self.at_keyword("repeat"):
            rep_tok = self.take()
            count = self.expect(TokenKind.INT, "a repeat count")
            if count is not None:
                repeat = int(count.text)
                if repeat < 1:
                    self.error(
                        "repeat count must be at least 1",
                        rep_tok.span(self.file),
                    )
                    repeat = None
            self.expect(TokenKind.SEMI, "';'")
        if self.at_keyword("contains"):
            self.take()
            tok = self.expect(TokenKind.IDENT, "an event name")
            if tok is not None:
                contains.append(tok.text)
            while self.cur.kind is TokenKind.COMMA:
                self.take()
                tok = self.expect(TokenKind.IDENT, "an event name")
                if tok is not None:
                    contains.append(tok.text)
            self.expect(TokenKind.SEMI, "';'")
        self.expect(TokenKind.RBRACE, "'}'")
        self.events.append(
            _EventDecl(
                name_tok.text, label, region, repeat, contains,
                name_tok.span(self.file),
            )
        )

    def chrono_decl(self) -> None:
        self.take()  # chronology
        if self.chronology is None:
            self.chronology = Chronology()
        chrono = self.chronology
        if self.expect(TokenKind.LBRACE, "'{'") is None:
            self.sync_statement()
            return
        while not self.at(TokenKind.RBRACE) and self.cur.kind is not TokenKind.EOF:
            src = self.expect(TokenKind.IDENT, "an event name")
            if src is None:
                self.sync_statement()
                continue
            dst = None
            if self.cur.kind is TokenKind.ARROW:
                self.take()
                dst_tok = self.expect(TokenKind.IDENT, "an event name")
                if dst_tok is not None:
                    dst = dst_tok.text
            self.expect(TokenKind.SEMI, "';'")
            if chrono.span is None:
                chrono.span = src.span(self.file)
            if dst is None:
                chrono.add_node(src.text)
            else:
                chrono.add_edge(src.text, dst)
        self.expect(TokenKind.RBRACE, "'}'")


# -- lowering ----------------------------------------------------------


class _Lowering:
    def __init__(self, parser: _Parser) -> None:
        self.p = parser
        self.model = Model()
        self.diagnostics: list[Diagnostic] = []

    def diag(
        self, code: str, message: str, span: SourceSpan,
        severity: Severity = Severity.ERROR,
    ) -> None:
        self.diagnostics.append(Diagnostic(severity, code, message, span))

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

    def unresolved_thimac(self, path: _Path, kind: StageKind | None) -> None:
        # a path starts with a name, so its thimac segments are never empty
        segments = path.segments[:-1] if kind is not None else path.segments
        self.diag(
            "UNRESOLVED_PATH", f"no thimac at path '{'.'.join(segments)}'", path.span
        )

    def resolve_stage(self, path: _Path) -> int | None:
        """A path names a stage; one ending at a thimac means its port."""
        tid, kind = self.model.resolve(path.segments)
        if tid is None:
            self.unresolved_thimac(path, kind)
            return None
        if kind is None:
            return self.model.ensure_transfer(tid)
        return self.stage_of(path, tid, kind)

    def stage_of(self, path: _Path, tid: int, kind: StageKind) -> int | None:
        sid = self.model.thimacs[tid].stages.get(kind)
        if sid is None:
            self.diag(
                "UNRESOLVED_PATH",
                f"thimac '{'.'.join(path.segments[:-1])}' has no {kind.value} stage",
                path.span,
            )
        return sid

    def lower_flows(self) -> None:
        for stmt in self.p.flows:
            for src_path, dst_path in zip(stmt.paths, stmt.paths[1:]):
                src = self.resolve_stage(src_path)
                dst = self.resolve_stage(dst_path)
                if src is None or dst is None:
                    continue
                if src == dst:
                    self.diag(
                        "UNRESOLVED_PATH",
                        "flow endpoints coincide at "
                        f"'{self.model.qualified_name(src)}'",
                        stmt.span,
                    )
                    continue
                if self.model.find_flow(src, dst) is not None:
                    self.diag(
                        "DUPLICATE_EDGE",
                        "duplicate flow "
                        f"{self.model.qualified_name(src)} -> "
                        f"{self.model.qualified_name(dst)} collapsed",
                        stmt.span,
                        Severity.WARNING,
                    )
                    continue
                self.model.add_flow(src, dst, span=stmt.span)

    def lower_dashes(self) -> None:
        for stmt in self.p.dashes:
            src = self.resolve_stage(stmt.src)
            dst = self.resolve_stage(stmt.dst)
            if src is None or dst is None:
                continue
            if stmt.keyword == "trigger":
                self.model.add_trigger(src, dst, span=stmt.span)
            else:
                self.model.add_memory(src, dst, span=stmt.span)

    def region_members(self, path: _Path) -> set[int]:
        """A region path: a stage, or a thimac meaning all its stages."""
        tid, kind = self.model.resolve(path.segments)
        if tid is None:
            self.unresolved_thimac(path, kind)
            return set()
        if kind is not None:
            sid = self.stage_of(path, tid, kind)
            return {sid} if sid is not None else set()
        out: set[int] = set()
        for cur, _, entering in graph.tree([tid], self.model.children):
            if entering:
                out.update(self.model.thimacs[cur].stages.values())
        if not out:
            self.diag(
                "UNRESOLVED_PATH",
                f"thimac '{path.text()}' has no stages to include",
                path.span,
            )
        return out

    def lower_events(self) -> list[EventDef]:
        events: list[EventDef] = []
        seen: dict[str, SourceSpan] = {}
        for decl in self.p.events:
            if decl.id in seen:
                self.diag(
                    "DUPLICATE_DEF", f"event '{decl.id}' already declared", decl.span
                )
                continue
            seen[decl.id] = decl.span
            region: set[int] = set()
            for path in decl.region:
                region |= self.region_members(path)
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
        declared = {e.id for e in events}
        for event in events:
            for sub in event.subevents:
                if sub not in declared:
                    self.diag(
                        "UNRESOLVED_PATH",
                        f"event '{event.id}' contains undeclared event '{sub}'",
                        event.span,
                    )
        self._check_containment_cycles(events)
        return events

    def _check_containment_cycles(self, events: list[EventDef]) -> None:
        by_id = {e.id: e for e in events}
        for cycle in containment_cycles(events):
            self.diag(
                "EVENT_CYCLE",
                f"event containment cycle: {' -> '.join(cycle)}",
                by_id[cycle[0]].span,
            )


def parse(text: str, file: str = "<input>") -> ParseResult:
    """Parse TM source text into a model plus behavior definitions."""
    tokens, diagnostics = tokenize(text, file)
    parser = _Parser(tokens, file)
    parser.parse()
    lowering = _Lowering(parser)
    lowering.declare_thimacs()
    lowering.lower_flows()
    lowering.lower_dashes()
    events = lowering.lower_events()
    diagnostics = sorted_diagnostics(
        diagnostics + parser.diagnostics + lowering.diagnostics
    )
    model = None if has_errors(diagnostics) else lowering.model
    return ParseResult(model, events, parser.chronology, diagnostics)
