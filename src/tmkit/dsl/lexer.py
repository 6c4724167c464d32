"""Tokenizer for the TM surface syntax."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..diagnostics import Diagnostic, Severity, SourceSpan

KEYWORDS = {
    "thimac",
    "stage",
    "flow",
    "trigger",
    "memory",
    "event",
    "region",
    "repeat",
    "contains",
    "chronology",
    "create",
    "process",
    "release",
    "transfer",
    "receive",
    "arrive",
    "accept",
}


class TokenKind(enum.Enum):
    IDENT = "identifier"
    KEYWORD = "keyword"
    INT = "integer"
    STRING = "string"
    LBRACE = "{"
    RBRACE = "}"
    SEMI = ";"
    DOT = "."
    COMMA = ","
    AT = "@"
    ARROW = "->"
    DASH_ARROW = "~>"
    EOF = "end of input"


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    line: int
    col: int
    end_line: int
    end_col: int

    def span(self, file: str) -> SourceSpan:
        return SourceSpan(file, self.line, self.col, self.end_line, self.end_col)


_PUNCT = {
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    ";": TokenKind.SEMI,
    ".": TokenKind.DOT,
    ",": TokenKind.COMMA,
    "@": TokenKind.AT,
}


def tokenize(text: str, file: str) -> tuple[list[Token], list[Diagnostic]]:
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
