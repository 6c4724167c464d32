"""Tokenizer for the TM surface syntax."""

from __future__ import annotations

import enum
import re
from bisect import bisect_right
from typing import NamedTuple

from ..core import STAGE_KIND_NAMES
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
    *STAGE_KIND_NAMES,
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


class Token(NamedTuple):
    """One lexeme with its 1-based start and (inclusive) end position.

    A named tuple rather than a dataclass: the lexer builds one per
    lexeme, and tuple construction is about twice as fast."""

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
    "->": TokenKind.ARROW,
    "~>": TokenKind.DASH_ARROW,
}

# A word is an identifier unless it is a keyword. Words and integers are
# ASCII only: ``str.isalpha`` and ``str.isdigit`` would also accept
# characters such as "é" and "²".
_WORD = "[A-Za-z][A-Za-z0-9_]*"
_WHOLE_WORD = re.compile(_WORD)


def is_identifier(text: str) -> bool:
    """Whether ``text`` lexes as one identifier token."""
    return _WHOLE_WORD.fullmatch(text) is not None and text not in KEYWORDS


# Each match skips blanks and complete comments, then takes one lexeme
# (or, at the end of the text, none). ``BAD`` takes any single
# character the other alternatives refuse, so matches tile the whole
# text and ``finditer`` never skips input.
_SCANNER = re.compile(
    r"""
    (?: [ \t\r\n]+ | //[^\n]* | /\*.*?\*/ )*
    (?:
        (?P<WORD>"""
    + _WORD
    + r""")
      | (?P<PUNCT>->|~>|[{};.,@])
      | (?P<INT>[0-9]+)
      | (?P<STRING>"(?:[^"\\\n]+|\\.?)*(?P<CLOSE>")?)
      | (?P<OPEN_COMMENT>/\*.*)
      | (?P<BAD>.)
      | \Z
    )
    """,
    re.VERBOSE | re.DOTALL,
)
_NEWLINE = re.compile("\n")
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPES = {"n": "\n", "t": "\t"}


def _unescape(match: re.Match) -> str:
    return _ESCAPES.get(match[1], match[1])


def tokenize(text: str, file: str) -> tuple[list[Token], list[Diagnostic]]:
    """Split ``text`` into tokens (ending with EOF) and lexical diagnostics.

    Lines count "\n" only; columns count characters from 1, so a tab or
    a "\r" is one column. A string stops before an unescaped newline; a
    backslash escapes any character, a newline included.
    """
    # offset of the first character of each line; line n starts at [n - 1]
    line_starts = [0]
    line_starts += [m.end() for m in _NEWLINE.finditer(text)]
    tokens: list[Token] = []
    diags: list[Diagnostic] = []
    append = tokens.append
    for m in _SCANNER.finditer(text):
        index = m.lastindex
        if index is None:  # blanks and comments up to the end of the text
            continue
        group = m.lastgroup
        lexeme = m.group(index)
        start = m.start(index)
        line = bisect_right(line_starts, start)
        col = start - line_starts[line - 1] + 1
        if group == "WORD":
            kind = TokenKind.KEYWORD if lexeme in KEYWORDS else TokenKind.IDENT
            append(Token(kind, lexeme, line, col, line, col + len(lexeme) - 1))
        elif group == "PUNCT":
            append(Token(_PUNCT[lexeme], lexeme, line, col, line, col + len(lexeme) - 1))
        elif group == "INT":
            append(Token(TokenKind.INT, lexeme, line, col, line, col + len(lexeme) - 1))
        elif group == "STRING":
            terminated = m.group("CLOSE") is not None
            body = lexeme[1:-1] if terminated else lexeme[1:]
            if "\\" in body:
                body = _ESCAPE.sub(_unescape, body)
            end = m.end()
            end_line = bisect_right(line_starts, end)
            end_col = end - line_starts[end_line - 1] + 1
            if not terminated:
                diags.append(
                    Diagnostic(
                        Severity.ERROR,
                        "LEX",
                        "unterminated string literal",
                        SourceSpan(file, line, col, end_line, end_col),
                    )
                )
            append(
                Token(
                    TokenKind.STRING, body, line, col, end_line, max(col, end_col - 1)
                )
            )
        elif group == "OPEN_COMMENT":
            diags.append(
                Diagnostic(
                    Severity.ERROR,
                    "LEX",
                    "unterminated block comment",
                    SourceSpan(file, line, col, line, col + 1),
                )
            )
        else:
            diags.append(
                Diagnostic(
                    Severity.ERROR,
                    "LEX",
                    f"unexpected character {lexeme!r}",
                    SourceSpan(file, line, col, line, col),
                )
            )
    line = len(line_starts)
    col = len(text) - line_starts[-1] + 1
    append(Token(TokenKind.EOF, "", line, col, line, col))
    return tokens, diags
