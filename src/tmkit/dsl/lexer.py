"""Tokenizer for the TM surface syntax.

``tokenize`` returns the lexemes of a text as parallel columns
(``Tokens``): each token's kind, its text as written and its start
offset, plus the offset at which each line starts. No object is built
per lexeme. Line and column are worked out, by a bisect of the line
table, only when a span is built (``Tokens.span``): the parser asks
once per element or diagnostic, not once per token. Indexing a
``Tokens`` builds the ``Token`` record with positions, for tests and
for readers that want one lexeme at a time.
"""

from __future__ import annotations

import enum
import re
from bisect import bisect_right
from collections import namedtuple

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


# One lexeme with its 1-based start and (inclusive) end position. A
# string's ``text`` is its value: quotes dropped, escapes applied.
Token = namedtuple("Token", "kind text line col end_line end_col")


# A word is an identifier unless it is a keyword. Words and integers are
# ASCII only: ``str.isalpha`` and ``str.isdigit`` would also accept
# characters such as "é" and "²".
_WORD = "[A-Za-z][A-Za-z0-9_]*"
_WHOLE_WORD = re.compile(_WORD)


def is_identifier(text: str) -> bool:
    """Whether ``text`` lexes as one identifier token."""
    return _WHOLE_WORD.fullmatch(text) is not None and text not in KEYWORDS


# the characters of a string between its quotes
_STRING_CONTENT = r'(?:[^"\\\n]+|\\.?)*'
_STRING_VALUE = re.compile(f'"({_STRING_CONTENT})', re.DOTALL)

# Each match skips blanks and complete comments, then takes one lexeme
# (or, at the end of the text, none). Each token kind has its own group,
# so a match's ``lastindex`` gives the kind. ``BAD`` takes any single
# character the other alternatives refuse, so matches tile the whole
# text and ``finditer`` never skips input.
_SCANNER = re.compile(
    r"""
    (?: [ \t\r\n]+ | //[^\n]* | /\*.*?\*/ )*
    (?:
        (?P<IDENT> _WORD )
      | (?P<LBRACE>\{) | (?P<RBRACE>\}) | (?P<SEMI>;) | (?P<DOT>\.)
      | (?P<COMMA>,) | (?P<AT>@) | (?P<ARROW>->) | (?P<DASH_ARROW>~>)
      | (?P<INT>[0-9]+)
      | (?P<STRING>" _STRING_CONTENT (?P<CLOSE>")? )
      | (?P<OPEN_COMMENT>/\*.*)
      | (?P<BAD>.)
      | \Z
    )
    """.replace("_WORD", _WORD)
    .replace("_STRING_CONTENT", _STRING_CONTENT),
    re.VERBOSE | re.DOTALL,
)
# token kind by group index; None for the groups that make no token
_KIND_OF_GROUP: list[TokenKind | None] = [None] * (_SCANNER.groups + 1)
for _name, _index in _SCANNER.groupindex.items():
    _KIND_OF_GROUP[_index] = TokenKind.__members__.get(_name)
_OPEN_COMMENT = _SCANNER.groupindex["OPEN_COMMENT"]
_NEWLINE = re.compile("\n")
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPES = {"n": "\n", "t": "\t"}


def _unescape(match: re.Match) -> str:
    return _ESCAPES.get(match[1], match[1])


def string_value(lexeme: str) -> str:
    """The value of a string lexeme: quotes dropped, escapes applied. A
    backslash escapes any character, a newline included."""
    body = _STRING_VALUE.match(lexeme)[1]
    return _ESCAPE.sub(_unescape, body) if "\\" in body else body


class Tokens:
    """The tokens of one text (ending with EOF) as parallel columns.

    ``texts[i]`` is token ``i`` as written, so it ends at offset
    ``starts[i] + len(texts[i])``; a string keeps its quotes and escapes
    (``string_value`` gives its value). Lines count "\\n" only; columns
    count characters from 1, so a tab or a "\\r" is one column.
    """

    __slots__ = ("file", "kinds", "texts", "starts", "line_starts")

    def __init__(
        self, file: str, kinds: list[TokenKind], texts: list[str],
        starts: list[int], line_starts: list[int],
    ) -> None:
        self.file = file
        self.kinds = kinds
        self.texts = texts
        self.starts = starts
        # offset of the first character of each line; line n starts at [n - 1]
        self.line_starts = line_starts

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, i: int) -> Token:
        kind = self.kinds[i]
        text = self.texts[i]
        span = self.span(i)
        return Token(
            kind,
            string_value(text) if kind is TokenKind.STRING else text,
            span.start_line, span.start_col, span.end_line, span.end_col,
        )

    def span(self, first: int, last: int | None = None) -> SourceSpan:
        """From the start of token ``first`` to the end of token ``last``
        (by default ``first`` itself)."""
        line_starts = self.line_starts
        start = self.starts[first]
        line = bisect_right(line_starts, start)
        col = start - line_starts[line - 1] + 1
        if last is None or last == first:
            last, end_line, last_col = first, line, col
        else:
            start = self.starts[last]
            end_line = bisect_right(line_starts, start)
            last_col = start - line_starts[end_line - 1] + 1
        end_col = last_col + len(self.texts[last]) - 1
        if self.kinds[last] is TokenKind.STRING:  # the one kind that spans lines
            end = start + len(self.texts[last])
            end_line = bisect_right(line_starts, end)
            end_col = end - line_starts[end_line - 1]
        # an end column is never before the last token's start column:
        # EOF is empty, and a string ending in an escaped newline would
        # end at column 0 of the next line
        return SourceSpan(self.file, line, col, end_line, max(last_col, end_col))


def _position(line_starts: list[int], offset: int) -> tuple[int, int]:
    """The 1-based line and column of a character offset."""
    line = bisect_right(line_starts, offset)
    return line, offset - line_starts[line - 1] + 1


def tokenize(text: str, file: str) -> tuple[Tokens, list[Diagnostic]]:
    """Split ``text`` into tokens (ending with EOF) and lexical diagnostics.

    A string stops before an unescaped newline; a backslash escapes any
    character, a newline included.
    """
    line_starts = [0]
    line_starts += [m.end() for m in _NEWLINE.finditer(text)]
    kinds: list[TokenKind] = []
    texts: list[str] = []
    starts: list[int] = []
    diags: list[Diagnostic] = []
    add_kind, add_text, add_start = kinds.append, texts.append, starts.append
    kind_of_group = _KIND_OF_GROUP
    ident, keyword, string = TokenKind.IDENT, TokenKind.KEYWORD, TokenKind.STRING
    for m in _SCANNER.finditer(text):
        index = m.lastindex
        if index is None:  # blanks and comments up to the end of the text
            continue
        lexeme = m[index]
        kind = kind_of_group[index]
        if kind is ident:
            if lexeme in KEYWORDS:
                kind = keyword
        elif kind is string or kind is None:
            start = m.start(index)
            if kind is string:
                if m["CLOSE"] is None:
                    diags.append(_lex_error(
                        "unterminated string literal", file,
                        _position(line_starts, start), _position(line_starts, m.end()),
                    ))
            else:
                here = _position(line_starts, start)
                if index == _OPEN_COMMENT:
                    diags.append(_lex_error(
                        "unterminated block comment", file, here, (here[0], here[1] + 1)
                    ))
                else:
                    diags.append(_lex_error(
                        f"unexpected character {lexeme!r}", file, here, here
                    ))
                continue
        add_kind(kind)
        add_text(lexeme)
        add_start(m.start(index))
    add_kind(TokenKind.EOF)
    add_text("")
    add_start(len(text))
    return Tokens(file, kinds, texts, starts, line_starts), diags


def _lex_error(
    message: str, file: str, start: tuple[int, int], end: tuple[int, int]
) -> Diagnostic:
    return Diagnostic(Severity.ERROR, "LEX", message, SourceSpan(file, *start, *end))
