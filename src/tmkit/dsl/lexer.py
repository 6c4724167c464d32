"""Tokenizer for the TM surface syntax.

``tokenize`` returns the lexemes of a text as parallel columns
(``Tokens``): each token's kind, its text as written and its start
offset, plus the offset at which each line starts. The columns come
from one ``re.split`` of the text by C-level passes: no Python step is
taken per lexeme, except for the few lexemes that make no plain token
(comments and lexical errors), and equal lexemes share one string.
Line and column are worked out, by a bisect of the line table, only
when a span is built (``Tokens.span``): the parser asks once per
element or diagnostic, not once per token. Indexing a ``Tokens``
builds the ``Token`` record with positions, for tests and for readers
that want one lexeme at a time.
"""

from __future__ import annotations

import enum
import re
from bisect import bisect_right
from collections import namedtuple
from itertools import accumulate, compress, count, islice

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

# One lexeme, in the one group, so ``split`` alternates the blanks
# between lexemes with the lexemes. A comment, closed or not, is a
# lexeme here and ``tokenize`` drops it. The last alternative takes any
# single character the others refuse except a blank, so only blanks
# fall between matches.
_SCANNER = re.compile(
    r"""
    (
        _WORD | [0-9]+ | [{};.,@] | -> | ~>
      | " _STRING_CONTENT "?
      | //[^\n]* | /\*.*?\*/ | /\*.*
      | [^ \t\r\n]
    )
    """.replace("_WORD", _WORD)
    .replace("_STRING_CONTENT", _STRING_CONTENT),
    re.VERBOSE | re.DOTALL,
)
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


_STRING_KIND = TokenKind.STRING
_new_tuple = tuple.__new__


class Tokens:
    """The tokens of one text (ending with EOF) as parallel columns.

    ``texts[i]`` is token ``i`` as written, so it ends at offset
    ``starts[i] + len(texts[i])``; a string keeps its quotes and escapes
    (``string_value`` gives its value). Equal texts are one string
    object. Lines count "\\n" only; columns count characters from 1, so
    a tab or a "\\r" is one column.
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
        (by default ``first`` itself).

        The parser asks for one token's span once per declared element.
        A token other than a string ends on the line it starts on, so
        that span takes one bisect of the line table, and every span is
        built by ``tuple.__new__``: the namedtuple's own ``__new__`` is a
        Python function."""
        line_starts = self.line_starts
        start = self.starts[first]
        line = bisect_right(line_starts, start)
        col = start - line_starts[line - 1] + 1
        if last is None or last == first:
            if self.kinds[first] is not _STRING_KIND:
                # EOF is empty, and ends where it starts
                end_col = col + (len(self.texts[first]) or 1) - 1
                return _new_tuple(SourceSpan, (self.file, line, col, line, end_col))
            last, end_line, last_col = first, line, col
        else:
            start = self.starts[last]
            end_line = bisect_right(line_starts, start)
            last_col = start - line_starts[end_line - 1] + 1
        end_col = last_col + len(self.texts[last]) - 1
        if self.kinds[last] is _STRING_KIND:  # the one kind that spans lines
            end = start + len(self.texts[last])
            end_line = bisect_right(line_starts, end)
            end_col = end - line_starts[end_line - 1]
        # an end column is never before the last token's start column:
        # EOF is empty, and a string ending in an escaped newline would
        # end at column 0 of the next line
        end_col = max(last_col, end_col)
        return _new_tuple(SourceSpan, (self.file, line, col, end_line, end_col))


def _position(line_starts: list[int], offset: int) -> tuple[int, int]:
    """The 1-based line and column of a character offset."""
    line = bisect_right(line_starts, offset)
    return line, offset - line_starts[line - 1] + 1


_FIXED_KINDS = {
    **dict.fromkeys(KEYWORDS, TokenKind.KEYWORD),
    **{kind.value: kind for kind in TokenKind if not kind.value[0].isalpha()},
}


def _kind(lexeme: str) -> TokenKind | str:
    """The token kind of a scanner lexeme, or the name of a lexeme that
    makes no plain token: ``tokenize`` drops a "COMMENT", drops and
    reports an "OPEN_COMMENT" or a "STRAY" character, and reports an
    "UNTERMINATED" string but keeps it as a STRING."""
    kind = _FIXED_KINDS.get(lexeme)
    if kind is not None:
        return kind
    first = lexeme[0]
    if first.isascii() and first.isalpha():  # every keyword is fixed
        return TokenKind.IDENT
    if "0" <= first <= "9":
        return TokenKind.INT
    if first == '"':
        # closed by a last quote other than the first one, after an
        # even run of backslashes (an odd run escapes it)
        body = lexeme[1:-1]
        escaped = (len(body) - len(body.rstrip("\\"))) % 2
        closed = len(lexeme) > 1 and lexeme[-1] == '"' and not escaped
        return TokenKind.STRING if closed else "UNTERMINATED"
    if lexeme[:2] == "//":
        return "COMMENT"
    if lexeme[:2] == "/*":
        # an open comment runs to the end of the text, so it ends in
        # "*/" only where that "*" is its opening one, as in "/*/"
        return "COMMENT" if len(lexeme) > 3 and lexeme[-2:] == "*/" else "OPEN_COMMENT"
    return "STRAY"


def tokenize(text: str, file: str) -> tuple[Tokens, list[Diagnostic]]:
    """Split ``text`` into tokens (ending with EOF) and lexical diagnostics.

    A string stops before an unescaped newline; a backslash escapes any
    character, a newline included.

    The columns come from C-level passes over one ``split`` of the text:
    the offsets from the running sum of the pieces' lengths, the texts
    from a table of the distinct lexemes (so equal lexemes share one
    string), and the kinds from classifying each distinct lexeme once.
    Only a lexeme that makes no plain token (a comment, a stray
    character, an unterminated string or block comment) takes a Python
    step of its own.
    """
    line_starts = [0]
    line_starts += [m.end() for m in _NEWLINE.finditer(text)]
    pieces = _SCANNER.split(text)  # blanks, then each lexeme and the blanks after it
    table: dict[str, str] = {}
    lexemes = islice(pieces, 1, None, 2)
    texts = list(map(table.setdefault, lexemes, islice(pieces, 1, None, 2)))
    pieces[1::2] = texts  # frees the copies of repeated lexemes
    # each lexeme's start, then the end of the text for EOF
    starts = list(islice(accumulate(map(len, pieces)), 0, None, 2))
    del pieces
    kind_of = dict(zip(table, map(_kind, table)))
    kinds: list = list(map(kind_of.__getitem__, texts))
    kinds.append(TokenKind.EOF)
    texts.append("")
    diags: list[Diagnostic] = []
    odd = {lexeme for lexeme, kind in kind_of.items() if isinstance(kind, str)}
    if not odd:
        return Tokens(file, kinds, texts, starts, line_starts), diags
    for i in compress(count(), map(odd.__contains__, texts)):
        kind = kinds[i]
        kinds[i] = None  # dropped below
        if kind == "COMMENT":
            continue
        here = _position(line_starts, starts[i])
        if kind == "UNTERMINATED":
            kinds[i] = TokenKind.STRING
            end = _position(line_starts, starts[i] + len(texts[i]))
            message = "unterminated string literal"
        elif kind == "OPEN_COMMENT":
            end, message = (here[0], here[1] + 1), "unterminated block comment"
        else:
            end, message = here, f"unexpected character {texts[i]!r}"
        diags.append(_lex_error(message, file, here, end))
    texts = list(compress(texts, kinds))
    starts = list(compress(starts, kinds))
    kinds = list(filter(None, kinds))
    return Tokens(file, kinds, texts, starts, line_starts), diags


def _lex_error(
    message: str, file: str, start: tuple[int, int], end: tuple[int, int]
) -> Diagnostic:
    return Diagnostic(Severity.ERROR, "LEX", message, SourceSpan(file, *start, *end))
