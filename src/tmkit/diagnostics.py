"""Diagnostics shared by the parser, the validator, and the CLI.

It also holds ``Record``, the base of tmkit's record classes. Each
record declares ``__slots__`` and writes its own ``__init__``;
``Record`` gives it a field-wise ``==`` and a ``Name(field=value, ...)``
``repr`` over the names in its ``_fields``. No class is generated at
import: the standard library's generator of record classes loads
``inspect``, ``ast`` and ``dis`` and compiles each class's methods from
source, a start-up cost that every ``tm`` call would pay.
"""

from __future__ import annotations

import enum
from collections import namedtuple


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"


class Record:
    """Field-wise ``==`` between records of one class, and a
    ``Name(field=value, ...)`` ``repr``, over ``_fields``; unhashable,
    since a record is mutable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = self._fields
        return tuple(getattr(self, f) for f in fields) == tuple(
            getattr(other, f) for f in fields
        )

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({args})"


class SourceSpan(namedtuple("SourceSpan", "file start_line start_col end_line end_col")):
    """1-based source location, start <= end in document order.

    A tuple of its five fields: immutable and hashable, and equal to a
    plain tuple of the same values."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.file}:{self.start_line}:{self.start_col}"


class Diagnostic(Record):
    __slots__ = _fields = ("severity", "code", "message", "span", "element")

    def __init__(
        self, severity: Severity, code: str, message: str,
        span: SourceSpan | None = None, element: int | None = None,
    ) -> None:
        self.severity, self.code, self.message = severity, code, message
        self.span, self.element = span, element

    @property
    def is_error(self) -> bool:
        return self.severity is Severity.ERROR

    def render(self) -> str:
        loc = str(self.span) if self.span else "<model>"
        return f"{loc}: {self.severity.value}[{self.code}] {self.message}"


def sort_key(diag: Diagnostic) -> tuple:
    if diag.span is None:
        return ("", 0, 0, diag.code)
    return (diag.span.file, diag.span.start_line, diag.span.start_col, diag.code)


def sorted_diagnostics(diags: list[Diagnostic]) -> list[Diagnostic]:
    """Deterministic order: by file, span, then rule code."""
    return sorted(diags, key=sort_key)


def has_errors(diags: list[Diagnostic]) -> bool:
    return any(d.is_error for d in diags)
