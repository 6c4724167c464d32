"""Diagnostics shared by the parser, the validator, and the CLI.

It also holds ``Record``, the base of tmkit's record classes. Each
record declares ``__slots__`` and writes its own ``__init__``;
``Record`` gives it a field-wise ``==`` and a ``Name(field=value, ...)``
``repr`` over the names in its ``_fields``. No class is generated at
import: the standard library's generator of record classes loads
``inspect``, ``ast`` and ``dis`` and compiles each class's methods from
source, a start-up cost that every ``tm`` call would pay.

Last, ``collector_paused`` pauses the cyclic collector for each call of
a pipeline function whose work grows with its input.
"""

from __future__ import annotations

import enum
import functools
import gc
from collections import namedtuple


def collector_paused(function):
    """``function`` run with the cyclic collector off, and turned back on
    when it returns or raises if it was on at the call.

    The pipeline makes no reference cycles (``tests/test_gc.py`` checks
    every step), so the collector could free nothing during a call, and
    its older-generation passes would walk the whole model or trace
    being built. Memory is still freed by reference counting. A call
    made with the collector off, as every call inside another paused
    call or under ``tm``, goes straight through. The wrapper keeps the
    function's name, docstring and signature."""

    @functools.wraps(function)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return function(*args, **kwargs)
        gc.disable()
        try:
            return function(*args, **kwargs)
        finally:
            gc.enable()

    return paused


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
