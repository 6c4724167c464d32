"""Exception types raised by the toolkit's programmatic API."""

from __future__ import annotations

from .diagnostics import SourceSpan


class TmError(Exception):
    """Base class for all toolkit errors."""


class DuplicateName(TmError):
    pass


class UnknownParent(TmError):
    pass


class DuplicateStageKind(TmError):
    pass


class UnknownThimac(TmError):
    pass


class UnknownEndpoint(TmError):
    pass


class AmbiguousExpansion(TmError):
    """An elided flow edge admits no legal stage-chain expansion; ``span``
    is where the edge was written, if it was."""

    def __init__(self, message: str, span: SourceSpan | None = None) -> None:
        super().__init__(message)
        self.span = span


class UnknownEvent(TmError):
    pass


class ContainmentCycle(TmError):
    pass


class NotAPermutation(TmError):
    pass


class StepBudgetExceeded(TmError):
    """Quiescence was not reached within the per-instance step budget."""


class PreconditionViolated(TmError):
    """Simulation input was not validated or not normalized."""


class UnknownHighlightEvent(TmError):
    pass
