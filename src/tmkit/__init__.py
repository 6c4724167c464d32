"""tmkit: a toolkit for the Thinging Machine (TM) modeling notation.

Parse textual TM models, validate and normalize them, simulate the
event chronology as deterministic token flow, and render DOT diagrams.

Public names other than ``validate`` and ``legality`` are imported
from their modules on first use (PEP 562), so a ``tm`` call loads only
the modules its subcommand runs. ``validate`` stays eager: every ``tm``
call loads ``tmkit.validate``, and a lazy name would be shadowed by
that submodule once it is imported.
"""

import importlib

from .validate import legality, validate

__version__ = "0.1.0"


def _lazy(namespace: dict, exports: dict[str, tuple[str, ...]]):
    """Module ``__getattr__`` and ``__dir__`` for the package whose
    globals are ``namespace``. ``exports`` maps a module name, relative
    to the package, to the names taken from it on first use; each is
    then kept in ``namespace``."""
    package = namespace["__name__"]
    homes = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        if name not in homes:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(homes[name], package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *homes})

    return __getattr__, __dir__


_EXPORTS = {
    ".behavior": (
        "Chronology",
        "EventDef",
        "check_region",
        "flatten",
        "instances",
        "region_coverage",
        "topological_orders_contains",
    ),
    ".core": ("Model", "StageKind", "is_normalized", "model_equal", "normalize"),
    ".diagnostics": ("Diagnostic", "Severity", "SourceSpan"),
    ".dsl.parser": ("ParseResult", "parse"),
    ".dsl.json_io": ("from_json", "to_json"),
    ".render": ("RenderMode", "RenderOptions", "render_dot"),
    ".sim": ("SimConfig", "Trace", "coverage", "simulate", "trace_to_json"),
}

__all__ = sorted(
    ["legality", "validate", *(name for names in _EXPORTS.values() for name in names)]
)

__getattr__, __dir__ = _lazy(globals(), _EXPORTS)
