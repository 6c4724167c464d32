"""Textual concrete syntax: parsing, printing, and JSON interchange.

Each public name is imported from its module on first use, so parsing
alone loads neither the printer nor ``json``.
"""

from .. import _lazy

_EXPORTS = {
    ".parser": ("parse", "ParseResult"),
    ".printer": ("format", "format_parts"),
    ".json_io": ("to_json", "from_json"),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = _lazy(globals(), _EXPORTS)
