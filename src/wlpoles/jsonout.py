"""The one JSON writer behind every document the package prints.

``dumps(x)`` is exactly ``json.dumps(x, sort_keys=True, indent=2) + "\\n"``
for what a payload holds: dicts with ``str`` keys, lists, ``str``,
``int``, ``bool`` and ``None``.  Anything else raises ``TypeError``.
Each container's text is joined from its items' texts, so only the
pieces of the open containers are alive at a time; ``json.dumps`` with
``indent`` runs its pure-Python generator encoder and keeps every piece
until the end.  Strings go through the same escaping function ``json``
uses, so non-ASCII and control characters come out byte for byte alike.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _string


def dumps(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=2) + "\\n"``, written directly."""
    return _text(value, "\n") + "\n"


def _text(x, nl: str) -> str:
    """The text of x; ``nl`` is a newline plus the indentation of the
    line x starts on."""
    t = type(x)
    if t is str:
        return _string(x)
    if t is dict:
        if not x:
            return "{}"
        for key in x:
            if type(key) is not str:
                raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
        inner = nl + "  "
        items = [_string(key) + ": " + _text(x[key], inner) for key in sorted(x)]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if t is list:
        if not x:
            return "[]"
        inner = nl + "  "
        return "[" + inner + ("," + inner).join([_text(item, inner) for item in x]) + nl + "]"
    if t is int:
        return repr(x)
    if t is bool:
        return "true" if x else "false"
    if x is None:
        return "null"
    raise TypeError(f"cannot write {t.__name__} as JSON")
