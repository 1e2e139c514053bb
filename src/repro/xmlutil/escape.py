"""Escaping and name-validity helpers for XML serialization.

These functions implement the XML 1.0 rules the writer depends on: text
content escaping, attribute-value escaping (double-quote delimited) and the
``Name`` production used to sanity-check element/attribute names before they
are written.
"""

from __future__ import annotations

import re

# XML 1.0 Name production, restricted to the ASCII + BMP ranges that matter
# for NDR-generated names.  NDR names are ASCII CamelCase, but user-supplied
# qualifiers may carry a wider range, so we accept the full NameStartChar set.
_NAME_START = (
    ":A-Z_a-zÀ-ÖØ-öø-˿Ͱ-ͽ"
    "Ϳ-῿‌-‍⁰-↏Ⰰ-⿯、-퟿"
    "豈-﷏ﷰ-�"
)
_NAME_CHAR = _NAME_START + "\\-.0-9·̀-ͯ‿-⁀"
_NAME_RE = re.compile(f"^[{_NAME_START}][{_NAME_CHAR}]*$")

# Carriage returns must leave as character references even in text content:
# an XML parser normalizes a literal \r (or \r\n) to \n on input (XML 1.0
# section 2.11), so writing it raw would break serialize->parse->serialize
# byte identity.
_TEXT_REPLACEMENTS = [("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"), ("\r", "&#13;")]
_ATTR_REPLACEMENTS = _TEXT_REPLACEMENTS + [('"', "&quot;"), ("\n", "&#10;"), ("\t", "&#9;")]


def escape_text(value: str) -> str:
    """Escape ``value`` for use as XML character data."""
    # Most values hold no special character: a few ``in`` tests are
    # cheaper than the replace chain, and return the value unchanged.
    if "&" in value or "<" in value or ">" in value or "\r" in value:
        for raw, repl in _TEXT_REPLACEMENTS:
            value = value.replace(raw, repl)
    return value


def escape_attribute(value: str) -> str:
    """Escape ``value`` for use inside a double-quoted XML attribute."""
    if (
        "&" in value or "<" in value or ">" in value or "\r" in value
        or '"' in value or "\n" in value or "\t" in value
    ):
        for raw, repl in _ATTR_REPLACEMENTS:
            value = value.replace(raw, repl)
    return value


def is_valid_xml_name(name: str) -> bool:
    """Return True when ``name`` matches the XML 1.0 ``Name`` production."""
    return bool(name) and _NAME_RE.match(name) is not None


def is_valid_ncname(name: str) -> bool:
    """Return True when ``name`` is a valid NCName (a Name without colons)."""
    return is_valid_xml_name(name) and ":" not in name
