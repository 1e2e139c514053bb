"""Read XML text into the ElementTree the C parser builds.

Readers of XMI and XSD match names by the prefix as written (``xmi:id``,
``upcc:ACC``) and quote tags as written, but ``ET.fromstring`` resolves
prefixes to Clark names (``{namespace}local``) and drops the
declarations.  When every namespace declaration of a document sits on
its root and no namespace has two prefixes, each Clark name maps back to
exactly one written name, so :func:`read_document` keeps the C parser.
Any other document -- and any the namespace-aware C parser rejects, such
as one with an undeclared prefix -- goes through :func:`parse_as_written`.

Source positions are found only when a reader reports a diagnostic:
:meth:`Document.locate` pairs the tree's elements, in document order,
with one :func:`start_tag_positions` pass over the text, made at most
once per document.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
import xml.parsers.expat

from repro.xmlutil.qname import XML_NAMESPACE

__all__ = ["Document", "parse_as_written", "read_document", "start_tag_positions", "text_of"]


def text_of(element: ET.Element) -> str:
    """``element``'s text: only text before the first child counts, and
    whitespace-only text only in childless elements."""
    text = element.text
    if not text or (len(element) and not text.strip()):
        return ""
    return text


def parse_as_written(text: str) -> ET.Element:
    """Parse ``text`` with namespace processing off: tags, attribute names
    and ``xmlns``/``xmlns:p`` attributes stay exactly as written.

    Malformed input raises :class:`xml.etree.ElementTree.ParseError` with
    ``position`` set.
    """
    parser = xml.parsers.expat.ParserCreate()
    parser.buffer_text = True
    builder = ET.TreeBuilder()
    parser.StartElementHandler = builder.start
    parser.EndElementHandler = builder.end
    parser.CharacterDataHandler = builder.data
    try:
        parser.Parse(text, True)
    except xml.parsers.expat.ExpatError as error:
        wrapped = ET.ParseError(str(error))
        wrapped.code = error.code
        wrapped.position = (error.lineno, error.offset)
        raise wrapped from None
    return builder.close()


def start_tag_positions(text: str) -> list[tuple[int, int]]:
    """The 1-based ``(line, column)`` of every start tag, in document order."""
    parser = xml.parsers.expat.ParserCreate()
    positions: list[tuple[int, int]] = []
    parser.StartElementHandler = lambda tag, attributes: positions.append(
        (parser.CurrentLineNumber, parser.CurrentColumnNumber + 1)
    )
    parser.Parse(text, True)
    return positions


def _declarations(attributes: dict[str, str]) -> dict[str | None, str]:
    """The ``xmlns``/``xmlns:p`` attributes among ``attributes``, by prefix."""
    return {
        (name[6:] or None): value
        for name, value in attributes.items()
        if name.startswith("xmlns") and name[5:6] in ("", ":")
    }


def _root_declarations(text: str) -> dict[str | None, str] | None:
    """The root's namespace declarations, or None when the text is
    malformed before the root's start tag ends."""
    parser = xml.parsers.expat.ParserCreate()
    found: list[dict[str | None, str]] = []

    def start(tag: str, attributes: dict[str, str]) -> None:
        found.append(_declarations(attributes))
        raise StopIteration  # the rest of the document is not needed

    parser.StartElementHandler = start
    try:
        parser.Parse(text, True)
    except (StopIteration, xml.parsers.expat.ExpatError):
        pass
    return found[0] if found else None


class Document:
    """A parsed XML document: its tree plus the names as written.

    ``root`` is the tree of ``ET.fromstring``, with Clark names, or (when
    ``as_written``) that of :func:`parse_as_written`.  ``prefixes`` maps
    each prefix the root declares (``None`` for the default namespace)
    to its namespace, in written order.
    """

    __slots__ = (
        "text", "root", "prefixes", "as_written", "_prefix_of", "_positions", "_scopes"
    )

    def __init__(
        self, text: str, root: ET.Element, prefixes: dict[str | None, str], as_written: bool
    ) -> None:
        self.text = text
        self.root = root
        self.prefixes = prefixes
        self.as_written = as_written
        self._prefix_of = {namespace: prefix for prefix, namespace in prefixes.items()}
        self._prefix_of.setdefault(XML_NAMESPACE, "xml")
        self._positions: dict[ET.Element, tuple[int, int]] | None = None
        self._scopes: dict[ET.Element, dict[str | None, str]] | None = None

    def name(self, prefix: str | None, local: str) -> str | None:
        """This tree's spelling of the tag ``prefix:local`` (or of a
        prefixed attribute); None when the prefix is not declared."""
        if self.as_written:
            return f"{prefix}:{local}" if prefix is not None else local
        namespace = XML_NAMESPACE if prefix == "xml" else self.prefixes.get(prefix)
        if not namespace:  # undeclared, or xmlns="" (no default namespace)
            return None if prefix is not None else local
        return f"{{{namespace}}}{local}"

    def written(self, name: str) -> str:
        """A tag or attribute name of this tree as the document wrote it."""
        if name[0] != "{":
            return name
        namespace, _, local = name[1:].partition("}")
        prefix = self._prefix_of.get(namespace)
        return f"{prefix}:{local}" if prefix else local

    def prefixes_at(self, element: ET.Element) -> dict[str | None, str]:
        """The prefixes in scope at ``element``: the root's, overridden by
        those ``element`` and its ancestors declare.

        Only an as-written tree can declare below the root (see
        :func:`read_document`); its scopes are found in one pass, made at
        the first call.
        """
        if not self.as_written:
            return self.prefixes
        if self._scopes is None:
            scopes: dict[ET.Element, dict[str | None, str]] = {}
            pending = [(self.root, {})]
            while pending:
                node, inherited = pending.pop()
                declared = _declarations(node.attrib)
                scope = scopes[node] = {**inherited, **declared} if declared else inherited
                pending.extend((child, scope) for child in node)
            self._scopes = scopes
        return self._scopes[element]

    def locate(self, element: ET.Element) -> tuple[int, int]:
        """The 1-based line and column of ``element``'s start tag."""
        if self._positions is None:
            self._positions = dict(zip(self.root.iter(), start_tag_positions(self.text)))
        return self._positions[element]


def read_document(text: str) -> Document:
    """Parse ``text`` with the C parser where its names map back to the
    written ones, with :func:`parse_as_written` otherwise.

    Malformed input raises :class:`xml.etree.ElementTree.ParseError` with
    the message and ``position`` of :func:`parse_as_written`.
    """
    prefixes = _root_declarations(text)
    # Each root declaration holds one "xmlns"; any other occurrence may be
    # a declaration below the root, which can rebind a prefix.
    if prefixes is not None and text.count("xmlns") == len(prefixes) == len(
        set(prefixes.values())
    ):
        try:
            return Document(text, ET.fromstring(text), prefixes, as_written=False)
        except ET.ParseError:
            pass  # e.g. an undeclared prefix, which parse_as_written takes
    root = parse_as_written(text)
    return Document(text, root, _declarations(root.attrib), as_written=True)
