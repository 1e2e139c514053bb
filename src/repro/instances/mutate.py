"""Controlled instance corruptions for negative testing.

Each mutation takes a valid instance tree (as produced by
:class:`repro.instances.InstanceGenerator`), applies one specific defect and
returns True when it found a spot to apply it.  Tests assert that the
validator rejects every successfully mutated instance -- silence from a
validator is only meaningful when it provably can say no.  The structural
mutations (:func:`widen`, :func:`inflate_text`, :func:`add_many_attributes`,
:func:`rebind_target_namespace`, :func:`add_undeclared_prefix_attribute`)
build hostile shapes instead; the differential tests check that the
validator reports on them exactly as the reference oracle does.
"""

from __future__ import annotations

from repro.xmlutil.writer import XmlElement


def _walk(element: XmlElement):
    yield element
    for child in element.element_children:
        yield from _walk(child)


def drop_required_child(root: XmlElement, child_name: str) -> bool:
    """Remove the first child element whose tag ends in ``child_name``."""
    for element in _walk(root):
        for index, child in enumerate(element.children):
            if isinstance(child, XmlElement) and child.tag.rpartition(":")[2] == child_name:
                del element.children[index]
                return True
    return False


def drop_required_attribute(root: XmlElement, attribute_name: str) -> bool:
    """Remove the first occurrence of ``attribute_name`` anywhere."""
    for element in _walk(root):
        if attribute_name in element.attributes:
            del element.attributes[attribute_name]
            return True
    return False


def corrupt_enumeration_value(root: XmlElement, element_name: str, bad_value: str = "__not_a_code__") -> bool:
    """Replace the text of the first ``element_name`` element with ``bad_value``."""
    for element in _walk(root):
        if element.tag.rpartition(":")[2] == element_name:
            element.children = [child for child in element.children if isinstance(child, XmlElement)]
            element.children.insert(0, bad_value)
            return True
    return False


def add_unknown_child(root: XmlElement, under: str | None = None, tag: str = "Bogus") -> bool:
    """Append an undeclared child element (to ``under`` or the root)."""
    target = root
    if under is not None:
        target = next(
            (element for element in _walk(root) if element.tag.rpartition(":")[2] == under),
            root,
        )
    prefix = root.tag.partition(":")[0] if ":" in root.tag else None
    target.add(f"{prefix}:{tag}" if prefix else tag)
    return True


def add_unknown_attribute(root: XmlElement, name: str = "bogus", value: str = "x") -> bool:
    """Set an undeclared (non-xmlns) attribute on the root element."""
    root.attributes[name] = value
    return True


# -- structural mutations ------------------------------------------------------
#
# Hostile shapes rather than schema violations: each stresses one part of
# parsing or name resolution (width, value size, attribute count,
# namespace scoping) and may leave the document valid or not.


def widen(root: XmlElement, count: int = 10_000) -> bool:
    """Append ``count`` copies of the last leaf element as its siblings."""
    parent = leaf = None
    for element in _walk(root):
        for child in element.element_children:
            if not child.element_children:
                parent, leaf = element, child
    if leaf is None:
        return False
    for _ in range(count):
        copy = parent.add(leaf.tag, dict(leaf.attributes))
        copy.children = list(leaf.children)
    return True


def inflate_text(root: XmlElement, size: int = 1_000_000) -> bool:
    """Replace the text of the first leaf element with a ``size``-character value."""
    for element in _walk(root):
        if element is not root and not element.element_children:
            element.children = ["x" * size]
            return True
    return False


def add_many_attributes(root: XmlElement, count: int = 1_000) -> bool:
    """Set ``count`` undeclared attributes on the root element."""
    for index in range(count):
        root.attributes[f"extra{index}"] = str(index)
    return True


def rebind_target_namespace(root: XmlElement, uri: str = "urn:hostile:rebound") -> bool:
    """Redeclare the root's prefix to ``uri`` on an element mid-document.

    That element and every descendant written with the prefix move out of
    the root's (target) namespace.
    """
    prefix, colon, _ = root.tag.partition(":")
    if not colon:
        return False
    candidates = [
        element
        for element in _walk(root)
        if element is not root and element.tag.startswith(prefix + ":")
    ]
    if not candidates:
        return False
    candidates[len(candidates) // 2].attributes[f"xmlns:{prefix}"] = uri
    return True


def add_undeclared_prefix_attribute(root: XmlElement, name: str = "ghost:flag", value: str = "x") -> bool:
    """Set an attribute whose prefix no element declares on the root.

    Namespace-aware parsers reject such a document; the validator resolves
    the attribute to no namespace, as it does for every undeclared
    attribute prefix.
    """
    root.attributes[name] = value
    return True
