"""Parse XSD documents back into the component model.

Covers exactly the subset the writer produces (plus tolerant handling of
annotations anywhere), so write->parse->write is the identity on generated
schemas -- a property the test suite checks.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from repro.errors import SchemaError
from repro.xmlutil.qname import QName, split_qname
from repro.xmlutil.reader import Document, read_document, text_of
from repro.xsd.components import (
    Annotation,
    AttributeDecl,
    AttributeUse,
    ChoiceGroup,
    ComplexType,
    ElementDecl,
    Facet,
    ImportDecl,
    Schema,
    SequenceGroup,
    SimpleContent,
    SimpleType,
)


def _resolve(document: Document, node: ET.Element, text: str) -> QName:
    """A QName-valued attribute of ``node``, resolved by the prefixes in
    scope there."""
    prefix, local = split_qname(text)
    uri = document.prefixes_at(node).get(prefix, "" if prefix is None else None)
    if uri is None:
        raise SchemaError(f"undeclared prefix {prefix!r} in type reference {text!r}")
    return QName(uri, local)


def _local(tag: str) -> str:
    """The local part of a Clark (``{ns}local``) or written (``p:local``) tag."""
    return tag.rpartition("}")[2].rpartition(":")[2]


def _occurs(element: ET.Element) -> tuple[int, int | None]:
    min_occurs = int(element.get("minOccurs", "1"))
    max_text = element.get("maxOccurs", "1")
    max_occurs = None if max_text == "unbounded" else int(max_text)
    return min_occurs, max_occurs


def parse_schema(text: str) -> Schema:
    """Parse an XSD document string into a :class:`Schema`."""
    document = read_document(text)
    root = document.root
    if _local(root.tag) != "schema":
        raise SchemaError(f"expected an xsd:schema root, got {document.written(root.tag)!r}")
    schema = Schema(
        target_namespace=root.get("targetNamespace", ""),
        # Prefixes in written order, then the default namespace.
        prefixes={prefix: uri for prefix, uri in document.prefixes.items() if prefix is not None}
        | ({"": document.prefixes[None]} if None in document.prefixes else {}),
        element_form_default=root.get("elementFormDefault", "unqualified"),
        attribute_form_default=root.get("attributeFormDefault", "unqualified"),
        version=root.get("version"),
    )
    for child in root:
        local = _local(child.tag)
        if local == "import":
            schema.imports.append(
                ImportDecl(
                    namespace=child.get("namespace", ""),
                    schema_location=child.get("schemaLocation", ""),
                )
            )
        elif local == "complexType":
            schema.items.append(_parse_complex_type(child, document))
        elif local == "simpleType":
            schema.items.append(_parse_simple_type(child, document))
        elif local == "element":
            schema.items.append(_parse_element(child, document, global_decl=True))
        elif local == "annotation":
            schema.annotation = _parse_annotation(child)
        else:
            raise SchemaError(f"unsupported top-level schema component {document.written(child.tag)!r}")
    return schema


def _parse_annotation(node: ET.Element) -> Annotation:
    entries: list[tuple[str, str]] = []
    for documentation in node:
        if _local(documentation.tag) != "documentation":
            continue
        for entry in documentation:
            entries.append((_local(entry.tag), text_of(entry)))
        text = text_of(documentation).strip()
        if text and not len(documentation):
            entries.append(("Definition", text))
    return Annotation(entries)


def _pop_annotation(node: ET.Element) -> tuple[Annotation | None, list[ET.Element]]:
    annotation = None
    rest = []
    for child in node:
        if _local(child.tag) == "annotation":
            annotation = _parse_annotation(child)
        else:
            rest.append(child)
    return annotation, rest


def _parse_element(node: ET.Element, document: Document, global_decl: bool = False) -> ElementDecl:
    annotation, _ = _pop_annotation(node)
    min_occurs, max_occurs = (1, 1) if global_decl else _occurs(node)
    ref_text = node.get("ref")
    if ref_text is not None:
        return ElementDecl(
            ref=_resolve(document, node, ref_text),
            min_occurs=min_occurs,
            max_occurs=max_occurs,
            annotation=annotation,
        )
    type_text = node.get("type")
    return ElementDecl(
        name=node.attrib["name"],
        type=_resolve(document, node, type_text) if type_text is not None else None,
        min_occurs=min_occurs,
        max_occurs=max_occurs,
        annotation=annotation,
    )


def _parse_attribute(node: ET.Element, document: Document) -> AttributeDecl:
    annotation, _ = _pop_annotation(node)
    return AttributeDecl(
        name=node.attrib["name"],
        type=_resolve(document, node, node.attrib["type"]),
        use=AttributeUse(node.get("use", "optional")),
        annotation=annotation,
    )


def _parse_group(node: ET.Element, document: Document) -> SequenceGroup | ChoiceGroup:
    min_occurs, max_occurs = _occurs(node)
    particles: list[ElementDecl | SequenceGroup | ChoiceGroup] = []
    for child in node:
        local = _local(child.tag)
        if local == "element":
            particles.append(_parse_element(child, document))
        elif local in ("sequence", "choice"):
            particles.append(_parse_group(child, document))
        elif local == "annotation":
            continue
        else:
            raise SchemaError(f"unsupported particle {document.written(child.tag)!r}")
    if _local(node.tag) == "sequence":
        return SequenceGroup(particles, min_occurs, max_occurs)
    return ChoiceGroup(particles, min_occurs, max_occurs)


def _parse_facets(node: ET.Element) -> list[Facet]:
    facets = []
    for child in node:
        local = _local(child.tag)
        if local in ("attribute", "annotation"):
            continue
        facets.append(Facet(local, child.get("value", "")))
    return facets


def _parse_simple_content(node: ET.Element, document: Document) -> SimpleContent:
    for child in node:
        derivation = _local(child.tag)
        if derivation in ("extension", "restriction"):
            attributes = [
                _parse_attribute(attr, document)
                for attr in child
                if _local(attr.tag) == "attribute"
            ]
            return SimpleContent(
                base=_resolve(document, child, child.attrib["base"]),
                derivation=derivation,
                attributes=attributes,
                facets=_parse_facets(child),
            )
    raise SchemaError("simpleContent without extension/restriction")


def _parse_complex_type(node: ET.Element, document: Document) -> ComplexType:
    annotation, children = _pop_annotation(node)
    complex_type = ComplexType(name=node.attrib["name"], annotation=annotation)
    for child in children:
        local = _local(child.tag)
        if local in ("sequence", "choice"):
            complex_type.particle = _parse_group(child, document)
        elif local == "simpleContent":
            complex_type.simple_content = _parse_simple_content(child, document)
        elif local == "attribute":
            complex_type.attributes.append(_parse_attribute(child, document))
        else:
            raise SchemaError(f"unsupported complexType child {document.written(child.tag)!r}")
    return complex_type


def _parse_simple_type(node: ET.Element, document: Document) -> SimpleType:
    annotation, children = _pop_annotation(node)
    for child in children:
        if _local(child.tag) == "restriction":
            return SimpleType(
                name=node.attrib["name"],
                base=_resolve(document, child, child.attrib["base"]),
                facets=_parse_facets(child),
                annotation=annotation,
            )
    raise SchemaError(f"simpleType {node.get('name')!r} without restriction")
