"""Schema-driven marshalling between dicts and document trees."""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Any

from repro.errors import InstanceValidationError, SchemaError
from repro.obs.metrics import counter
from repro.obs.trace import span
from repro.xmlutil.qname import QName
from repro.xmlutil.reader import text_of
from repro.xmlutil.writer import XmlElement, XmlWriter
from repro.xsd.components import (
    XSD_NS,
    AttributeDecl,
    AttributeUse,
    ChoiceGroup,
    ComplexType,
    ElementDecl,
    SequenceGroup,
    SimpleType,
)
from repro.xsd.compiled import _clark_qname, _parse_document, _tree_of
from repro.xsd.validator import SchemaSet

#: Dict key carrying the simple-content value.
VALUE_KEY = "#value"
#: Prefix marking attribute keys.
ATTR_PREFIX = "@"


def _to_text(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


class _Marshaller:
    def __init__(self, schema_set: SchemaSet) -> None:
        self.schema_set = schema_set
        self._prefixes = {
            namespace: f"ns{index}"
            for index, namespace in enumerate(sorted(schema_set.namespaces), start=1)
            if namespace
        }

    def marshal(self, root: QName | str, data: Any) -> XmlElement:
        qname = self._resolve_root(root)
        decl = self.schema_set.find_global_element(qname)
        if decl is None:
            raise SchemaError(f"no global element {qname.clark()} in the schema set")
        element = self._element(decl, qname.namespace, data, qname.local)
        for namespace, prefix in sorted(self._prefixes.items()):
            element.attributes[f"xmlns:{prefix}"] = namespace
        return element

    def _resolve_root(self, root: QName | str) -> QName:
        if isinstance(root, QName):
            return root
        matches = [
            QName(namespace, root)
            for namespace in self.schema_set.namespaces
            if self.schema_set.find_global_element(QName(namespace, root)) is not None
        ]
        if len(matches) != 1:
            raise SchemaError(f"global element {root!r} resolves to {len(matches)} namespaces")
        return matches[0]

    def _tag(self, qname: QName) -> str:
        return qname.prefixed(self._prefixes.get(qname.namespace))

    # -- elements ----------------------------------------------------------------

    def _element(self, decl: ElementDecl, schema_ns: str, data: Any, path: str) -> XmlElement:
        if decl.is_ref:
            target = self.schema_set.find_global_element(decl.ref)
            if target is None:
                raise SchemaError(f"dangling element reference {decl.ref.clark()}")
            return self._element(target, decl.ref.namespace, data, path)
        qname = QName(schema_ns, decl.name)
        element = XmlElement(self._tag(qname))
        if decl.type is None:
            if data is not None:
                element.text(_to_text(data))
            return element
        self._fill(element, decl.type, data, path)
        return element

    def _fill(self, element: XmlElement, type_name: QName, data: Any, path: str) -> None:
        if type_name.namespace == XSD_NS:
            element.text(_to_text(self._plain_value(data, path)))
            return
        definition = self.schema_set.find_type(type_name)
        if definition is None:
            raise SchemaError(f"unresolved type {type_name.clark()}")
        if isinstance(definition, SimpleType):
            element.text(_to_text(self._plain_value(data, path)))
            return
        if definition.simple_content is not None:
            self._fill_simple_content(element, definition, data, path)
            return
        if not isinstance(data, dict):
            raise InstanceValidationError(
                f"{path}: expected a dict for complex content, got {type(data).__name__}"
            )
        self._check_keys(definition, data, path)
        for attribute in definition.attributes:
            self._set_attribute(element, attribute, data, path)
        if definition.particle is not None:
            schema = self.schema_set.schema_for(type_name.namespace)
            self._fill_particle(element, definition.particle, schema.target_namespace, data, path)

    def _plain_value(self, data: Any, path: str) -> Any:
        if isinstance(data, dict):
            extra = [key for key in data if key != VALUE_KEY]
            if extra:
                raise InstanceValidationError(
                    f"{path}: simple value accepts only {VALUE_KEY!r}, got {extra}"
                )
            return data.get(VALUE_KEY, "")
        return data

    def _fill_simple_content(
        self, element: XmlElement, definition: ComplexType, data: Any, path: str
    ) -> None:
        attributes = self._effective_attributes(definition)
        if isinstance(data, dict):
            known = {VALUE_KEY} | {ATTR_PREFIX + a.name for a in attributes}
            unknown = [key for key in data if key not in known]
            if unknown:
                raise InstanceValidationError(f"{path}: unknown keys {unknown}")
            for attribute in attributes:
                key = ATTR_PREFIX + attribute.name
                if key in data:
                    if attribute.use is AttributeUse.PROHIBITED:
                        raise InstanceValidationError(f"{path}: attribute {attribute.name!r} is prohibited")
                    element.attributes[attribute.name] = _to_text(data[key])
                elif attribute.use is AttributeUse.REQUIRED:
                    raise InstanceValidationError(f"{path}: missing required attribute {attribute.name!r}")
            element.text(_to_text(data.get(VALUE_KEY, "")))
        else:
            for attribute in attributes:
                if attribute.use is AttributeUse.REQUIRED:
                    raise InstanceValidationError(
                        f"{path}: missing required attribute {attribute.name!r} "
                        f"(pass a dict with {ATTR_PREFIX}{attribute.name})"
                    )
            element.text(_to_text(data))

    def _effective_attributes(self, definition: ComplexType) -> list[AttributeDecl]:
        content = definition.simple_content
        assert content is not None
        base = content.base
        if base.namespace == XSD_NS:
            return list(content.attributes)
        base_definition = self.schema_set.find_type(base)
        if isinstance(base_definition, ComplexType) and base_definition.simple_content is not None:
            inherited = self._effective_attributes(base_definition)
            if content.derivation == "extension":
                return inherited + list(content.attributes)
            by_name = {a.name: a for a in inherited}
            for attribute in content.attributes:
                by_name[attribute.name] = attribute
            return list(by_name.values())
        return list(content.attributes)

    def _check_keys(self, definition: ComplexType, data: dict, path: str) -> None:
        known = {ATTR_PREFIX + attribute.name for attribute in definition.attributes}
        for decl in self._declared_elements(definition.particle):
            known.add(decl.name if not decl.is_ref else decl.ref.local)
        unknown = [key for key in data if key not in known]
        if unknown:
            raise InstanceValidationError(
                f"{path}: unknown keys {unknown}; declared: {sorted(known)}"
            )

    def _declared_elements(self, particle) -> list[ElementDecl]:
        if particle is None:
            return []
        found: list[ElementDecl] = []
        for child in particle.particles:
            if isinstance(child, ElementDecl):
                found.append(child)
            elif isinstance(child, (SequenceGroup, ChoiceGroup)):
                found.extend(self._declared_elements(child))
        return found

    def _set_attribute(self, element: XmlElement, attribute: AttributeDecl, data: dict, path: str) -> None:
        key = ATTR_PREFIX + attribute.name
        if key in data:
            if attribute.use is AttributeUse.PROHIBITED:
                raise InstanceValidationError(f"{path}: attribute {attribute.name!r} is prohibited")
            element.attributes[attribute.name] = _to_text(data[key])
        elif attribute.use is AttributeUse.REQUIRED:
            raise InstanceValidationError(f"{path}: missing required attribute {attribute.name!r}")

    def _fill_particle(self, element, particle, schema_ns: str, data: dict, path: str) -> None:
        for child in particle.particles:
            if isinstance(child, (SequenceGroup, ChoiceGroup)):
                self._fill_particle(element, child, schema_ns, data, path)
                continue
            key = child.name if not child.is_ref else child.ref.local
            value = data.get(key)
            occurrences: list[Any]
            if value is None:
                occurrences = []
            elif isinstance(value, list):
                occurrences = value
            else:
                occurrences = [value]
            if len(occurrences) < child.min_occurs:
                raise InstanceValidationError(
                    f"{path}.{key}: {len(occurrences)} occurrence(s), minimum {child.min_occurs}"
                )
            if child.max_occurs is not None and len(occurrences) > child.max_occurs:
                raise InstanceValidationError(
                    f"{path}.{key}: {len(occurrences)} occurrence(s), maximum {child.max_occurs}"
                )
            for item in occurrences:
                element.children.append(self._element(child, schema_ns, item, f"{path}.{key}"))


class _Unmarshaller:
    def __init__(self, schema_set: SchemaSet) -> None:
        self.schema_set = schema_set

    def unmarshal(self, root: ET.Element) -> Any:
        qname = _clark_qname(root.tag)
        decl = self.schema_set.find_global_element(qname)
        if decl is None:
            raise SchemaError(f"no global element {qname.clark()}")
        return self._value(self._type_of(decl), root)

    def _type_of(self, decl: ElementDecl) -> QName | None:
        """``decl``'s type, through an element reference."""
        if decl.is_ref:
            target = self.schema_set.find_global_element(decl.ref)
            if target is None:
                raise SchemaError(f"dangling element reference {decl.ref.clark()}")
            decl = target
        return decl.type

    def _value(self, type_name: QName | None, element: ET.Element) -> Any:
        # One frame per level, so that documents up to ``max_depth`` deep
        # stay clear of the interpreter's recursion limit.
        if type_name is None or type_name.namespace == XSD_NS:
            return text_of(element)
        definition = self.schema_set.find_type(type_name)
        if definition is None:
            raise SchemaError(f"unresolved type {type_name.clark()}")
        if isinstance(definition, SimpleType):
            return text_of(element)
        data: dict[str, Any] = {
            ATTR_PREFIX + _clark_qname(name).local: value
            for name, value in element.attrib.items()
        }
        if definition.simple_content is not None:
            if data:
                data[VALUE_KEY] = text_of(element)
                return data
            return text_of(element)
        declared = {}
        for decl in _Marshaller(self.schema_set)._declared_elements(definition.particle):
            key = decl.name if not decl.is_ref else decl.ref.local
            declared[key] = decl
        for child in element:
            key = _clark_qname(child.tag).local
            child_decl = declared.get(key)
            if child_decl is None:
                raise InstanceValidationError(f"unexpected element {key!r} in {definition.name}")
            child_value = self._value(self._type_of(child_decl), child)
            repeatable = child_decl.max_occurs is None or child_decl.max_occurs > 1
            if repeatable:
                data.setdefault(key, []).append(child_value)
            elif key in data:
                raise InstanceValidationError(f"element {key!r} repeated beyond its declaration")
            else:
                data[key] = child_value
        return data


def marshal(
    schema_set: SchemaSet,
    root: QName | str,
    data: Any,
    validate: bool = True,
) -> XmlElement:
    """Build a schema-shaped document from ``data``; validates by default."""
    with span("binding.marshal", root=str(root), validate=validate):
        element = _Marshaller(schema_set).marshal(root, data)
        counter("binding.documents_marshalled").inc()
        if validate:
            from repro.xsd.validator import validate_instance

            problems = validate_instance(schema_set, element)
            if problems:
                details = "; ".join(str(problem) for problem in problems[:5])
                raise InstanceValidationError(f"marshalled document is invalid: {details}")
    return element


def marshal_string(schema_set: SchemaSet, root: QName | str, data: Any, validate: bool = True) -> str:
    """Like :func:`marshal` but rendered to a document string."""
    text = XmlWriter().to_string(marshal(schema_set, root, data, validate))
    counter("binding.bytes_serialized").inc(len(text.encode("utf-8")))
    return text


def unmarshal(schema_set: SchemaSet, document: XmlElement | str) -> Any:
    """Project a document back onto the dict convention."""
    root = _parse_document(document) if isinstance(document, str) else _tree_of(document)
    with span("binding.unmarshal", root=root.tag):
        counter("binding.documents_unmarshalled").inc()
        return _Unmarshaller(schema_set).unmarshal(root)
