"""RELAX NG (XML syntax) generation from a schema-generation result.

One combined ``<grammar>`` is produced for the whole schema closure:

* every global element becomes a define ``e.{prefix}.{Name}``; the chosen
  root's define is the grammar ``<start>``,
* every complexType becomes a define ``t.{prefix}.{Name}`` holding its
  *content pattern* (not the element), so local elements reference it,
* occurrences map to ``optional`` / ``zeroOrMore`` / ``oneOrMore`` (bounded
  ranges unroll: required copies plus optional tail),
* simpleContent chains flatten (through
  :meth:`~repro.xsd.validator.SchemaSet.flatten_content_value`, which
  raises :class:`SchemaError` on a broken chain) to an XSD ``<data>``
  pattern (RNG borrows the XSD datatype library) plus attribute patterns,
  or to a ``<choice><value>…`` of the chain's enumeration facets,
* enumeration simple types become ``<choice><value>…``.

Known semantic gap (documented, no RNG counterpart): an XSD restriction
that *prohibits* an inherited attribute -- the RNG grammar simply omits the
attribute, which forbids it just the same because RNG attributes are
closed-world per element pattern.
"""

from __future__ import annotations

from repro.xmlutil.qname import QName
from repro.xmlutil.writer import XmlElement, XmlWriter
from repro.xsd.components import (
    XSD_NS,
    AttributeDecl,
    AttributeUse,
    ChoiceGroup,
    ComplexType,
    ElementDecl,
    Schema,
    SequenceGroup,
    SimpleType,
)
from repro.xsd.validator import SchemaSet
from repro.xsdgen.generator import GenerationResult

#: The RELAX NG structure namespace.
RNG_NS = "http://relaxng.org/ns/structure/1.0"
#: The XSD datatype library RNG borrows for <data> patterns.
XSD_DATATYPES = "http://www.w3.org/2001/XMLSchema-datatypes"


class _RngBuilder:
    def __init__(self, schema_set: SchemaSet, prefixes: dict[str, str]) -> None:
        self.schema_set = schema_set
        self.prefix_of = {uri: prefix for prefix, uri in prefixes.items()}
        self.grammar = XmlElement("grammar")
        self.grammar.set("xmlns", RNG_NS)
        self.grammar.set("datatypeLibrary", XSD_DATATYPES)

    # -- naming -----------------------------------------------------------------

    def _define_name(self, kind: str, namespace: str, local: str) -> str:
        prefix = self.prefix_of.get(namespace, "ns")
        return f"{kind}.{prefix}.{local}"

    # -- top level --------------------------------------------------------------------

    def build(self, root: QName) -> XmlElement:
        start = self.grammar.add("start")
        start.add("ref", {"name": self._define_name("e", root.namespace, root.local)})
        for namespace in sorted(self.schema_set.namespaces):
            schema = self.schema_set.schema_for(namespace)
            for element in schema.global_elements:
                define = self.grammar.add(
                    "define", {"name": self._define_name("e", namespace, element.name)}
                )
                define.append(self._global_element_pattern(element, schema))
            for complex_type in schema.complex_types:
                define = self.grammar.add(
                    "define", {"name": self._define_name("t", namespace, complex_type.name)}
                )
                for pattern in self._complex_type_patterns(complex_type, schema):
                    define.append(pattern)
                if not define.children:
                    define.add("empty")
            for simple_type in schema.simple_types:
                define = self.grammar.add(
                    "define", {"name": self._define_name("t", namespace, simple_type.name)}
                )
                define.append(self._simple_type_pattern(simple_type))
        return self.grammar

    # -- elements ---------------------------------------------------------------------

    def _global_element_pattern(self, element: ElementDecl, schema: Schema) -> XmlElement:
        node = XmlElement("element", {"name": element.name, "ns": schema.target_namespace})
        for pattern in self._type_reference_patterns(element.type):
            node.append(pattern)
        return node

    def _type_reference_patterns(self, type_name: QName | None) -> list[XmlElement]:
        if type_name is None:
            return [XmlElement("text")]
        if type_name.namespace == XSD_NS:
            return [XmlElement("data", {"type": type_name.local})]
        return [XmlElement("ref", {"name": self._define_name("t", type_name.namespace, type_name.local)})]

    def _local_element_pattern(self, decl: ElementDecl, schema: Schema) -> XmlElement:
        if decl.is_ref:
            return XmlElement(
                "ref", {"name": self._define_name("e", decl.ref.namespace, decl.ref.local)}
            )
        node = XmlElement("element", {"name": decl.name, "ns": schema.target_namespace})
        for pattern in self._type_reference_patterns(decl.type):
            node.append(pattern)
        return node

    # -- occurrence wrapping -------------------------------------------------------------

    def _wrap_occurs(self, pattern: XmlElement, min_occurs: int, max_occurs: int | None) -> list[XmlElement]:
        if min_occurs == 0 and max_occurs == 1:
            wrapper = XmlElement("optional")
            wrapper.append(pattern)
            return [wrapper]
        if min_occurs == 0 and max_occurs is None:
            wrapper = XmlElement("zeroOrMore")
            wrapper.append(pattern)
            return [wrapper]
        if min_occurs == 1 and max_occurs is None:
            wrapper = XmlElement("oneOrMore")
            wrapper.append(pattern)
            return [wrapper]
        if min_occurs == 1 and max_occurs == 1:
            return [pattern]
        # Bounded range: required copies + optional tail.
        patterns = [self._clone(pattern) for _ in range(min_occurs)]
        if max_occurs is None:
            wrapper = XmlElement("zeroOrMore")
            wrapper.append(self._clone(pattern))
            patterns.append(wrapper)
        else:
            for _ in range(max_occurs - min_occurs):
                wrapper = XmlElement("optional")
                wrapper.append(self._clone(pattern))
                patterns.append(wrapper)
        return patterns or [XmlElement("empty")]

    def _clone(self, pattern: XmlElement) -> XmlElement:
        copy = XmlElement(pattern.tag, dict(pattern.attributes))
        for child in pattern.children:
            copy.children.append(self._clone(child) if isinstance(child, XmlElement) else child)
        return copy

    # -- groups and types -----------------------------------------------------------------

    def _group_patterns(self, group: SequenceGroup | ChoiceGroup, schema: Schema) -> list[XmlElement]:
        inner: list[XmlElement] = []
        for particle in group.particles:
            if isinstance(particle, ElementDecl):
                pattern = self._local_element_pattern(particle, schema)
                inner.extend(self._wrap_occurs(pattern, particle.min_occurs, particle.max_occurs))
            else:
                inner.extend(self._group_patterns(particle, schema))
        if isinstance(group, ChoiceGroup):
            choice = XmlElement("choice")
            for pattern in inner:
                choice.append(pattern)
            inner = [choice]
        if group.min_occurs == 1 and group.max_occurs == 1:
            return inner
        container = XmlElement("group")
        for pattern in inner:
            container.append(pattern)
        return self._wrap_occurs(container, group.min_occurs, group.max_occurs)

    def _complex_type_patterns(self, complex_type: ComplexType, schema: Schema) -> list[XmlElement]:
        patterns: list[XmlElement] = []
        if complex_type.simple_content is not None:
            base, attributes, facets = self.schema_set.flatten_content_value(complex_type)
            enum_values = [facet.value for facet in facets if facet.kind == "enumeration"]
            for attribute in attributes:
                patterns.extend(self._attribute_patterns(attribute))
            if enum_values:
                choice = XmlElement("choice")
                for value in enum_values:
                    choice.add("value").text(value)
                patterns.append(choice)
            else:
                patterns.append(XmlElement("data", {"type": base.local}))
            return patterns
        for attribute in complex_type.attributes:
            patterns.extend(self._attribute_patterns(attribute))
        if complex_type.particle is not None:
            patterns.extend(self._group_patterns(complex_type.particle, schema))
        return patterns

    def _attribute_patterns(self, attribute: AttributeDecl) -> list[XmlElement]:
        if attribute.use is AttributeUse.PROHIBITED:
            return []  # closed-world attributes: omission forbids it
        node = XmlElement("attribute", {"name": attribute.name})
        type_ = attribute.type
        if type_.namespace == XSD_NS:
            node.add("data", {"type": type_.local})
        else:
            node.add("ref", {"name": self._define_name("t", type_.namespace, type_.local)})
        if attribute.use is AttributeUse.OPTIONAL:
            wrapper = XmlElement("optional")
            wrapper.append(node)
            return [wrapper]
        return [node]

    def _simple_type_pattern(self, simple_type: SimpleType) -> XmlElement:
        values = simple_type.enumeration_values
        if values:
            choice = XmlElement("choice")
            for value in values:
                choice.add("value").text(value)
            return choice
        return XmlElement("data", {"type": simple_type.base.local})


def result_to_rng(result: GenerationResult, root: QName | str) -> XmlElement:
    """Translate a whole generation result into one RELAX NG grammar."""
    schema_set = result.schema_set()
    prefixes: dict[str, str] = {}
    for generated in result.schemas.values():
        prefix = generated.schema.prefix_for(generated.namespace.urn)
        if prefix:
            prefixes[prefix] = generated.namespace.urn
    root, _ = schema_set.root_element(root)
    return _RngBuilder(schema_set, prefixes).build(root)


def rng_to_string(grammar: XmlElement) -> str:
    """Render a grammar built by :func:`result_to_rng`."""
    return XmlWriter().to_string(grammar)
