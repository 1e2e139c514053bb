"""Generate valid sample instances from a :class:`SchemaSet`.

The generator reads type definitions through the same :class:`SchemaSet`
methods as the validator (one flattening of simple-type and simpleContent
chains, one element-reference lookup) and emits an
:class:`repro.xmlutil.XmlElement` tree with one prefix per target namespace
declared on the root element.  Where the validator reports a schema defect
per document, the generator stops at it with :class:`SchemaError`.
"""

from __future__ import annotations

from repro.errors import SchemaError
from repro.xmlutil.qname import QName
from repro.xmlutil.writer import XmlElement, XmlWriter
from repro.xsd.components import (
    XSD_NS,
    AttributeDecl,
    AttributeUse,
    ChoiceGroup,
    ElementDecl,
    SequenceGroup,
    SimpleType,
)
from repro.xsd.validator import SchemaSet
from repro.instances.values import sample_value


class InstanceGenerator:
    """Builds deterministic valid instances for global elements.

    ``fill_optional`` emits optional elements/attributes too (one occurrence
    each); ``repeat_unbounded`` controls how many occurrences an unbounded
    particle gets; ``max_depth`` guards against recursive compositions by
    dropping *optional* content beyond the limit (required recursion deeper
    than four times the limit raises :class:`SchemaError`).
    """

    def __init__(
        self,
        schema_set: SchemaSet,
        fill_optional: bool = True,
        repeat_unbounded: int = 2,
        max_depth: int = 24,
    ) -> None:
        self.schema_set = schema_set
        self.fill_optional = fill_optional
        self.repeat_unbounded = repeat_unbounded
        self.max_depth = max_depth
        self._prefixes = schema_set.instance_prefixes

    # -- public API -----------------------------------------------------------------

    def generate(self, root: QName | str, namespace: str | None = None) -> XmlElement:
        """Build an instance for the global element ``root``.

        ``root`` may be a :class:`QName` or a local name; a local name is
        resolved against ``namespace`` when given, otherwise against every
        registered namespace (must be unambiguous).
        """
        qname, decl = self.schema_set.root_element(root, namespace)
        element = self._element(decl, qname.namespace, 0)
        for namespace_uri, prefix in sorted(self._prefixes.items()):
            element.attributes[f"xmlns:{prefix}"] = namespace_uri
        return element

    def generate_string(self, root: QName | str, namespace: str | None = None) -> str:
        """Like :meth:`generate` but rendered to a document string."""
        return XmlWriter().to_string(self.generate(root, namespace))

    # -- internals ----------------------------------------------------------------------

    def _tag(self, qname: QName) -> str:
        prefix = self._prefixes.get(qname.namespace)
        return qname.prefixed(prefix)

    def _element(self, decl: ElementDecl, schema_ns: str, depth: int) -> XmlElement:
        qname = decl.ref if decl.is_ref else QName(schema_ns, decl.name)
        decl = self.schema_set.resolve_element(decl)
        element = XmlElement(self._tag(qname))
        if decl.type is None:
            return element
        self._fill(element, decl.type, depth)
        return element

    def _fill(self, element: XmlElement, type_name: QName, depth: int) -> None:
        if type_name.namespace == XSD_NS:
            element.text(sample_value(type_name, []))
            return
        definition = self.schema_set.find_type(type_name)
        if definition is None:
            raise SchemaError(f"unresolved type {type_name.clark()}")
        if isinstance(definition, SimpleType):
            base, facets = self.schema_set.flatten_simple_type(type_name)
            element.text(sample_value(base, facets))
            return
        if definition.simple_content is not None:
            base, attributes, facets = self.schema_set.flatten_content_value(definition)
            for attribute in attributes:
                self._attribute(element, attribute)
            element.text(sample_value(base, facets))
            return
        for attribute in definition.attributes:
            self._attribute(element, attribute)
        if definition.particle is not None:
            self._particle(element, definition.particle, type_name.namespace, depth)

    def _attribute(self, element: XmlElement, attribute: AttributeDecl) -> None:
        if attribute.use is AttributeUse.PROHIBITED:
            return
        if attribute.use is AttributeUse.OPTIONAL and not self.fill_optional:
            return
        base, facets = self.schema_set.flatten_simple_type(attribute.type)
        element.attributes[attribute.name] = sample_value(base, facets)

    def _particle(
        self,
        element: XmlElement,
        particle: ElementDecl | SequenceGroup | ChoiceGroup,
        schema_ns: str,
        depth: int,
    ) -> None:
        occurrences = self._occurrences(particle.min_occurs, particle.max_occurs, depth)
        for _ in range(occurrences):
            if isinstance(particle, ElementDecl):
                element.children.append(self._element(particle, schema_ns, depth + 1))
            elif isinstance(particle, SequenceGroup):
                for child in particle.particles:
                    self._particle(element, child, schema_ns, depth)
            else:  # ChoiceGroup: pick the first branch deterministically
                if particle.particles:
                    self._particle(element, particle.particles[0], schema_ns, depth)

    def _occurrences(self, min_occurs: int, max_occurs: int | None, depth: int) -> int:
        if min_occurs > 0 and depth > self.max_depth * 4:
            # Only *required* content can force unbounded nesting; optional
            # content is already cut at max_depth below.
            raise SchemaError(
                f"required recursion deeper than {self.max_depth * 4} levels; "
                f"the schema demands infinitely nested content"
            )
        if depth > self.max_depth:
            return min_occurs
        if not self.fill_optional:
            return min_occurs
        if max_occurs is None:
            return max(min_occurs, self.repeat_unbounded)
        return max(min_occurs, min(1, max_occurs))
