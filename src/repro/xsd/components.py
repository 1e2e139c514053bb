"""The XSD schema component model.

This models the subset of XML Schema 1.0 the NDR generator emits -- which is
also the subset the validator consumes:

* global ``element`` declarations,
* ``complexType`` with either a ``sequence``/``choice`` particle plus
  attributes, or ``simpleContent`` (extension/restriction) plus attributes,
* ``simpleType`` with a facet-bearing ``restriction``,
* ``import`` declarations,
* ``annotation``/``documentation`` blocks carrying CCTS metadata.

Type references are :class:`repro.xmlutil.QName` values so cross-namespace
references stay unambiguous regardless of prefixes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import SchemaError
from repro.xmlutil.qname import QName

#: The XML Schema namespace.
XSD_NS = "http://www.w3.org/2001/XMLSchema"


def xsd(local: str) -> QName:
    """Shorthand for a QName in the XSD namespace (``xsd("string")``)."""
    return QName(XSD_NS, local)


@dataclass
class Annotation:
    """An ``xsd:annotation`` holding CCTS documentation entries.

    ``entries`` are (ccts element name, text) pairs rendered inside one
    ``xsd:documentation`` element in the ``ccts`` namespace.
    """

    entries: list[tuple[str, str]] = field(default_factory=list)

    def is_empty(self) -> bool:
        """True when there is nothing to write."""
        return not self.entries


class AttributeUse(enum.Enum):
    """The ``use`` of an attribute declaration."""

    OPTIONAL = "optional"
    REQUIRED = "required"
    PROHIBITED = "prohibited"


@dataclass
class AttributeDecl:
    """An ``xsd:attribute`` (supplementary components map onto these)."""

    name: str
    type: QName
    use: AttributeUse = AttributeUse.OPTIONAL
    annotation: Annotation | None = None


@dataclass
class ElementDecl:
    """An ``xsd:element`` -- either named (with a type) or a ``ref``.

    ``min_occurs``/``max_occurs`` follow XSD conventions (``max_occurs``
    None = unbounded).  Global element declarations always have
    ``min_occurs == max_occurs == 1``.
    """

    name: str | None = None
    type: QName | None = None
    ref: QName | None = None
    min_occurs: int = 1
    max_occurs: int | None = 1
    annotation: Annotation | None = None

    def __post_init__(self) -> None:
        if (self.name is None) == (self.ref is None):
            raise SchemaError("an element declaration needs exactly one of name/ref")
        if self.min_occurs < 0:
            raise SchemaError(f"minOccurs must be >= 0, got {self.min_occurs}")
        if self.max_occurs is not None and self.max_occurs < self.min_occurs:
            raise SchemaError(
                f"maxOccurs {self.max_occurs} < minOccurs {self.min_occurs} on element "
                f"{self.name or self.ref}"
            )

    @property
    def is_ref(self) -> bool:
        """True for a ``ref=`` declaration."""
        return self.ref is not None


@dataclass
class SequenceGroup:
    """An ``xsd:sequence`` of particles (elements or nested groups)."""

    particles: list["ElementDecl | SequenceGroup | ChoiceGroup"] = field(default_factory=list)
    min_occurs: int = 1
    max_occurs: int | None = 1


@dataclass
class ChoiceGroup:
    """An ``xsd:choice`` of particles."""

    particles: list["ElementDecl | SequenceGroup | ChoiceGroup"] = field(default_factory=list)
    min_occurs: int = 1
    max_occurs: int | None = 1


def particle_elements(particle: SequenceGroup | ChoiceGroup | None) -> list[ElementDecl]:
    """Every element declaration nested anywhere in ``particle``, in
    document order (none for ``None``)."""
    found: list[ElementDecl] = []
    pending: list[ElementDecl | SequenceGroup | ChoiceGroup] = [] if particle is None else [particle]
    while pending:
        node = pending.pop()
        if isinstance(node, ElementDecl):
            found.append(node)
        else:
            pending.extend(reversed(node.particles))
    return found


@dataclass
class SimpleContent:
    """``xsd:simpleContent`` with an extension or restriction.

    ``derivation`` is ``"extension"`` or ``"restriction"``; ``base`` is the
    base type QName; ``attributes`` are the (re)declared attributes; facets
    apply only to restrictions.
    """

    base: QName
    derivation: str = "extension"
    attributes: list[AttributeDecl] = field(default_factory=list)
    facets: list["Facet"] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.derivation not in ("extension", "restriction"):
            raise SchemaError(f"invalid simpleContent derivation {self.derivation!r}")


@dataclass
class ComplexType:
    """An ``xsd:complexType``: a particle + attributes, or simple content."""

    name: str
    particle: SequenceGroup | ChoiceGroup | None = None
    simple_content: SimpleContent | None = None
    attributes: list[AttributeDecl] = field(default_factory=list)
    annotation: Annotation | None = None

    def __post_init__(self) -> None:
        if self.particle is not None and self.simple_content is not None:
            raise SchemaError(f"complexType {self.name!r} cannot have both a particle and simpleContent")


@dataclass
class Facet:
    """A constraining facet of a simple-type restriction."""

    kind: str
    value: str

    _KINDS = frozenset(
        {
            "enumeration",
            "pattern",
            "length",
            "minLength",
            "maxLength",
            "minInclusive",
            "maxInclusive",
            "minExclusive",
            "maxExclusive",
            "totalDigits",
            "fractionDigits",
            "whiteSpace",
        }
    )

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise SchemaError(f"unknown facet kind {self.kind!r}")


@dataclass
class SimpleType:
    """An ``xsd:simpleType`` with a facet-bearing restriction.

    ENUM libraries generate these: a restriction of ``xsd:token`` with one
    ``enumeration`` facet per literal (paper section 4.1).
    """

    name: str
    base: QName = field(default_factory=lambda: xsd("token"))
    facets: list[Facet] = field(default_factory=list)
    annotation: Annotation | None = None

    @property
    def enumeration_values(self) -> list[str]:
        """The values of all ``enumeration`` facets, in order."""
        return [facet.value for facet in self.facets if facet.kind == "enumeration"]


@dataclass
class ImportDecl:
    """An ``xsd:import`` of another namespace's schema document."""

    namespace: str
    schema_location: str


@dataclass
class Schema:
    """One schema document.

    ``prefixes`` maps prefix -> namespace URI for every binding the writer
    must declare on the root (insertion order preserved; the generator puts
    the document's own prefix first, as Figure 6 does with ``doc``).
    ``items`` holds the global components in document order.
    """

    target_namespace: str
    prefixes: dict[str, str] = field(default_factory=dict)
    imports: list[ImportDecl] = field(default_factory=list)
    items: list[ComplexType | SimpleType | ElementDecl] = field(default_factory=list)
    element_form_default: str = "qualified"
    attribute_form_default: str = "unqualified"
    version: str | None = None
    annotation: Annotation | None = None

    # -- convenience accessors ---------------------------------------------------

    @property
    def complex_types(self) -> list[ComplexType]:
        """All global complex types, in document order."""
        return [item for item in self.items if isinstance(item, ComplexType)]

    @property
    def simple_types(self) -> list[SimpleType]:
        """All global simple types, in document order."""
        return [item for item in self.items if isinstance(item, SimpleType)]

    @property
    def global_elements(self) -> list[ElementDecl]:
        """All global element declarations, in document order."""
        return [item for item in self.items if isinstance(item, ElementDecl)]

    def complex_type(self, name: str) -> ComplexType:
        """The global complexType called ``name``."""
        for item in self.complex_types:
            if item.name == name:
                return item
        raise SchemaError(f"schema {self.target_namespace!r} has no complexType {name!r}")

    def simple_type(self, name: str) -> SimpleType:
        """The global simpleType called ``name``."""
        for item in self.simple_types:
            if item.name == name:
                return item
        raise SchemaError(f"schema {self.target_namespace!r} has no simpleType {name!r}")

    def global_element(self, name: str) -> ElementDecl:
        """The global element called ``name``."""
        for item in self.global_elements:
            if item.name == name:
                return item
        raise SchemaError(f"schema {self.target_namespace!r} has no global element {name!r}")

    def prefix_for(self, namespace: str) -> str | None:
        """The first declared prefix bound to ``namespace``, if any."""
        for prefix, uri in self.prefixes.items():
            if uri == namespace:
                return prefix
        return None
