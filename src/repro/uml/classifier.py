"""Classifiers: classes, data types, primitive types and enumerations."""

from __future__ import annotations

from typing import Iterator

from repro.errors import ModelError
from repro.uml.elements import Element, NamedElement, _set
from repro.uml.multiplicity import Multiplicity
from repro.uml.property import Property


class Classifier(NamedElement):
    """A named type that can own attributes."""

    def __init__(self, name: str = "") -> None:
        super().__init__(name)
        _set(self, "attributes", [])

    def add_attribute(
        self,
        name: str,
        type: "Classifier | None" = None,
        multiplicity: Multiplicity | str = Multiplicity(1, 1),
        stereotype: str | None = None,
        **tags: str,
    ) -> Property:
        """Create, own and return a new attribute.

        ``stereotype`` is applied immediately when given, with ``tags`` as
        its tagged values -- the common construction path for BCC/BBIE/CON/SUP
        attributes.
        """
        if any(existing.name == name for existing in self.attributes):
            raise ModelError(f"duplicate attribute {name!r} on classifier {self.name!r}")
        prop = Property(name, type, multiplicity)
        prop.owner = self
        if stereotype is not None:
            prop.apply_stereotype(stereotype, **tags)
        self.attributes.append(prop)
        return prop

    def attribute(self, name: str) -> Property:
        """The attribute called ``name`` (raises :class:`ModelError` if absent)."""
        for prop in self.attributes:
            if prop.name == name:
                return prop
        raise ModelError(f"classifier {self.name!r} has no attribute {name!r}")

    def attributes_with_stereotype(self, stereotype: str) -> list[Property]:
        """All owned attributes carrying the given stereotype."""
        return [prop for prop in self.attributes if prop.has_stereotype(stereotype)]

    def owned_elements(self) -> Iterator[Element]:
        return iter(self.attributes)


class Class(Classifier):
    """A UML class -- the metaclass behind ACC, ABIE and document stereotypes."""


class DataType(Classifier):
    """A UML data type -- the metaclass behind CDT and QDT stereotypes."""


class PrimitiveType(DataType):
    """A primitive type (PRIM stereotype): String, Integer, Boolean, ..."""


class EnumerationLiteral(NamedElement):
    """One literal of an enumeration; ``value`` is the human-readable form.

    Figure 4's ``CountryType_Code`` shows literals such as
    ``USA: String = United States o...`` -- a name plus a display value.
    """

    def __init__(self, name: str, value: str | None = None) -> None:
        super().__init__(name)
        _set(self, "value", value if value is not None else name)


class Enumeration(DataType):
    """An enumeration type (ENUM stereotype) owning ordered literals."""

    def __init__(self, name: str = "") -> None:
        super().__init__(name)
        _set(self, "literals", [])

    def add_literal(self, name: str, value: str | None = None) -> EnumerationLiteral:
        """Create, own and return a new literal."""
        if any(existing.name == name for existing in self.literals):
            raise ModelError(f"duplicate literal {name!r} in enumeration {self.name!r}")
        literal = EnumerationLiteral(name, value)
        literal.owner = self
        self.literals.append(literal)
        return literal

    def literal_names(self) -> list[str]:
        """The literal names in declaration order."""
        return [literal.name for literal in self.literals]

    def owned_elements(self) -> Iterator[Element]:
        yield from self.attributes
        yield from self.literals
