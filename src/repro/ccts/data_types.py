"""Typed wrappers for the data-type stereotypes: PRIM, ENUM, CDT, QDT.

Structural rules from the paper (section 3):

* a CDT has **exactly one** attribute stereotyped ``CON`` and zero or more
  stereotyped ``SUP``;
* a QDT has the same shape, is ``basedOn`` a CDT, and its CON/SUPs are
  restrictions of the CDT's (SUPs may be dropped, multiplicities tightened,
  value spaces restricted by assigning an ENUM).
"""

from __future__ import annotations

from repro.errors import CctsError
from repro.ccts.base import ElementWrapper
from repro.profile import CDT, CON, ENUM, PRIM, QDT, SUP
from repro.uml.classifier import Classifier, DataType, Enumeration, EnumerationLiteral, PrimitiveType
from repro.uml.multiplicity import Multiplicity
from repro.uml.property import Property

class Primitive(ElementWrapper):
    """A primitive type (``PRIM``): String, Integer, Boolean, ..."""

    stereotype = PRIM

    element: PrimitiveType


class EnumerationType(ElementWrapper):
    """An enumeration (``ENUM``) restricting a CON/SUP value space."""

    stereotype = ENUM

    element: Enumeration

    def add_literal(self, name: str, value: str | None = None) -> EnumerationLiteral:
        """Add a code literal (``USA`` = ``United States of America``)."""
        return self.element.add_literal(name, value)

    @property
    def literals(self) -> list[EnumerationLiteral]:
        """All literals in declaration order."""
        return list(self.element.literals)

    @property
    def literal_names(self) -> list[str]:
        """Literal names in declaration order (the XSD enumeration values)."""
        return self.element.literal_names()


class ContentComponent(ElementWrapper):
    """The CON attribute of a CDT/QDT carrying the actual value."""

    stereotype = CON

    element: Property

    @property
    def type(self) -> Classifier | None:
        """The primitive or enumeration typing the content."""
        return self.element.type

    @property
    def multiplicity(self) -> Multiplicity:
        """Always 1..1 in well-formed models; kept for diagnostics."""
        return self.element.multiplicity

    @property
    def restricted_by_enum(self) -> bool:
        """True when an ENUM restricts the value space (paper section 3)."""
        return isinstance(self.element.type, Enumeration)


class SupplementaryComponent(ElementWrapper):
    """A SUP attribute: meta information about the content component."""

    stereotype = SUP

    element: Property

    @property
    def type(self) -> Classifier | None:
        """The primitive or enumeration typing the supplementary value."""
        return self.element.type

    @property
    def multiplicity(self) -> Multiplicity:
        """Maps to attribute ``use`` in XSD (0..1 -> optional, 1 -> required)."""
        return self.element.multiplicity


class CoreDataType(ElementWrapper):
    """A core data type (``CDT``): one CON plus zero or more SUPs."""

    stereotype = CDT

    element: DataType

    # -- construction ------------------------------------------------------------

    def set_content(
        self,
        type: Classifier,
        multiplicity: Multiplicity | str = "1",
        **tags: str,
    ) -> ContentComponent:
        """Create the single content component (raises when one exists)."""
        if self.element.attributes_with_stereotype(CON):
            raise CctsError(f"{self.stereotype} {self.name!r} already has a content component")
        prop = self.element.add_attribute("Content", type, multiplicity, stereotype=CON, **tags)
        return ContentComponent(prop, self.model)

    def add_supplementary(
        self,
        name: str,
        type: Classifier,
        multiplicity: Multiplicity | str = "1",
        **tags: str,
    ) -> SupplementaryComponent:
        """Add a supplementary component."""
        prop = self.element.add_attribute(name, type, multiplicity, stereotype=SUP, **tags)
        return SupplementaryComponent(prop, self.model)

    # -- queries --------------------------------------------------------------------

    @property
    def content_component(self) -> ContentComponent | None:
        """The CON attribute, or None when the type has none.

        A well-formed type has exactly one; when a hand-built or loaded
        model carries several, the first is returned and rule UPCC-D01/D02
        reports the violation (queries stay usable on broken models so the
        validation engine can describe them).
        """
        cons = self.element.attributes_with_stereotype(CON)
        if not cons:
            return None
        return ContentComponent(cons[0], self.model)

    @property
    def supplementary_components(self) -> list[SupplementaryComponent]:
        """All SUP attributes in declaration order."""
        return [
            SupplementaryComponent(prop, self.model)
            for prop in self.element.attributes_with_stereotype(SUP)
        ]

    def supplementary(self, name: str) -> SupplementaryComponent:
        """The SUP called ``name`` (raises :class:`CctsError` when absent)."""
        for sup in self.supplementary_components:
            if sup.name == name:
                return sup
        raise CctsError(f"{self.stereotype} {self.name!r} has no supplementary component {name!r}")


class QualifiedDataType(CoreDataType):
    """A qualified data type (``QDT``): a CDT restricted for a context."""

    stereotype = QDT

    @property
    def based_on(self) -> CoreDataType | None:
        """The CDT this QDT was derived from (None when missing or mismatched).

        A ``basedOn`` pointing at a non-CDT is reported by rule UPCC-P07;
        the accessor stays usable on broken models.
        """
        return self.snapshot_memo(QualifiedDataType._find_based_on)

    def _find_based_on(self) -> CoreDataType | None:
        target = self.model.based_on_target(self.element)
        if target is None or not target.has_stereotype(CDT):
            return None
        return CoreDataType(target, self.model)

    @property
    def content_enum(self) -> EnumerationType | None:
        """The ENUM restricting the content component, when one is assigned."""
        content = self.content_component
        if content is not None and isinstance(content.element.type, Enumeration):
            return EnumerationType(content.element.type, self.model)
        return None
