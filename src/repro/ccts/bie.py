"""Typed wrappers for the business-information-entity stereotypes.

ABIE / BBIE / ASBIE mirror ACC / BCC / ASCC in structure; the extra
behaviour is the ``basedOn`` linkage to the core side and the context
qualifier handling (``US_Person`` -> qualifier ``US``, core name
``Person``).
"""

from __future__ import annotations

from repro.ccts.base import ElementWrapper
from repro.ccts.core_components import Acc, Ascc, Bcc
from repro.ccts.data_types import CoreDataType, QualifiedDataType
from repro.ccts.naming import (
    ccts_den_for_acc,
    ccts_den_for_ascc,
    ccts_den_for_bcc,
    compact_component_set,
    strip_qualifier,
)
from repro.errors import CctsError
from repro.profile import ABIE, ACC, ASBIE, ASCC, BBIE, CDT, QDT, TAG_BUSINESS_CONTEXT
from repro.uml.association import AggregationKind, Association
from repro.uml.classifier import Class, Classifier
from repro.uml.multiplicity import Multiplicity
from repro.uml.package import Package
from repro.uml.property import Property


class Bbie(ElementWrapper):
    """A basic business information entity: an atomic field of an ABIE."""

    stereotype = BBIE

    element: Property

    @property
    def data_type(self) -> CoreDataType | QualifiedDataType | None:
        """The CDT or QDT typing this BBIE (paper section 2.2)."""
        type_ = self.element.type
        if type_ is None:
            return None
        if type_.has_stereotype(QDT):
            return QualifiedDataType(type_, self.model)
        if type_.has_stereotype(CDT):
            return CoreDataType(type_, self.model)
        return None

    @property
    def multiplicity(self) -> Multiplicity:
        """The field multiplicity."""
        return self.element.multiplicity

    @property
    def abie(self) -> "Abie":
        """The owning aggregate business information entity."""
        owner = self.element.owner
        if not isinstance(owner, Class) or not owner.has_stereotype(ABIE):
            raise CctsError(f"BBIE {self.name!r} is not owned by an ABIE")
        return Abie(owner, self.model)

    @property
    def based_on(self) -> Bcc | None:
        """The BCC this BBIE restricts: the same-named attribute of the base ACC."""
        return self.snapshot_memo(Bbie._find_based_on)

    def _find_based_on(self) -> Bcc | None:
        acc = self.abie.based_on
        if acc is None:
            return None
        for bcc in acc.bccs:
            if bcc.name == self.name:
                return bcc
        return None

    def den(self) -> str:
        """The full CCTS dictionary entry name of this BBIE."""
        abie = self.abie
        qualifier, core_name = strip_qualifier(abie.name)
        representation = self.element.type_name or "Text"
        return ccts_den_for_bcc(core_name, self.name, representation, qualifier)


class Asbie(ElementWrapper):
    """An association business information entity between ABIEs."""

    stereotype = ASBIE

    element: Association

    @property
    def role(self) -> str:
        """The role name at the target end (``Included``, ``Billing``, ...)."""
        return self.element.target.name

    @property
    def source(self) -> "Abie":
        """The whole-end ABIE."""
        return Abie(self.element.source.type, self.model)

    @property
    def target(self) -> "Abie":
        """The part-end ABIE."""
        return Abie(self.element.target.type, self.model)

    @property
    def multiplicity(self) -> Multiplicity:
        """The multiplicity at the part end."""
        return self.element.target.multiplicity

    @property
    def aggregation(self) -> AggregationKind:
        """Composition vs shared aggregation (drives Figure-7 global/ref)."""
        return self.element.aggregation

    @property
    def name(self) -> str:  # type: ignore[override]
        return self.role

    @property
    def qualified_name(self) -> str:
        """The owning ABIE's qualified name plus the role.

        The association itself is unnamed, so the inherited path would
        name only its package.
        """
        return f"{self.model.qualified_name_of(self.element.source.type)}.{self.role}"

    @property
    def based_on(self) -> Ascc | None:
        """The ASCC this ASBIE restricts (None when missing or mismatched)."""
        return self.snapshot_memo(Asbie._find_based_on)

    def _find_based_on(self) -> Ascc | None:
        target = self.model.based_on_target(self.element)
        if target is None or not isinstance(target, Association) or not target.has_stereotype(ASCC):
            return None
        return Ascc(target, self.model)

    def compound_name(self) -> str:
        """The NDR element name: role name + target ABIE name (paper section 4.1).

        ``Included`` + ``Attachment`` -> ``IncludedAttachment``;
        ``Billing`` + ``Person_Identification`` ->
        ``BillingPerson_Identification`` (underscores survive, per Figure 6).
        """
        return f"{self.role}{self.target.name}"

    def den(self) -> str:
        """The full CCTS dictionary entry name of this ASBIE."""
        source_qualifier, source_core = strip_qualifier(self.source.name)
        target_qualifier, target_core = strip_qualifier(self.target.name)
        return ccts_den_for_ascc(source_core, self.role, target_core, source_qualifier, target_qualifier)


class Abie(ElementWrapper):
    """An aggregate business information entity: a context-qualified ACC."""

    stereotype = ABIE

    element: Class

    # -- construction -------------------------------------------------------------

    def add_bbie(
        self,
        name: str,
        data_type: CoreDataType | QualifiedDataType,
        multiplicity: Multiplicity | str = "1",
        **tags: str,
    ) -> Bbie:
        """Add a basic business information entity typed by a CDT or QDT."""
        prop = self.element.add_attribute(name, data_type.element, multiplicity, stereotype=BBIE, **tags)
        return Bbie(prop, self.model)

    def add_asbie(
        self,
        role: str,
        target: "Abie",
        multiplicity: Multiplicity | str = "1",
        aggregation: AggregationKind = AggregationKind.COMPOSITE,
        based_on: Ascc | None = None,
        **tags: str,
    ) -> Asbie:
        """Add an association business information entity to ``target``.

        When ``based_on`` is given, a ``basedOn`` dependency to the ASCC is
        recorded alongside, as Figure 1 draws it.
        """
        owner = self.element.owner
        if not isinstance(owner, Package):
            raise CctsError(f"ABIE {self.name!r} has no owning package to hold the ASBIE")
        association = owner.add_association(
            self.element, target.element, role, multiplicity, aggregation, stereotype=ASBIE, **tags
        )
        if based_on is not None:
            owner.add_dependency(association, based_on.element, stereotype="basedOn")
        return Asbie(association, self.model)

    # -- queries ----------------------------------------------------------------------

    @property
    def bbies(self) -> list[Bbie]:
        """All basic business information entities in declaration order."""
        return [Bbie(prop, self.model) for prop in self.element.attributes_with_stereotype(BBIE)]

    def bbie(self, name: str) -> Bbie:
        """The BBIE called ``name``."""
        for bbie in self.bbies:
            if bbie.name == name:
                return bbie
        raise CctsError(f"ABIE {self.name!r} has no BBIE {name!r}")

    @property
    def asbies(self) -> list[Asbie]:
        """All outgoing association business information entities, model wide."""
        return [
            Asbie(association, self.model)
            for association in self.model.associations_anywhere_from(self.element)
            if association.has_stereotype(ASBIE)
        ]

    def asbie(self, role: str) -> Asbie:
        """The outgoing ASBIE with role ``role``."""
        for asbie in self.asbies:
            if asbie.role == role:
                return asbie
        raise CctsError(f"ABIE {self.name!r} has no ASBIE with role {role!r}")

    @property
    def based_on(self) -> Acc | None:
        """The ACC this ABIE restricts, via its ``basedOn`` dependency.

        None when the dependency is missing *or* points at a non-ACC (rule
        UPCC-P07 reports the latter; queries stay usable on broken models).
        """
        return self.snapshot_memo(Abie._find_based_on)

    def _find_based_on(self) -> Acc | None:
        target = self.model.based_on_target(self.element)
        if target is None or not target.has_stereotype(ACC):
            return None
        return Acc(target, self.model)

    @property
    def qualifier(self) -> str | None:
        """The context prefix of the name (``US`` for ``US_Person``)."""
        return strip_qualifier(self.name)[0]

    @property
    def business_context(self) -> str | None:
        """The declared business-context tag, when present."""
        return self._tag(TAG_BUSINESS_CONTEXT)

    def den(self) -> str:
        """The full CCTS dictionary entry name: ``US_ Person. Details``."""
        qualifier, core_name = strip_qualifier(self.name)
        return ccts_den_for_acc(core_name, qualifier)

    def component_set(self) -> list[str]:
        """The paper's compact element-set listing for the business side."""
        return compact_component_set(
            self.name,
            [bbie.name for bbie in self.bbies],
            [(asbie.role, asbie.target.name) for asbie in self.asbies],
            kind_labels=("ABIE", "BBIE", "ASBIE"),
        )

    # Guard against accidental non-CCTS attribute types slipping in.
    def untyped_or_foreign_bbies(self) -> list[str]:
        """Names of BBIEs whose type is neither a CDT nor a QDT (for validation)."""
        problems = []
        for bbie in self.bbies:
            type_: Classifier | None = bbie.element.type
            if type_ is None or not (type_.has_stereotype(CDT) or type_.has_stereotype(QDT)):
                problems.append(bbie.name)
        return problems
