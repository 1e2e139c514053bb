"""Typed wrappers for the core-component stereotypes: ACC, BCC, ASCC."""

from __future__ import annotations

from repro.ccts.base import ElementWrapper
from repro.ccts.data_types import CoreDataType
from repro.ccts.naming import ccts_den_for_acc, ccts_den_for_ascc, ccts_den_for_bcc, compact_component_set
from repro.errors import CctsError
from repro.profile import ACC, ASCC, BCC, CDT
from repro.uml.association import AggregationKind, Association
from repro.uml.classifier import Class
from repro.uml.multiplicity import Multiplicity
from repro.uml.package import Package
from repro.uml.property import Property


class Bcc(ElementWrapper):
    """A basic core component: an atomic field of an ACC, typed by a CDT."""

    stereotype = BCC

    element: Property

    @property
    def cdt(self) -> CoreDataType | None:
        """The core data type of this BCC (None when the type is not a CDT)."""
        if self.element.type is not None and self.element.type.has_stereotype(CDT):
            return CoreDataType(self.element.type, self.model)
        return None

    @property
    def multiplicity(self) -> Multiplicity:
        """The field multiplicity."""
        return self.element.multiplicity

    @property
    def acc(self) -> "Acc":
        """The owning aggregate core component."""
        owner = self.element.owner
        if not isinstance(owner, Class) or not owner.has_stereotype(ACC):
            raise CctsError(f"BCC {self.name!r} is not owned by an ACC")
        return Acc(owner, self.model)

    def den(self) -> str:
        """The full CCTS dictionary entry name of this BCC."""
        representation = self.element.type_name or "Text"
        return ccts_den_for_bcc(self.acc.name, self.name, representation)


class Ascc(ElementWrapper):
    """An association core component: a complex-typed field between ACCs."""

    stereotype = ASCC

    element: Association

    @property
    def role(self) -> str:
        """The role name at the target end (``Private``, ``Work``, ...)."""
        return self.element.target.name

    @property
    def source(self) -> "Acc":
        """The whole-end ACC."""
        return Acc(self.element.source.type, self.model)

    @property
    def target(self) -> "Acc":
        """The part-end ACC."""
        return Acc(self.element.target.type, self.model)

    @property
    def multiplicity(self) -> Multiplicity:
        """The multiplicity at the part end."""
        return self.element.target.multiplicity

    @property
    def aggregation(self) -> AggregationKind:
        """Composition vs shared aggregation at the whole end."""
        return self.element.aggregation

    # ElementWrapper.name would return the (empty) association name; expose
    # the role name instead, which is what call sites mean by "name".
    @property
    def name(self) -> str:  # type: ignore[override]
        return self.role

    @property
    def qualified_name(self) -> str:
        """The owning ACC's qualified name plus the role.

        The association itself is unnamed, so the inherited path would
        name only its package.
        """
        return f"{self.model.qualified_name_of(self.element.source.type)}.{self.role}"

    def den(self) -> str:
        """The full CCTS dictionary entry name of this ASCC."""
        return ccts_den_for_ascc(self.source.name, self.role, self.target.name)


class Acc(ElementWrapper):
    """An aggregate core component: a class of related business information."""

    stereotype = ACC

    element: Class

    # -- construction ----------------------------------------------------------

    def add_bcc(
        self,
        name: str,
        cdt: CoreDataType,
        multiplicity: Multiplicity | str = "1",
        **tags: str,
    ) -> Bcc:
        """Add a basic core component typed by ``cdt``."""
        prop = self.element.add_attribute(name, cdt.element, multiplicity, stereotype=BCC, **tags)
        return Bcc(prop, self.model)

    def add_ascc(
        self,
        role: str,
        target: "Acc",
        multiplicity: Multiplicity | str = "1",
        aggregation: AggregationKind = AggregationKind.COMPOSITE,
        **tags: str,
    ) -> Ascc:
        """Add an association core component to ``target`` under ``role``.

        The association element is owned by the package owning this ACC, as
        a modeling tool would do when the connector is drawn in the ACC's
        library diagram.
        """
        owner = self.element.owner
        if not isinstance(owner, Package):
            raise CctsError(f"ACC {self.name!r} has no owning package to hold the ASCC")
        association = owner.add_association(
            self.element, target.element, role, multiplicity, aggregation, stereotype=ASCC, **tags
        )
        return Ascc(association, self.model)

    # -- queries -----------------------------------------------------------------

    @property
    def bccs(self) -> list[Bcc]:
        """All basic core components in declaration order."""
        return [Bcc(prop, self.model) for prop in self.element.attributes_with_stereotype(BCC)]

    def bcc(self, name: str) -> Bcc:
        """The BCC called ``name`` (raises :class:`CctsError` when absent)."""
        for bcc in self.bccs:
            if bcc.name == name:
                return bcc
        raise CctsError(f"ACC {self.name!r} has no BCC {name!r}")

    @property
    def asccs(self) -> list[Ascc]:
        """All outgoing association core components, model wide."""
        return [
            Ascc(association, self.model)
            for association in self.model.associations_anywhere_from(self.element)
            if association.has_stereotype(ASCC)
        ]

    def ascc(self, role: str) -> Ascc:
        """The outgoing ASCC with role ``role``."""
        for ascc in self.asccs:
            if ascc.role == role:
                return ascc
        raise CctsError(f"ACC {self.name!r} has no ASCC with role {role!r}")

    def den(self) -> str:
        """The full CCTS dictionary entry name: ``Person. Details``."""
        return ccts_den_for_acc(self.name)

    def component_set(self) -> list[str]:
        """The paper's compact element-set listing (section 2.1 / Figure 1)."""
        return compact_component_set(
            self.name,
            [bcc.name for bcc in self.bccs],
            [(ascc.role, ascc.target.name) for ascc in self.asccs],
            kind_labels=("ACC", "BCC", "ASCC"),
        )
