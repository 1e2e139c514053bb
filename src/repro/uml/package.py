"""Packages: the containers libraries are mapped onto.

All eight UPCC library stereotypes (CCLibrary, BIELibrary, DOCLibrary, ...)
apply to packages.  A package owns classifiers, associations, dependencies
and subpackages, and offers name-based lookup used everywhere above.
"""

from __future__ import annotations

from typing import Iterator, TypeVar

from repro.errors import ModelError
from repro.uml.association import AggregationKind, Association, AssociationEnd
from repro.uml.classifier import Class, Classifier, DataType, Enumeration, PrimitiveType
from repro.uml.dependency import Dependency
from repro.uml.elements import Element, NamedElement, _set
from repro.uml.multiplicity import Multiplicity

ClassifierT = TypeVar("ClassifierT", bound=Classifier)


class Package(NamedElement):
    """A UML package owning classifiers, associations and subpackages."""

    def __init__(self, name: str = "") -> None:
        super().__init__(name)
        _set(self, "packages", [])
        _set(self, "classifiers", [])
        _set(self, "associations", [])
        _set(self, "dependencies", [])

    # -- construction ----------------------------------------------------------

    def add_package(self, name: str, stereotype: str | None = None, **tags: str) -> "Package":
        """Create, own and return a subpackage, optionally stereotyped."""
        if any(existing.name == name for existing in self.packages):
            raise ModelError(f"duplicate subpackage {name!r} in package {self.name!r}")
        package = Package(name)
        package.owner = self
        if stereotype is not None:
            package.apply_stereotype(stereotype, **tags)
        self.packages.append(package)
        return package

    def _add_classifier(self, classifier: ClassifierT, stereotype: str | None, tags: dict[str, str]) -> ClassifierT:
        if any(existing.name == classifier.name for existing in self.classifiers):
            raise ModelError(
                f"duplicate classifier {classifier.name!r} in package {self.name!r}"
            )
        classifier.owner = self
        if stereotype is not None:
            classifier.apply_stereotype(stereotype, **tags)
        self.classifiers.append(classifier)
        return classifier

    def add_class(self, name: str, stereotype: str | None = None, **tags: str) -> Class:
        """Create, own and return a class."""
        return self._add_classifier(Class(name), stereotype, tags)

    def add_data_type(self, name: str, stereotype: str | None = None, **tags: str) -> DataType:
        """Create, own and return a data type."""
        return self._add_classifier(DataType(name), stereotype, tags)

    def add_primitive_type(self, name: str, stereotype: str | None = None, **tags: str) -> PrimitiveType:
        """Create, own and return a primitive type."""
        return self._add_classifier(PrimitiveType(name), stereotype, tags)

    def add_enumeration(self, name: str, stereotype: str | None = None, **tags: str) -> Enumeration:
        """Create, own and return an enumeration."""
        return self._add_classifier(Enumeration(name), stereotype, tags)

    def add_association(
        self,
        source: Class,
        target: Class,
        role: str,
        multiplicity: Multiplicity | str = Multiplicity(1, 1),
        aggregation: AggregationKind = AggregationKind.COMPOSITE,
        stereotype: str | None = None,
        **tags: str,
    ) -> Association:
        """Create, own and return a binary association.

        ``role`` names the target (part) end, as in ``+Included`` on the
        HoardingPermit -> Attachment ASBIE of Figure 4.
        """
        source_end = AssociationEnd(source, aggregation=aggregation, navigable=False)
        target_end = AssociationEnd(target, role, multiplicity)
        association = Association(source_end, target_end)
        association.owner = self
        if stereotype is not None:
            association.apply_stereotype(stereotype, **tags)
        self.associations.append(association)
        return association

    def add_dependency(
        self,
        client: NamedElement,
        supplier: NamedElement,
        stereotype: str | None = None,
        **tags: str,
    ) -> Dependency:
        """Create, own and return a dependency (e.g. ``basedOn``)."""
        dependency = Dependency(client, supplier)
        dependency.owner = self
        if stereotype is not None:
            dependency.apply_stereotype(stereotype, **tags)
        self.dependencies.append(dependency)
        return dependency

    # -- lookup ------------------------------------------------------------------

    def package(self, name: str) -> "Package":
        """The direct subpackage called ``name``."""
        for package in self.packages:
            if package.name == name:
                return package
        raise ModelError(f"package {self.name!r} has no subpackage {name!r}")

    def classifier(self, name: str) -> Classifier:
        """The directly owned classifier called ``name``."""
        for classifier in self.classifiers:
            if classifier.name == name:
                return classifier
        raise ModelError(f"package {self.name!r} has no classifier {name!r}")

    def find_classifier(self, name: str) -> Classifier | None:
        """Like :meth:`classifier` but returns None instead of raising."""
        for classifier in self.classifiers:
            if classifier.name == name:
                return classifier
        return None

    def classifiers_with_stereotype(self, stereotype: str) -> list[Classifier]:
        """Directly owned classifiers carrying the given stereotype."""
        return [c for c in self.classifiers if c.has_stereotype(stereotype)]

    def associations_from(self, source: Class) -> list[Association]:
        """Owned associations whose whole-end attaches to ``source``."""
        return [a for a in self.associations if a.source.type is source]

    def packages_with_stereotype(self, stereotype: str) -> "list[Package]":
        """All (recursively) contained packages carrying the stereotype."""
        found: list[Package] = []
        for element in self.walk():
            if isinstance(element, Package) and element.has_stereotype(stereotype):
                found.append(element)
        return found

    # -- traversal ---------------------------------------------------------------

    def owned_elements(self) -> Iterator[Element]:
        yield from self.classifiers
        yield from self.associations
        yield from self.dependencies
        yield from self.packages
