"""The model root: a package with whole-model registries and lookups."""

from __future__ import annotations

from typing import Iterator, TypeVar

from repro.uml.association import Association
from repro.uml.classifier import Classifier
from repro.uml.dependency import Dependency
from repro.uml.elements import Element, NamedElement, _versions
from repro.uml.index import ModelIndex
from repro.uml.package import Package

ElementT = TypeVar("ElementT", bound=Element)


class Model(Package):
    """The root package of a core-components model.

    Besides plain containment, the model offers whole-tree queries the
    generator and the validation engine rely on: find classifiers by name or
    stereotype anywhere, collect all associations whose whole-end is a given
    class, and follow ``basedOn`` dependencies.

    Every cache of facts derived from a model lives in :meth:`derived`
    and lasts only while the model's :attr:`version` has not moved, so
    building or editing one model never costs another its caches.  The
    whole-model queries all read one :class:`~repro.uml.index.ModelIndex`
    kept there (:meth:`index`): the first query after a tracked write
    walks the tree once, and later ones answer from that walk, in walk
    order.
    """

    def __init__(self, name: str = "") -> None:
        super().__init__(name)
        self._version = next(_versions)
        self._derived: tuple[int, dict] = (self._version, {})

    @property
    def version(self) -> int:
        """The structural version: a new, never repeated value after every
        tracked write to this model (see :class:`~repro.uml.elements.Element`)."""
        return self._version

    def derived(self) -> dict:
        """Memo space for facts computed from the model at its :attr:`version`.

        Emptied whenever the version moves.  Values are shared between
        callers, who must not modify them.
        """
        version, memo = self._derived
        if version != self._version:
            memo = {}
            self._derived = (self._version, memo)
        return memo

    def index(self) -> ModelIndex:
        """The :class:`~repro.uml.index.ModelIndex` of the model at its
        :attr:`version`, built on the first call after the version moves."""
        memo = self.derived()
        index = memo.get(ModelIndex)
        if index is None:
            index = memo[ModelIndex] = ModelIndex(self)
        return index

    def qualified_name_of(self, element: NamedElement) -> str:
        """``element.qualified_name``, named once per model version."""
        return self.index().qualified_name(element)

    def all_elements(self) -> Iterator[Element]:
        """Every element in the model, depth first."""
        return iter(self.index().elements)

    def all_of_type(self, element_type: type[ElementT]) -> Iterator[ElementT]:
        """Every element that is an instance of ``element_type``."""
        return iter(self.index().of_type(element_type))

    def all_with_stereotype(self, stereotype: str) -> Iterator[Element]:
        """Every element carrying ``stereotype``."""
        return iter(self.index().with_stereotype(stereotype))

    def packages_with_stereotype(self, stereotype: str) -> list[Package]:
        """All (recursively) contained packages carrying the stereotype."""
        return [
            element
            for element in self.all_with_stereotype(stereotype)
            if isinstance(element, Package)
        ]

    def find_classifier_anywhere(self, name: str) -> Classifier | None:
        """The first classifier named ``name`` anywhere in the model."""
        for classifier in self.all_of_type(Classifier):
            if classifier.name == name:
                return classifier
        return None

    def associations_anywhere_from(self, source: Classifier) -> list[Association]:
        """All associations model-wide whose whole end attaches to ``source``.

        The generator follows "every outgoing aggregation and composition
        connector" (paper section 4.1) -- connectors may be owned by the
        library that draws them, not the library owning the class, so the
        search is model wide and result order is model order.
        """
        return self.index().associations_from(source)

    def dependencies_of(self, client: NamedElement, stereotype: str | None = None) -> list[Dependency]:
        """All dependencies whose client is ``client`` (optionally filtered)."""
        return self.index().dependencies_of(client, stereotype)

    def based_on_target(self, client: NamedElement) -> NamedElement | None:
        """The supplier of the client's ``basedOn`` dependency, if any."""
        return self.index().based_on_target(client)

    def owning_package_of(self, element: Element) -> Package | None:
        """The nearest package owning ``element`` (None for the model itself)."""
        owner = element.owner
        while owner is not None and not isinstance(owner, Package):
            owner = owner.owner
        return owner
