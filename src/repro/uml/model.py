"""The model root: a package with whole-model registries and lookups."""

from __future__ import annotations

import contextlib
from typing import TYPE_CHECKING, Iterator, TypeVar

from repro.errors import ModelError
from repro.uml.association import Association
from repro.uml.classifier import Classifier
from repro.uml.dependency import Dependency
from repro.uml.elements import Element, NamedElement, _versions
from repro.uml.package import Package

if TYPE_CHECKING:  # pragma: no cover
    from repro.uml.index import ModelIndex

ElementT = TypeVar("ElementT", bound=Element)


class Model(Package):
    """The root package of a core-components model.

    Besides plain containment, the model offers whole-tree queries the
    generator and the validation engine rely on: find classifiers by name or
    stereotype anywhere, collect all associations whose whole-end is a given
    class, and follow ``basedOn`` dependencies.

    Every cache of facts derived from a model lives in :meth:`derived`
    and lasts only while the model's :attr:`version` has not moved, so
    building or editing one model never costs another its caches.

    Whole-model passes that do not mutate the model can wrap themselves in
    :meth:`indexed` -- the generator and the validation engine do.  Inside
    such a pass every whole-model query (elements by type or stereotype,
    stereotyped packages, classifiers by name, associations and
    dependencies) reads from one snapshot :class:`~repro.uml.index.ModelIndex`
    instead of walking the tree again, and qualified names
    (:meth:`qualified_name_of`) are computed once per element; outside a
    pass the queries walk the live tree.  The snapshot does not follow
    mutations, so the model must not be mutated inside a pass.
    """

    def __init__(self, name: str = "") -> None:
        super().__init__(name)
        self._version = next(_versions)
        self._derived: tuple[int, dict] = (self._version, {})
        self._active_index = None
        self._index_depth = 0

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

    @contextlib.contextmanager
    def indexed(self):
        """Context manager: answer lookups from a one-shot snapshot index.

        Reentrant; the snapshot is built on first entry and dropped when the
        outermost context exits.  The model must not be mutated inside.
        A snapshot is reused across contexts while the model's
        :attr:`version` has not moved, so repeated passes over an
        unchanged model skip the rebuild.
        """
        from repro.uml.index import ModelIndex

        if self._index_depth == 0:
            memo = self.derived()
            index = memo.get(ModelIndex)
            if index is None:
                index = memo[ModelIndex] = ModelIndex(self)
            self._active_index = index
        self._index_depth += 1
        try:
            yield self._active_index
        finally:
            self._index_depth -= 1
            if self._index_depth == 0:
                self._active_index = None

    @property
    def active_index(self) -> "ModelIndex | None":
        """The snapshot :class:`~repro.uml.index.ModelIndex` of the current
        :meth:`indexed` pass, or None outside one."""
        return self._active_index

    def qualified_name_of(self, element: NamedElement) -> str:
        """``element.qualified_name``; inside a pass, named once per snapshot."""
        if self._active_index is not None:
            return self._active_index.qualified_name(element)
        return element.qualified_name

    def all_elements(self) -> Iterator[Element]:
        """Every element in the model, depth first."""
        if self._active_index is not None:
            return iter(self._active_index.elements)
        return self.walk()

    def all_of_type(self, element_type: type[ElementT]) -> Iterator[ElementT]:
        """Every element that is an instance of ``element_type``."""
        if self._active_index is not None:
            return iter(self._active_index.of_type(element_type))
        return (element for element in self.walk() if isinstance(element, element_type))

    def all_with_stereotype(self, stereotype: str) -> Iterator[Element]:
        """Every element carrying ``stereotype``."""
        if self._active_index is not None:
            return iter(self._active_index.with_stereotype(stereotype))
        return (element for element in self.walk() if element.has_stereotype(stereotype))

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
        if self._active_index is not None:
            return self._active_index.associations_from(source)
        return [a for a in self.all_of_type(Association) if a.source.type is source]

    def dependencies_of(self, client: NamedElement, stereotype: str | None = None) -> list[Dependency]:
        """All dependencies whose client is ``client`` (optionally filtered)."""
        if self._active_index is not None:
            return self._active_index.dependencies_of(client, stereotype)
        found = []
        for dependency in self.all_of_type(Dependency):
            if dependency.client is client:
                if stereotype is None or dependency.has_stereotype(stereotype):
                    found.append(dependency)
        return found

    def based_on_target(self, client: NamedElement) -> NamedElement | None:
        """The supplier of the client's ``basedOn`` dependency, if any."""
        if self._active_index is not None:
            return self._active_index.based_on_target(client)
        deps = self.dependencies_of(client, "basedOn")
        if not deps:
            return None
        if len(deps) > 1:
            raise ModelError(f"{client.name!r} has {len(deps)} basedOn dependencies, expected one")
        return deps[0].supplier

    def owning_package_of(self, element: Element) -> Package | None:
        """The nearest package owning ``element`` (None for the model itself)."""
        owner = element.owner
        while owner is not None and not isinstance(owner, Package):
            owner = owner.owner
        return owner
