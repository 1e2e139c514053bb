"""The index every whole-model query of a model reads.

Whole-model questions (``all_of_type``, ``all_with_stereotype``,
``associations_anywhere_from``, ``dependencies_of``, ``based_on_target``
and the library scan built on them) would each walk the whole tree, which
makes a generation or validation pass quadratic in model size.
:class:`ModelIndex` walks the model once, keeps the elements in walk order,
and answers every one of those queries from that walk: association,
dependency, ``basedOn`` and stereotype lookups in O(1) from tables filled
in that walk, type queries by filtering the element list once per type and
caching the result, so the answers keep model order.  Qualified names are
computed once per element, sharing each owner's name.

An index does not follow edits.  ``Model.index`` keeps one in
``Model.derived``, which empties whenever the model's version moves, so the
first query after a tracked write builds a new one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, TypeVar

from repro.errors import ModelError
from repro.uml.association import Association
from repro.uml.classifier import Classifier
from repro.uml.dependency import Dependency
from repro.uml.elements import Element, NamedElement

if TYPE_CHECKING:  # pragma: no cover
    from repro.uml.model import Model

ElementT = TypeVar("ElementT", bound=Element)


class ModelIndex:
    """Whole-model queries answered from one walk of a model."""

    def __init__(self, model: "Model") -> None:
        self.model = model
        #: Every element of the model, in ``Model.walk`` order.
        self.elements: list[Element] = list(model.walk())
        self._associations_by_source: dict[int, list[Association]] = {}
        self._dependencies_by_client: dict[int, list[Dependency]] = {}
        self._based_on_suppliers: dict[int, list[NamedElement]] = {}
        self._of_type: dict[type, list] = {}
        self._with_stereotype: dict[str, list[Element]] = {}
        self._qualified_names: dict[NamedElement, str] = {}
        with_stereotype = self._with_stereotype
        for element in self.elements:
            for stereotype in element.stereotype_applications:
                found = with_stereotype.get(stereotype)
                if found is None:
                    with_stereotype[stereotype] = [element]
                else:
                    found.append(element)
            if isinstance(element, Association):
                self._associations_by_source.setdefault(id(element.source.type), []).append(element)
            elif isinstance(element, Dependency):
                self._dependencies_by_client.setdefault(id(element.client), []).append(element)
                if element.has_stereotype("basedOn"):
                    self._based_on_suppliers.setdefault(id(element.client), []).append(
                        element.supplier
                    )

    def of_type(self, element_type: type[ElementT]) -> list[ElementT]:
        """Every element that is an instance of ``element_type``, in walk order.

        The list is shared by every caller of the index; do not modify it.
        """
        found = self._of_type.get(element_type)
        if found is None:
            found = [element for element in self.elements if isinstance(element, element_type)]
            self._of_type[element_type] = found
        return found

    def with_stereotype(self, stereotype: str) -> list[Element]:
        """Every element carrying ``stereotype``, in walk order (shared; do not modify)."""
        return self._with_stereotype.get(stereotype, [])

    def qualified_name(self, element: NamedElement) -> str:
        """``element.qualified_name``, computed once per element and index.

        An element of another model (a wrapper can outlive a move between
        models) is named live: that model's edits do not reach this index.
        """
        names = self._qualified_names
        found = names.get(element)
        if found is not None:
            return found
        # Climb to the nearest named owner whose name is known, then name
        # the chain back down from it.
        chain = [element]
        prefix = ""
        top = element
        owner = element.owner
        while owner is not None:
            if isinstance(owner, NamedElement) and owner.name:
                known = names.get(owner)
                if known is not None:
                    prefix = known
                    break
                chain.append(owner)
            top = owner
            owner = owner.owner
        else:
            if top is not self.model:
                return element.qualified_name
        for named in reversed(chain):
            prefix = names[named] = f"{prefix}.{named.name}" if prefix else named.name
        return prefix

    def associations_from(self, source: Classifier) -> list[Association]:
        """All associations whose whole end attaches to ``source``."""
        return list(self._associations_by_source.get(id(source), []))

    def dependencies_of(self, client: NamedElement, stereotype: str | None = None) -> list[Dependency]:
        """All dependencies whose client is ``client``, optionally filtered."""
        found = self._dependencies_by_client.get(id(client), [])
        if stereotype is None:
            return list(found)
        return [dependency for dependency in found if dependency.has_stereotype(stereotype)]

    def based_on_target(self, client: NamedElement) -> NamedElement | None:
        """The supplier of the client's single ``basedOn`` dependency."""
        suppliers = self._based_on_suppliers.get(id(client))
        if not suppliers:
            return None
        if len(suppliers) > 1:
            raise ModelError(
                f"{client.name!r} has {len(suppliers)} basedOn dependencies, expected one"
            )
        return suppliers[0]
