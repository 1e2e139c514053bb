"""Reference oracle for whole-model queries (test support, not product code).

``repro.uml.Model`` answers every whole-model query from one
:class:`~repro.uml.index.ModelIndex`, kept while the model's version holds.
:class:`ScanQueries` keeps the direct implementation it is checked against:
each query walks the live tree again, so it cannot be stale, and answers in
``Model.walk`` order.  It has the query methods of ``Model`` under the same
names, so one helper can ask either and compare the answers.
"""

from __future__ import annotations

from repro.errors import ModelError
from repro.uml.association import Association
from repro.uml.classifier import Classifier
from repro.uml.dependency import Dependency
from repro.uml.package import Package


class ScanQueries:
    """The whole-model queries of ``model``, each a fresh walk of the tree."""

    def __init__(self, model) -> None:
        self.model = model

    def all_elements(self) -> list:
        return list(self.model.walk())

    def all_of_type(self, element_type: type) -> list:
        return [element for element in self.model.walk() if isinstance(element, element_type)]

    def all_with_stereotype(self, stereotype: str) -> list:
        return [element for element in self.model.walk() if element.has_stereotype(stereotype)]

    def packages_with_stereotype(self, stereotype: str) -> list:
        return [
            element
            for element in self.all_with_stereotype(stereotype)
            if isinstance(element, Package)
        ]

    def find_classifier_anywhere(self, name: str):
        for classifier in self.all_of_type(Classifier):
            if classifier.name == name:
                return classifier
        return None

    def associations_anywhere_from(self, source) -> list:
        return [a for a in self.all_of_type(Association) if a.source.type is source]

    def dependencies_of(self, client, stereotype: str | None = None) -> list:
        return [
            dependency
            for dependency in self.all_of_type(Dependency)
            if dependency.client is client
            and (stereotype is None or dependency.has_stereotype(stereotype))
        ]

    def based_on_target(self, client):
        dependencies = self.dependencies_of(client, "basedOn")
        if not dependencies:
            return None
        if len(dependencies) > 1:
            raise ModelError(
                f"{client.name!r} has {len(dependencies)} basedOn dependencies, expected one"
            )
        return dependencies[0].supplier

    def qualified_name_of(self, element) -> str:
        return element.qualified_name
