"""Backward-compatibility checking between schema versions.

The paper's motivation includes schema evolution ("the uncertainty of
future developments"); a registry full of versioned libraries needs an
answer to "can consumers of version N validate messages produced against
version N+1?".  :func:`check_compatibility` compares two schema sets and
classifies every difference:

* **compatible** changes -- new optional elements/attributes, widened
  occurrences, added enumeration values, new global types/elements,
* **breaking** changes -- removed/renamed elements, narrowed occurrences,
  attributes turned required, removed enumeration values, type changes.

"Compatible" here means: every instance valid against the *old* set stays
valid against the *new* one (producer-side compatibility is the mirrored
call).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

from repro.xsd.components import (
    AttributeDecl,
    AttributeUse,
    ComplexType,
    ElementDecl,
    SimpleType,
    particle_elements,
)
from repro.xsd.validator import SchemaSet

Kind = Literal["breaking", "compatible"]


@dataclass(frozen=True)
class Change:
    """One classified difference between schema versions."""

    kind: Kind
    location: str
    message: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.location}: {self.message}"


@dataclass
class CompatibilityReport:
    """All classified differences between two schema sets."""

    changes: list[Change] = field(default_factory=list)

    def add(self, kind: Kind, location: str, message: str) -> None:
        self.changes.append(Change(kind, location, message))

    @property
    def breaking(self) -> list[Change]:
        """Changes that can invalidate previously valid instances."""
        return [change for change in self.changes if change.kind == "breaking"]

    @property
    def compatible(self) -> list[Change]:
        """Changes that preserve validity of old instances."""
        return [change for change in self.changes if change.kind == "compatible"]

    @property
    def is_backward_compatible(self) -> bool:
        """True when no breaking change was found."""
        return not self.breaking


def check_compatibility(old: SchemaSet, new: SchemaSet) -> CompatibilityReport:
    """Classify the differences between ``old`` and ``new`` schema sets."""
    report = CompatibilityReport()
    for namespace in old.namespaces:
        if namespace not in new.namespaces:
            report.add("breaking", namespace, "namespace removed")
            continue
        _compare_schema(old, new, namespace, report)
    for namespace in new.namespaces:
        if namespace not in old.namespaces:
            report.add("compatible", namespace, "namespace added")
    return report


def _compare_schema(old: SchemaSet, new: SchemaSet, namespace: str, report: CompatibilityReport) -> None:
    old_schema = old.schema_for(namespace)
    new_schema = new.schema_for(namespace)

    old_elements = {element.name: element for element in old_schema.global_elements}
    new_elements = {element.name: element for element in new_schema.global_elements}
    for name, element in old_elements.items():
        location = f"{namespace}#{name}"
        if name not in new_elements:
            report.add("breaking", location, "global element removed")
        elif element.type != new_elements[name].type:
            report.add("breaking", location, "global element retyped")
    for name in new_elements:
        if name not in old_elements:
            report.add("compatible", f"{namespace}#{name}", "global element added")

    old_types = {item.name: item for item in old_schema.items if isinstance(item, (ComplexType, SimpleType))}
    new_types = {item.name: item for item in new_schema.items if isinstance(item, (ComplexType, SimpleType))}
    for name, old_type in old_types.items():
        location = f"{namespace}#{name}"
        new_type = new_types.get(name)
        if new_type is None:
            report.add("breaking", location, "type removed")
            continue
        if type(old_type) is not type(new_type):
            report.add("breaking", location, "type changed category (simple/complex)")
            continue
        if isinstance(old_type, SimpleType):
            _compare_simple_type(old_type, new_type, location, report)
        else:
            _compare_complex_type(old_type, new_type, location, report)
    for name in new_types:
        if name not in old_types:
            report.add("compatible", f"{namespace}#{name}", "type added")


def _compare_simple_type(old: SimpleType, new: SimpleType, location: str, report: CompatibilityReport) -> None:
    if old.base != new.base:
        report.add("breaking", location, f"base changed {old.base.local} -> {new.base.local}")
    old_values = set(old.enumeration_values)
    new_values = set(new.enumeration_values)
    for value in sorted(old_values - new_values):
        report.add("breaking", location, f"enumeration value {value!r} removed")
    for value in sorted(new_values - old_values):
        report.add("compatible", location, f"enumeration value {value!r} added")


def _element_key(element: ElementDecl) -> str:
    return element.name if element.name is not None else f"ref:{element.ref.local}"


def _compare_complex_type(old: ComplexType, new: ComplexType, location: str, report: CompatibilityReport) -> None:
    if (old.simple_content is None) != (new.simple_content is None):
        report.add("breaking", location, "content model changed between simple and complex")
        return
    if old.simple_content is not None:
        if old.simple_content.base != new.simple_content.base:
            report.add(
                "breaking", location,
                f"simpleContent base changed {old.simple_content.base.local} -> "
                f"{new.simple_content.base.local}",
            )
        _compare_attributes(
            old.simple_content.attributes, new.simple_content.attributes, location, report
        )
        return
    _compare_attributes(old.attributes, new.attributes, location, report)

    old_elements = {_element_key(e): e for e in particle_elements(old.particle)}
    new_elements = {_element_key(e): e for e in particle_elements(new.particle)}
    for key, old_element in old_elements.items():
        where = f"{location}/{key}"
        new_element = new_elements.get(key)
        if new_element is None:
            report.add("breaking", where, "element removed")
            continue
        if old_element.type != new_element.type:
            report.add("breaking", where, "element retyped")
        if new_element.min_occurs > old_element.min_occurs:
            report.add("breaking", where, f"minOccurs raised {old_element.min_occurs} -> {new_element.min_occurs}")
        elif new_element.min_occurs < old_element.min_occurs:
            report.add("compatible", where, "minOccurs lowered")
        old_max = float("inf") if old_element.max_occurs is None else old_element.max_occurs
        new_max = float("inf") if new_element.max_occurs is None else new_element.max_occurs
        if new_max < old_max:
            report.add("breaking", where, "maxOccurs narrowed")
        elif new_max > old_max:
            report.add("compatible", where, "maxOccurs widened")
    for key, new_element in new_elements.items():
        if key in old_elements:
            continue
        where = f"{location}/{key}"
        if new_element.min_occurs == 0:
            report.add("compatible", where, "optional element added")
        else:
            report.add("breaking", where, "required element added")


def _compare_attributes(
    old_attributes: list[AttributeDecl],
    new_attributes: list[AttributeDecl],
    location: str,
    report: CompatibilityReport,
) -> None:
    old_by_name = {attribute.name: attribute for attribute in old_attributes}
    new_by_name = {attribute.name: attribute for attribute in new_attributes}
    for name, old_attribute in old_by_name.items():
        where = f"{location}/@{name}"
        new_attribute = new_by_name.get(name)
        if new_attribute is None:
            if old_attribute.use is AttributeUse.PROHIBITED:
                continue
            report.add("breaking", where, "attribute removed (instances carrying it break)")
            continue
        if old_attribute.type != new_attribute.type:
            report.add("breaking", where, "attribute retyped")
        if (
            new_attribute.use is AttributeUse.REQUIRED
            and old_attribute.use is not AttributeUse.REQUIRED
        ):
            report.add("breaking", where, "attribute became required")
        elif (
            new_attribute.use is AttributeUse.PROHIBITED
            and old_attribute.use is not AttributeUse.PROHIBITED
        ):
            report.add("breaking", where, "attribute became prohibited")
        elif new_attribute.use is not old_attribute.use:
            report.add("compatible", where, f"attribute use relaxed to {new_attribute.use.value}")
    for name, new_attribute in new_by_name.items():
        if name in old_by_name:
            continue
        where = f"{location}/@{name}"
        if new_attribute.use is AttributeUse.REQUIRED:
            report.add("breaking", where, "required attribute added")
        else:
            report.add("compatible", where, "optional attribute added")
