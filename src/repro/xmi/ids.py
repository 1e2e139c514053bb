"""Deterministic xmi:id allocation.

Ids are assigned in model walk order (``id_1``, ``id_2``, ...) unless an
element already carries an ``xmi_id`` (e.g. after a previous load), which
keeps ids stable across repeated save/load cycles.
"""

from __future__ import annotations

from repro.uml.elements import Element
from repro.uml.model import Model

#: Key, in ``Model.derived()``, of the record that every element of the
#: model carries an xmi:id at its current version.
IDS_COMPLETE = "xmi.ids_complete"


def assign_ids(model: Model) -> dict[int, str]:
    """Ensure every element has an xmi:id; returns id(element) -> xmi:id."""
    taken = {
        element.xmi_id
        for element in model.walk()
        if element.xmi_id is not None
    }
    mapping: dict[int, str] = {}
    counter = 0
    for element in model.walk():
        if element.xmi_id is None:
            counter += 1
            candidate = f"id_{counter}"
            while candidate in taken:
                counter += 1
                candidate = f"id_{counter}"
            element.xmi_id = candidate
            taken.add(candidate)
        mapping[id(element)] = element.xmi_id
    return mapping


def id_of(element: Element) -> str:
    """The element's xmi:id (must have been assigned)."""
    if element.xmi_id is None:
        raise ValueError(f"element {element!r} has no xmi:id; call assign_ids first")
    return element.xmi_id
