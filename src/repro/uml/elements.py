"""Base classes for all UML model elements.

:class:`Element` carries the cross-cutting machinery every element needs:
stereotype applications with tagged values, documentation, and an optional
stable ``xmi_id``.  :class:`NamedElement` adds the name / qualified-name
behaviour used throughout lookups and the NDR naming rules.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterator

from repro.errors import ProfileError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.uml.package import Package

#: Model versions: one process-wide counter, so an ``(id(model), version)``
#: pair never repeats, even after ``id()`` recycling.
_versions = itertools.count(1)
#: A construction write: a field assignment past ``Element.__setattr__``.
_set = object.__setattr__


def touch(element: "Element") -> None:
    """Give the model ``element`` belongs to (the root of its ``owner``
    chain) a new version; an element in no model moves none."""
    owner = element.owner
    while owner is not None:
        element = owner
        owner = element.owner
    if element._version is not None:
        _set(element, "_version", next(_versions))


class Element:
    """Root of the UML element hierarchy.

    Stereotypes are stored as a mapping ``stereotype name -> tagged values``
    so one element can hold several applications, each with its own tags --
    the shape the UPCC profile needs (a package is both a ``BIELibrary`` and
    carries ``baseURN``/``namespacePrefix`` tags of that stereotype).

    Assigning a public attribute or changing a stereotype application or
    tagged value is tracked: it moves the version of the element's model
    (:attr:`repro.uml.model.Model.version`), dropping that model's caches.
    Private attributes and construction (a new element is in no model) are
    not tracked, nor is in-place mutation of non-Element values such as a
    ``Multiplicity``.
    """

    #: The model version; None on every element that is not a model.
    _version: int | None = None

    def __init__(self) -> None:
        _set(self, "stereotype_applications", {})
        _set(self, "documentation", "")
        _set(self, "xmi_id", None)
        _set(self, "owner", None)

    def __setattr__(self, name: str, value: object) -> None:
        if name.startswith("_"):
            _set(self, name, value)
            return
        if name == "owner":
            touch(self)  # the model the element leaves
        _set(self, name, value)
        touch(self)

    # -- stereotype machinery -------------------------------------------------

    @property
    def stereotypes(self) -> list[str]:
        """Names of all applied stereotypes, in application order."""
        return list(self.stereotype_applications)

    def apply_stereotype(self, name: str, **tags: str) -> "Element":
        """Apply a stereotype (by name) with optional tagged values."""
        values = self.stereotype_applications.setdefault(name, {})
        for key, value in tags.items():
            values[key] = value
        touch(self)
        return self

    def has_stereotype(self, name: str) -> bool:
        """True when the stereotype ``name`` has been applied."""
        return name in self.stereotype_applications

    def remove_stereotype(self, name: str) -> None:
        """Remove a stereotype application; no-op when absent."""
        if self.stereotype_applications.pop(name, None) is not None:
            touch(self)

    def tagged_value(self, stereotype: str, tag: str, default: str | None = None) -> str | None:
        """The value of ``tag`` under ``stereotype``, or ``default``."""
        return self.stereotype_applications.get(stereotype, {}).get(tag, default)

    def set_tagged_value(self, stereotype: str, tag: str, value: str) -> None:
        """Set a tagged value; the stereotype must already be applied."""
        if stereotype not in self.stereotype_applications:
            raise ProfileError(
                f"cannot set tag {tag!r}: stereotype {stereotype!r} not applied to {self!r}"
            )
        self.stereotype_applications[stereotype][tag] = value
        touch(self)

    def any_tagged_value(self, tag: str, default: str | None = None) -> str | None:
        """Search every applied stereotype for ``tag`` (first hit wins)."""
        for values in self.stereotype_applications.values():
            if tag in values:
                return values[tag]
        return default

    # -- containment -----------------------------------------------------------

    def owned_elements(self) -> Iterator["Element"]:
        """Direct children; subclasses with containment override this."""
        return iter(())

    def walk(self) -> Iterator["Element"]:
        """Depth-first traversal of this element and everything it owns."""
        yield self
        for child in self.owned_elements():
            yield from child.walk()


class NamedElement(Element):
    """An element with a (possibly qualified) name."""

    def __init__(self, name: str = "") -> None:
        super().__init__()
        _set(self, "name", name)

    @property
    def namespace(self) -> "Package | None":
        """The nearest owning package, or None for root elements."""
        from repro.uml.package import Package

        owner = self.owner
        while owner is not None and not isinstance(owner, Package):
            owner = owner.owner
        return owner

    @property
    def qualified_name(self) -> str:
        """Dot-separated path from the model root, e.g. ``Model.Lib.Code``."""
        parts: list[str] = [self.name]
        owner = self.owner
        while owner is not None:
            if isinstance(owner, NamedElement) and owner.name:
                parts.append(owner.name)
            owner = owner.owner
        return ".".join(reversed(parts))

    def __repr__(self) -> str:
        stereo = "".join(f"<<{name}>>" for name in self.stereotypes)
        return f"<{type(self).__name__} {stereo}{self.name!r}>"
