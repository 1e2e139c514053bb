"""Shared base class for CCTS wrapper objects.

Wrappers pair a UML element with the owning :class:`repro.uml.Model` so they
can answer model-wide questions (``basedOn`` targets, outgoing
associations).  They compare equal when they wrap the same element, so
round-tripping through lookups yields interchangeable handles.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, TypeVar

from repro.profile import TAG_DEFINITION, TAG_DICTIONARY_ENTRY_NAME, TAG_VERSION
from repro.uml.elements import NamedElement

if TYPE_CHECKING:  # pragma: no cover
    from repro.uml.model import Model

WrapperT = TypeVar("WrapperT", bound="ElementWrapper")
T = TypeVar("T")


class ElementWrapper:
    """A typed handle on a stereotyped UML element."""

    #: The stereotype this wrapper expects on its element.
    stereotype: str = ""

    def __init__(self, element: NamedElement, model: "Model") -> None:
        self.element = element
        self.model = model

    @property
    def name(self) -> str:
        """The model name of the wrapped element."""
        return self.element.name

    @property
    def qualified_name(self) -> str:
        """Dot-separated path from the model root."""
        return self.model.qualified_name_of(self.element)

    def snapshot_memo(self: WrapperT, compute: Callable[[WrapperT], T]) -> T:
        """``compute(self)``, kept in the model's
        :meth:`~repro.uml.model.Model.derived` while its version holds.

        ``compute`` must derive its answer from the model alone.
        """
        memo = self.model.derived()
        key = (compute, self.element)
        if key in memo:
            return memo[key]
        value = memo[key] = compute(self)
        return value

    def _tag(self, tag: str, default: str | None = None) -> str | None:
        return self.element.tagged_value(self.stereotype, tag, default)

    def _set_tag(self, tag: str, value: str) -> None:
        self.element.set_tagged_value(self.stereotype, tag, value)

    @property
    def definition(self) -> str:
        """The CCTS definition annotation text."""
        return self._tag(TAG_DEFINITION, "") or ""

    @definition.setter
    def definition(self, value: str) -> None:
        self._set_tag(TAG_DEFINITION, value)

    @property
    def version(self) -> str:
        """The CCTS version annotation."""
        return self._tag(TAG_VERSION, "1.0") or "1.0"

    @version.setter
    def version(self, value: str) -> None:
        self._set_tag(TAG_VERSION, value)

    @property
    def dictionary_entry_name(self) -> str | None:
        """The denormalized DEN tag, when present."""
        return self._tag(TAG_DICTIONARY_ENTRY_NAME)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ElementWrapper) and other.element is self.element

    def __hash__(self) -> int:
        return id(self.element)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
