"""Properties: class attributes and (via association ends) navigable roles.

In the paper's profile BCCs, BBIEs, CONs and SUPs are all class attributes:
a name, a type (a classifier) and a multiplicity (Figure 4 shows e.g.
``CreatedDate: Date [0..1]``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.uml.elements import NamedElement, _set
from repro.uml.multiplicity import Multiplicity

if TYPE_CHECKING:  # pragma: no cover
    from repro.uml.classifier import Classifier


class Property(NamedElement):
    """An attribute of a classifier.

    ``type`` may be None while a model is under construction, but the
    validation engine reports untyped attributes as errors before any
    generation is attempted.
    """

    def __init__(
        self,
        name: str,
        type: "Classifier | None" = None,
        multiplicity: Multiplicity | str = Multiplicity(1, 1),
        default: str | None = None,
    ) -> None:
        super().__init__(name)
        if isinstance(multiplicity, str):
            multiplicity = Multiplicity.parse(multiplicity)
        _set(self, "type", type)
        _set(self, "multiplicity", multiplicity)
        _set(self, "default", default)

    @property
    def type_name(self) -> str:
        """The name of the type, or '' when untyped."""
        return self.type.name if self.type is not None else ""

    def __repr__(self) -> str:
        stereo = "".join(f"<<{name}>>" for name in self.stereotypes)
        return f"<Property {stereo}{self.name}: {self.type_name} [{self.multiplicity}]>"
