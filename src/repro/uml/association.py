"""Binary associations with aggregation semantics.

The UPCC profile uses associations for ASCCs and ASBIEs: the *whole* end sits
on the source class (diamond side) and the *part* end carries the role name
and multiplicity.  Figure 6/7 of the paper make the aggregation kind
behaviourally relevant -- a **composition**-connected ASBIE is inlined in the
owner's complex type, while a **shared aggregation** produces a global element
plus a ``ref``.

Note on paper terminology: the paper's Figure 7 narrative labels the
global-element case "composition" in its caption while the body text says
"If an ASBIE is connected by a composition the ASBIE is first declared
globally and then referenced"; we follow the body text (composition ->
global + ref would contradict Figure 6, whose composite ASBIEs are typed
inline, so we adopt the consistent reading: shared aggregation -> global
element + ref, composition -> inline).  The generator exposes a switch so
both readings can be produced and benchmarked.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

from repro.uml.elements import NamedElement, _set
from repro.uml.multiplicity import Multiplicity

if TYPE_CHECKING:  # pragma: no cover
    from repro.uml.classifier import Class


class AggregationKind(enum.Enum):
    """UML aggregation kinds for the whole-end of an association."""

    NONE = "none"
    SHARED = "shared"
    COMPOSITE = "composite"


class AssociationEnd(NamedElement):
    """One end of a binary association.

    ``name`` is the role name (may be empty on the whole end), ``type`` the
    class the end attaches to.
    """

    def __init__(
        self,
        type: "Class",
        name: str = "",
        multiplicity: Multiplicity | str = Multiplicity(1, 1),
        aggregation: AggregationKind = AggregationKind.NONE,
        navigable: bool = True,
    ) -> None:
        super().__init__(name)
        if isinstance(multiplicity, str):
            multiplicity = Multiplicity.parse(multiplicity)
        _set(self, "type", type)
        _set(self, "multiplicity", multiplicity)
        _set(self, "aggregation", aggregation)
        _set(self, "navigable", navigable)


class Association(NamedElement):
    """A binary association from a *source* (whole) to a *target* (part) end.

    ``source.aggregation`` distinguishes plain association, shared
    aggregation and composition.  The stereotype (ASCC / ASBIE) is applied to
    the association element itself, matching the profile.
    """

    def __init__(self, source: AssociationEnd, target: AssociationEnd, name: str = "") -> None:
        super().__init__(name)
        source.owner = self
        target.owner = self
        _set(self, "source", source)
        _set(self, "target", target)

    def owned_elements(self):
        """The two ends, in (source, target) order."""
        yield self.source
        yield self.target

    @property
    def aggregation(self) -> AggregationKind:
        """The aggregation kind at the whole (source) end."""
        return self.source.aggregation

    @property
    def is_composite(self) -> bool:
        """True for a composition (filled diamond)."""
        return self.source.aggregation is AggregationKind.COMPOSITE

    @property
    def is_shared(self) -> bool:
        """True for a shared aggregation (hollow diamond)."""
        return self.source.aggregation is AggregationKind.SHARED

    def __repr__(self) -> str:
        stereo = "".join(f"<<{name}>>" for name in self.stereotypes)
        return (
            f"<Association {stereo}{self.source.type.name} "
            f"-> +{self.target.name} {self.target.type.name} [{self.target.multiplicity}]>"
        )
