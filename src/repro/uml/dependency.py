"""Dependencies between named elements.

The profile's ``basedOn`` dependency (Figure 1 and 3) records derivation
relationships: ABIE -> ACC, ASBIE -> ASCC and QDT -> CDT.
"""

from __future__ import annotations

from repro.uml.elements import NamedElement, _set


class Dependency(NamedElement):
    """A client-depends-on-supplier relationship."""

    def __init__(self, client: NamedElement, supplier: NamedElement, name: str = "") -> None:
        super().__init__(name)
        _set(self, "client", client)
        _set(self, "supplier", supplier)

    def __repr__(self) -> str:
        stereo = "".join(f"<<{name}>>" for name in self.stereotypes)
        return f"<Dependency {stereo}{self.client.name} --> {self.supplier.name}>"
