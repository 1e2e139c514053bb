"""DOCLibrary schema generation (the paper's Figure 6).

"In a selected DOCLibrary the Add-In starts at the selected root element
and pursues every outgoing aggregation and composition connector.
Interdependencies to other libraries are evaluated and the necessary
schemas are generated." -- only the local ABIEs reachable from the chosen
root get complex types (Figure 6 defines ``HoardingPermitType`` but not the
unused ``HoardingDetailsType``); one global element is declared for the
root, typed by its complexType.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.ccts.bie import Abie
from repro.ccts.libraries import DocLibrary
from repro.errors import CctsError
from repro.ndr.names import complex_type_name
from repro.obs.metrics import counter, histogram
from repro.obs.trace import span
from repro.profile import DOC_LIBRARY
from repro.xsd.components import ElementDecl
from repro.xsdgen.abie_types import append_abie
from repro.xsdgen.session import wrap_build_errors

if TYPE_CHECKING:  # pragma: no cover
    from repro.xsdgen.generator import SchemaBuilder


def build(builder: "SchemaBuilder", root: Abie | str | None) -> None:
    """Populate the builder's schema for a DOCLibrary."""
    library = builder.library
    assert isinstance(library, DocLibrary)
    session = builder.generator.session

    with wrap_build_errors(DOC_LIBRARY, library.name), span(
        "xsdgen.build.doc", library=library.name
    ) as build_span, histogram(
        "xsdgen.library_build_ms", stereotype=DOC_LIBRARY
    ).time():
        root_abie = _root_abie(library, root, builder)
        session.status(f"Selected root element {root_abie.name!r}")
        build_span.set(root=root_abie.name)

        abies = _reachable_local_abies(library, root_abie)
        for abie in abies:
            session.status(f"Processing ABIE {abie.name!r}")
            append_abie(builder, abie)
        counter("xsdgen.abies_processed").inc(len(abies))

        builder.emit(
            ElementDecl(
                name=root_abie.name,
                type=builder.own_qname(complex_type_name(root_abie.name)),
                annotation=builder.annotation_for(root_abie, "ABIE", root_abie.den()),
            ),
            source=root_abie,
            rule="NDR-DOC-ROOT",
        )


def _root_abie(library: DocLibrary, root: Abie | str | None, builder: "SchemaBuilder") -> Abie:
    """Resolve the user's root selection (the Figure-5 dropdown)."""
    candidates = library.root_candidates()
    if isinstance(root, Abie):
        if all(candidate.element is not root.element for candidate in candidates):
            builder.generator.session.fail(
                f"root element {root.name!r} is not defined in DOCLibrary {library.name!r}"
            )
        return root
    if isinstance(root, str):
        try:
            return library.abie(root)
        except CctsError:
            builder.generator.session.fail(
                f"root element {root!r} is not defined in DOCLibrary {library.name!r}"
            )
    if len(candidates) == 1:
        return candidates[0]
    if not candidates:
        builder.generator.session.fail(f"DOCLibrary {library.name!r} defines no ABIE to use as root")
    builder.generator.session.fail(
        f"DOCLibrary {library.name!r} defines {len(candidates)} ABIEs "
        f"({', '.join(candidate.name for candidate in candidates)}); select a root element"
    )
    raise AssertionError("unreachable")  # pragma: no cover


def _reachable_local_abies(library: DocLibrary, root: Abie) -> list[Abie]:
    """Local ABIEs reachable from the root via ASBIEs, in BFS order."""
    local_elements = {abie.element for abie in library.abies}
    order: list[Abie] = []
    seen: set[int] = set()
    queue: list[Abie] = [root]
    while queue:
        current = queue.pop(0)
        if id(current.element) in seen:
            continue
        seen.add(id(current.element))
        if current.element in local_elements:
            order.append(current)
            for asbie in current.asbies:
                queue.append(asbie.target)
        # External ABIEs are not expanded here: their libraries generate
        # their own schemas (triggered by the import machinery).
    return order
