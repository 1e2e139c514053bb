"""Naming rules: XML-name viability and qualifier conventions."""

from __future__ import annotations

from repro.ccts.model import CctsModel
from repro.ccts.naming import strip_qualifier
from repro.errors import NamingError
from repro.ndr.names import sanitize_ncname
from repro.uml.classifier import Classifier
from repro.uml.elements import NamedElement
from repro.uml.property import Property
from repro.validation.diagnostics import ValidationReport
from repro.validation.engine import ValidationEngine


def register(engine: ValidationEngine) -> None:
    """Register the naming rules."""

    @engine.register("UPCC-N01", "model names must yield valid XML names", basic=True)
    def xml_name_viability(model: CctsModel, report: ValidationReport) -> None:
        for element in model.model.all_of_type(Classifier):
            if element.stereotype_applications:
                _check_name(element, report)
        for prop in model.model.all_of_type(Property):
            if prop.stereotype_applications:
                _check_name(prop, report)

    @engine.register("UPCC-N02", "ABIE names should qualify their base ACC's name")
    def abie_qualifier_convention(model: CctsModel, report: ValidationReport) -> None:
        for abie in model.abies():
            base = abie.based_on
            if base is None:
                continue
            qualifier, core_name = strip_qualifier(abie.name)
            if core_name != base.name and abie.name != base.name:
                report.warning(
                    "UPCC-N02",
                    f"ABIE {abie.name!r} is based on ACC {base.name!r} but its name is "
                    f"neither the ACC name nor a qualified form of it (expected e.g. "
                    f"{'X_' + base.name!r})",
                    abie.qualified_name,
                )
            _ = qualifier

    @engine.register("UPCC-N03", "qualifiers should be short upper-case tokens")
    def qualifier_shape(model: CctsModel, report: ValidationReport) -> None:
        for abie in model.abies():
            qualifier, _ = strip_qualifier(abie.name)
            if qualifier and not qualifier[0].isupper():
                report.info(
                    "UPCC-N03",
                    f"ABIE qualifier {qualifier!r} on {abie.name!r} is not capitalized; "
                    f"CCTS qualifiers conventionally are",
                    abie.qualified_name,
                )

    @engine.register("UPCC-N04", "library names become URN segments and should avoid colons", basic=True)
    def library_name_shape(model: CctsModel, report: ValidationReport) -> None:
        for library in model.libraries():
            if ":" in library.name or "/" in library.name or " " in library.name:
                report.error(
                    "UPCC-N04",
                    f"library name {library.name!r} contains characters that break URN or "
                    f"file-name construction (colon, slash or space)",
                    library.qualified_name,
                )


def _check_name(element: NamedElement, report: ValidationReport) -> None:
    """Report a name that yields no XML name; locate the element only then."""
    name = element.name
    if not name:
        report.error("UPCC-N01", "element has an empty name", element.qualified_name)
        return
    try:
        sanitize_ncname(name)
    except NamingError as exc:
        report.error("UPCC-N01", str(exc), element.qualified_name)
