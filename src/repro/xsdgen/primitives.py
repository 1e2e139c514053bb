"""Mapping from CCTS primitive types to XSD built-ins.

Paper section 4.1: "For PRIMLibraries currently no schema generation
mechanism is implemented.  Where primitive types are needed (String,
Integer ...) the build-in types of the XSD schema are taken."
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.xmlutil.qname import QName
from repro.xsd.components import XSD_NS

if TYPE_CHECKING:  # pragma: no cover
    from repro.uml.classifier import Classifier
    from repro.xsdgen.generator import SchemaBuilder

#: CCTS primitive name -> XSD built-in local name.
PRIMITIVE_BUILTINS: dict[str, str] = {
    "String": "string",
    "NormalizedString": "normalizedString",
    "Token": "token",
    "Integer": "integer",
    "Int": "int",
    "Long": "long",
    "Short": "short",
    "NonNegativeInteger": "nonNegativeInteger",
    "PositiveInteger": "positiveInteger",
    "Decimal": "decimal",
    "Double": "double",
    "Float": "float",
    "Boolean": "boolean",
    "Date": "date",
    "Time": "time",
    "DateTime": "dateTime",
    "Duration": "duration",
    "Binary": "base64Binary",
    "Base64Binary": "base64Binary",
    "HexBinary": "hexBinary",
    "URI": "anyURI",
    "AnyURI": "anyURI",
    "Language": "language",
    "TimePoint": "dateTime",
}


def builtin_for_primitive_name(name: str) -> QName | None:
    """The XSD built-in for a CCTS primitive name, or None when unknown."""
    local = PRIMITIVE_BUILTINS.get(name)
    if local is None:
        return None
    return QName(XSD_NS, local)


def builtin_or_string(name: str) -> QName:
    """Like :func:`builtin_for_primitive_name` but falls back to ``xsd:string``."""
    return builtin_for_primitive_name(name) or QName(XSD_NS, "string")


def record_primitive_mapping(
    builder: "SchemaBuilder", classifier: "Classifier", path: str
) -> None:
    """Record a primitive-to-built-in substitution at ``path``.

    PRIMLibraries generate no schema of their own, so the only observable
    artifact of a primitive type is the XSD built-in standing in for it at
    a CON/SUP use site.  The source is the raw UML classifier (not a CCTS
    wrapper); :class:`~repro.xsdgen.provenance.ProvenanceLog` names it as
    a ``PRIM`` when the record is read.
    """
    builder.provenance.add(
        "builtin", PRIMITIVE_BUILTINS.get(classifier.name, "string"), path, classifier, "NDR-PRIM-BUILTIN"
    )
