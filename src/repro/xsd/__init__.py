"""An XSD 1.0 object model, writer, parser and instance validator.

The paper's pipeline ends in XML schemas "used to validate XML messages
exchanged during a business process".  With no external schema processor
available, this package is the from-scratch substrate that closes the loop:

* :mod:`repro.xsd.components` -- the schema component model (the subset the
  NDR produces: complex types with sequences, simpleContent
  extension/restriction, simple types with facets, global elements,
  attributes, imports, annotations),
* :mod:`repro.xsd.writer` -- deterministic serialization to the textual
  form shown in the paper's Figures 6-8,
* :mod:`repro.xsd.parser` -- the reverse direction, used by round-trip
  tests and by the validator when loading schema files,
* :mod:`repro.xsd.datatypes` -- built-in type lexical checks and facets,
* :mod:`repro.xsd.content_model` -- occurrence-aware content-model
  matching (a compiled NFA and its determinized form),
* :mod:`repro.xsd.validator` -- :class:`SchemaSet` and
  :func:`validate_instance`, the entry point for instance validation,
* :mod:`repro.xsd.compiled` -- the instance validator itself: a schema
  set compiled once into validation plans, cached by fingerprint.
"""

from repro.xsd.components import (
    XSD_NS,
    Annotation,
    AttributeDecl,
    AttributeUse,
    ChoiceGroup,
    ComplexType,
    ElementDecl,
    Facet,
    ImportDecl,
    Schema,
    SequenceGroup,
    SimpleContent,
    SimpleType,
)
from repro.xsd.compat import Change, CompatibilityReport, check_compatibility
from repro.xsd.compiled import (
    CompilationCache,
    CompiledSchemaSet,
    compile_schema_set,
    fingerprint_schema_set,
    get_compilation_cache,
    set_compilation_cache,
)
from repro.xsd.parser import parse_schema
from repro.xsd.validator import SchemaSet, ValidationProblem, validate_instance
from repro.xsd.writer import schema_to_string, schema_to_xml

__all__ = [
    "Annotation",
    "Change",
    "CompatibilityReport",
    "check_compatibility",
    "AttributeDecl",
    "AttributeUse",
    "ChoiceGroup",
    "ComplexType",
    "ElementDecl",
    "Facet",
    "ImportDecl",
    "Schema",
    "SchemaSet",
    "SequenceGroup",
    "SimpleContent",
    "SimpleType",
    "ValidationProblem",
    "XSD_NS",
    "CompilationCache",
    "CompiledSchemaSet",
    "compile_schema_set",
    "fingerprint_schema_set",
    "get_compilation_cache",
    "set_compilation_cache",
    "parse_schema",
    "schema_to_string",
    "schema_to_xml",
    "validate_instance",
]
