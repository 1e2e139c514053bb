"""Alternative transfer syntaxes: RELAX NG and RDF Schema.

Paper, section 4: "the generation is not necessarily limited to XML schema
and future extensions could include the generation of RELAX NG [8] or RDF
schemas [15] as well."  This package implements both extensions:

* :mod:`repro.rngen.relaxng` -- translate a generation result into one
  RELAX NG grammar (XML syntax) whose language is the same as the XSD
  set's (modulo XSD-only features like attribute prohibition, which have
  no RNG counterpart and are documented in the module),
* :mod:`repro.rngen.rdf` -- project the core-components *model* onto RDF
  Schema: classes for aggregates, properties for basic/association
  entities, with domains, ranges and basedOn traces.

The tests check the translated grammar with an independent RELAX NG
validator of their own (``tests/rng_validator.py``).
"""

from repro.rngen.rdf import model_to_rdfs, rdfs_to_string
from repro.rngen.relaxng import result_to_rng, rng_to_string

__all__ = [
    "model_to_rdfs",
    "rdfs_to_string",
    "result_to_rng",
    "rng_to_string",
]
