"""Sample-instance tooling for generated schemas.

The paper's pipeline ends with schemas "used to validate XML messages"; this
package produces such messages:

* :mod:`repro.instances.generator` -- build a valid sample instance for any
  global element of a :class:`repro.xsd.SchemaSet`,
* :mod:`repro.instances.values` -- deterministic sample values per built-in
  type and facet set,
* :mod:`repro.instances.mutate` -- controlled corruptions used by negative
  tests and the end-to-end benchmark (a validator that accepts everything
  proves nothing),
* :mod:`repro.instances.pipeline` -- batch validation of whole corpora
  (compiled schema sets, per-document fault isolation).
"""

from repro.instances.generator import InstanceGenerator
from repro.instances.mutate import (
    add_unknown_attribute,
    add_unknown_child,
    corrupt_enumeration_value,
    drop_required_attribute,
    drop_required_child,
)
from repro.instances.pipeline import (
    BatchReport,
    DocumentReport,
    ValidationPipeline,
    discover_corpus,
)
from repro.instances.values import sample_value

__all__ = [
    "BatchReport",
    "DocumentReport",
    "InstanceGenerator",
    "ValidationPipeline",
    "discover_corpus",
    "add_unknown_attribute",
    "add_unknown_child",
    "corrupt_enumeration_value",
    "drop_required_attribute",
    "drop_required_child",
    "sample_value",
]
