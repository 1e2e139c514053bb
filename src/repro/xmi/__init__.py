"""XMI interchange for UML core-component models.

The paper motivates the UML profile partly with interchange: "there is no
format defined to register and exchange core components ... we hope to gain
better tool support and to use XMI for registering and exchanging core
components."  This package provides that format:

* :func:`write_xmi` / :func:`model_to_xmi` -- serialize a
  :class:`repro.uml.Model` (with all stereotype applications and tagged
  values) to an XMI 2.1-shaped document,
* :func:`read_xmi` -- load it back.

Simplifications relative to full OMG XMI are documented in
:mod:`repro.xmi.writer` (multiplicities as ``lower``/``upper`` attributes,
stereotype applications as ``upcc:*`` elements referencing ``base`` ids).
Round-tripping is exact for everything the UPCC profile uses; the property
test suite verifies write->read->write is the identity.

Loading is fault-tolerant on demand: :func:`read_xmi` is strict (fail
fast with located :class:`~repro.errors.XmiError`), while
:func:`load_xmi` collects every recoverable defect as a located
:class:`LoadIssue` and still returns whatever model content was sound.
"""

from repro.xmi.reader import (
    DEFAULT_MAX_DEPTH,
    DEFAULT_MAX_ELEMENTS,
    LoadIssue,
    LoadResult,
    load_xmi,
    read_xmi,
)
from repro.xmi.writer import model_to_xmi, write_xmi

__all__ = [
    "DEFAULT_MAX_DEPTH",
    "DEFAULT_MAX_ELEMENTS",
    "LoadIssue",
    "LoadResult",
    "load_xmi",
    "model_to_xmi",
    "read_xmi",
    "write_xmi",
]
