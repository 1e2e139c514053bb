"""Low-level XML utilities shared by the XMI, XSD and instance layers.

The environment offers only the standard library, so this package provides
the pieces a schema/XMI toolchain normally takes from lxml:

* :mod:`repro.xmlutil.escape` -- context-sensitive escaping/unescaping,
* :mod:`repro.xmlutil.qname` -- qualified names and prefix resolution,
* :mod:`repro.xmlutil.writer` -- a deterministic pretty-printing writer
  built around an explicit element tree (:class:`XmlElement`),
* :mod:`repro.xmlutil.reader` -- documents read into the ElementTree the
  C parser builds, with the way back to names as written.

Determinism matters: the figure benchmarks compare generated schemas
byte-for-byte across runs.
"""

from repro.xmlutil.escape import escape_attribute, escape_text, is_valid_xml_name
from repro.xmlutil.qname import (
    XML_NAMESPACE,
    XMLNS_NAMESPACE,
    QName,
    resolve_prefixed,
    split_qname,
)
from repro.xmlutil.writer import XmlElement, XmlWriter

__all__ = [
    "QName",
    "XML_NAMESPACE",
    "XMLNS_NAMESPACE",
    "XmlElement",
    "XmlWriter",
    "escape_attribute",
    "escape_text",
    "is_valid_xml_name",
    "resolve_prefixed",
    "split_qname",
]
