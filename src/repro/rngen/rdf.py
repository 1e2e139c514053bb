"""RDF Schema projection of a core-components model.

Unlike the RELAX NG path (which translates the generated XSDs), RDF Schema
is generated straight from the *model*, because its unit is the concept,
not the document syntax:

* every ACC and ABIE becomes an ``rdfs:Class``,
* every BCC/BBIE becomes an ``rdf:Property`` with ``rdfs:domain`` the
  owning aggregate and ``rdfs:range`` the data type's class,
* every ASCC/ASBIE becomes an ``rdf:Property`` ranging over the target
  aggregate,
* every CDT/QDT becomes an ``rdfs:Datatype``-flavoured class,
* the ``basedOn`` derivation maps onto ``rdfs:subClassOf`` /
  ``rdfs:subPropertyOf`` -- restriction *is* specialization in RDFS terms,
* CCTS definitions become ``rdfs:comment``, dictionary entry names become
  ``rdfs:label``.
"""

from __future__ import annotations

from repro.ccts.model import CctsModel
from repro.ndr.namespaces import NamespacePolicy
from repro.xmlutil.writer import XmlElement, XmlWriter

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"


class _RdfsBuilder:
    def __init__(self, model: CctsModel) -> None:
        self.model = model
        self.policy = NamespacePolicy()
        self.root = XmlElement("rdf:RDF")
        self.root.set("xmlns:rdf", RDF_NS)
        self.root.set("xmlns:rdfs", RDFS_NS)
        self._uri_of: dict[int, str] = {}

    def _register(self, wrapper, local: str) -> str:
        library = self.model.owning_library_of(wrapper.element)
        base = self.policy.namespace_for(library).urn if library is not None else "urn:upcc"
        uri = f"{base}#{local}"
        self._uri_of[id(wrapper.element)] = uri
        return uri

    def _describe(self, node: XmlElement, wrapper, label: str) -> None:
        node.add("rdfs:label").text(label)
        definition = wrapper.definition
        if definition:
            node.add("rdfs:comment").text(definition)

    def build(self) -> XmlElement:
        self._build_data_types()
        self._build_aggregates()
        self._build_properties()
        return self.root

    # -- passes -------------------------------------------------------------------

    def _build_data_types(self) -> None:
        for cdt in self.model.cdts():
            uri = self._register(cdt, cdt.name)
            node = self.root.add("rdfs:Class", {"rdf:about": uri})
            self._describe(node, cdt, cdt.name)
        for qdt in self.model.qdts():
            uri = self._register(qdt, qdt.name)
            node = self.root.add("rdfs:Class", {"rdf:about": uri})
            self._describe(node, qdt, qdt.name)
            base = qdt.based_on
            if base is not None:
                node.add("rdfs:subClassOf", {"rdf:resource": self._uri_of[id(base.element)]})

    def _build_aggregates(self) -> None:
        for acc in self.model.accs():
            uri = self._register(acc, acc.name)
            node = self.root.add("rdfs:Class", {"rdf:about": uri})
            self._describe(node, acc, acc.den())
        for abie in self.model.abies():
            uri = self._register(abie, abie.name)
            node = self.root.add("rdfs:Class", {"rdf:about": uri})
            self._describe(node, abie, abie.den())
            base = abie.based_on
            if base is not None:
                node.add("rdfs:subClassOf", {"rdf:resource": self._uri_of[id(base.element)]})

    def _property(self, about: str, domain: str, range_: str, label: str) -> XmlElement:
        node = self.root.add("rdf:Property", {"rdf:about": about})
        node.add("rdfs:label").text(label)
        node.add("rdfs:domain", {"rdf:resource": domain})
        node.add("rdfs:range", {"rdf:resource": range_})
        return node

    def _build_properties(self) -> None:
        for acc in self.model.accs():
            acc_uri = self._uri_of[id(acc.element)]
            for bcc in acc.bccs:
                if bcc.cdt is None:
                    continue
                self._property(
                    f"{acc_uri}.{bcc.name}", acc_uri,
                    self._uri_of[id(bcc.cdt.element)], bcc.den(),
                )
            for ascc in acc.asccs:
                self._property(
                    f"{acc_uri}.{ascc.role}", acc_uri,
                    self._uri_of[id(ascc.target.element)], ascc.den(),
                )
        for abie in self.model.abies():
            abie_uri = self._uri_of[id(abie.element)]
            base = abie.based_on
            for bbie in abie.bbies:
                data_type = bbie.data_type
                if data_type is None:
                    continue
                node = self._property(
                    f"{abie_uri}.{bbie.name}", abie_uri,
                    self._uri_of[id(data_type.element)], bbie.den(),
                )
                if base is not None:
                    core = next((b for b in base.bccs if b.name == bbie.name), None)
                    if core is not None:
                        node.add(
                            "rdfs:subPropertyOf",
                            {"rdf:resource": f"{self._uri_of[id(base.element)]}.{core.name}"},
                        )
            for asbie in abie.asbies:
                node = self._property(
                    f"{abie_uri}.{asbie.role}", abie_uri,
                    self._uri_of[id(asbie.target.element)], asbie.den(),
                )
                core_ascc = asbie.based_on
                if core_ascc is not None:
                    source_uri = self._uri_of[id(core_ascc.source.element)]
                    node.add(
                        "rdfs:subPropertyOf",
                        {"rdf:resource": f"{source_uri}.{core_ascc.role}"},
                    )


def model_to_rdfs(model: CctsModel) -> XmlElement:
    """Project ``model`` onto an RDF Schema document tree."""
    return _RdfsBuilder(model).build()


def rdfs_to_string(model: CctsModel) -> str:
    """Render the RDF Schema projection of ``model``."""
    return XmlWriter().to_string(model_to_rdfs(model))
