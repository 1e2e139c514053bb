"""The schema-to-model reconstruction."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ccts.base import ElementWrapper
from repro.ccts.derivation import derive_abie, derive_qdt
from repro.ccts.libraries import BieLibrary, CcLibrary, CdtLibrary, EnumLibrary, PrimLibrary, QdtLibrary
from repro.ccts.model import CctsModel
from repro.errors import SchemaError
from repro.ndr.names import TYPE_POSTFIX
from repro.uml.association import AggregationKind
from repro.uml.multiplicity import Multiplicity
from repro.xmlutil.qname import QName
from repro.xsd.components import (
    XSD_NS,
    AttributeDecl,
    AttributeUse,
    ComplexType,
    ElementDecl,
    Schema,
    SimpleType,
)
from repro.xsd.validator import SchemaSet
from repro.xsdgen.primitives import PRIMITIVE_BUILTINS

#: Reverse mapping: XSD built-in local name -> CCTS primitive name.
_PRIM_FOR_BUILTIN = {}
for _prim, _builtin in PRIMITIVE_BUILTINS.items():
    _PRIM_FOR_BUILTIN.setdefault(_builtin, _prim)


@dataclass
class _NamespaceFacts:
    """What the URN and content of one schema reveal about its library."""

    urn: str
    base: str
    kind: str  # "data" | "types"
    status: str
    name: str
    version: str | None


def _parse_urn(schema: Schema) -> _NamespaceFacts:
    tokens = schema.target_namespace.split(":")
    for index, token in enumerate(tokens):
        if token in ("data", "types") and index + 2 < len(tokens):
            return _NamespaceFacts(
                urn=schema.target_namespace,
                base=":".join(tokens[:index]),
                kind=token,
                status=tokens[index + 1],
                name=tokens[index + 2],
                version=schema.version,
            )
    # Fallback for non-NDR namespaces: synthesize a library name.
    return _NamespaceFacts(
        urn=schema.target_namespace,
        base=schema.target_namespace,
        kind="data",
        status="draft",
        name=tokens[-1] if tokens else "Imported",
        version=schema.version,
    )


def _strip_type(name: str) -> str:
    if name.endswith(TYPE_POSTFIX) and len(name) > len(TYPE_POSTFIX):
        return name[: -len(TYPE_POSTFIX)]
    return name


def _split_compound(element_name: str, target_entity: str) -> str:
    """Recover the ASBIE role from a compound name (role + target)."""
    if element_name.endswith(target_entity) and len(element_name) > len(target_entity):
        return element_name[: -len(target_entity)]
    return element_name


@dataclass
class ReverseReport:
    """The reconstructed model plus bookkeeping from the reconstruction."""

    model: CctsModel
    doc_library_names: list[str] = field(default_factory=list)
    root_elements: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


class _Reverser:
    def __init__(self, schema_set: SchemaSet, model_name: str) -> None:
        self.schema_set = schema_set
        self.model = CctsModel(model_name)
        facts = [_parse_urn(schema_set.schema_for(ns)) for ns in sorted(schema_set.namespaces)]
        base = facts[0].base if facts else "urn:reverse"
        self.business = self.model.add_business_library("Reversed", base)
        self.prims: PrimLibrary = self.business.add_prim_library("Primitives")
        self._prim_cache: dict[str, object] = {}
        self.shadow_ccs: CcLibrary = self.business.add_cc_library("ReverseEngineeredComponents")
        self.report = ReverseReport(model=self.model)
        self._facts = {f.urn: f for f in facts}
        self._enum_wrappers: dict[QName, object] = {}
        self._cdt_wrappers: dict[QName, object] = {}
        self._qdt_wrappers: dict[QName, object] = {}
        self._abie_wrappers: dict[QName, object] = {}
        self._acc_wrappers: dict[QName, object] = {}
        self._cdt_library_of: dict[str, CdtLibrary] = {}

    # -- annotations --------------------------------------------------------------

    def _apply_annotation(self, wrapper: ElementWrapper, annotated) -> None:
        """Recover CCTS documentation from an ``xsd:annotation`` block."""
        if annotated is None or annotated.annotation is None:
            return
        mapping = {
            "Definition": "definition",
            "Version": "version",
            "DictionaryEntryName": "dictionaryEntryName",
            "BusinessTerm": "businessTerm",
            "UniqueID": "uniqueIdentifier",
        }
        for entry_name, text in annotated.annotation.entries:
            tag = mapping.get(entry_name)
            if tag and text:
                wrapper.element.apply_stereotype(wrapper.stereotype, **{tag: text})

    # -- primitives -----------------------------------------------------------------

    def _prim(self, builtin_local: str):
        name = _PRIM_FOR_BUILTIN.get(builtin_local, "String")
        if name not in self._prim_cache:
            self._prim_cache[name] = self.prims.add_primitive(name)
        return self._prim_cache[name]

    # -- classification ----------------------------------------------------------------

    def _classify(self, schema: Schema) -> str:
        """One of 'enum', 'datatype', 'bie' by schema content."""
        has_particles = any(ct.particle is not None for ct in schema.complex_types)
        has_simple_content = any(ct.simple_content is not None for ct in schema.complex_types)
        if has_particles:
            return "bie"
        if has_simple_content:
            return "datatype"
        if schema.simple_types:
            return "enum"
        return "bie"

    def _library_tags(self, facts: _NamespaceFacts) -> dict[str, str]:
        tags = {"baseURN": facts.base, "status": facts.status}
        if facts.version:
            tags["version"] = facts.version
        return tags

    # -- passes ----------------------------------------------------------------------------

    def run(self) -> ReverseReport:
        schemas = [self.schema_set.schema_for(ns) for ns in sorted(self.schema_set.namespaces)]
        enum_schemas = [s for s in schemas if self._classify(s) == "enum"]
        datatype_schemas = [s for s in schemas if self._classify(s) == "datatype"]
        bie_schemas = [s for s in schemas if self._classify(s) == "bie"]

        for schema in enum_schemas:
            self._reverse_enums(schema)
        # CDT-style schemas (every base a built-in) must precede QDT-style
        # ones, whose restrictions reference the reconstructed CDTs.
        datatype_schemas.sort(
            key=lambda s: any(
                ct.simple_content is not None and ct.simple_content.base.namespace != XSD_NS
                for ct in s.complex_types
            )
        )
        for schema in datatype_schemas:
            self._reverse_data_types(schema)
        for schema in bie_schemas:
            self._synthesize_core(schema)
        self._synthesize_core_associations(bie_schemas)
        for schema in bie_schemas:
            self._reverse_bies(schema)
        self._reverse_asbies(bie_schemas)
        self._detect_documents(bie_schemas)
        return self.report

    def _reverse_enums(self, schema: Schema) -> None:
        facts = self._facts[schema.target_namespace]
        library: EnumLibrary = self.business.add_enum_library(facts.name, **self._library_tags(facts))
        for simple_type in schema.simple_types:
            enum = library.add_enumeration(_strip_type(simple_type.name))
            for value in simple_type.enumeration_values:
                enum.add_literal(value)
            self._enum_wrappers[QName(schema.target_namespace, simple_type.name)] = enum

    def _reverse_data_types(self, schema: Schema) -> None:
        facts = self._facts[schema.target_namespace]
        extensions_of_builtin = [
            ct for ct in schema.complex_types
            if ct.simple_content is not None and ct.simple_content.base.namespace == XSD_NS
        ]
        derived = [
            ct for ct in schema.complex_types
            if ct.simple_content is not None and ct.simple_content.base.namespace != XSD_NS
        ]
        if extensions_of_builtin and not derived:
            library = self.business.add_cdt_library(facts.name, **self._library_tags(facts))
            self._cdt_library_of[schema.target_namespace] = library
            for complex_type in extensions_of_builtin:
                self._reverse_cdt(library, schema, complex_type)
            return
        # Mixed or purely derived: a QDT library.
        library = self.business.add_qdt_library(facts.name, **self._library_tags(facts))
        for complex_type in schema.complex_types:
            self._reverse_qdt(library, schema, complex_type)

    def _sup_spec(self, attribute: AttributeDecl) -> tuple[str, object, str]:
        if attribute.type.namespace == XSD_NS:
            type_element = self._prim(attribute.type.local).element
        else:
            enum = self._enum_wrappers.get(attribute.type)
            type_element = enum.element if enum is not None else self._prim("string").element
        multiplicity = "1" if attribute.use is AttributeUse.REQUIRED else "0..1"
        return attribute.name, type_element, multiplicity

    def _reverse_cdt(self, library: CdtLibrary, schema: Schema, complex_type: ComplexType) -> None:
        cdt = library.add_cdt(_strip_type(complex_type.name))
        content = complex_type.simple_content
        cdt.set_content(self._prim(content.base.local).element)
        for attribute in content.attributes:
            if attribute.use is AttributeUse.PROHIBITED:
                continue
            name, type_element, multiplicity = self._sup_spec(attribute)
            cdt.add_supplementary(name, type_element, multiplicity)
        self._apply_annotation(cdt, complex_type)
        self._cdt_wrappers[QName(schema.target_namespace, complex_type.name)] = cdt

    def _shadow_cdt_library(self) -> CdtLibrary:
        existing = self._cdt_library_of.get("__shadow__")
        if existing is None:
            existing = self.business.add_cdt_library("ReverseEngineeredDataTypes")
            self._cdt_library_of["__shadow__"] = existing
            self.report.notes.append(
                "synthesized CDT library for enum-based qualified data types "
                "(the extension base does not record the original CDT)"
            )
        return existing

    def _reverse_qdt(self, library: QdtLibrary, schema: Schema, complex_type: ComplexType) -> None:
        content = complex_type.simple_content
        qname = QName(schema.target_namespace, complex_type.name)
        name = _strip_type(complex_type.name)
        kept = {
            a.name: ("1" if a.use is AttributeUse.REQUIRED else "0..1")
            for a in content.attributes
            if a.use is not AttributeUse.PROHIBITED
        }
        enum = self._enum_wrappers.get(content.base)
        if enum is not None:
            # Enum-based extension: synthesize the lost base CDT.
            shadow_library = self._shadow_cdt_library()
            base = shadow_library.add_cdt(f"{name}Base")
            base.set_content(self._prim("token").element)
            for attribute in content.attributes:
                sup_name, type_element, multiplicity = self._sup_spec(attribute)
                base.add_supplementary(sup_name, type_element, multiplicity)
            qdt = derive_qdt(library, base, name, kept, content_enum=enum)
        else:
            base = self._cdt_wrappers.get(content.base)
            if base is None:
                raise SchemaError(f"QDT base {content.base.clark()} was not reconstructed")
            qdt = derive_qdt(library, base, name, kept)
        self._apply_annotation(qdt, complex_type)
        self._qdt_wrappers[qname] = qdt

    # -- core layer synthesis -----------------------------------------------------------------

    def _entity_types(self, schema: Schema) -> list[ComplexType]:
        return [ct for ct in schema.complex_types if ct.particle is not None]

    def _synthesize_core(self, schema: Schema) -> None:
        for complex_type in self._entity_types(schema):
            entity = _strip_type(complex_type.name)
            acc = self.shadow_ccs.add_acc(entity) if self.shadow_ccs.package.find_classifier(entity) is None else self.shadow_ccs.acc(entity)
            for element in self._sequence_elements(complex_type):
                if element.is_ref or not self._is_data_typed(element):
                    continue
                data_type = self._data_type_for_bcc(element.type)
                if data_type is not None and not any(b.name == element.name for b in acc.bccs):
                    acc.add_bcc(element.name, data_type, self._multiplicity(element))
            self._acc_wrappers[QName(schema.target_namespace, complex_type.name)] = acc

    def _synthesize_core_associations(self, schemas: list[Schema]) -> None:
        for schema in schemas:
            for complex_type in self._entity_types(schema):
                acc = self._acc_wrappers[QName(schema.target_namespace, complex_type.name)]
                for element, target_type, aggregation in self._asbie_shapes(schema, complex_type):
                    target_acc = self._acc_wrappers.get(target_type)
                    if target_acc is None:
                        continue
                    role = _split_compound(
                        element.name if element.name else element.ref.local,
                        target_acc.name,
                    )
                    if not any(
                        a.role == role and a.target.element is target_acc.element
                        for a in acc.asccs
                    ):
                        acc.add_ascc(role, target_acc, self._multiplicity(element), aggregation)

    # -- BIE layer ----------------------------------------------------------------------------------

    def _reverse_bies(self, schema: Schema) -> None:
        facts = self._facts[schema.target_namespace]
        prefix = schema.prefix_for(schema.target_namespace)
        tags = self._library_tags(facts)
        if prefix and not prefix.startswith(("bie", "doc")):
            tags["namespacePrefix"] = prefix
        library: BieLibrary = self.business.add_bie_library(facts.name, **tags)
        for complex_type in self._entity_types(schema):
            qname = QName(schema.target_namespace, complex_type.name)
            acc = self._acc_wrappers[qname]
            derivation = derive_abie(library, acc)
            for element in self._sequence_elements(complex_type):
                if element.is_ref or not self._is_data_typed(element):
                    continue
                qdt = self._qdt_wrappers.get(element.type)
                bbie = derivation.include(
                    element.name,
                    self._multiplicity(element),
                    data_type=qdt,
                )
                self._apply_annotation(bbie, element)
            self._apply_annotation(derivation.abie, complex_type)
            self._abie_wrappers[qname] = derivation.abie

    def _reverse_asbies(self, schemas: list[Schema]) -> None:
        for schema in schemas:
            for complex_type in self._entity_types(schema):
                qname = QName(schema.target_namespace, complex_type.name)
                abie = self._abie_wrappers[qname]
                acc = self._acc_wrappers[qname]
                for element, target_type, aggregation in self._asbie_shapes(schema, complex_type):
                    target_abie = self._abie_wrappers.get(target_type)
                    if target_abie is None:
                        self.report.notes.append(
                            f"dropped association to unreconstructed type {target_type.clark()}"
                        )
                        continue
                    role = _split_compound(
                        element.name if element.name else element.ref.local,
                        target_abie.name,
                    )
                    ascc = next(
                        (a for a in acc.asccs
                         if a.role == role and a.target.name == target_abie.based_on.name),
                        None,
                    )
                    abie.add_asbie(
                        role, target_abie, self._multiplicity(element), aggregation, based_on=ascc
                    )

    # -- shared helpers ----------------------------------------------------------------------------------

    def _sequence_elements(self, complex_type: ComplexType) -> list[ElementDecl]:
        if complex_type.particle is None:
            return []
        return [p for p in complex_type.particle.particles if isinstance(p, ElementDecl)]

    def _multiplicity(self, element: ElementDecl) -> Multiplicity:
        return Multiplicity(element.min_occurs, element.max_occurs)

    def _is_data_typed(self, element: ElementDecl) -> bool:
        if element.type is None:
            return False
        if element.type.namespace == XSD_NS:
            return True
        definition = self.schema_set.find_type(element.type)
        return not (isinstance(definition, ComplexType) and definition.particle is not None)

    def _data_type_for_bcc(self, type_name: QName):
        """The CDT a BCC should use for an element typed by CDT or QDT."""
        cdt = self._cdt_wrappers.get(type_name)
        if cdt is not None:
            return cdt
        qdt = self._qdt_wrappers.get(type_name)
        if qdt is not None:
            return qdt.based_on
        definition = self.schema_set.find_type(type_name)
        if isinstance(definition, SimpleType) or type_name.namespace == XSD_NS:
            return None
        return None

    def _asbie_shapes(self, schema: Schema, complex_type: ComplexType):
        """(element, target type QName, aggregation) for entity-typed children."""
        shapes = []
        for element in self._sequence_elements(complex_type):
            if element.is_ref:
                target = self.schema_set.find_global_element(element.ref)
                if target is None or target.type is None:
                    continue
                shapes.append((element, target.type, AggregationKind.SHARED))
            elif element.type is not None and not self._is_data_typed(element):
                shapes.append((element, element.type, AggregationKind.COMPOSITE))
        return shapes

    # -- documents -------------------------------------------------------------------------------------------

    def _detect_documents(self, schemas: list[Schema]) -> None:
        """Global elements never referenced by a ref are document roots."""
        referenced: set[QName] = set()
        for schema in schemas:
            for complex_type in schema.complex_types:
                for element in self._sequence_elements(complex_type):
                    if element.is_ref:
                        referenced.add(element.ref)
        for schema in schemas:
            for element in schema.global_elements:
                qname = QName(schema.target_namespace, element.name)
                if qname in referenced:
                    continue
                facts = self._facts[schema.target_namespace]
                self.report.doc_library_names.append(facts.name)
                self.report.root_elements.append(element.name)
                # Promote the owning BIELibrary to a DOCLibrary.  Go through
                # the stereotype API (not the dict) so the model version
                # moves and memoized library wrappers refresh.
                library = self.model.library_named(facts.name)
                element = library.element
                tags = dict(element.stereotype_applications.get("BIELibrary", {}))
                element.remove_stereotype("BIELibrary")
                element.apply_stereotype("DOCLibrary", **tags)


def reverse_engineer(schema_set: SchemaSet, model_name: str = "Reversed") -> ReverseReport:
    """Reconstruct a core-components model from an NDR schema set."""
    return _Reverser(schema_set, model_name).run()
