"""Unit tests for the CCTS typed wrappers (data types, CCs, BIEs, libraries)."""

import pytest

from repro.ccts.data_types import CoreDataType
from repro.ccts.model import CctsModel
from repro.errors import CctsError
from repro.uml.association import AggregationKind


@pytest.fixture
def base():
    """A small model with one of everything."""
    model = CctsModel("T")
    business = model.add_business_library("B", "urn:t")
    prims = business.add_prim_library("Prims")
    string = prims.add_primitive("String")
    enums = business.add_enum_library("Enums")
    codes = enums.add_enumeration("Country_Code", {"US": "United States", "AT": "Austria"})
    cdts = business.add_cdt_library("Cdts")
    code = cdts.add_cdt("Code")
    code.set_content(string.element)
    code.add_supplementary("ListName", string.element, "0..1")
    text = cdts.add_cdt("Text")
    text.set_content(string.element)
    return model, business, prims, enums, codes, cdts, code, text


class TestCoreDataType:
    def test_content_component(self, base):
        *_, code, _ = base
        content = code.content_component
        assert content is not None
        assert content.element.name == "Content"
        assert not content.restricted_by_enum

    def test_single_content_enforced(self, base):
        *_, code, _ = base
        with pytest.raises(CctsError):
            code.set_content(code.content_component.element.type)

    def test_supplementaries(self, base):
        *_, code, _ = base
        sups = code.supplementary_components
        assert [s.name for s in sups] == ["ListName"]
        assert str(sups[0].multiplicity) == "0..1"
        assert code.supplementary("ListName").element is sups[0].element
        with pytest.raises(CctsError):
            code.supplementary("Missing")

    def test_missing_content_is_none(self, base):
        _, _, _, _, _, cdts, *_ = base
        empty = cdts.add_cdt("Empty")
        assert empty.content_component is None


class TestEnumerationType:
    def test_literals(self, base):
        _, _, _, _, codes, *_ = base
        assert codes.literal_names == ["US", "AT"]
        assert codes.literals[0].value == "United States"

    def test_add_literal(self, base):
        _, _, _, _, codes, *_ = base
        codes.add_literal("DE", "Germany")
        assert "DE" in codes.literal_names


class TestAccWrapper:
    def test_bcc_construction_and_lookup(self, base):
        model, business, *_ , code, text = base
        ccs = business.add_cc_library("Ccs")
        person = ccs.add_acc("Person")
        bcc = person.add_bcc("Kind", code, "0..1")
        assert bcc.cdt.element is code.element
        assert bcc.acc.element is person.element
        assert person.bcc("Kind").element is bcc.element
        with pytest.raises(CctsError):
            person.bcc("Missing")

    def test_ascc_construction(self, base):
        model, business, *_ , code, text = base
        ccs = business.add_cc_library("Ccs")
        person = ccs.add_acc("Person")
        address = ccs.add_acc("Address")
        ascc = person.add_ascc("Home", address, "0..1", AggregationKind.SHARED)
        assert ascc.role == "Home"
        assert ascc.name == "Home"
        assert ascc.source.element is person.element
        assert ascc.target.element is address.element
        assert ascc.aggregation is AggregationKind.SHARED
        assert person.ascc("Home").element is ascc.element
        with pytest.raises(CctsError):
            person.ascc("Missing")

    def test_dens(self, base):
        model, business, *_ , code, text = base
        ccs = business.add_cc_library("Ccs")
        person = ccs.add_acc("Person")
        person.add_bcc("FirstName", text)
        address = ccs.add_acc("Address")
        person.add_ascc("Private", address)
        assert person.den() == "Person. Details"
        assert person.bcc("FirstName").den() == "Person. First Name. Text"
        assert person.ascc("Private").den() == "Person. Private. Address"


class TestLibraries:
    def test_tagged_value_accessors(self, base):
        _, business, *_ = base
        bies = business.add_bie_library("Bies", namespacePrefix="common")
        assert bies.base_urn == "urn:t"
        assert bies.namespace_prefix == "common"
        assert bies.status == "draft"
        assert bies.library_version == "1.0"
        bies.namespace_prefix = "other"
        assert bies.namespace_prefix == "other"

    def test_lookup_errors(self, base):
        _, business, prims, enums, _, cdts, *_ = base
        with pytest.raises(CctsError):
            prims.primitive("Missing")
        with pytest.raises(CctsError):
            enums.enumeration("Missing")
        with pytest.raises(CctsError):
            cdts.cdt("Missing")

    def test_business_library_lists_children(self, base):
        _, business, *_ = base
        kinds = {type(lib).__name__ for lib in business.libraries()}
        assert {"PrimLibrary", "EnumLibrary", "CdtLibrary"} <= kinds

    def test_model_library_queries(self, base):
        model, business, *_ = base
        business.add_doc_library("Docs")
        business.add_bie_library("Bies")
        assert len(model.doc_libraries()) == 1
        assert len(model.bie_libraries()) == 1  # DOC libraries are not BIE libraries
        assert model.library_named("Docs").name == "Docs"
        with pytest.raises(CctsError):
            model.library_named("Nope")

    def test_owning_library_of(self, base):
        model, business, *_, code, _ = base
        library = model.owning_library_of(code.element)
        assert library is not None and library.name == "Cdts"


class TestAbieWrapper:
    def _setup(self, base):
        model, business, *_ , code, text = base
        ccs = business.add_cc_library("Ccs")
        person = ccs.add_acc("Person")
        person.add_bcc("FirstName", text)
        address = ccs.add_acc("Address")
        address.add_bcc("Street", text)
        person.add_ascc("Private", address)
        bies = business.add_bie_library("Bies")
        return model, bies, person, address, text

    def test_manual_abie_and_compound_name(self, base):
        model, bies, person, address, text = self._setup(base)
        us_address = bies.add_abie("US_Address")
        us_person = bies.add_abie("US_Person")
        asbie = us_person.add_asbie("US_Private", us_address, "0..1")
        assert asbie.compound_name() == "US_PrivateUS_Address"
        assert us_person.qualifier == "US"
        assert us_person.asbie("US_Private").element is asbie.element

    def test_based_on_via_dependency(self, base):
        model, bies, person, address, text = self._setup(base)
        abie = bies.add_abie("US_Person")
        bies.package.add_dependency(abie.element, person.element, stereotype="basedOn")
        assert abie.based_on.element is person.element

    def test_based_on_none_without_dependency(self, base):
        model, bies, *_ = self._setup(base)
        abie = bies.add_abie("Loner")
        assert abie.based_on is None

    def test_bbie_data_type_dispatch(self, base):
        model, bies, person, address, text = self._setup(base)
        abie = bies.add_abie("X_Person")
        bbie = abie.add_bbie("FirstName", text)
        assert isinstance(bbie.data_type, CoreDataType)
        assert bbie.abie.element is abie.element
