"""Figure 4: the EasyBiz model census and structure; Figure 2's meta model
as the EasyBiz model instantiates it."""

from repro.catalog.easybiz import (
    APPLICATION_BCCS,
    COUNCIL_LITERALS,
    COUNTRY_LITERALS,
)
from repro.catalog.primitives import FIGURE4_PRIMITIVES
from repro.profile import ABIE, ACC, ASCC, CDT, QDT
from repro.uml.association import Association
from repro.uml.classifier import Classifier
from repro.uml.visitor import census, render_tree
from repro.validation import validate_model


class TestLibraryInventory:
    def test_eight_libraries_present(self, easybiz):
        names = {library.name for library in easybiz.model.libraries()
                 if library.stereotype != "BusinessLibrary"}
        assert names == {
            "Primitives", "EnumerationTypes", "coredatatypes", "CommonDataTypes",
            "CandidateCoreComponents", "CommonAggregates", "LocalLawAggregates",
            "EB005-HoardingPermit",
        }

    def test_common_aggregates_has_user_prefix(self, easybiz):
        assert easybiz.common_aggregates.namespace_prefix == "commonAggregates"

    def test_local_law_has_no_user_prefix(self, easybiz):
        assert easybiz.local_law_aggregates.namespace_prefix is None


class TestPackage5CoreComponents:
    def test_application_acc_has_eleven_bccs(self, easybiz):
        application = easybiz.model.acc("Application")
        assert len(application.bccs) == 11
        assert [bcc.name for bcc in application.bccs] == [name for name, _, _ in APPLICATION_BCCS]

    def test_application_applicant_ascc(self, easybiz):
        applicant = easybiz.model.acc("Application").ascc("Applicant")
        assert applicant.target.name == "Party"

    def test_attachment_acc_shape(self, easybiz):
        attachment = easybiz.model.acc("Attachment")
        assert [bcc.name for bcc in attachment.bccs] == ["Description", "File", "Location", "Size"]

    def test_party_acc_shape(self, easybiz):
        party = easybiz.model.acc("Party")
        assert [bcc.name for bcc in party.bccs] == ["Description", "Role", "Type"]


class TestPackage2CommonAggregates:
    def test_application_abie_restriction_keeps_two(self, easybiz):
        application = easybiz.common_aggregates.abie("Application")
        assert [bbie.name for bbie in application.bbies] == ["CreatedDate", "Type"]

    def test_signature_abie_shape(self, easybiz):
        signature = easybiz.common_aggregates.abie("Signature")
        assert [bbie.name for bbie in signature.bbies] == ["Date", "PersonName", "SignatureData"]

    def test_address_country_name_is_qdt(self, easybiz):
        address = easybiz.common_aggregates.abie("Address")
        country_name = address.bbie("CountryName")
        assert country_name.data_type.name == "CountryType"
        assert country_name.data_type.element.has_stereotype("QDT")

    def test_person_identification_asbies(self, easybiz):
        from repro.uml.association import AggregationKind

        person = easybiz.common_aggregates.abie("Person_Identification")
        assert person.asbie("Personal").aggregation is AggregationKind.COMPOSITE
        assert person.asbie("Assigned").aggregation is AggregationKind.SHARED


class TestPackage3And6DataTypes:
    def test_qdts_based_on_code(self, easybiz):
        for name in ("CountryType", "CouncilType"):
            qdt = next(q for q in easybiz.qdt_library.qdts if q.name == name)
            assert qdt.based_on.name == "Code"
            assert [s.name for s in qdt.supplementary_components] == ["CodeListName"]

    def test_enum_literals_match_figure(self, easybiz):
        country = easybiz.enum_library.enumeration("CountryType_Code")
        assert country.literal_names == list(COUNTRY_LITERALS)
        assert country.literals[0].value == "United States of America"
        council = easybiz.enum_library.enumeration("CouncilType_Code")
        assert council.literal_names == list(COUNCIL_LITERALS)

    def test_code_cdt_shape_matches_figure4_package4(self, easybiz):
        code = easybiz.cdt_library.cdt("Code")
        content = code.content_component
        assert content.element.name == "Content"
        assert content.element.type.name == "String"
        assert [s.name for s in code.supplementary_components] == [
            "CodeListAgName", "CodeListName", "CodeListSchemeURI", "LanguageIdentifier",
        ]
        assert str(code.supplementary("LanguageIdentifier").multiplicity) == "0..1"

    def test_figure4_primitives_present(self, easybiz):
        names = {p.name for p in easybiz.prim_library.primitives}
        assert set(FIGURE4_PRIMITIVES) <= names


class TestPackage1DocLibrary:
    def test_hoarding_permit_bbies(self, easybiz):
        assert [b.name for b in easybiz.hoarding_permit.bbies] == [
            "ClosureReason", "IsClosedFootpath", "IsClosedRoad", "SafetyPrecaution",
        ]

    def test_four_asbies_with_paper_roles(self, easybiz):
        asbies = [(a.role, a.target.name) for a in easybiz.hoarding_permit.asbies]
        assert asbies == [
            ("Included", "Attachment"),
            ("Current", "Application"),
            ("Included", "Registration"),
            ("Billing", "Person_Identification"),
        ]

    def test_hoarding_details_defined_but_unwired(self, easybiz):
        details = easybiz.doc_library.abie("HoardingDetails")
        assert [b.name for b in details.bbies] == ["Description"]
        assert details.asbies == []

    def test_component_set_listing(self, easybiz):
        entries = easybiz.hoarding_permit.component_set()
        assert "HoardingPermit (ABIE)" in entries
        assert "HoardingPermit.Billing.Person_Identification (ASBIE)" in entries


class TestCensusAndHealth:
    def test_census(self, easybiz):
        counts = census(easybiz.model.model)
        assert counts["ABIE"] == 8  # 5 CommonAggregates + Registration + 2 DOC
        assert counts["ACC"] == 9
        assert counts["QDT"] == 4
        assert counts["CDT"] == 9
        assert counts["ENUM"] == 2
        assert counts["ASBIE"] == 6
        assert counts["DOCLibrary"] == 1
        assert counts["BIELibrary"] == 2

    def test_model_validates_with_only_known_warnings(self, easybiz):
        report = validate_model(easybiz.model)
        assert report.ok
        assert {d.code for d in report.warnings} <= {"UPCC-D09"}

    def test_tree_view_shows_figure4(self, easybiz):
        text = render_tree(easybiz.model.model)
        for expected in (
            "«DOCLibrary» EB005-HoardingPermit",
            "«BIELibrary» CommonAggregates",
            "«QDTLibrary» CommonDataTypes",
            "«CDTLibrary» coredatatypes",
            "«CCLibrary» CandidateCoreComponents",
            "«ENUMLibrary» EnumerationTypes",
            "«PRIMLibrary» Primitives",
            "«BIELibrary» LocalLawAggregates",
            "HoardingPermit -> +Billing Person_Identification [0..1] (composite)",
            "Person_Identification -> +Assigned Address [1] (shared)",
        ):
            assert expected in text, expected


def _metamodel_edges(model):
    """(client kind, supplier kind) for every basedOn and typing edge in use."""
    edges = set()
    for abie in model.abies():
        if abie.based_on is not None:
            edges.add(("ABIE", "ACC"))
        for bbie in abie.bbies:
            type_ = bbie.element.type
            if type_ is not None and type_.has_stereotype(QDT):
                edges.add(("BBIE", "QDT"))
            elif type_ is not None and type_.has_stereotype(CDT):
                edges.add(("BBIE", "CDT"))
        if any(asbie.based_on is not None for asbie in abie.asbies):
            edges.add(("ASBIE", "ASCC"))
    for qdt in model.qdts():
        if qdt.based_on is not None:
            edges.add(("QDT", "CDT"))
        if qdt.content_enum is not None:
            edges.add(("QDT", "ENUM"))
    for acc in model.accs():
        if any(bcc.cdt is not None for bcc in acc.bccs):
            edges.add(("BCC", "CDT"))
        if acc.asccs:
            edges.add(("ASCC", "ACC"))
    for library in model.doc_libraries():
        if any(abie.asbies for abie in library.abies):
            edges.add(("MessageAssembly", "ABIE"))
    return edges


class TestFigure2Metamodel:
    def test_dependency_structure(self, easybiz):
        assert _metamodel_edges(easybiz.model) == {
            ("ABIE", "ACC"), ("ASBIE", "ASCC"), ("BBIE", "CDT"), ("BBIE", "QDT"),
            ("BCC", "CDT"), ("ASCC", "ACC"), ("QDT", "CDT"), ("QDT", "ENUM"),
            ("MessageAssembly", "ABIE"),
        }

    def test_layer_separation(self, easybiz):
        # No core element references the business layer (downward only).
        model = easybiz.model.model
        for association in model.all_of_type(Association):
            if association.has_stereotype(ASCC):
                for end in (association.source, association.target):
                    assert not end.type.has_stereotype(ABIE), association
        for classifier in model.all_of_type(Classifier):
            assert not (classifier.has_stereotype(ACC) and classifier.has_stereotype(ABIE))

    def test_business_entities_all_trace_to_core(self, easybiz):
        assert [a.name for a in easybiz.model.abies() if a.based_on is None] == []
        assert [q.name for q in easybiz.model.qdts() if q.based_on is None] == []
