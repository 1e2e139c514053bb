"""Unit tests for the spreadsheet baseline and model diffing."""

import csv
import io

import pytest

from repro.interchange import diff_models, export_csv, import_csv
from repro.interchange.spreadsheet import COLUMNS


class TestExport:
    def test_header_and_shape(self, figure1):
        text = export_csv(figure1.model)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert list(rows[0].keys()) == list(COLUMNS)
        kinds = {row["kind"] for row in rows}
        assert {"ACC", "BCC", "ASCC", "ABIE", "BBIE", "ASBIE", "CDT", "CON", "PRIM"} <= kinds

    def test_based_on_recorded(self, figure1):
        text = export_csv(figure1.model)
        rows = list(csv.DictReader(io.StringIO(text)))
        us_person = next(r for r in rows if r["kind"] == "ABIE" and r["name"] == "US_Person")
        assert us_person["based_on"] == "Person"

    def test_literals_exported(self, easybiz):
        text = export_csv(easybiz.model)
        rows = list(csv.DictReader(io.StringIO(text)))
        literals = [r for r in rows if r["kind"] == "LITERAL" and r["owner"] == "CountryType_Code"]
        assert {r["name"] for r in literals} == {"USA", "AUT", "AUS"}

    def test_write_to_file(self, figure1, tmp_path):
        path = tmp_path / "f.csv"
        text = export_csv(figure1.model, path)
        assert path.read_text(encoding="utf-8") == text


class TestImport:
    def test_reimport_reconstructs_structure(self, figure1):
        imported = import_csv(export_csv(figure1.model))
        person = imported.acc("Person")
        assert [bcc.name for bcc in person.bccs] == ["DateofBirth", "FirstName"]
        assert {ascc.role for ascc in person.asccs} == {"Private", "Work"}
        us_person = imported.abie("US_Person")
        assert us_person.based_on.element is imported.acc("Person").element

    def test_reimport_keeps_multiplicities(self, easybiz):
        imported = import_csv(export_csv(easybiz.model))
        permit = imported.abie("HoardingPermit")
        included = next(a for a in permit.asbies if a.target.name == "Attachment")
        assert str(included.multiplicity) == "0..*"

    def test_reimport_keeps_aggregation_kind(self, easybiz):
        from repro.uml.association import AggregationKind

        imported = import_csv(export_csv(easybiz.model))
        person_identification = imported.abie("Person_Identification")
        assigned = person_identification.asbie("Assigned")
        assert assigned.aggregation is AggregationKind.SHARED


class TestFidelityGap:
    def test_xmi_round_trip_is_lossless(self, easybiz):
        from repro.ccts.model import CctsModel
        from repro.xmi import read_xmi, write_xmi

        text = write_xmi(easybiz.model.model)
        assert text.startswith("<?xml")
        reloaded = CctsModel(model=read_xmi(text))
        assert reloaded.model.name == "EasyBiz"
        assert diff_models(easybiz.model, reloaded) == []

    def test_csv_round_trip_loses_information(self, easybiz):
        imported = import_csv(export_csv(easybiz.model))
        differences = diff_models(easybiz.model, imported)
        assert differences, "the spreadsheet baseline should be lossy"
        assert any("tagged values differ" in d for d in differences)

    def test_diff_reports_missing_library(self, figure1, easybiz):
        differences = diff_models(easybiz.model, figure1.model)
        assert any("only in first model" in d for d in differences)

    def test_diff_reports_changed_attribute(self, figure1):
        from repro.catalog import build_figure1_model

        other = build_figure1_model()
        other.person.element.attribute("FirstName").multiplicity = (
            __import__("repro.uml.multiplicity", fromlist=["Multiplicity"]).Multiplicity(0, 1)
        )
        differences = diff_models(figure1.model, other.model)
        assert any("attributes differ" in d for d in differences)

    def test_diff_of_identical_builds_is_empty(self):
        from repro.catalog import build_easybiz_model

        assert diff_models(build_easybiz_model().model, build_easybiz_model().model) == []


class TestCodeLists:
    CSV = "code,name\nUSA,United States of America\nAUT,Austria\nAUS,Australia\n"

    def _library(self):
        from repro.ccts.model import CctsModel

        model = CctsModel("CL")
        business = model.add_business_library("B", "urn:cl")
        return business.add_enum_library("CodeLists")

    def test_import_with_header(self):
        from repro.interchange import import_code_list

        enum = import_code_list(self._library(), "Country_Code", self.CSV)
        assert enum.literal_names == ["USA", "AUT", "AUS"]
        assert enum.literals[0].value == "United States of America"

    def test_import_without_header_and_comments(self):
        from repro.interchange import import_code_list

        text = "# ISO 4217 subset\nEUR,Euro\nUSD,US Dollar\n"
        enum = import_code_list(self._library(), "Currency_Code", text)
        assert enum.literal_names == ["EUR", "USD"]

    def test_import_code_only_rows(self):
        from repro.interchange import import_code_list

        enum = import_code_list(self._library(), "Bare_Code", "A\nB\n")
        assert enum.literals[0].value == "A"

    def test_import_from_file(self, tmp_path):
        from repro.interchange import import_code_list

        path = tmp_path / "codes.csv"
        path.write_text(self.CSV, encoding="utf-8")
        enum = import_code_list(self._library(), "Country_Code", path)
        assert len(enum.literals) == 3

    def test_duplicate_code_rejected(self):
        from repro.errors import InterchangeError
        from repro.interchange import import_code_list

        with pytest.raises(InterchangeError, match="duplicate"):
            import_code_list(self._library(), "Dup_Code", "A,a\nA,b\n")

    def test_empty_list_rejected(self):
        from repro.errors import InterchangeError
        from repro.interchange import import_code_list

        with pytest.raises(InterchangeError, match="empty"):
            import_code_list(self._library(), "Empty_Code", "# nothing\n")

    def test_export_round_trip(self):
        from repro.interchange import export_code_list, import_code_list

        library = self._library()
        enum = import_code_list(library, "Country_Code", self.CSV)
        assert export_code_list(enum) == self.CSV

    def test_imported_list_drives_generation(self):
        from repro.catalog.primitives import add_standard_prim_library
        from repro.ccts.derivation import derive_qdt
        from repro.ccts.model import CctsModel
        from repro.interchange import import_code_list
        from repro.xsdgen import SchemaGenerator

        model = CctsModel("CL")
        business = model.add_business_library("B", "urn:cl")
        prims = add_standard_prim_library(business)
        cdts = business.add_cdt_library("Cdts")
        code = cdts.add_cdt("Code")
        code.set_content(prims.primitive("String").element)
        enums = business.add_enum_library("CodeLists")
        country = import_code_list(enums, "Country_Code", self.CSV)
        qdts = business.add_qdt_library("Qdts")
        derive_qdt(qdts, code, "CountryType", content_enum=country)
        result = SchemaGenerator(model).generate("CodeLists")
        simple = result.root.schema.simple_type("Country_CodeType")
        assert simple.enumeration_values == ["USA", "AUT", "AUS"]
