"""Unit tests for XMI serialization and loading."""

import pytest

from repro.ccts.model import CctsModel
from repro.errors import XmiError
from repro.interchange import diff_models
from repro.uml.classifier import Enumeration
from repro.xmi import read_xmi, write_xmi
from repro.xmi.ids import assign_ids


class TestWriter:
    def test_document_shape(self, figure1):
        text = write_xmi(figure1.model.model)
        assert text.startswith('<?xml version="1.0" encoding="UTF-8"?>\n<xmi:XMI')
        assert 'xmi:version="2.1"' in text
        assert "<uml:Model" in text
        assert 'xmi:type="uml:Class"' in text
        assert "<upcc:ACC" in text

    def test_stereotype_tags_serialized(self, easybiz):
        text = write_xmi(easybiz.model.model)
        assert 'namespacePrefix="commonAggregates"' in text
        assert 'baseURN="urn:au:gov:vic:easybiz"' in text

    def test_ids_are_stable_across_writes(self, figure1):
        first = write_xmi(figure1.model.model)
        second = write_xmi(figure1.model.model)
        assert first == second

    def test_assign_ids_respects_existing(self, figure1):
        model = figure1.model.model
        model.xmi_id = "custom_root"
        mapping = assign_ids(model)
        assert mapping[id(model)] == "custom_root"
        assert len(set(mapping.values())) == len(mapping)

    def test_write_to_file(self, figure1, tmp_path):
        path = tmp_path / "m.xmi"
        text = write_xmi(figure1.model.model, path)
        assert path.read_text(encoding="utf-8") == text


class TestRoundTrip:
    def test_figure1_round_trip_identity(self, figure1):
        once = write_xmi(figure1.model.model)
        again = write_xmi(read_xmi(once))
        assert once == again

    def test_easybiz_round_trip_identity(self, easybiz):
        once = write_xmi(easybiz.model.model)
        again = write_xmi(read_xmi(once))
        assert once == again

    def test_round_trip_preserves_structure(self, easybiz):
        reloaded = CctsModel(model=read_xmi(write_xmi(easybiz.model.model)))
        assert diff_models(easybiz.model, reloaded) == []

    def test_round_trip_preserves_enum_values(self, easybiz):
        reloaded = read_xmi(write_xmi(easybiz.model.model))
        enums = [e for e in reloaded.all_of_type(Enumeration) if e.name == "CountryType_Code"]
        assert enums[0].literals[0].value == "United States of America"

    def test_round_trip_preserves_aggregation_kinds(self, easybiz):
        from repro.uml.association import AggregationKind, Association

        reloaded = read_xmi(write_xmi(easybiz.model.model))
        shared = [
            a for a in reloaded.all_of_type(Association)
            if a.target.name == "Assigned"
        ]
        assert shared[0].aggregation is AggregationKind.SHARED

    def test_reloaded_model_generates_identical_schemas(self, easybiz, easybiz_result):
        from repro.xsdgen import SchemaGenerator

        reloaded = CctsModel(model=read_xmi(write_xmi(easybiz.model.model)))
        result = SchemaGenerator(reloaded).generate(
            reloaded.library_named("EB005-HoardingPermit"), root="HoardingPermit"
        )
        assert result.root.to_string() == easybiz_result.root.to_string()

    def test_documentation_preserved(self):
        model = CctsModel("Doc")
        business = model.add_business_library("B", "urn:doc")
        library = business.add_cc_library("L")
        acc = library.add_acc("Thing")
        acc.element.documentation = "a documented thing"
        reloaded = read_xmi(write_xmi(model.model))
        thing = reloaded.find_classifier_anywhere("Thing")
        assert thing.documentation == "a documented thing"


class TestSourceClassification:
    """``read_xmi`` accepts a file path or literal XML content."""

    def test_path_instance_always_read_from_disk(self, figure1, tmp_path):
        from pathlib import Path

        target = tmp_path / "model.xmi"
        write_xmi(figure1.model.model, target)
        model = read_xmi(Path(target))
        assert model.name == "Figure1"

    def test_existing_file_with_xml_suffix_read_from_disk(self, figure1, tmp_path):
        # An XMI document stored as model.xml must be read as a file, not
        # parsed as literal XML text.
        target = tmp_path / "model.xml"
        write_xmi(figure1.model.model, target)
        model = read_xmi(str(target))
        assert model.name == "Figure1"

    def test_literal_xml_with_leading_whitespace_is_content(self, figure1):
        # Strip the XML declaration (which must sit at offset zero) so the
        # document tolerates the leading whitespace under test.
        text = write_xmi(figure1.model.model).split("\n", 1)[1]
        assert read_xmi("\n  " + text).name == "Figure1"

    def test_missing_xmi_path_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_xmi(str(tmp_path / "does_not_exist.xmi"))

    def test_load_xmi_accepts_paths_too(self, figure1, tmp_path):
        from repro.xmi import load_xmi

        target = tmp_path / "model.xml"
        write_xmi(figure1.model.model, target)
        result = load_xmi(str(target))
        assert result.ok
        assert result.model.name == "Figure1"


class TestReaderErrors:
    def test_non_xmi_root_rejected(self):
        with pytest.raises(XmiError):
            read_xmi("<notxmi/>")

    def test_missing_model_rejected(self):
        with pytest.raises(XmiError):
            read_xmi('<xmi:XMI xmlns:xmi="http://www.omg.org/XMI"/>')

    def test_duplicate_id_rejected(self, figure1):
        text = write_xmi(figure1.model.model)
        corrupted = text.replace('xmi:id="id_2"', 'xmi:id="id_1"', 1)
        with pytest.raises(XmiError, match="duplicate"):
            read_xmi(corrupted)

    def test_dangling_type_reference_rejected(self, figure1):
        text = write_xmi(figure1.model.model)
        corrupted = text.replace('type="id_', 'type="missing_', 1)
        with pytest.raises(XmiError):
            read_xmi(corrupted)

    def test_unknown_packaged_element_rejected(self, figure1):
        text = write_xmi(figure1.model.model)
        corrupted = text.replace('xmi:type="uml:Class"', 'xmi:type="uml:Actor"', 1)
        with pytest.raises(XmiError, match="unsupported"):
            read_xmi(corrupted)

    def test_stereotype_on_unknown_base_rejected(self, figure1):
        text = write_xmi(figure1.model.model)
        corrupted = text.replace('<upcc:ACC base="', '<upcc:ACC base="gone_', 1)
        with pytest.raises(XmiError, match="unknown id"):
            read_xmi(corrupted)
