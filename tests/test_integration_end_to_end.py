"""Integration tests across every layer of the pipeline.

model construction -> validation -> schema generation -> file layout ->
schema reload from disk -> instance generation -> instance validation ->
XMI round trip -> registry -> regeneration equivalence.
"""

from pathlib import Path

import pytest

from repro import CctsModel, SchemaGenerator, validate_model
from repro.instances import InstanceGenerator
from repro.registry import Registry
from repro.xmi import read_xmi, write_xmi
from repro.xsd.validator import SchemaSet, validate_instance
from repro.xsdgen import GenerationOptions

from tests.conftest import build_synthetic_model
from tests.reference_validator import reference_validate


class TestFullPipeline:
    def test_schemas_written_to_disk_revalidate_instances(self, easybiz, tmp_path):
        options = GenerationOptions(target_directory=tmp_path)
        result = SchemaGenerator(easybiz.model, options).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        # Reload from disk -- the parser, not the in-memory objects.
        schema_set = SchemaSet.from_directory(tmp_path)
        assert sorted(schema_set.namespaces) == sorted(s for s in result.schemas)
        document = InstanceGenerator(schema_set).generate("HoardingPermit")
        assert validate_instance(schema_set, document) == []

    def test_import_locations_resolve_on_disk(self, easybiz, tmp_path):
        options = GenerationOptions(target_directory=tmp_path)
        result = SchemaGenerator(easybiz.model, options).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        for generated in result.schemas.values():
            schema_path = tmp_path / generated.namespace.folder / generated.namespace.file_name
            for import_decl in generated.schema.imports:
                resolved = (schema_path.parent / import_decl.schema_location).resolve()
                assert resolved.exists(), f"{import_decl.schema_location} missing"

    def test_annotated_generation_round_trips(self, easybiz, easybiz_result, tmp_path):
        options = GenerationOptions(annotated=True, target_directory=tmp_path)
        annotated = SchemaGenerator(easybiz.model, options).generate(
            easybiz.doc_library, root="HoardingPermit"
        )
        # The Figure-5 annotation toggle: only the annotated run carries
        # CCTS documentation, and it makes every document longer.
        assert "ccts:AcronymCode" not in easybiz_result.root.to_string()
        assert len(annotated.root.to_string()) > len(easybiz_result.root.to_string())
        assert sum(len(g.to_string()) for g in annotated.schemas.values()) > sum(
            len(g.to_string()) for g in easybiz_result.schemas.values()
        )
        schema_set = SchemaSet.from_directory(tmp_path)
        document = InstanceGenerator(schema_set).generate("HoardingPermit")
        assert validate_instance(schema_set, document) == []
        text = (tmp_path / "urn_au_gov_vic_easybiz_" / "data_draft_EB005-HoardingPermit_0.4.xsd").read_text()
        assert "ccts:AcronymCode" in text
        assert "ccts:DictionaryEntryName" in text

    def test_registry_stored_model_regenerates_identically(self, easybiz, easybiz_result, tmp_path):
        registry = Registry(tmp_path)
        registry.store("easybiz", easybiz.model)
        loaded = registry.load("easybiz")
        result = SchemaGenerator(loaded).generate(
            loaded.library_named("EB005-HoardingPermit"), root="HoardingPermit"
        )
        for urn, generated in easybiz_result.schemas.items():
            assert result.schemas[urn].to_string() == generated.to_string()

    def test_xmi_file_pipeline(self, easybiz, tmp_path):
        xmi_path = tmp_path / "m.xmi"
        write_xmi(easybiz.model.model, xmi_path)
        model = CctsModel(model=read_xmi(Path(xmi_path).read_text(encoding="utf-8")))
        assert validate_model(model).ok
        result = SchemaGenerator(model).generate(
            model.library_named("EB005-HoardingPermit"), root="HoardingPermit"
        )
        schema_set = result.schema_set()
        document = InstanceGenerator(schema_set).generate("HoardingPermit")
        assert validate_instance(schema_set, document) == []

    def test_both_validation_engines_accept_generated_instances(self, easybiz_schema_set):
        document = InstanceGenerator(easybiz_schema_set).generate("HoardingPermit")
        assert validate_instance(easybiz_schema_set, document) == []
        assert reference_validate(easybiz_schema_set, document, engine="backtracking") == []

    def test_minimal_and_maximal_instances_both_validate(self, easybiz_schema_set):
        for fill in (True, False):
            generator = InstanceGenerator(easybiz_schema_set, fill_optional=fill)
            document = generator.generate("HoardingPermit")
            assert validate_instance(easybiz_schema_set, document) == []


@pytest.mark.parametrize("entity_count", [5, 20, 80])
def test_synthetic_model_scales(entity_count):
    """Paper section 4: "a manual transformation ... is unmanageable" -- the
    pipeline handles a document over ``entity_count`` aggregates."""
    model, doc, root = build_synthetic_model(entity_count)
    assert len(model.abies()) == entity_count + 1
    assert validate_model(model).ok
    result = SchemaGenerator(model).generate(doc, root=root)
    bies = next(g for g in result.schemas.values() if g.library.name == "Bies")
    assert len(bies.schema.complex_types) == entity_count
    schema_set = result.schema_set()
    message = InstanceGenerator(schema_set, repeat_unbounded=3).generate(root)
    assert validate_instance(schema_set, message) == []


class TestCrossBusinessLibraryGeneration:
    def test_imports_across_base_urns_resolve_on_disk(self, tmp_path):
        """Two business libraries (different baseURNs) -> different folders;
        the relative schemaLocations must still resolve."""
        from repro.catalog.primitives import add_standard_prim_library
        from repro.ccts.derivation import derive_abie
        from repro.instances import InstanceGenerator

        model = CctsModel("Federated")
        un = model.add_business_library("UN", "urn:un:unece:uncefact")
        prims = add_standard_prim_library(un)
        string = prims.primitive("String").element
        cdts = un.add_cdt_library("CoreDataTypes")
        text = cdts.add_cdt("Text")
        text.set_content(string)
        ccs = un.add_cc_library("Components")
        party = ccs.add_acc("Party")
        party.add_bcc("Name", text, "1")
        shared = un.add_bie_library("SharedAggregates")
        party_abie = derive_abie(shared, party)
        party_abie.include("Name")

        national = model.add_business_library("AT", "urn:at:gv:bmf")
        doc = national.add_doc_library("TaxFiling")
        filing_acc = ccs.add_acc("TaxFiling")
        filing_acc.add_bcc("Reference", text, "1")
        filing_acc.add_ascc("Filer", party, "1")
        derivation = derive_abie(doc, filing_acc)
        derivation.include("Reference")
        derivation.connect("Filer", party_abie.abie, based_on="Filer")

        options = GenerationOptions(target_directory=tmp_path)
        result = SchemaGenerator(model, options).generate(doc, root="TaxFiling")
        folders = {g.namespace.folder for g in result.schemas.values()}
        assert folders == {"urn_un_unece_uncefact_", "urn_at_gv_bmf_"}
        for generated in result.schemas.values():
            schema_path = tmp_path / generated.namespace.folder / generated.namespace.file_name
            for import_decl in generated.schema.imports:
                assert (schema_path.parent / import_decl.schema_location).resolve().exists()
        # The whole federated set still validates instances.
        schema_set = SchemaSet.from_directory(tmp_path)
        message = InstanceGenerator(schema_set).generate("TaxFiling")
        assert validate_instance(schema_set, message) == []
