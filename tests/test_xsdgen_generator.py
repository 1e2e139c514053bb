"""Unit tests for generator orchestration: sessions, memoization, errors."""

import pytest

from repro.ccts.model import CctsModel
from repro.errors import GenerationError
from repro.xsdgen import GenerationOptions, SchemaGenerator
from repro.xsdgen.session import GenerationSession


class TestSession:
    def test_status_accumulates(self):
        session = GenerationSession()
        session.status("one")
        session.status("two")
        assert session.log == "one\ntwo"

    def test_fail_records_and_raises(self):
        session = GenerationSession()
        with pytest.raises(GenerationError):
            session.fail("boom")
        assert "ERROR: boom" in session.log


class TestOrchestration:
    def test_memoization_single_schema_per_library(self, easybiz):
        generator = SchemaGenerator(easybiz.model)
        result = generator.generate(easybiz.doc_library, root="HoardingPermit")
        # Six schemas: DOC, 2 BIE, CDT, QDT, ENUM; CDT library referenced
        # from three places but generated once.
        assert len(result.schemas) == 6

    def test_generate_by_library_name(self, easybiz):
        generator = SchemaGenerator(easybiz.model)
        result = generator.generate("CommonAggregates")
        assert result.root.library.name == "CommonAggregates"

    def test_prim_library_has_no_generator(self, easybiz):
        generator = SchemaGenerator(easybiz.model)
        with pytest.raises(GenerationError, match="PRIMLibraries"):
            generator.generate(easybiz.prim_library)

    def test_erroneous_model_aborts(self):
        model = CctsModel("Bad")
        business = model.add_business_library("B", "urn:bad")
        bies = business.add_bie_library("L")
        bies.add_abie("Orphan")  # no basedOn -> UPCC-B01 error
        generator = SchemaGenerator(model)
        with pytest.raises(GenerationError, match="erroneous"):
            generator.generate(bies)
        assert any("ERROR" in message for message in generator.session.messages)

    def test_validation_can_be_skipped(self):
        model = CctsModel("Bad")
        business = model.add_business_library("B", "urn:bad")
        bies = business.add_bie_library("L")
        bies.add_abie("Orphan")
        generator = SchemaGenerator(model, GenerationOptions(validate_first=False))
        result = generator.generate(bies)
        assert len(result.schemas) == 1

    def test_status_messages_mention_progress(self, easybiz):
        generator = SchemaGenerator(easybiz.model)
        generator.generate(easybiz.doc_library, root="HoardingPermit")
        log = generator.session.log
        assert "Selected root element 'HoardingPermit'" in log
        assert "Generation finished: 6 schema(s)" in log

    def test_write_to_uses_ndr_layout(self, easybiz, tmp_path):
        options = GenerationOptions(target_directory=tmp_path)
        generator = SchemaGenerator(easybiz.model, options)
        generator.generate(easybiz.doc_library, root="HoardingPermit")
        folder = tmp_path / "urn_au_gov_vic_easybiz_"
        assert folder.is_dir()
        files = sorted(path.name for path in folder.iterdir())
        assert "data_draft_EB005-HoardingPermit_0.4.xsd" in files
        assert "types_draft_coredatatypes_1.0.xsd" in files
        assert len(files) == 6

    def test_cyclic_bie_libraries_generate(self):
        model = CctsModel("Cyclic")
        business = model.add_business_library("B", "urn:cyc")
        prims = business.add_prim_library("P")
        string = prims.add_primitive("String")
        cdts = business.add_cdt_library("D")
        text = cdts.add_cdt("Text")
        text.set_content(string.element)
        ccs = business.add_cc_library("C")
        a_acc = ccs.add_acc("A")
        a_acc.add_bcc("Name", text, "0..1")
        b_acc = ccs.add_acc("B")
        b_acc.add_bcc("Name", text, "0..1")
        a_acc.add_ascc("Linked", b_acc, "0..1")
        b_acc.add_ascc("Back", a_acc, "0..1")
        lib1 = business.add_bie_library("L1")
        lib2 = business.add_bie_library("L2")
        from repro.ccts.derivation import derive_abie

        a = derive_abie(lib1, a_acc)
        a.include("Name", "0..1")
        b = derive_abie(lib2, b_acc)
        b.include("Name", "0..1")
        a.connect("Linked", b.abie, "0..1", based_on="Linked")
        b.connect("Back", a.abie, "0..1", based_on="Back")
        generator = SchemaGenerator(model)
        result = generator.generate(lib1)
        assert len(result.schemas) == 3  # L1, L2, D
        schema1 = result.schemas[result.root_namespace]
        imported = {imp.namespace for imp in schema1.schema.imports}
        assert any(ns.endswith(":L2") for ns in imported)
        # and L2 imports L1 back
        l2 = next(g for g in result.schemas.values() if g.library.name == "L2")
        assert any(imp.namespace.endswith(":L1") for imp in l2.schema.imports)

    def test_result_root_requires_generation(self):
        from repro.xsdgen.generator import GenerationResult

        with pytest.raises(GenerationError):
            GenerationResult().root


def _two_root_model():
    """A DOC library with two independent root ABIEs, A and B."""
    from repro.ccts.derivation import derive_abie

    model = CctsModel("TwoRoots")
    business = model.add_business_library("B", "urn:two")
    prims = business.add_prim_library("P")
    string = prims.add_primitive("String")
    cdts = business.add_cdt_library("D")
    text = cdts.add_cdt("Text")
    text.set_content(string.element)
    ccs = business.add_cc_library("C")
    a_acc = ccs.add_acc("Alpha")
    a_acc.add_bcc("Name", text, "0..1")
    b_acc = ccs.add_acc("Beta")
    b_acc.add_bcc("Code", text, "0..1")
    doc = business.add_doc_library("Docs")
    derive_abie(doc, a_acc).include("Name", "0..1")
    derive_abie(doc, b_acc).include("Code", "0..1")
    return model, doc


class TestMemoKeying:
    def test_different_roots_yield_different_schemas(self):
        # Regression: the old memo keyed on the library element alone, so
        # a second generate() with another root returned the first schema.
        model, doc = _two_root_model()
        generator = SchemaGenerator(model)
        alpha = generator.generate(doc, root="Alpha")
        beta = generator.generate(doc, root="Beta")
        alpha_doc = alpha.root.to_string()
        beta_doc = beta.root.to_string()
        assert alpha_doc != beta_doc
        assert '"Alpha"' in alpha_doc and '"Alpha"' not in beta_doc
        assert '"Beta"' in beta_doc and '"Beta"' not in alpha_doc

    def test_roots_match_single_run_generators(self):
        # Each per-root schema from one shared generator must equal the
        # schema a dedicated generator produces for that root.
        model, doc = _two_root_model()
        shared = SchemaGenerator(model)
        alpha = shared.generate(doc, root="Alpha").root.to_string()
        beta = shared.generate(doc, root="Beta").root.to_string()
        model2, doc2 = _two_root_model()
        assert SchemaGenerator(model2).generate(doc2, root="Alpha").root.to_string() == alpha
        model3, doc3 = _two_root_model()
        assert SchemaGenerator(model3).generate(doc3, root="Beta").root.to_string() == beta


class TestResultScoping:
    def test_no_leak_between_runs(self, easybiz):
        # Regression: a reused generator leaked every previously generated
        # schema into later results.  A run for a leaf library must return
        # only what that library reaches.
        generator = SchemaGenerator(easybiz.model)
        first = generator.generate(easybiz.doc_library, root="HoardingPermit")
        assert len(first.schemas) == 6
        second = generator.generate("EnumerationTypes")
        assert len(second.schemas) == 1
        assert second.root.library.name == "EnumerationTypes"

    def test_scoped_result_still_contains_transitive_imports(self, easybiz):
        generator = SchemaGenerator(easybiz.model)
        generator.generate(easybiz.doc_library, root="HoardingPermit")
        result = generator.generate("CommonDataTypes")
        names = sorted(g.library.name for g in result.schemas.values())
        # QDTs import their base CDTs and content enumerations -- nothing else.
        assert names == ["CommonDataTypes", "EnumerationTypes", "coredatatypes"]


def _validation_memo_hits() -> int:
    from repro.obs.metrics import get_registry

    return get_registry().snapshot().get("validation.memo_hits", 0)


def _warned_easybiz(easybiz):
    """EasyBiz plus one basic-rule warning (a basedOn between two ACCs)."""
    accs = easybiz.model.accs()
    package = easybiz.model.model.owning_package_of(accs[0].element)
    package.add_dependency(accs[0].element, accs[1].element, stereotype="basedOn")
    return easybiz


class TestValidationMemo:
    """validate_first reuses the basic-rule report of an unchanged model."""

    def _generate(self, easybiz):
        generator = SchemaGenerator(easybiz.model)
        result = generator.generate(easybiz.doc_library, root="HoardingPermit")
        return generator, result

    def test_unchanged_model_hits_the_memo(self, easybiz):
        self._generate(easybiz)  # assigns xmi:ids, which moves the revision
        self._generate(easybiz)
        report = easybiz.model.basic_validation_report()
        before = _validation_memo_hits()
        self._generate(easybiz)
        self._generate(easybiz)
        assert _validation_memo_hits() - before == 2
        assert easybiz.model.basic_validation_report() is report

    def test_mutated_model_misses_the_memo(self, easybiz):
        report = easybiz.model.basic_validation_report()
        easybiz.model.abies()[0].element.documentation = "edited"
        before = _validation_memo_hits()
        assert easybiz.model.basic_validation_report() is not report
        assert _validation_memo_hits() == before

    def test_invalid_model_fails_identically_on_every_call(self):
        model = CctsModel("Bad")
        business = model.add_business_library("B", "urn:bad")
        bies = business.add_bie_library("L")
        bies.add_abie("Orphan")  # no basedOn -> UPCC-B01 error
        before = _validation_memo_hits()
        messages = []
        for _ in range(3):
            with pytest.raises(GenerationError, match="erroneous") as caught:
                SchemaGenerator(model).generate(bies)
            messages.append(str(caught.value))
        assert messages[0] == messages[1] == messages[2]
        assert _validation_memo_hits() - before == 2

    def test_warnings_are_reported_on_hits(self, easybiz):
        _warned_easybiz(easybiz)
        self._generate(easybiz)
        before = _validation_memo_hits()
        logs = [self._generate(easybiz)[0].session.log for _ in range(2)]
        assert _validation_memo_hits() > before
        for log in logs:
            assert "WARNING: basedOn from 'Application'" in log
