"""End-to-end tests for the command-line interface (the Figure-5 dialog)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main


@pytest.fixture
def xmi_file(tmp_path):
    path = tmp_path / "easybiz.xmi"
    assert main(["example", "easybiz", "--out", str(path)]) == 0
    return path


class TestExample:
    def test_stdout_when_no_out(self, capsys):
        assert main(["example", "figure1"]) == 0
        out = capsys.readouterr().out
        assert "<xmi:XMI" in out

    @pytest.mark.parametrize("name", ["easybiz", "figure1", "ecommerce"])
    def test_all_catalog_models(self, name, tmp_path):
        path = tmp_path / f"{name}.xmi"
        assert main(["example", name, "--out", str(path)]) == 0
        assert path.exists()


class TestInspect:
    def test_tree_view(self, xmi_file, capsys):
        assert main(["inspect", str(xmi_file)]) == 0
        out = capsys.readouterr().out
        assert "«DOCLibrary» EB005-HoardingPermit" in out
        assert "«ABIE» HoardingPermit" in out


class TestValidate:
    def test_valid_model_exits_zero(self, xmi_file, capsys):
        assert main(["validate", str(xmi_file)]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_basic_flag(self, xmi_file, capsys):
        assert main(["validate", str(xmi_file), "--basic"]) == 0

    def test_invalid_model_exits_nonzero(self, tmp_path, capsys):
        from repro.ccts.model import CctsModel
        from repro.xmi import write_xmi

        model = CctsModel("Bad")
        business = model.add_business_library("B", "urn:bad")
        bies = business.add_bie_library("L")
        bies.add_abie("Orphan")
        path = tmp_path / "bad.xmi"
        write_xmi(model.model, path)
        assert main(["validate", str(path)]) == 1
        assert "UPCC-B01" in capsys.readouterr().out


class TestGenerate:
    def test_full_pipeline(self, xmi_file, tmp_path, capsys):
        schemas = tmp_path / "schemas"
        assert main([
            "generate", str(xmi_file),
            "--library", "EB005-HoardingPermit",
            "--root", "HoardingPermit",
            "--out", str(schemas),
        ]) == 0
        assert len(list(schemas.rglob("*.xsd"))) == 6

        instance = tmp_path / "msg.xml"
        assert main(["instance", str(schemas), "--root", "HoardingPermit", "--out", str(instance)]) == 0
        assert main(["check-instance", str(schemas), str(instance)]) == 0
        assert "instance is valid" in capsys.readouterr().out

    def test_generate_to_stdout(self, xmi_file, capsys):
        assert main([
            "generate", str(xmi_file),
            "--library", "CommonAggregates",
        ]) == 0
        out = capsys.readouterr().out
        assert "Person_IdentificationType" in out

    def test_generate_unknown_library_fails(self, xmi_file, capsys):
        assert main(["generate", str(xmi_file), "--library", "Nope"]) == 1
        assert "generation failed" in capsys.readouterr().err

    def test_missing_root_fails_gracefully(self, xmi_file, capsys):
        assert main([
            "generate", str(xmi_file), "--library", "EB005-HoardingPermit",
        ]) == 1
        assert "select a root element" in capsys.readouterr().err

    def test_annotate_flag(self, xmi_file, capsys):
        assert main([
            "generate", str(xmi_file),
            "--library", "EB005-HoardingPermit",
            "--root", "HoardingPermit",
            "--annotate",
        ]) == 0
        out = capsys.readouterr().out
        assert "ccts:AcronymCode" in out

    def test_broken_instance_detected(self, xmi_file, tmp_path, capsys):
        schemas = tmp_path / "schemas"
        main([
            "generate", str(xmi_file),
            "--library", "EB005-HoardingPermit",
            "--root", "HoardingPermit",
            "--out", str(schemas),
        ])
        bad = tmp_path / "bad.xml"
        bad.write_text(
            '<doc:HoardingPermit xmlns:doc="urn:au:gov:vic:easybiz:data:draft:EB005-HoardingPermit"/>',
            encoding="utf-8",
        )
        assert main(["check-instance", str(schemas), str(bad)]) == 1
        assert "problem" in capsys.readouterr().out


class TestCheckInstance:
    @pytest.fixture
    def schemas(self, xmi_file, tmp_path):
        out = tmp_path / "schemas"
        assert main([
            "generate", str(xmi_file),
            "--library", "EB005-HoardingPermit",
            "--root", "HoardingPermit",
            "--out", str(out),
        ]) == 0
        return out

    def test_deep_nesting_is_a_located_error(self, schemas, tmp_path, capsys):
        deep = tmp_path / "deep.xml"
        deep.write_text("<a>" * 5000 + "</a>" * 5000, encoding="utf-8")
        capsys.readouterr()
        assert main(["check-instance", str(schemas), str(deep)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: document nests too deeply")
        assert "Traceback" not in err

    def test_undecodable_bytes_are_a_located_error(self, schemas, tmp_path, capsys):
        utf16 = tmp_path / "utf16.xml"
        utf16.write_bytes(b"\xff\xfe<\x00a\x00/\x00>\x00")
        capsys.readouterr()
        assert main(["check-instance", str(schemas), str(utf16)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: 'utf-8' codec can't decode byte 0xff")
        assert "Traceback" not in err


class TestAlternativeSyntaxes:
    def test_relaxng_output(self, xmi_file, capsys):
        assert main([
            "generate", str(xmi_file),
            "--library", "EB005-HoardingPermit",
            "--root", "HoardingPermit",
            "--syntax", "rng",
        ]) == 0
        out = capsys.readouterr().out
        assert '<grammar xmlns="http://relaxng.org/ns/structure/1.0"' in out
        assert '<ref name="e.doc.HoardingPermit"/>' in out

    def test_relaxng_requires_root(self, xmi_file, capsys):
        assert main([
            "generate", str(xmi_file),
            "--library", "CommonAggregates",
            "--syntax", "rng",
        ]) == 1
        assert "requires --root" in capsys.readouterr().err

    def test_rdfs_output(self, xmi_file, tmp_path):
        out = tmp_path / "model.rdf"
        assert main([
            "generate", str(xmi_file),
            "--library", "EB005-HoardingPermit",
            "--root", "HoardingPermit",
            "--syntax", "rdfs",
            "--out", str(out),
        ]) == 0
        text = out.read_text(encoding="utf-8")
        assert "<rdf:RDF" in text and "rdfs:subClassOf" in text


class TestRegistryCommands:
    def test_store_search_list(self, xmi_file, tmp_path, capsys):
        registry_dir = str(tmp_path / "registry")
        assert main(["registry", "store", registry_dir, "easybiz", str(xmi_file)]) == 0
        capsys.readouterr()
        assert main(["registry", "search", registry_dir, "Hoarding"]) == 0
        out = capsys.readouterr().out
        assert "[easybiz]" in out and "Hoarding" in out
        assert main(["registry", "list", registry_dir]) == 0
        out = capsys.readouterr().out
        assert "easybiz: 8 libraries" in out
        assert "DOCLibrary EB005-HoardingPermit" in out

    def test_store_twice_needs_overwrite(self, xmi_file, tmp_path, capsys):
        registry_dir = str(tmp_path / "registry")
        assert main(["registry", "store", registry_dir, "m", str(xmi_file)]) == 0
        assert main(["registry", "store", registry_dir, "m", str(xmi_file)]) == 1
        assert main(["registry", "store", registry_dir, "m", str(xmi_file), "--overwrite"]) == 0


class TestDiffCommand:
    def test_identical_models(self, xmi_file, tmp_path, capsys):
        assert main(["diff", str(xmi_file), str(xmi_file)]) == 0
        assert "0 difference(s)" in capsys.readouterr().out

    def test_different_models(self, xmi_file, tmp_path, capsys):
        other = tmp_path / "fig1.xmi"
        main(["example", "figure1", "--out", str(other)])
        capsys.readouterr()
        assert main(["diff", str(xmi_file), str(other)]) == 1
        assert "difference" in capsys.readouterr().out


class TestCompatCommand:
    def test_same_schemas_compatible(self, xmi_file, tmp_path, capsys):
        schemas = tmp_path / "schemas"
        main(["generate", str(xmi_file), "--library", "EB005-HoardingPermit",
              "--root", "HoardingPermit", "--out", str(schemas)])
        capsys.readouterr()
        assert main(["compat", str(schemas), str(schemas)]) == 0
        assert "backward compatible" in capsys.readouterr().out

    def test_breaking_change_detected(self, xmi_file, tmp_path, capsys):
        old = tmp_path / "old"
        main(["generate", str(xmi_file), "--library", "EB005-HoardingPermit",
              "--root", "HoardingPermit", "--out", str(old)])
        new = tmp_path / "new"
        new.mkdir()
        # Drop one schema file entirely: a removed namespace is breaking.
        import shutil
        src = old / "urn_au_gov_vic_easybiz_"
        dst = new / "urn_au_gov_vic_easybiz_"
        dst.mkdir()
        for path in src.iterdir():
            if "LocalLaw" not in path.name:
                shutil.copy(path, dst / path.name)
        capsys.readouterr()
        assert main(["compat", str(old), str(new)]) == 1
        assert "NOT backward compatible" in capsys.readouterr().out


class TestReverseCommand:
    def test_reverse_engineering_pipeline(self, xmi_file, tmp_path, capsys):
        schemas = tmp_path / "schemas"
        main(["generate", str(xmi_file), "--library", "EB005-HoardingPermit",
              "--root", "HoardingPermit", "--out", str(schemas)])
        reconstructed = tmp_path / "reconstructed.xmi"
        capsys.readouterr()
        assert main(["reverse", str(schemas), "--out", str(reconstructed)]) == 0
        out = capsys.readouterr().out
        assert "document libraries: EB005-HoardingPermit" in out
        assert "0 error(s)" in out
        assert reconstructed.exists()
        # The reconstructed model regenerates valid schemas.
        regen = tmp_path / "regen"
        assert main(["generate", str(reconstructed), "--library", "EB005-HoardingPermit",
                     "--root", "HoardingPermit", "--out", str(regen)]) == 0
        assert main(["compat", str(schemas), str(regen)]) == 0


class TestDiagramCommand:
    def test_whole_model_diagram(self, xmi_file, capsys):
        assert main(["diagram", str(xmi_file)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "subgraph cluster_" in out

    def test_single_library_diagram(self, xmi_file, tmp_path):
        out = tmp_path / "cc.dot"
        assert main(["diagram", str(xmi_file),
                     "--library", "CandidateCoreComponents", "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert "\\<\\<ACC\\>\\> Application" in text
        assert "arrowtail=diamond" in text


class TestDocumentCommand:
    def test_html_documentation(self, xmi_file, tmp_path, capsys):
        out = tmp_path / "doc.html"
        assert main(["document", str(xmi_file),
                     "--library", "EB005-HoardingPermit",
                     "--root", "HoardingPermit",
                     "--out", str(out),
                     "--title", "HoardingPermit exchange"]) == 0
        text = out.read_text(encoding="utf-8")
        assert "<title>HoardingPermit exchange</title>" in text
        assert "HoardingPermitType" in text


class TestValidateXmiCommand:
    CORPUS = Path(__file__).parent / "corpus" / "malformed"

    def test_clean_file_exits_zero(self, xmi_file, capsys):
        assert main(["validate-xmi", str(xmi_file)]) == 0
        assert "ok (model" in capsys.readouterr().out

    def test_corpus_exits_nonzero_with_located_report(self, capsys):
        files = sorted(str(path) for path in self.CORPUS.glob("*.xmi"))
        assert files, "malformed corpus is missing"
        assert main(["validate-xmi", *files]) == 1
        out = capsys.readouterr().out
        assert "[duplicate-id]" in out
        assert "[bad-multiplicity]" in out
        assert "xmi:id=" in out
        assert "defect(s) found" in out

    def test_strict_stops_at_first_defect(self, capsys):
        target = self.CORPUS / "duplicate_ids.xmi"
        assert main(["validate-xmi", "--strict", str(target)]) == 1
        err = capsys.readouterr().err
        assert "duplicate xmi:id" in err
        assert f"{target}:8:" in err

    def test_max_elements_limit(self, xmi_file, capsys):
        assert main(["validate-xmi", "--max-elements", "3", str(xmi_file)]) == 1
        assert "max_elements=3" in capsys.readouterr().out

    def test_missing_file_reported(self, tmp_path, capsys):
        assert main(["validate-xmi", str(tmp_path / "gone.xmi")]) == 1
        assert "error" in capsys.readouterr().err


class TestMalformedXmiIsALocatedError:
    """Commands that read a model strictly end a syntax error as ``error:``."""

    TRUNCATED = Path(__file__).parent / "corpus" / "malformed" / "truncated.xmi"

    @pytest.mark.parametrize("command", ["validate", "inspect"])
    def test_syntax_error_exits_one_with_error_line(self, command, capsys):
        assert main([command, str(self.TRUNCATED)]) == 1
        err = capsys.readouterr().err
        assert err == "error: not well-formed XML: unclosed token: line 6, column 8\n"

    def test_no_traceback_in_a_fresh_process(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "validate", str(self.TRUNCATED)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")},
            timeout=60,
        )
        assert result.returncode == 1
        assert result.stderr.startswith("error:")
        assert "Traceback" not in result.stderr


class TestKeepGoingFlag:
    def test_keep_going_happy_path_matches_default(self, xmi_file, capsys):
        assert main(["generate", str(xmi_file),
                     "--library", "EB005-HoardingPermit",
                     "--root", "HoardingPermit",
                     "--keep-going"]) == 0
        assert "<xsd:schema" in capsys.readouterr().out

    def test_keep_going_reports_failures(self, xmi_file, capsys, monkeypatch):
        import repro.xsdgen.qdt_library
        from repro.errors import GenerationError

        def explode(builder):
            raise GenerationError("sabotaged QDT build")

        monkeypatch.setattr(repro.xsdgen.qdt_library, "build", explode)
        assert main(["generate", str(xmi_file),
                     "--library", "EB005-HoardingPermit",
                     "--root", "HoardingPermit",
                     "--keep-going"]) == 1
        err = capsys.readouterr().err
        assert "sabotaged QDT build" in err
        assert "library build(s) failed" in err
