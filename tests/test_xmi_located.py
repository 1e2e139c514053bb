"""Pinned located diagnostics and namespace edge cases of the XMI reader.

The tables below are the reader's exact output: every lenient issue of
the malformed corpus as ``(kind, message, xmi_id, path, line, column)``,
the strict error of each file, and the verdict plus ``write_xmi`` output
of documents whose namespace declarations are unusual.  A change to how
the reader parses or locates must leave all of them as they are.
"""

import hashlib
import io
import xml.etree.ElementTree as ET
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro.catalog.figure1 import build_figure1_model
from repro.cli import main
from repro.errors import XmiError
from repro.xmi import load_xmi, read_xmi, write_xmi

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "corpus" / "malformed"

LENIENT = {
    "bad_multiplicity.xmi": [
        ("bad-multiplicity",
         "invalid multiplicity lower='many' upper='1': invalid literal for int() with base 10: 'many'",
         "id_5", "BadMultiplicity/Example/Address/Street", 7, 9),
        ("bad-multiplicity",
         "invalid multiplicity lower='-2' upper='1': lower bound must be >= 0, got -2",
         "id_6", "BadMultiplicity/Example/Address/Town", 8, 9),
        ("bad-multiplicity",
         "invalid multiplicity lower='3' upper='1': upper bound 1 < lower bound 3",
         "id_7", "BadMultiplicity/Example/Address/Region", 9, 9),
    ],
    "dangling_refs.xmi": [
        ("dangling-type-ref", "property 'Street' references non-classifier id 'id_999'",
         "id_5", "DanglingRefs/Example/Address/Street", 7, 9),
        ("dangling-end-ref", "association end references non-class id 'id_777'",
         "id_10", "DanglingRefs/Example/packagedElement/Home", 14, 9),
        ("dangling-dependency-ref", "dependency references unresolved ids 'id_4'/'id_888'",
         "id_11", "DanglingRefs/Example/packagedElement", 16, 7),
    ],
    "duplicate_ids.xmi": [
        ("duplicate-id", "duplicate xmi:id 'id_5'",
         "id_5", "DuplicateIds/Example/Address/Town", 8, 9),
        ("duplicate-id", "duplicate xmi:id 'id_4'",
         "id_4", "DuplicateIds/Example/Person", 10, 7),
    ],
    "truncated.xmi": [
        ("xml-syntax", "not well-formed XML: unclosed token: line 6, column 8",
         None, "", 6, 9),
    ],
    "unknown_stereotype_base.xmi": [
        ("unknown-element", "unsupported packagedElement xmi:type 'uml:Interface'",
         "id_4", "UnknownStereotypeBase/Example/NotSupported", 6, 7),
        ("missing-id", "element 'packagedElement' lacks an xmi:id",
         None, "UnknownStereotypeBase/Example/NoId", 7, 7),
        ("dangling-stereotype-base",
         "stereotype application <<ACC>> references unknown id 'id_404'",
         "id_404", "", 12, 3),
    ],
}

#: file -> (message, xmi_id, path, line, column) of the strict XmiError.
STRICT = {
    "bad_multiplicity.xmi": (
        "element 'id_5' has an invalid multiplicity lower='many' upper='1': "
        "invalid literal for int() with base 10: 'many'",
        "id_5", "BadMultiplicity/Example/Address/Street", 7, 9),
    "dangling_refs.xmi": (
        "property 'Street' references non-classifier id 'id_999'",
        "id_5", "DanglingRefs/Example/Address/Street", 7, 9),
    "duplicate_ids.xmi": (
        "duplicate xmi:id 'id_5'", "id_5", "DuplicateIds/Example/Address/Town", 8, 9),
    "unknown_stereotype_base.xmi": (
        "unsupported packagedElement xmi:type 'uml:Interface'",
        "id_4", "UnknownStereotypeBase/Example/NotSupported", 6, 7),
}


def facts(issues):
    return [
        (issue.kind, issue.message, issue.xmi_id, issue.path, issue.line, issue.column)
        for issue in issues
    ]


class TestMalformedCorpusPinned:
    def test_table_covers_the_corpus(self):
        assert sorted(path.name for path in CORPUS.glob("*.xmi")) == sorted(LENIENT)

    @pytest.mark.parametrize("name", sorted(LENIENT))
    def test_lenient_issues(self, name):
        assert facts(load_xmi(CORPUS / name).issues) == LENIENT[name]

    @pytest.mark.parametrize("name", sorted(STRICT))
    def test_strict_error(self, name):
        with pytest.raises(XmiError) as excinfo:
            read_xmi(CORPUS / name)
        error = excinfo.value
        assert (str(error), error.xmi_id, error.path, error.line, error.column) == STRICT[name]

    def test_strict_syntax_error(self):
        # A syntax error ends as a located XmiError at the 1-based position
        # the lenient issue reports, never as a bare ET.ParseError.
        with pytest.raises(XmiError) as excinfo:
            read_xmi(CORPUS / "truncated.xmi")
        error = excinfo.value
        assert str(error) == "not well-formed XML: unclosed token: line 6, column 8"
        assert (error.line, error.column) == (6, 9)
        assert isinstance(error.__context__, ET.ParseError)

    def test_syntax_error_column_is_one_based(self, monkeypatch, capsys):
        # expat's column is 0-based; the reports count from 1 like every
        # other located diagnostic, so 6:9 is the '<' of the unclosed tag.
        line = (CORPUS / "truncated.xmi").read_text(encoding="utf-8").splitlines()[5]
        column = line.index("<ownedAttribute") + 1
        [issue] = load_xmi(CORPUS / "truncated.xmi").issues
        assert (issue.line, issue.column) == (6, column) == (6, 9)
        monkeypatch.chdir(ROOT)
        assert main(["validate-xmi", "--strict", "tests/corpus/malformed/truncated.xmi"]) == 1
        assert capsys.readouterr().err.startswith(
            "tests/corpus/malformed/truncated.xmi:6:9: error: not well-formed XML"
        )

    def test_validate_xmi_report_matches_committed_copy(self, monkeypatch):
        # The CI step diffs the same report; paths are relative to the root.
        monkeypatch.chdir(ROOT)
        out = io.StringIO()
        with redirect_stdout(out):
            status = main(
                ["validate-xmi"]
                + [f"tests/corpus/malformed/{name}" for name in sorted(LENIENT)]
            )
        assert status == 1
        expected = (CORPUS / "validate-xmi.expected").read_text(encoding="utf-8")
        assert out.getvalue() == expected


XMI_NS = "http://www.omg.org/XMI"
UPCC_NS = "urn:un:unece:uncefact:profile:upcc:1.0"


def _canonical() -> str:
    return write_xmi(build_figure1_model().model.model)


def _variant(name: str) -> str:
    text = _canonical()
    if name == "canonical":
        return text
    if name == "upcc-undeclared":
        return text.replace(f' xmlns:upcc="{UPCC_NS}"', "", 1)
    if name == "xmi-2.1-uri":
        return text.replace(XMI_NS, "http://schema.omg.org/spec/XMI/2.1")
    if name == "upcc-other-uri":
        return text.replace(UPCC_NS, "urn:example:other-profile")
    if name == "uml-redeclared-inner":
        return text.replace(
            "<packagedElement ", '<packagedElement xmlns:uml="urn:example:inner" ', 1
        )
    if name == "xmi-redeclared-inner":
        return text.replace(
            "<packagedElement ", '<packagedElement xmlns:xmi="urn:example:inner" ', 1
        )
    if name == "upcc-redeclared-on-application":
        return text.replace("<upcc:ACC ", f'<upcc:ACC xmlns:upcc="{UPCC_NS}" ', 1)
    if name == "default-namespace":
        return text.replace(" xmlns:xmi=", ' xmlns="urn:example:default" xmlns:xmi=', 1)
    if name == "default-namespace-missing-id":
        return _variant("default-namespace").replace(' xmi:id="id_3"', "", 1)
    if name == "upcc-undeclared-dangling-base":
        return _variant("upcc-undeclared").replace(
            '<upcc:ACC base="', '<upcc:ACC base="gone_', 1
        )
    if name == "other-root-prefix":
        return text.replace("xmi:XMI", "x:XMI").replace(
            f'xmlns:xmi="{XMI_NS}"', f'xmlns:xmi="{XMI_NS}" xmlns:x="{XMI_NS}"', 1
        )
    if name == "unprefixed-model":
        return text.replace("uml:Model", "Model")
    raise KeyError(name)


#: variant -> (model loaded, lenient issues, sha256 prefix of write_xmi output).
CANONICAL_DIGEST = "c71a2c66a5fb3ed5"
EDGE_CASES = {
    "canonical": (True, [], CANONICAL_DIGEST),
    "upcc-undeclared": (True, [], CANONICAL_DIGEST),
    "xmi-2.1-uri": (True, [], CANONICAL_DIGEST),
    "upcc-other-uri": (True, [], CANONICAL_DIGEST),
    "uml-redeclared-inner": (True, [], CANONICAL_DIGEST),
    "xmi-redeclared-inner": (True, [], CANONICAL_DIGEST),
    # The redeclaration is an attribute as written, so it becomes a tag.
    "upcc-redeclared-on-application": (True, [], "ab3ca43ad623ba92"),
    "default-namespace": (True, [], CANONICAL_DIGEST),
    "default-namespace-missing-id": (
        True,
        [("missing-id", "element 'packagedElement' lacks an xmi:id", None,
          "Figure1/Example/Primitives", 5, 7),
         ("dangling-stereotype-base",
          "stereotype application <<PRIMLibrary>> references unknown id 'id_3'",
          "id_3", "", 67, 3)],
        "7e6467fa3ecef9dc",
    ),
    "upcc-undeclared-dangling-base": (
        True,
        [("dangling-stereotype-base",
          "stereotype application <<ACC>> references unknown id 'gone_id_17'",
          "gone_id_17", "", 81, 3)],
        "ecda8b6a6e3b7b65",
    ),
    "other-root-prefix": (
        False, [("document", "expected an xmi:XMI root, got 'x:XMI'", None, "", 2, 1)], None
    ),
    "unprefixed-model": (
        False, [("document", "document contains no uml:Model", None, "", 2, 1)], None
    ),
}


class TestNamespaceEdgeCases:
    @pytest.mark.parametrize("name", sorted(EDGE_CASES))
    def test_verdict_and_round_trip(self, name):
        loaded, issues, digest = EDGE_CASES[name]
        result = load_xmi(_variant(name))
        assert (result.model is not None) == loaded
        assert facts(result.issues) == issues
        if loaded:
            output = write_xmi(result.model)
            assert hashlib.sha256(output.encode("utf-8")).hexdigest()[:16] == digest

    @pytest.mark.parametrize("name", sorted(EDGE_CASES))
    def test_strict_verdict(self, name):
        loaded, issues, _ = EDGE_CASES[name]
        if loaded and not issues:
            read_xmi(_variant(name))
        else:
            with pytest.raises(XmiError) as excinfo:
                read_xmi(_variant(name))
            assert str(excinfo.value).endswith(issues[0][1])
