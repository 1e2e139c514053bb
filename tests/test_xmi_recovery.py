"""Strict vs lenient XMI loading over the malformed corpus.

Every file under tests/corpus/malformed/ exercises one defect family.
Strict mode must fail fast with a located error; lenient mode must load
whatever is sound and report every defect as a :class:`LoadIssue`.
"""

from pathlib import Path

import pytest

from repro.errors import XmiError
from repro.xmi import (
    DEFAULT_MAX_DEPTH,
    DEFAULT_MAX_ELEMENTS,
    LoadIssue,
    LoadResult,
    load_xmi,
    read_xmi,
)

CORPUS = Path(__file__).parent / "corpus" / "malformed"

#: file name -> the exact set of issue kinds lenient loading must report.
EXPECTED_KINDS = {
    "truncated.xmi": {"xml-syntax"},
    "duplicate_ids.xmi": {"duplicate-id"},
    "dangling_refs.xmi": {
        "dangling-type-ref",
        "dangling-end-ref",
        "dangling-dependency-ref",
    },
    "bad_multiplicity.xmi": {"bad-multiplicity"},
    "unknown_stereotype_base.xmi": {
        "unknown-element",
        "missing-id",
        "dangling-stereotype-base",
    },
}

XMI_HEAD = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<xmi:XMI xmlns:xmi="http://www.omg.org/XMI"'
    ' xmlns:uml="http://www.omg.org/spec/UML/20090901"'
    ' xmlns:upcc="urn:un:unece:uncefact:profile:upcc:1.0" xmi:version="2.1">\n'
)


def wrap(body: str) -> str:
    return (
        XMI_HEAD
        + f'  <uml:Model xmi:id="id_1" name="M">\n{body}\n  </uml:Model>\n</xmi:XMI>\n'
    )


class TestCorpusLenient:
    @pytest.mark.parametrize("name", sorted(EXPECTED_KINDS))
    def test_every_file_loads_without_raising(self, name):
        result = load_xmi(CORPUS / name)
        assert isinstance(result, LoadResult)
        assert not result.ok
        assert {issue.kind for issue in result.issues} == EXPECTED_KINDS[name]

    @pytest.mark.parametrize("name", sorted(EXPECTED_KINDS))
    def test_every_issue_is_located(self, name):
        result = load_xmi(CORPUS / name)
        for issue in result.issues:
            assert issue.line is not None, issue
            assert issue.column is not None, issue

    def test_truncated_document_has_no_model(self):
        result = load_xmi(CORPUS / "truncated.xmi")
        assert result.model is None
        assert "not well-formed" in result.issues[0].message

    def test_recoverable_files_still_produce_a_model(self):
        for name in sorted(EXPECTED_KINDS):
            if name == "truncated.xmi":
                continue
            result = load_xmi(CORPUS / name)
            assert result.model is not None, name

    def test_sound_content_survives_dangling_refs(self):
        result = load_xmi(CORPUS / "dangling_refs.xmi")
        model = result.model
        person = model.find_classifier_anywhere("Person")
        assert person.attributes[0].type.name == "String"
        # The association with the dangling end and the dependency with the
        # dangling supplier were both withdrawn from their owning package.
        package = person.owner
        assert package.associations == []
        assert package.dependencies == []

    def test_bad_multiplicity_repaired_to_placeholder(self):
        result = load_xmi(CORPUS / "bad_multiplicity.xmi")
        address = result.model.find_classifier_anywhere("Address")
        for prop in address.attributes:
            assert (prop.multiplicity.lower, prop.multiplicity.upper) == (0, None)

    def test_duplicate_id_keeps_first_registration(self):
        result = load_xmi(CORPUS / "duplicate_ids.xmi")
        # Both classes stay in the model; references to the shared id keep
        # resolving to the first one.
        names = [c.name for p in result.model.packages for c in p.classifiers]
        assert "Address" in names and "Person" in names

    def test_issue_str_mentions_id_path_and_position(self):
        result = load_xmi(CORPUS / "duplicate_ids.xmi")
        text = str(result.issues[0])
        assert "[duplicate-id]" in text
        assert "xmi:id=id_5" in text
        assert "path=" in text and "line" in text

    def test_summary_counts_issues(self):
        result = load_xmi(CORPUS / "dangling_refs.xmi")
        assert result.summary() == "DanglingRefs: 3 issue(s)"


class TestCorpusStrict:
    def test_truncated_raises_located_xmi_error(self):
        with pytest.raises(XmiError) as excinfo:
            read_xmi(CORPUS / "truncated.xmi")
        assert (excinfo.value.line, excinfo.value.column) == (6, 9)

    @pytest.mark.parametrize(
        ("name", "match"),
        [
            ("duplicate_ids.xmi", "duplicate xmi:id"),
            ("dangling_refs.xmi", "non-classifier id"),
            ("bad_multiplicity.xmi", "invalid multiplicity"),
            ("unknown_stereotype_base.xmi", "unsupported packagedElement"),
        ],
    )
    def test_strict_raises_located_xmi_error(self, name, match):
        with pytest.raises(XmiError, match=match) as excinfo:
            read_xmi(CORPUS / name)
        error = excinfo.value
        assert error.line is not None
        assert error.column is not None

    def test_strict_error_location_points_at_offender(self):
        with pytest.raises(XmiError) as excinfo:
            read_xmi(CORPUS / "duplicate_ids.xmi")
        error = excinfo.value
        assert error.xmi_id == "id_5"
        assert error.path.endswith("Address/Town")
        assert error.line == 8

    def test_load_xmi_strict_matches_read_xmi(self):
        with pytest.raises(XmiError, match="duplicate xmi:id"):
            load_xmi(CORPUS / "duplicate_ids.xmi", strict=True)


class TestRecoverySatellites:
    def test_missing_end_type_strict_names_the_end(self):
        body = (
            '    <packagedElement xmi:type="uml:Association" xmi:id="id_2">\n'
            '      <ownedEnd xmi:id="id_3" lower="1" upper="1"/>\n'
            '      <ownedEnd xmi:id="id_4" type="id_1" lower="1" upper="1"/>\n'
            "    </packagedElement>"
        )
        with pytest.raises(XmiError, match="'id_3' lacks a type reference"):
            read_xmi(wrap(body))

    def test_missing_end_type_lenient_drops_association(self):
        body = (
            '    <packagedElement xmi:type="uml:Association" xmi:id="id_2">\n'
            '      <ownedEnd xmi:id="id_3" lower="1" upper="1"/>\n'
            '      <ownedEnd xmi:id="id_4" type="id_1" lower="1" upper="1"/>\n'
            "    </packagedElement>"
        )
        result = load_xmi(wrap(body))
        assert [issue.kind for issue in result.issues] == ["missing-end-type"]
        assert result.model.associations == []

    def test_association_with_one_end_reported(self):
        body = (
            '    <packagedElement xmi:type="uml:Association" xmi:id="id_2">\n'
            '      <ownedEnd xmi:id="id_3" type="id_1" lower="1" upper="1"/>\n'
            "    </packagedElement>"
        )
        result = load_xmi(wrap(body))
        assert [issue.kind for issue in result.issues] == ["bad-association"]

    def test_missing_dependency_refs_strict(self):
        body = '    <packagedElement xmi:type="uml:Dependency" xmi:id="id_2"/>'
        with pytest.raises(XmiError, match="client and supplier reference"):
            read_xmi(wrap(body))

    def test_missing_dependency_refs_lenient_removes_dependency(self):
        body = '    <packagedElement xmi:type="uml:Dependency" xmi:id="id_2" client="id_1"/>'
        result = load_xmi(wrap(body))
        assert [issue.kind for issue in result.issues] == ["missing-dependency-ref"]
        assert result.model.dependencies == []

    def test_duplicate_enum_literal_id_caught(self):
        body = (
            '    <packagedElement xmi:type="uml:Enumeration" xmi:id="id_2" name="Codes">\n'
            '      <ownedLiteral xmi:id="id_3" name="AD"/>\n'
            '      <ownedLiteral xmi:id="id_3" name="AT"/>\n'
            "    </packagedElement>"
        )
        with pytest.raises(XmiError, match="duplicate xmi:id 'id_3'"):
            read_xmi(wrap(body))
        result = load_xmi(wrap(body))
        assert [issue.kind for issue in result.issues] == ["duplicate-id"]
        assert result.model.find_classifier_anywhere("Codes").literal_names() == ["AD", "AT"]

    def test_duplicate_enum_literal_name_lenient(self):
        body = (
            '    <packagedElement xmi:type="uml:Enumeration" xmi:id="id_2" name="Codes">\n'
            '      <ownedLiteral xmi:id="id_3" name="AD"/>\n'
            '      <ownedLiteral xmi:id="id_4" name="AD"/>\n'
            "    </packagedElement>"
        )
        result = load_xmi(wrap(body))
        assert [issue.kind for issue in result.issues] == ["bad-literal"]
        assert result.model.find_classifier_anywhere("Codes").literal_names() == ["AD"]

    def test_missing_id_gets_synthetic_id(self):
        body = '    <packagedElement xmi:type="uml:Class" name="NoId"/>'
        result = load_xmi(wrap(body))
        assert [issue.kind for issue in result.issues] == ["missing-id"]
        no_id = result.model.find_classifier_anywhere("NoId")
        assert no_id.xmi_id.startswith("__synthetic_")

    def test_bad_aggregation_downgraded_to_none(self):
        body = (
            '    <packagedElement xmi:type="uml:Class" xmi:id="id_2" name="A"/>\n'
            '    <packagedElement xmi:type="uml:Association" xmi:id="id_3">\n'
            '      <ownedEnd xmi:id="id_4" type="id_2" aggregation="fuzzy" lower="1" upper="1"/>\n'
            '      <ownedEnd xmi:id="id_5" type="id_2" lower="1" upper="1"/>\n'
            "    </packagedElement>"
        )
        result = load_xmi(wrap(body))
        assert [issue.kind for issue in result.issues] == ["bad-aggregation"]
        assert len(result.model.associations) == 1


class TestResourceLimits:
    def test_max_elements_lenient_is_fatal(self):
        body = "\n".join(
            f'    <packagedElement xmi:type="uml:Class" xmi:id="id_{n}" name="C{n}"/>'
            for n in range(2, 12)
        )
        result = load_xmi(wrap(body), max_elements=5)
        assert result.model is None
        assert result.issues[-1].kind == "resource-limit"
        assert "max_elements=5" in result.issues[-1].message

    def test_max_elements_strict_raises(self):
        body = "\n".join(
            f'    <packagedElement xmi:type="uml:Class" xmi:id="id_{n}" name="C{n}"/>'
            for n in range(2, 12)
        )
        with pytest.raises(XmiError, match="max_elements=5"):
            read_xmi(wrap(body), max_elements=5)

    def test_max_depth_guards_nested_packages(self):
        body = ""
        for level in range(6):
            body += (
                "  " * level
                + f'    <packagedElement xmi:type="uml:Package" xmi:id="id_{level + 2}" name="P{level}">\n'
            )
        for level in reversed(range(6)):
            body += "  " * level + "    </packagedElement>\n"
        with pytest.raises(XmiError, match="max_depth=3"):
            read_xmi(wrap(body.rstrip("\n")), max_depth=3)
        result = load_xmi(wrap(body.rstrip("\n")), max_depth=3)
        assert result.model is None
        assert result.issues[-1].kind == "resource-limit"

    def test_default_limits_accept_real_models(self):
        assert DEFAULT_MAX_ELEMENTS >= 100_000
        assert DEFAULT_MAX_DEPTH >= 50
        result = load_xmi(CORPUS / "dangling_refs.xmi")
        assert result.model is not None


class TestLoadIssueMetrics:
    def test_lenient_issues_land_on_labeled_counter(self):
        import repro.obs as obs

        obs.configure(trace=False, reset_metrics=True)
        load_xmi(CORPUS / "duplicate_ids.xmi")
        snapshot = obs.get_metrics().render_json()
        assert "xmi.load_issues" in snapshot
        assert "duplicate-id" in snapshot

    def test_strict_mode_does_not_count_issues(self):
        import repro.obs as obs

        obs.configure(trace=False, reset_metrics=True)
        with pytest.raises(XmiError):
            read_xmi(CORPUS / "duplicate_ids.xmi")
        assert "load_issues" not in obs.get_metrics().render_json()
