"""Golden-file tests: generation output is byte-stable across runs.

The figure tests assert structure; these tests pin the *exact bytes*
of every generated EasyBiz schema (and a sample instance) so any
unintentional change to naming, ordering, prefixes or formatting shows up
as a diff against the checked-in goldens.
"""

from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).parent / "golden"

#: namespace URN -> golden file name.
GOLDEN_SCHEMAS = {
    "urn:au:gov:vic:easybiz:data:draft:EB005-HoardingPermit": "fig6_doc_library.xsd",
    "urn:au:gov:vic:easybiz:data:draft:CommonAggregates": "fig7_common_aggregates.xsd",
    "urn:au:gov:vic:easybiz:types:draft:coredatatypes": "fig8_cdt_library.xsd",
    "urn:au:gov:vic:easybiz:types:draft:CommonDataTypes": "qdt_library.xsd",
    "urn:au:gov:vic:easybiz:types:draft:EnumerationTypes": "enum_library.xsd",
    "urn:au:gov:vic:easybiz:data:draft:LocalLawAggregates": "local_law.xsd",
}


@pytest.mark.parametrize("urn,filename", sorted(GOLDEN_SCHEMAS.items()))
def test_schema_matches_golden(easybiz_result, urn, filename):
    expected = (GOLDEN_DIR / filename).read_text(encoding="utf-8")
    assert easybiz_result.schemas[urn].to_string() == expected


def test_sample_instance_matches_golden(easybiz_schema_set):
    from repro.instances import InstanceGenerator

    expected = (GOLDEN_DIR / "hoarding_permit_instance.xml").read_text(encoding="utf-8")
    generated = InstanceGenerator(easybiz_schema_set).generate_string("HoardingPermit")
    assert generated == expected


def test_goldens_are_valid_schemas():
    from repro.xsd.parser import parse_schema
    from repro.xsd.writer import schema_to_string

    for filename in GOLDEN_SCHEMAS.values():
        text = (GOLDEN_DIR / filename).read_text(encoding="utf-8")
        assert schema_to_string(parse_schema(text)) == text


def test_golden_instance_validates_against_golden_schemas():
    from repro.xsd.validator import SchemaSet, validate_instance

    schema_set = SchemaSet.from_files(
        [GOLDEN_DIR / filename for filename in GOLDEN_SCHEMAS.values()]
    )
    instance = (GOLDEN_DIR / "hoarding_permit_instance.xml").read_text(encoding="utf-8")
    assert validate_instance(schema_set, instance) == []
