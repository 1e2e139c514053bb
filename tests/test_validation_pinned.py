"""Every diagnostic of ``validate_model`` pinned: code, severity, message and
location, in report order.

The catalogs (the three paper models and the four seed-1 benchmark
catalogs, read back from XMI as the benchmark does) and small hand-broken
models that make the naming and profile rules report.  The rules may be
reworked for speed; what they report must not change.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.catalog.easybiz import build_easybiz_model
from repro.catalog.ecommerce import build_ecommerce_model
from repro.catalog.figure1 import build_figure1_model
from repro.ccts.derivation import derive_abie
from repro.ccts.model import CctsModel
from repro.profile import ACC, BBIE, BCC, BUSINESS_LIBRARY, build_upcc_profile
from repro.uml.stereotype import StereotypeDef
from repro.validation import validate_model
from repro.xmi import read_xmi

ROOT = Path(__file__).resolve().parent.parent


def _bench_catalog_module():
    module = sys.modules.get("bench_catalog")
    if module is None:
        spec = importlib.util.spec_from_file_location(
            "bench_catalog", ROOT / "perfbench" / "catalog.py"
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses resolve annotations there
        spec.loader.exec_module(module)
    return module


def _rows(report):
    return [
        (diagnostic.severity.value, diagnostic.code, diagnostic.message, diagnostic.location)
        for diagnostic in report.diagnostics
    ]


def _d09(root, qdt):
    return (
        "warning",
        "UPCC-D09",
        f"QDT {qdt!r} supplementary 'CodeListName' widens multiplicity 1 to 0..1",
        f"{root}.{root}.CommonDataTypes.{qdt}",
    )


CATALOG_REPORTS = {
    "easybiz": [_d09("EasyBiz", "CountryType"), _d09("EasyBiz", "CouncilType")],
    "ecommerce": [
        (
            "warning",
            "UPCC-N02",
            "ABIE 'PurchaseOrder' is based on ACC 'Order' but its name is neither the ACC "
            "name nor a qualified form of it (expected e.g. 'X_Order')",
            "ECommerce.OrderExchange.PurchaseOrder.PurchaseOrder",
        )
    ],
    "figure1": [],
    "bench-16": [_d09("Bench10", "EventType"), _d09("Bench10", "DocumentType")],
    "bench-17": [_d09("Bench11", "AddressType"), _d09("Bench11", "DocumentType")],
    "bench-18": [_d09("Bench12", "WarehouseType"), _d09("Bench12", "PermitType")],
    "bench-19": [_d09("Bench13", "FeeType"), _d09("Bench13", "ConsignmentType")],
}


def _catalog_model(name: str) -> CctsModel:
    builders = {
        "easybiz": build_easybiz_model,
        "ecommerce": build_ecommerce_model,
        "figure1": build_figure1_model,
    }
    if name in builders:
        return builders[name]().model
    catalog = _bench_catalog_module().build_catalog(int(name.removeprefix("bench-")))
    return CctsModel(model=read_xmi(catalog.xmi))


def test_the_benchmark_catalogs_are_the_seed_1_set():
    assert sorted(f"bench-{seed}" for seed in _bench_catalog_module().catalog_seeds(1)) == sorted(
        name for name in CATALOG_REPORTS if name.startswith("bench-")
    )


@pytest.mark.parametrize("name", sorted(CATALOG_REPORTS))
def test_catalog_report_is_unchanged(name):
    model = _catalog_model(name)
    assert _rows(validate_model(model)) == CATALOG_REPORTS[name]
    # A second run on the unchanged model reads the same snapshot.
    assert _rows(validate_model(model)) == CATALOG_REPORTS[name]


def _clean_model():
    """A small valid model: CDTs, two ACCs with an ASCC, their ABIEs."""
    model = CctsModel("Clean")
    business = model.add_business_library("B", "urn:clean")
    prims = business.add_prim_library("Prims")
    string = prims.add_primitive("String").element
    cdts = business.add_cdt_library("Cdts")
    text = cdts.add_cdt("Text")
    text.set_content(string)
    ccs = business.add_cc_library("Ccs")
    thing = ccs.add_acc("Thing")
    thing.add_bcc("Name", text, "0..1")
    other = ccs.add_acc("Other")
    other.add_bcc("Name", text, "0..1")
    thing.add_ascc("Linked", other, "0..1")
    bies = business.add_bie_library("Bies")
    other_abie = derive_abie(bies, other)
    other_abie.include("Name", "0..1")
    thing_abie = derive_abie(bies, thing)
    thing_abie.include("Name", "0..1")
    thing_abie.connect("Linked", other_abie.abie, "0..1", based_on="Linked")
    return model, business, text, thing, thing_abie, other_abie


def test_clean_model_reports_nothing():
    assert _rows(validate_model(_clean_model()[0])) == []


def test_naming_findings_are_unchanged():
    model, _, text, thing, thing_abie, other_abie = _clean_model()
    thing.element.add_attribute("", text.element, "1", stereotype=BCC)
    thing.element.add_attribute("???", text.element, "1", stereotype=BCC)
    thing_abie.abie.element.name = "us_Thing"
    other_abie.abie.element.name = "Stranger"
    assert _rows(validate_model(model)) == [
        ("error", "UPCC-N01", "element has an empty name", "Clean.B.Ccs.Thing."),
        (
            "error",
            "UPCC-N01",
            "name '???' sanitizes to an empty XML name",
            "Clean.B.Ccs.Thing.???",
        ),
        (
            "warning",
            "UPCC-N02",
            "ABIE 'Stranger' is based on ACC 'Other' but its name is neither the ACC name "
            "nor a qualified form of it (expected e.g. 'X_Other')",
            "Clean.B.Bies.Stranger",
        ),
        (
            "info",
            "UPCC-N03",
            "ABIE qualifier 'us' on 'us_Thing' is not capitalized; CCTS qualifiers "
            "conventionally are",
            "Clean.B.Bies.us_Thing",
        ),
    ]


EXPECTED_PROFILE_ROWS = [
    ("error", "UPCC-P01", "Clean.B.Cdts.Text: stereotype <<BCC>> extends Property, not DataType", ""),
    ("error", "UPCC-P01", "Clean.B.Ccs.Thing: <<ACC>> defines no tagged value 'bogus'", ""),
    (
        "error",
        "UPCC-P01",
        "Clean.B.NoUrn: <<BusinessLibrary>> requires tagged value 'baseURN' which is missing",
        "",
    ),
    (
        "error",
        "UPCC-P02",
        "<<BBIE>> attribute 'Misplaced' must be owned by a ABIE classifier, found 'Thing'",
        "Clean.B.Ccs.Thing.Misplaced",
    ),
    ("error", "UPCC-P03", "attribute 'Untyped' has no type", "Clean.B.Ccs.Thing.Untyped"),
    (
        "error",
        "UPCC-L01",
        "library 'NoUrn' has no baseURN tagged value; the generator cannot build its target "
        "namespace",
        "Clean.B.NoUrn",
    ),
]


def test_profile_findings_are_unchanged():
    model, business, text, thing, _, _ = _clean_model()
    thing.element.apply_stereotype(ACC, bogus="x")
    thing.element.add_attribute("Misplaced", text.element, "1", stereotype=BBIE)
    thing.element.add_attribute("Untyped", None, "1", stereotype=BCC)
    business.element.add_package("NoUrn", stereotype=BUSINESS_LIBRARY)
    text.element.apply_stereotype(BCC)
    assert _rows(validate_model(model)) == EXPECTED_PROFILE_ROWS


def test_renaming_a_package_moves_the_reported_names():
    model, business, text, thing, _, _ = _clean_model()
    thing.element.add_attribute("???", text.element, "1", stereotype=BCC)
    first = validate_model(model)
    business.element.name = "Renamed"
    second = validate_model(model)
    assert [d.location for d in first.diagnostics if d.code == "UPCC-N01"] == [
        "Clean.B.Ccs.Thing.???"
    ]
    assert [d.location for d in second.diagnostics if d.code == "UPCC-N01"] == [
        "Clean.Renamed.Ccs.Thing.???"
    ]


def test_a_stereotype_added_to_the_profile_is_seen_by_the_next_check():
    model, _, _, thing, _, _ = _clean_model()
    model.profile = build_upcc_profile()
    thing.element.apply_stereotype("Extra")
    assert _rows(validate_model(model)) == [
        ("error", "UPCC-P01", "Clean.B.Ccs.Thing: unknown stereotype <<Extra>>", "")
    ]
    model.profile.add("Common", StereotypeDef("Extra", ("Class",)))
    assert _rows(validate_model(model)) == []
    assert model.profile.check_element(thing.element) == []
