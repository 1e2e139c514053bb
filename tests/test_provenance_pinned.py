"""Provenance records pinned byte for byte, and their counter.

``ProvenanceIndex.to_jsonl()`` of the two catalog models and of the
benchmark catalogs (seeds 1 and 2, read back from XMI as the benchmark
does) must not change when the recording code is reworked.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from repro.catalog.easybiz import build_easybiz_model
from repro.catalog.ecommerce import build_ecommerce_model
from repro.ccts.model import CctsModel
from repro.obs.metrics import get_registry
from repro.xmi import read_xmi
from repro.xsdgen import GenerationOptions, SchemaGenerator

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


def _catalog_run(name: str):
    """(model, library, root) of one named catalog."""
    if name == "easybiz":
        return build_easybiz_model().model, "EB005-HoardingPermit", "HoardingPermit"
    if name == "ecommerce":
        catalog = build_ecommerce_model()
        return catalog.model, catalog.doc_library.name, "PurchaseOrder"
    seed = int(name.removeprefix("bench-"))
    catalog = _bench_catalog_module().build_catalog(seed)
    return CctsModel(model=read_xmi(catalog.xmi)), catalog.doc_library, catalog.root


#: catalog -> sha256 prefix of ProvenanceIndex.to_jsonl().
DIGESTS = {
    "easybiz": "fafa1d929253987e",  # 104 records
    "ecommerce": "a13c8af58a5081fc",  # 207 records
    "bench-16": "cff66ad324b3fafe",  # 104 records
    "bench-17": "b51b71513b791edf",  # 104 records
    "bench-18": "ee0d3401c27ba623",  # 104 records
    "bench-19": "a06d9de76ce5c78b",  # 104 records
    "bench-32": "0e78067bfbc269d0",  # 104 records
    "bench-33": "f99539cefc6b65e0",  # 104 records
    "bench-34": "7a2678d27556d376",  # 104 records
    "bench-35": "f56413b3bf35ede8",  # 104 records
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_to_jsonl_is_unchanged(name):
    model, library, root = _catalog_run(name)
    result = SchemaGenerator(model, GenerationOptions()).generate(library, root=root)
    text = result.provenance.to_jsonl()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest()[:16] == DIGESTS[name]


def test_counter_counts_the_records_of_one_generate():
    model, library, root = _catalog_run("easybiz")
    registry = get_registry()
    before = registry.counter("xsdgen.provenance_records").value
    result = SchemaGenerator(model, GenerationOptions()).generate(library, root=root)
    after = registry.counter("xsdgen.provenance_records").value
    assert after - before == len(result.provenance) > 0
