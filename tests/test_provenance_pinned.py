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


#: catalog -> sha256 prefix of ProvenanceIndex.to_jsonl().  Re-pinned
#: once, when ASBIE records started naming their owning ABIE plus role
#: (and their ASCC likewise) instead of the library package.
DIGESTS = {
    "easybiz": "29fb441043ff173a",  # 104 records
    "ecommerce": "0d96805149674d2d",  # 207 records
    "bench-16": "648b790abdf5aa43",  # 104 records
    "bench-17": "7b6485aee64d5ffa",  # 104 records
    "bench-18": "7aa5a72b81d2afe8",  # 104 records
    "bench-19": "c5adaa078a5f5178",  # 104 records
    "bench-32": "a2b5048551f029c6",  # 104 records
    "bench-33": "fc7e1e2e27020057",  # 104 records
    "bench-34": "a2475b64293c428f",  # 104 records
    "bench-35": "1e50b8aff087c5d7",  # 104 records
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
