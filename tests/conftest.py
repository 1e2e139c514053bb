"""Shared fixtures: catalog models and generated schema sets."""

from __future__ import annotations

import time

import pytest

from repro.catalog.easybiz import build_easybiz_model
from repro.catalog.ecommerce import build_ecommerce_model
from repro.catalog.figure1 import build_figure1_model
from repro.catalog.primitives import add_standard_prim_library
from repro.ccts.derivation import derive_abie
from repro.ccts.model import CctsModel
from repro.xsdgen import GenerationOptions, SchemaGenerator


@pytest.fixture
def figure1():
    """A fresh Figure-1 model."""
    return build_figure1_model()


@pytest.fixture
def easybiz():
    """A fresh Figure-4 EasyBiz model."""
    return build_easybiz_model()


@pytest.fixture
def ecommerce():
    """A fresh purchase-order model."""
    return build_ecommerce_model()


@pytest.fixture
def easybiz_result(easybiz):
    """The schemas generated from the EasyBiz DOCLibrary (Figure 6 run)."""
    generator = SchemaGenerator(easybiz.model, GenerationOptions())
    return generator.generate(easybiz.doc_library, root="HoardingPermit")


@pytest.fixture
def writer_calls(monkeypatch):
    """The target namespace of every ``schema_to_string`` call made by
    generation, the generation cache and schema-set fingerprinting."""
    import repro.xsd.validator as validator_module
    import repro.xsdgen.cache as cache_module
    import repro.xsdgen.generator as generator_module
    from repro.xsd.writer import schema_to_string

    calls = []

    def counting(schema, *args):
        calls.append(schema.target_namespace)
        return schema_to_string(schema, *args)

    for module in (generator_module, cache_module, validator_module):
        monkeypatch.setattr(module, "schema_to_string", counting)
    return calls


@pytest.fixture
def easybiz_schema_set(easybiz_result):
    """The EasyBiz schemas as a validator-ready SchemaSet."""
    return easybiz_result.schema_set()


def build_synthetic_model(entity_count: int):
    """A document over ``entity_count`` aggregates, each with 6 fields.

    Returns ``(model, doc_library, root_name)``.
    """
    model = CctsModel(f"Synthetic{entity_count}")
    business = model.add_business_library("S", "urn:synthetic")
    string = add_standard_prim_library(business).primitive("String").element
    text = business.add_cdt_library("Cdts").add_cdt("Text")
    text.set_content(string)
    text.add_supplementary("LanguageIdentifier", string, "0..1")
    ccs = business.add_cc_library("Ccs")
    bies = business.add_bie_library("Bies")
    doc = business.add_doc_library("Doc")

    root_acc = ccs.add_acc("Root")
    root_acc.add_bcc("Title", text, "0..1")
    abies = []
    for index in range(entity_count):
        acc = ccs.add_acc(f"Entity{index}")
        for field in range(6):
            acc.add_bcc(f"Field{field}", text, "0..1")
        root_acc.add_ascc(f"Item{index}", acc, "0..*")
        derivation = derive_abie(bies, acc)
        derivation.include_all()
        abies.append((f"Item{index}", derivation.abie))

    root = derive_abie(doc, root_acc, name="Document")
    root.include("Title", "0..1")
    for role, abie in abies:
        root.connect(role, abie, "0..*")
    return model, doc, "Document"


def best_of(runs, repeats: int):
    """``(fastest wall seconds, last result)`` of each callable in ``runs``.

    The callables take turns, ``repeats`` rounds of one call each, so a
    change in machine speed during the measurement reaches every side
    alike; the minimum keeps the comparison about the code, not about
    scheduler noise.
    """
    best = [float("inf")] * len(runs)
    results = [None] * len(runs)
    for _ in range(repeats):
        for index, run in enumerate(runs):
            start = time.perf_counter()
            results[index] = run()
            best[index] = min(best[index], time.perf_counter() - start)
    return list(zip(best, results))
