"""Each model has its own version, and its caches key on it.

Every fact derived from a model is kept in ``Model.derived``, which
empties when the version moves.  Five of them are checked here: the index
every whole-model query reads (``Model.index``), the library list
(``CctsModel.libraries``), the basic validation report
(``CctsModel.basic_validation_report``), the library fingerprints
(``fingerprint_library``, with the subtree digests they are made of) and
the record that every element carries an ``xmi:id`` (``IDS_COMPLETE``).
Building another model must leave all five warm; editing the model must
empty them.
"""

import gc

import pytest

import repro.xsdgen.cache as cache_module
from repro.catalog.easybiz import build_easybiz_model
from repro.catalog.figure1 import build_figure1_model
from repro.ccts.model import CctsModel
from repro.console.maintenance import move_classifier, rename_classifier
from repro.reverse import reverse_engineer
from repro.xmi import read_xmi, write_xmi
from repro.xmi.ids import IDS_COMPLETE
from repro.xsdgen import GenerationOptions, SchemaGenerator, fingerprint_library

OPTIONS = GenerationOptions()


@pytest.fixture(scope="module")
def easybiz_xmi() -> str:
    return write_xmi(build_easybiz_model().model.model)


def _library(model: CctsModel):
    return next(library for library in model.bie_libraries() if library.name == "CommonAggregates")


def _warm(model: CctsModel) -> dict:
    """Fill all five caches of ``model`` and return what they hold."""
    SchemaGenerator(model, OPTIONS)._ensure_xmi_ids()
    return {
        "index": model.model.index(),
        "libraries": model.libraries(),
        "report": model.basic_validation_report(),
        "fingerprint": fingerprint_library(model, _library(model), OPTIONS),
    }


def _hits(model: CctsModel, warm: dict, monkeypatch) -> dict[str, bool]:
    """Which of the five caches of ``model`` still answer from ``warm``."""
    ids_complete = IDS_COMPLETE in model.model.derived()
    index = model.model.index()
    libraries = model.libraries()
    walks: list[object] = []
    real = cache_module._subtree_digest
    with monkeypatch.context() as patch:
        patch.setattr(
            cache_module, "_subtree_digest", lambda *args: walks.append(args) or real(*args)
        )
        fingerprint = fingerprint_library(model, _library(model), OPTIONS)
    if not walks:
        assert fingerprint == warm["fingerprint"]
    return {
        "index": index is warm["index"],
        "libraries": len(libraries) == len(warm["libraries"])
        and all(now is then for now, then in zip(libraries, warm["libraries"])),
        "report": model.basic_validation_report() is warm["report"],
        "fingerprint": not walks,
        "ids": ids_complete,
    }


ALL_HIT = {"index": True, "libraries": True, "report": True, "fingerprint": True, "ids": True}
ALL_MISS = {key: False for key in ALL_HIT}


def _build_by_reading(xmi: str) -> CctsModel:
    return CctsModel(model=read_xmi(xmi))


def _build_with_catalog_builder(xmi: str) -> CctsModel:
    return build_easybiz_model().model


def _build_by_reverse_engineering(xmi: str) -> CctsModel:
    built = build_easybiz_model()
    result = SchemaGenerator(built.model, OPTIONS).generate(
        built.doc_library, root="HoardingPermit"
    )
    return reverse_engineer(result.schema_set()).model


@pytest.mark.parametrize(
    "build",
    [_build_by_reading, _build_with_catalog_builder, _build_by_reverse_engineering],
    ids=["read_xmi", "catalog", "reverse"],
)
def test_building_another_model_keeps_every_cache(build, easybiz_xmi, monkeypatch):
    model = _build_by_reading(easybiz_xmi)
    warm = _warm(model)
    version = model.model.version
    other = build(easybiz_xmi)
    assert other.model.version != version
    assert model.model.version == version
    assert _hits(model, warm, monkeypatch) == ALL_HIT


def test_xmi_read_records_complete_ids(easybiz_xmi):
    model = read_xmi(easybiz_xmi)
    assert IDS_COMPLETE in model.derived()
    assert all(element.xmi_id is not None for element in model.walk())


def test_literal_without_id_leaves_ids_to_the_generator(easybiz_xmi):
    xmi = easybiz_xmi.replace('<ownedLiteral xmi:id="', '<ownedLiteral data-id="', 1)
    assert xmi != easybiz_xmi
    model = CctsModel(model=read_xmi(xmi))
    assert IDS_COMPLETE not in model.model.derived()
    SchemaGenerator(model, OPTIONS)._ensure_xmi_ids()
    assert all(element.xmi_id is not None for element in model.model.walk())
    assert IDS_COMPLETE in model.model.derived()


def test_an_edit_misses_every_cache(easybiz_xmi, monkeypatch):
    model = _build_by_reading(easybiz_xmi)
    warm = _warm(model)
    version = model.model.version
    rename_classifier(model, model.abie("Attachment"), "Enclosure")
    assert model.model.version != version
    assert _hits(model, warm, monkeypatch) == ALL_MISS


def test_moving_a_classifier_between_models_invalidates_both(easybiz_xmi, monkeypatch):
    source = _build_by_reading(easybiz_xmi)
    target = _build_by_reading(easybiz_xmi)
    warm_source, warm_target = _warm(source), _warm(target)
    versions = (source.model.version, target.model.version)
    library = next(lib for lib in target.bie_libraries() if lib.name == "LocalLawAggregates")
    moved = source.abie("Attachment")
    move_classifier(source, moved, library)
    assert moved.element.owner is library.package
    assert source.model.version != versions[0]
    assert target.model.version != versions[1]
    for model, warm in ((source, warm_source), (target, warm_target)):
        assert _hits(model, warm, monkeypatch) == ALL_MISS


def test_fingerprints_never_stale_when_ids_are_recycled():
    library_ids: list[int] = []
    digests: set[str] = set()
    for index in range(200):
        built = build_figure1_model()
        built.us_address.element.name = f"US_Address{index}"
        digest = fingerprint_library(built.model, built.bie_library, OPTIONS)
        assert fingerprint_library(built.model, built.bie_library, OPTIONS) == digest
        built.model.model.derived().clear()
        assert fingerprint_library(built.model, built.bie_library, OPTIONS) == digest
        assert digest not in digests
        digests.add(digest)
        library_ids.append(id(built.bie_library.element))
        del built
        gc.collect(1)  # models are cyclic; free this one before the next
    # The loop only tests recycling if addresses were in fact reused.
    assert len(set(library_ids)) < len(library_ids)
