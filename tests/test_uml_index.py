"""Unit tests for the model snapshot index."""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.catalog.easybiz import build_easybiz_model
from repro.catalog.ecommerce import build_ecommerce_model
from repro.catalog.figure1 import build_figure1_model
from repro.ccts.libraries import library_wrapper_for
from repro.ccts.model import CctsModel
from repro.errors import ModelError
from repro.profile import ABIE, BIE_LIBRARY
from repro.profile.upcc import COMMON_STEREOTYPES, DATATYPE_STEREOTYPES, MANAGEMENT_STEREOTYPES
from repro.uml.association import Association
from repro.uml.classifier import Classifier
from repro.uml.dependency import Dependency
from repro.uml.index import ModelIndex
from repro.uml.model import Model
from repro.uml.package import Package
from repro.uml.property import Property
from repro.xmi import read_xmi

from tests.conftest import build_synthetic_model

ROOT = Path(__file__).resolve().parent.parent
_TYPES = (Classifier, Property, Association, Dependency, Package)
_STEREOTYPES = MANAGEMENT_STEREOTYPES + DATATYPE_STEREOTYPES + COMMON_STEREOTYPES


def _model():
    model = Model("M")
    lib = model.add_package("lib")
    a = lib.add_class("A")
    b = lib.add_class("B")
    c = lib.add_class("C")
    other = model.add_package("other")
    first = other.add_association(a, b, "x")
    second = lib.add_association(a, c, "y")
    dep = lib.add_dependency(b, a, stereotype="basedOn")
    plain = lib.add_dependency(c, a)
    return model, a, b, c, first, second, dep, plain


class TestModelIndex:
    def test_associations_from(self):
        model, a, b, c, first, second, *_ = _model()
        index = ModelIndex(model)
        # Results come back in model walk order, matching the scan variant.
        assert index.associations_from(a) == model.associations_anywhere_from(a)
        assert set(index.associations_from(a)) == {first, second}
        assert index.associations_from(b) == []

    def test_dependency_lookup(self):
        model, a, b, c, first, second, dep, plain = _model()
        index = ModelIndex(model)
        assert index.dependencies_of(b) == [dep]
        assert index.dependencies_of(c, "basedOn") == []
        assert index.dependencies_of(c) == [plain]

    def test_based_on_target(self):
        model, a, b, *_ = _model()
        index = ModelIndex(model)
        assert index.based_on_target(b) is a
        assert index.based_on_target(a) is None

    def test_duplicate_based_on_raises(self):
        model, a, b, *_ = _model()
        model.package("lib").add_dependency(b, a, stereotype="basedOn")
        index = ModelIndex(model)
        with pytest.raises(ModelError):
            index.based_on_target(b)

    def test_index_agrees_with_scan_on_easybiz(self, easybiz):
        model = easybiz.model.model
        index = ModelIndex(model)
        for abie in easybiz.model.abies():
            scanned = model.associations_anywhere_from(abie.element)
            assert index.associations_from(abie.element) == scanned


class TestIndexedContext:
    def test_queries_identical_inside_and_outside(self, easybiz):
        model = easybiz.model.model
        permit = easybiz.hoarding_permit.element
        outside = model.associations_anywhere_from(permit)
        with model.indexed():
            inside = model.associations_anywhere_from(permit)
        assert inside == outside

    def test_reentrant(self, easybiz):
        model = easybiz.model.model
        with model.indexed() as outer:
            with model.indexed() as inner:
                assert inner is outer
            assert model._active_index is outer
        assert model._active_index is None

    def test_index_dropped_on_exception(self, easybiz):
        model = easybiz.model.model
        with pytest.raises(RuntimeError):
            with model.indexed():
                raise RuntimeError("boom")
        assert model._active_index is None

    def test_asbie_sweep_identical_inside_and_outside(self):
        # The snapshot's whole-model ASBIE sweep equals per-query scans.
        model, _, _ = build_synthetic_model(60)
        unindexed = sum(len(abie.asbies) for abie in model.abies())
        with model.model.indexed():
            indexed = sum(len(abie.asbies) for abie in model.abies())
        assert indexed == unindexed == 60

    def test_generation_results_identical_with_and_without_index(self, easybiz):
        # The generator uses the index internally; a manual no-index run
        # through the same builders must match.
        from repro.xsdgen import SchemaGenerator

        first = SchemaGenerator(easybiz.model).generate(easybiz.doc_library, root="HoardingPermit")
        second = SchemaGenerator(easybiz.model).generate(easybiz.doc_library, root="HoardingPermit")
        assert {u: g.to_string() for u, g in first.schemas.items()} == {
            u: g.to_string() for u, g in second.schemas.items()
        }


class TestIndexReuse:
    def test_snapshot_reused_while_unmutated(self, easybiz):
        model = easybiz.model.model
        with model.indexed() as first:
            pass
        with model.indexed() as second:
            pass
        assert second is first

    def test_snapshot_rebuilt_after_mutation(self, easybiz):
        model = easybiz.model.model
        with model.indexed() as first:
            pass
        easybiz.hoarding_permit.element.documentation = "edited"
        with model.indexed() as second:
            pass
        assert second is not first

    def test_reused_snapshot_answers_correctly(self, easybiz):
        model = easybiz.model.model
        permit = easybiz.hoarding_permit.element
        with model.indexed():
            pass
        outside = model.associations_anywhere_from(permit)
        with model.indexed():
            assert model.associations_anywhere_from(permit) == outside


def _seeded_catalog() -> CctsModel:
    """A benchmark catalog (seed 16), read back from its XMI like the benchmark does."""
    module = sys.modules.get("bench_catalog")
    if module is None:
        spec = importlib.util.spec_from_file_location("bench_catalog", ROOT / "perfbench" / "catalog.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses resolve annotations there
        spec.loader.exec_module(module)
    return CctsModel(model=read_xmi(module.build_catalog(16).xmi))


_BUILDERS = {
    "figure1": lambda: build_figure1_model().model,
    "ecommerce": lambda: build_ecommerce_model().model,
    "easybiz": lambda: build_easybiz_model().model,
    "seeded": _seeded_catalog,
}


@pytest.fixture(params=sorted(_BUILDERS))
def ccts_model(request) -> CctsModel:
    """A fresh model per paper catalog plus one seeded benchmark catalog."""
    return _BUILDERS[request.param]()


def _ids(elements) -> list[int]:
    return [id(element) for element in elements]


def _forbidden_walk(self):
    raise AssertionError("whole-model query walked the tree inside an indexed pass")


def _queries(model: Model) -> dict:
    """Every whole-model query answer, as element identities in order."""
    answers = {}
    for element_type in _TYPES:
        answers[element_type.__name__] = _ids(model.all_of_type(element_type))
    for stereotype in _STEREOTYPES:
        answers[stereotype] = _ids(model.all_with_stereotype(stereotype))
        answers[f"packages:{stereotype}"] = _ids(model.packages_with_stereotype(stereotype))
    names = [classifier.name for classifier in model.all_of_type(Classifier)] + ["NoSuchName"]
    answers["find_classifier_anywhere"] = [
        id(model.find_classifier_anywhere(name)) for name in names
    ]
    answers["elements"] = _ids(model.all_elements())
    return answers


class TestSnapshotEquivalence:
    """Inside a pass the snapshot answers exactly what a live walk answers."""

    def test_queries_equal_live_walk_in_order(self, ccts_model):
        model = ccts_model.model
        live = _queries(model)
        assert live["ABIE"] or live["CDT"]
        with model.indexed():
            first = _queries(model)
            cached = _queries(model)
        assert first == live
        assert cached == live

    def test_libraries_equal_live_walk(self, ccts_model):
        model = ccts_model.model
        expected = [
            (type(wrapper), id(package))
            for package in model.walk()
            if isinstance(package, Package)
            for wrapper in [library_wrapper_for(package, model)]
            if wrapper is not None
        ]
        # A fresh model has no memoized library list, so this scan reads
        # the snapshot.
        with model.indexed():
            inside = [(type(library), id(library.package)) for library in ccts_model.libraries()]
        assert inside == expected
        assert len(expected) >= 3

    def test_no_query_walks_inside_a_pass(self, ccts_model, monkeypatch):
        model = ccts_model.model
        with model.indexed():
            monkeypatch.setattr(Model, "walk", _forbidden_walk)
            _queries(model)
            ccts_model.libraries()
            ccts_model.profile_problems()
            ccts_model.accs()

    def test_next_pass_sees_mutation_between_passes(self, ccts_model):
        model = ccts_model.model
        with model.indexed() as first:
            abies = _ids(model.all_with_stereotype(ABIE))
            packages = model.packages_with_stereotype(BIE_LIBRARY)
        version = model.version
        added = packages[0].add_class("AddedBetweenPasses", stereotype=ABIE)
        assert model.version != version
        live = _queries(model)
        assert sorted(live[ABIE]) == sorted(abies + [id(added)])
        with model.indexed() as second:
            assert second is not first
            assert _queries(model) == live
            assert model.find_classifier_anywhere("AddedBetweenPasses") is added
        added.remove_stereotype(ABIE)
        with model.indexed():
            assert _ids(model.all_with_stereotype(ABIE)) == abies

    def test_queries_outside_a_pass_stay_live(self, ccts_model):
        model = ccts_model.model
        with model.indexed():
            pass
        lazy = model.all_with_stereotype(ABIE)
        package = model.packages_with_stereotype(BIE_LIBRARY)[0]
        added = package.add_class("AddedOutside", stereotype=ABIE)
        assert id(added) in _ids(lazy)
        assert model.find_classifier_anywhere("AddedOutside") is added
        assert added in model.all_of_type(Classifier)


class TestSnapshotNamesAndBasedOn:
    """Qualified names and basedOn targets read from the snapshot equal
    the live answers, and a pass after an edit sees the edit."""

    def test_qualified_names_equal_live_names(self, ccts_model):
        model = ccts_model.model
        named = [element for element in model.walk() if hasattr(element, "qualified_name")]
        live = [element.qualified_name for element in named]
        with model.indexed():
            # Leaves first, then owners: either order shares the same names.
            assert [model.qualified_name_of(e) for e in reversed(named)] == live[::-1]
            assert [model.qualified_name_of(e) for e in named] == live

    def test_unnamed_elements_are_named_like_the_live_tree(self):
        model, a, *_ = _model()
        unnamed = model.package("lib").add_class("")
        inner = model.add_package("")
        deep = inner.add_class("Deep")
        with model.indexed():
            assert model.qualified_name_of(unnamed) == unnamed.qualified_name == "M.lib."
            assert model.qualified_name_of(deep) == deep.qualified_name == "M.Deep"
            assert model.qualified_name_of(model) == "M"

    def test_rename_between_passes_moves_names(self, easybiz):
        model = easybiz.model.model
        permit = easybiz.hoarding_permit.element
        with model.indexed():
            before = easybiz.hoarding_permit.qualified_name
        permit.owner.name = "Renamed"
        with model.indexed():
            after = easybiz.hoarding_permit.qualified_name
        assert before != after == permit.qualified_name
        assert ".Renamed." in after

    def test_based_on_targets_equal_live_answers(self, ccts_model):
        model = ccts_model.model
        clients = [d.client for d in model.all_of_type(Dependency) if d.has_stereotype("basedOn")]
        assert clients
        live = [model.based_on_target(client) for client in clients]
        with model.indexed():
            assert [model.based_on_target(client) for client in clients] == live

    def test_wrapper_answers_are_kept_only_inside_a_pass(self, easybiz):
        model = easybiz.model.model
        calls = []

        def compute(wrapper):
            calls.append(wrapper)
            return wrapper.name

        permit = easybiz.hoarding_permit
        assert permit.snapshot_memo(compute) == permit.snapshot_memo(compute) == "HoardingPermit"
        assert len(calls) == 2
        with model.indexed():
            permit.snapshot_memo(compute)
            permit.snapshot_memo(compute)
        assert len(calls) == 3
        permit.element.name = "Edited"
        with model.indexed():
            assert permit.snapshot_memo(compute) == "Edited"
        assert len(calls) == 4
