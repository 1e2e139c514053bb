"""Unit tests for the model index, checked against the scan oracle.

Every whole-model query of a ``Model`` reads one ``ModelIndex`` kept while
the model's version holds.  ``tests/reference_queries.py`` keeps the live
tree scans those queries must equal, in order: on the paper catalogs, on
a seeded benchmark catalog, and after every kind of tracked edit.
"""

import importlib.util
import sys
import threading
from pathlib import Path

import pytest

from repro.catalog.easybiz import build_easybiz_model
from repro.catalog.ecommerce import build_ecommerce_model
from repro.catalog.figure1 import build_figure1_model
from repro.ccts.libraries import library_wrapper_for
from repro.ccts.model import CctsModel
from repro.console.maintenance import move_classifier, rename_classifier
from repro.errors import ModelError
from repro.profile import ABIE, BIE_LIBRARY
from repro.profile.upcc import COMMON_STEREOTYPES, DATATYPE_STEREOTYPES, MANAGEMENT_STEREOTYPES
from repro.uml.association import Association
from repro.uml.classifier import Class, Classifier
from repro.uml.dependency import Dependency
from repro.uml.elements import NamedElement
from repro.uml.index import ModelIndex
from repro.uml.model import Model
from repro.uml.package import Package
from repro.uml.property import Property
from repro.xmi import read_xmi
from repro.xsdgen import SchemaGenerator

from tests.conftest import build_synthetic_model
from tests.reference_queries import ScanQueries

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


def _ids(elements) -> list[int]:
    return [id(element) for element in elements]


def _based_on(asked, client):
    try:
        return id(asked.based_on_target(client))
    except ModelError as error:
        return str(error)


def _named(model: Model) -> list[NamedElement]:
    """The query arguments: a plain walk, never the queries under test."""
    return [element for element in model.walk() if isinstance(element, NamedElement)]


def _answers(asked, named: list[NamedElement]) -> dict:
    """Every whole-model query answer of ``asked`` (a model or its
    :class:`ScanQueries`) on the elements ``named``, as element identities
    in order."""
    answers = {"elements": _ids(asked.all_elements())}
    for element_type in _TYPES:
        answers[element_type.__name__] = _ids(asked.all_of_type(element_type))
    for stereotype in _STEREOTYPES:
        answers[stereotype] = _ids(asked.all_with_stereotype(stereotype))
        answers[f"packages:{stereotype}"] = _ids(asked.packages_with_stereotype(stereotype))
    names = [element.name for element in named if isinstance(element, Classifier)]
    answers["find_classifier_anywhere"] = [
        id(asked.find_classifier_anywhere(name)) for name in names + ["NoSuchName"]
    ]
    answers["associations_anywhere_from"] = [
        _ids(asked.associations_anywhere_from(element)) for element in named
    ]
    answers["dependencies_of"] = [_ids(asked.dependencies_of(element)) for element in named]
    answers["dependencies_of:basedOn"] = [
        _ids(asked.dependencies_of(element, "basedOn")) for element in named
    ]
    answers["based_on_target"] = [_based_on(asked, element) for element in named]
    answers["qualified_name_of"] = [asked.qualified_name_of(element) for element in named]
    return answers


#: The queries of ``Model`` that read its index.
_QUERIES = (
    "all_elements", "all_of_type", "all_with_stereotype", "associations_anywhere_from",
    "dependencies_of", "based_on_target", "qualified_name_of",
)


def _scanning(name: str):
    """``Model.<name>`` answered by the scan oracle."""

    def query(self, *args):
        answer = getattr(ScanQueries(self), name)(*args)
        return iter(answer) if name.startswith("all_") else answer

    return query


def _forbidden_index(self):
    raise AssertionError("a query read the index")


def assert_matches_oracle(model: Model) -> None:
    named = _named(model)
    assert _answers(model, named) == _answers(ScanQueries(model), named)


class TestModelIndex:
    def test_associations_from(self):
        model, a, b, c, first, second, *_ = _model()
        index = ModelIndex(model)
        # Results come back in model walk order, matching the scan oracle.
        assert index.associations_from(a) == ScanQueries(model).associations_anywhere_from(a)
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
        oracle = ScanQueries(model)
        for abie in easybiz.model.abies():
            scanned = oracle.associations_anywhere_from(abie.element)
            assert index.associations_from(abie.element) == scanned


class TestIndexedContext:
    """Answers read from the index ("inside") equal the scan oracle's
    ("outside")."""

    def test_queries_identical_inside_and_outside(self, easybiz):
        model = easybiz.model.model
        permit = easybiz.hoarding_permit.element
        outside = ScanQueries(model).associations_anywhere_from(permit)
        assert outside
        assert model.associations_anywhere_from(permit) == outside

    def test_asbie_sweep_identical_inside_and_outside(self):
        # The index's whole-model ASBIE sweep equals per-query scans.
        model, _, _ = build_synthetic_model(60)
        oracle = ScanQueries(model.model)
        abies = model.abies()
        scanned = sum(len(oracle.associations_anywhere_from(abie.element)) for abie in abies)
        indexed = sum(len(abie.asbies) for abie in abies)
        assert indexed == scanned == 60

    def test_generation_results_identical_with_and_without_index(self, easybiz, monkeypatch):
        # A run answered by the index equals a run whose every query is a
        # fresh tree scan.
        first = SchemaGenerator(easybiz.model).generate(easybiz.doc_library, root="HoardingPermit")
        for name in _QUERIES:
            monkeypatch.setattr(Model, name, _scanning(name))
        monkeypatch.setattr(Model, "index", _forbidden_index)
        rebuilt = build_easybiz_model()
        second = SchemaGenerator(rebuilt.model).generate(rebuilt.doc_library, root="HoardingPermit")
        assert {u: g.to_string() for u, g in first.schemas.items()} == {
            u: g.to_string() for u, g in second.schemas.items()
        }


class TestIndexReuse:
    def test_snapshot_reused_while_unmutated(self, easybiz):
        model = easybiz.model.model
        first = model.index()
        model.associations_anywhere_from(easybiz.hoarding_permit.element)
        assert model.index() is first

    def test_snapshot_rebuilt_after_mutation(self, easybiz):
        model = easybiz.model.model
        first = model.index()
        easybiz.hoarding_permit.element.documentation = "edited"
        assert model.index() is not first

    def test_reused_snapshot_answers_correctly(self, easybiz):
        model = easybiz.model.model
        model.index()
        assert_matches_oracle(model)


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


def _forbidden_walk(self):
    raise AssertionError("whole-model query walked the tree of an indexed model")


class TestSnapshotEquivalence:
    """The index answers exactly what the scan oracle answers."""

    def test_queries_equal_live_walk_in_order(self, ccts_model):
        model = ccts_model.model
        named = _named(model)
        live = _answers(ScanQueries(model), named)
        assert live["ABIE"] or live["CDT"]
        assert _answers(model, named) == live
        # A second round reads the kept index and the per-type lists.
        assert _answers(model, named) == live

    def test_libraries_equal_live_walk(self, ccts_model):
        model = ccts_model.model
        expected = [
            (type(wrapper), id(package))
            for package in model.walk()
            if isinstance(package, Package)
            for wrapper in [library_wrapper_for(package, model)]
            if wrapper is not None
        ]
        found = [(type(library), id(library.package)) for library in ccts_model.libraries()]
        assert found == expected
        assert len(expected) >= 3

    def test_no_query_walks_inside_a_pass(self, ccts_model, monkeypatch):
        model = ccts_model.model
        named = _named(model)
        model.index()
        monkeypatch.setattr(Model, "walk", _forbidden_walk)
        _answers(model, named)
        ccts_model.libraries()
        ccts_model.profile_problems()
        ccts_model.accs()

    def test_next_pass_sees_mutation_between_passes(self, ccts_model):
        model = ccts_model.model
        first = model.index()
        abies = _ids(model.all_with_stereotype(ABIE))
        packages = model.packages_with_stereotype(BIE_LIBRARY)
        version = model.version
        added = packages[0].add_class("AddedBetweenPasses", stereotype=ABIE)
        assert model.version != version
        assert model.index() is not first
        assert sorted(_ids(model.all_with_stereotype(ABIE))) == sorted(abies + [id(added)])
        assert model.find_classifier_anywhere("AddedBetweenPasses") is added
        assert_matches_oracle(model)
        added.remove_stereotype(ABIE)
        assert _ids(model.all_with_stereotype(ABIE)) == abies
        assert_matches_oracle(model)

    def test_queries_outside_a_pass_stay_live(self, ccts_model):
        # A query answers for the model as it is now, also right after an
        # edit that follows a query.
        model = ccts_model.model
        assert model.find_classifier_anywhere("AddedOutside") is None
        package = model.packages_with_stereotype(BIE_LIBRARY)[0]
        added = package.add_class("AddedOutside", stereotype=ABIE)
        assert id(added) in _ids(model.all_with_stereotype(ABIE))
        assert model.find_classifier_anywhere("AddedOutside") is added
        assert added in model.all_of_type(Classifier)


class TestSnapshotNamesAndBasedOn:
    """Qualified names and basedOn targets read from the index equal the
    live answers, and a query after an edit sees the edit."""

    def test_qualified_names_equal_live_names(self, ccts_model):
        model = ccts_model.model
        named = [element for element in model.walk() if hasattr(element, "qualified_name")]
        live = [element.qualified_name for element in named]
        # Leaves first, then owners: either order shares the same names.
        assert [model.qualified_name_of(e) for e in reversed(named)] == live[::-1]
        assert [model.qualified_name_of(e) for e in named] == live

    def test_unnamed_elements_are_named_like_the_live_tree(self):
        model, a, *_ = _model()
        unnamed = model.package("lib").add_class("")
        inner = model.add_package("")
        deep = inner.add_class("Deep")
        assert model.qualified_name_of(unnamed) == unnamed.qualified_name == "M.lib."
        assert model.qualified_name_of(deep) == deep.qualified_name == "M.Deep"
        assert model.qualified_name_of(model) == "M"

    def test_rename_between_passes_moves_names(self, easybiz):
        model = easybiz.model.model
        permit = easybiz.hoarding_permit.element
        before = easybiz.hoarding_permit.qualified_name
        permit.owner.name = "Renamed"
        after = easybiz.hoarding_permit.qualified_name
        assert before != after == permit.qualified_name
        assert ".Renamed." in after

    def test_an_element_moved_to_another_model_is_named_live(self):
        source, target = build_easybiz_model(), build_easybiz_model()
        moved = source.model.abie("Attachment")
        target.model.abie("Attachment").element.name = "Kept"
        move_classifier(source.model, moved, target.local_law_aggregates)
        assert moved.qualified_name == moved.element.qualified_name
        target.local_law_aggregates.package.name = "Renamed"
        # The wrapper still asks the source model, whose version did not move.
        assert moved.qualified_name == moved.element.qualified_name
        assert ".Renamed.Attachment" in moved.qualified_name

    def test_based_on_targets_equal_live_answers(self, ccts_model):
        model = ccts_model.model
        oracle = ScanQueries(model)
        clients = [d.client for d in oracle.all_of_type(Dependency) if d.has_stereotype("basedOn")]
        assert clients
        live = [oracle.based_on_target(client) for client in clients]
        assert [model.based_on_target(client) for client in clients] == live

    def test_wrapper_answers_are_kept_while_the_version_holds(self, easybiz):
        calls = []

        def compute(wrapper):
            calls.append(wrapper)
            return wrapper.name

        permit = easybiz.hoarding_permit
        assert permit.snapshot_memo(compute) == permit.snapshot_memo(compute) == "HoardingPermit"
        assert len(calls) == 1
        permit.element.name = "Edited"
        assert permit.snapshot_memo(compute) == permit.snapshot_memo(compute) == "Edited"
        assert len(calls) == 2


# -- tracked edits ------------------------------------------------------------


def _classes(model: Model) -> list[Class]:
    return [element for element in model.walk() if isinstance(element, Class)]


def _add_class(built):
    built.common_aggregates.package.add_class("AddedAggregate", stereotype=ABIE)


def _add_association(built):
    first, *_, last = _classes(built.model.model)
    built.local_law_aggregates.package.add_association(last, first, "Added")


def _add_dependency(built):
    # A second basedOn on the permit: based_on_target must raise, as the scan does.
    permit = built.hoarding_permit.element
    target = built.model.acc("Attachment").element
    built.local_law_aggregates.package.add_dependency(permit, target, "basedOn")


def _apply_stereotype(built):
    built.hoarding_permit.element.apply_stereotype("ACC")


def _remove_stereotype(built):
    built.hoarding_permit.element.remove_stereotype(ABIE)


def _set_tagged_value(built):
    library = built.cdt_library
    library.package.set_tagged_value(library.stereotype, "status", "final")


def _rename(built):
    built.common_aggregates.package.name = "RenamedAggregates"


def _console_move(built):
    move_classifier(built.model, built.model.abie("Attachment"), built.local_law_aggregates)


def _console_rename(built):
    rename_classifier(built.model, built.model.abie("Attachment"), "Enclosure")


_EDITS = {
    edit.__name__.lstrip("_"): edit
    for edit in (
        _add_class, _add_association, _add_dependency, _apply_stereotype,
        _remove_stereotype, _set_tagged_value, _rename, _console_move, _console_rename,
    )
}


class TestTrackedEdits:
    """After each kind of tracked edit, the next query rebuilds the index
    and every answer equals the scan oracle's."""

    @pytest.mark.parametrize("edit", sorted(_EDITS))
    def test_queries_equal_the_oracle_after_an_edit(self, edit):
        built = build_easybiz_model()
        model = built.model.model
        assert_matches_oracle(model)
        warm, version = model.index(), model.version
        _EDITS[edit](built)
        assert model.version != version
        assert model.index() is not warm
        assert_matches_oracle(model)

    def test_every_edit_in_turn(self):
        built = build_easybiz_model()
        model = built.model.model
        for edit in _EDITS.values():
            model.all_with_stereotype(ABIE)  # warm the index between edits
            edit(built)
            assert_matches_oracle(model)


class TestSharedModel:
    def test_two_threads_never_walk_a_warm_model(self, monkeypatch):
        # Two threads share one model, as ``upcc serve`` workers do: after
        # warm-up no query (nor a generation run) walks the tree again.
        built = build_easybiz_model()
        model = built.model
        uml = model.model
        permit = built.hoarding_permit.element

        def generate() -> dict:
            result = SchemaGenerator(model).generate(built.doc_library, root="HoardingPermit")
            return {urn: schema.to_string() for urn, schema in result.schemas.items()}

        expected = generate()
        walks: list[int] = []
        real_walk = Model.walk

        def counting_walk(self):
            walks.append(threading.get_ident())
            return real_walk(self)

        monkeypatch.setattr(Model, "walk", counting_walk)
        barrier = threading.Barrier(2)
        outputs: list[dict] = []
        errors: list[BaseException] = []

        def work() -> None:
            try:
                barrier.wait()
                for _ in range(1000):
                    uml.all_with_stereotype(ABIE)
                    uml.associations_anywhere_from(permit)
                    uml.based_on_target(permit)
                    uml.qualified_name_of(permit)
                outputs.append(generate())
            except Exception as error:  # surfaced by the assertions below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert walks == []
        assert outputs == [expected, expected]
