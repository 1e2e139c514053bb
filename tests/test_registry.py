"""Unit tests for the file-based registry."""

import pytest

from repro.errors import RegistryError
from repro.interchange import diff_models
from repro.registry import Registry


@pytest.fixture
def registry(tmp_path):
    return Registry(tmp_path / "reg")


class TestStoreAndLoad:
    def test_store_creates_xmi_and_index(self, registry, figure1, tmp_path):
        entry = registry.store("figure1", figure1.model)
        assert (registry.directory / entry.file).exists()
        assert (registry.directory / "index.json").exists()

    def test_load_round_trips(self, registry, figure1):
        registry.store("figure1", figure1.model)
        loaded = registry.load("figure1")
        assert diff_models(figure1.model, loaded) == []

    def test_duplicate_store_rejected(self, registry, figure1):
        registry.store("figure1", figure1.model)
        with pytest.raises(RegistryError):
            registry.store("figure1", figure1.model)

    def test_overwrite_allowed(self, registry, figure1):
        registry.store("figure1", figure1.model)
        registry.store("figure1", figure1.model, overwrite=True)
        assert len(registry.entries()) == 1

    def test_load_unknown_rejected(self, registry):
        with pytest.raises(RegistryError):
            registry.load("nope")

    def test_remove(self, registry, figure1):
        entry = registry.store("figure1", figure1.model)
        registry.remove("figure1")
        assert registry.entries() == []
        assert not (registry.directory / entry.file).exists()
        with pytest.raises(RegistryError):
            registry.remove("figure1")

    def test_index_survives_reopen(self, registry, figure1):
        registry.store("figure1", figure1.model)
        reopened = Registry(registry.directory)
        assert [entry.name for entry in reopened.entries()] == ["figure1"]
        assert diff_models(figure1.model, reopened.load("figure1")) == []


class TestSearch:
    def test_search_by_den(self, registry, figure1):
        registry.store("figure1", figure1.model)
        hits = registry.search("Person")
        assert hits
        assert all("Person" in den for _, den in hits)

    def test_search_is_case_insensitive(self, registry, figure1):
        registry.store("figure1", figure1.model)
        assert registry.search("person") == registry.search("PERSON")

    def test_search_across_models(self, registry, figure1, easybiz):
        registry.store("figure1", figure1.model)
        registry.store("easybiz", easybiz.model)
        names = {name for name, _ in registry.search("Address")}
        assert names == {"easybiz", "figure1"}

    def test_search_miss(self, registry, figure1):
        registry.store("figure1", figure1.model)
        assert registry.search("Blockchain") == []

    def test_libraries_listing(self, registry, easybiz):
        registry.store("easybiz", easybiz.model)
        docs = registry.libraries("DOCLibrary")
        assert [(name, lib["name"]) for name, lib in docs] == [("easybiz", "EB005-HoardingPermit")]
        assert len(registry.libraries()) == 8

    def test_entry_metadata(self, registry, easybiz):
        entry = registry.store("easybiz", easybiz.model)
        kinds = {library["kind"] for library in entry.libraries}
        assert "CDTLibrary" in kinds and "DOCLibrary" in kinds
        assert any(den.startswith("Hoarding Permit.") for den in entry.dictionary_entries)
        hits = registry.search("Hoarding Permit")
        assert hits and all("Hoarding Permit" in den for _, den in hits)


class TestVersioning:
    def test_versioned_store_and_load(self, registry, figure1):
        registry.store("m", figure1.model, version="1.0")
        from repro.catalog import build_figure1_model

        evolved = build_figure1_model()
        evolved.person.add_bcc("MiddleName", evolved.cdt_library.cdt("Text"), "0..1")
        registry.store("m", evolved.model, version="1.1")
        assert registry.versions_of("m") == ["1.0", "1.1"]
        v1 = registry.load("m", version="1.0")
        v2 = registry.load("m", version="1.1")
        assert len(v1.acc("Person").bccs) == 2
        assert len(v2.acc("Person").bccs) == 3

    def test_bare_name_tracks_latest(self, registry, figure1):
        registry.store("m", figure1.model, version="1.0")
        from repro.catalog import build_figure1_model

        evolved = build_figure1_model()
        evolved.person.add_bcc("MiddleName", evolved.cdt_library.cdt("Text"), "0..1")
        registry.store("m", evolved.model, version="1.1")
        latest = registry.load("m")
        assert len(latest.acc("Person").bccs) == 3

    def test_duplicate_version_rejected(self, registry, figure1):
        registry.store("m", figure1.model, version="1.0")
        with pytest.raises(RegistryError):
            registry.store("m", figure1.model, version="1.0")

    def test_unknown_version_rejected(self, registry, figure1):
        registry.store("m", figure1.model, version="1.0")
        with pytest.raises(RegistryError):
            registry.load("m", version="9.9")

    def test_versions_survive_reopen(self, registry, figure1):
        registry.store("m", figure1.model, version="1.0")
        reopened = Registry(registry.directory)
        assert reopened.versions_of("m") == ["1.0"]
