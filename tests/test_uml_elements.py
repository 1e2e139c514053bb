"""Unit tests for the UML element base classes."""

import pytest

from repro.errors import ProfileError
from repro.uml.elements import NamedElement
from repro.uml.model import Model


class TestStereotypes:
    def test_apply_and_query(self):
        element = NamedElement("X")
        element.apply_stereotype("ACC", definition="an aggregate")
        assert element.has_stereotype("ACC")
        assert element.stereotypes == ["ACC"]
        assert element.tagged_value("ACC", "definition") == "an aggregate"

    def test_reapply_merges_tags(self):
        element = NamedElement("X")
        element.apply_stereotype("ACC", a="1")
        element.apply_stereotype("ACC", b="2")
        assert element.stereotype_applications["ACC"] == {"a": "1", "b": "2"}

    def test_remove(self):
        element = NamedElement("X")
        element.apply_stereotype("ACC")
        element.remove_stereotype("ACC")
        assert not element.has_stereotype("ACC")
        element.remove_stereotype("ACC")  # idempotent

    def test_tagged_value_default(self):
        element = NamedElement("X")
        assert element.tagged_value("ACC", "missing", "fallback") == "fallback"

    def test_set_tagged_value_requires_application(self):
        element = NamedElement("X")
        with pytest.raises(ProfileError):
            element.set_tagged_value("ACC", "definition", "boom")

    def test_any_tagged_value_searches_all(self):
        element = NamedElement("X")
        element.apply_stereotype("A")
        element.apply_stereotype("B", shared="found")
        assert element.any_tagged_value("shared") == "found"
        assert element.any_tagged_value("missing") is None


class TestNaming:
    def test_qualified_name(self):
        model = Model("M")
        package = model.add_package("P")
        cls = package.add_class("C")
        prop = cls.add_attribute("a")
        assert prop.qualified_name == "M.P.C.a"

    def test_namespace_is_nearest_package(self):
        model = Model("M")
        package = model.add_package("P")
        cls = package.add_class("C")
        prop = cls.add_attribute("a")
        assert prop.namespace is package
        assert cls.namespace is package

    def test_repr_shows_stereotypes(self):
        element = NamedElement("Person")
        element.apply_stereotype("ACC")
        assert "<<ACC>>" in repr(element)
        assert "Person" in repr(element)


class TestWalk:
    def test_walk_covers_everything(self):
        model = Model("M")
        package = model.add_package("P")
        cls = package.add_class("C")
        cls.add_attribute("a")
        names = [type(e).__name__ for e in model.walk()]
        assert names.count("Model") == 1
        assert names.count("Package") == 1
        assert names.count("Class") == 1
        assert names.count("Property") == 1


class TestStructuralRevision:
    """Tracked writes move the version of the model an element belongs to."""

    @staticmethod
    def _attached():
        model = Model("M")
        element = model.add_package("P").add_class("X")
        return model, element

    def test_attribute_assignment_bumps(self):
        model, element = self._attached()
        before = model.version
        element.name = "Y"
        assert model.version > before

    def test_stereotype_and_tag_mutations_bump(self):
        model, element = self._attached()
        before = model.version
        element.apply_stereotype("ACC", definition="d")
        after_apply = model.version
        assert after_apply > before
        element.set_tagged_value("ACC", "definition", "e")
        after_tag = model.version
        assert after_tag > after_apply
        element.remove_stereotype("ACC")
        assert model.version > after_tag

    def test_removing_absent_stereotype_does_not_bump(self):
        model, element = self._attached()
        before = model.version
        element.remove_stereotype("NotApplied")
        assert model.version == before

    def test_reads_do_not_bump(self):
        model, element = self._attached()
        element.apply_stereotype("ACC", definition="d")
        before = model.version
        element.tagged_value("ACC", "definition")
        element.has_stereotype("ACC")
        list(element.walk())
        repr(element)
        element.qualified_name
        assert model.version == before

    def test_constructing_a_detached_element_moves_no_version(self):
        from repro.uml.association import Association, AssociationEnd
        from repro.uml.classifier import Class, Enumeration
        from repro.uml.dependency import Dependency
        from repro.uml.property import Property

        model, element = self._attached()
        before = model.version
        target = Class("T")
        Property("p", element, "0..1")
        Association(AssociationEnd(element), AssociationEnd(target, "r", "0..*"))
        Dependency(target, element)
        Enumeration("E").add_literal("A")
        NamedElement("N").apply_stereotype("ACC")
        Model("Other").add_package("Q")
        assert model.version == before
