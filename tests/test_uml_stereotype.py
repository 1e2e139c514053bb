"""Unit tests for the profile machinery."""

import pytest

from repro.errors import ProfileError
from repro.uml.classifier import Class
from repro.uml.package import Package
from repro.uml.property import Property
from repro.uml.stereotype import Profile, StereotypeDef, TagDef


def _profile():
    profile = Profile("Test")
    profile.add("Common", StereotypeDef(
        "ACC", ("Class",),
        (TagDef("definition", required=True, default=""), TagDef("version")),
    ))
    profile.add("Common", StereotypeDef("CC", ("Class", "Property"), abstract=True))
    profile.add("Management", StereotypeDef(
        "CCLibrary", ("Package",), (TagDef("baseURN", required=True),),
    ))
    return profile


class TestProfileRegistry:
    def test_find_and_get(self):
        profile = _profile()
        assert profile.find("ACC") is not None
        assert profile.find("missing") is None
        with pytest.raises(ProfileError):
            profile.get("missing")

    def test_duplicate_definition_rejected(self):
        profile = _profile()
        with pytest.raises(ProfileError):
            profile.add("Common", StereotypeDef("ACC", ("Class",)))

    def test_stereotype_names_by_package(self):
        profile = _profile()
        assert profile.stereotype_names("Common") == ["ACC", "CC"]
        assert set(profile.stereotype_names()) == {"ACC", "CC", "CCLibrary"}


class TestApplicationChecks:
    def test_valid_application(self):
        profile = _profile()
        cls = Class("X")
        cls.apply_stereotype("ACC", definition="doc")
        assert profile.check_element(cls) == []

    def test_unknown_stereotype(self):
        profile = _profile()
        cls = Class("X")
        cls.apply_stereotype("WAT")
        problems = profile.check_element(cls)
        assert any("unknown stereotype" in p for p in problems)

    def test_wrong_metaclass(self):
        profile = _profile()
        prop = Property("p")
        prop.apply_stereotype("ACC")
        problems = profile.check_element(prop)
        assert any("extends Class" in p for p in problems)

    def test_abstract_cannot_be_applied(self):
        profile = _profile()
        cls = Class("X")
        cls.apply_stereotype("CC")
        problems = profile.check_element(cls)
        assert any("abstract" in p for p in problems)

    def test_undefined_tag_reported(self):
        profile = _profile()
        cls = Class("X")
        cls.apply_stereotype("ACC", bogus="1")
        problems = profile.check_element(cls)
        assert any("no tagged value 'bogus'" in p for p in problems)

    def test_required_tag_without_default_reported(self):
        profile = _profile()
        package = Package("lib")
        package.apply_stereotype("CCLibrary")
        problems = profile.check_element(package)
        assert any("requires tagged value 'baseURN'" in p for p in problems)

    def test_required_tag_with_default_tolerated(self):
        profile = _profile()
        cls = Class("X")
        cls.apply_stereotype("ACC")  # definition required but defaulted
        assert profile.check_element(cls) == []

    def test_metaclass_match_via_mro(self):
        # PrimitiveType is a DataType; a stereotype extending DataType matches.
        profile = Profile("P")
        profile.add("D", StereotypeDef("PRIM", ("DataType",)))
        from repro.uml.classifier import PrimitiveType

        prim = PrimitiveType("String")
        prim.apply_stereotype("PRIM")
        assert profile.check_element(prim) == []


class TestCompiledChecks:
    """Checks are compiled per (element type, stereotype, applied tag
    names); ``tests/test_validation_pinned.py`` covers a later
    ``Profile.add``."""

    def test_same_key_same_answer_different_tags_different_answer(self):
        profile = _profile()
        plain, tagged = Class("A"), Class("B")
        plain.apply_stereotype("ACC")
        tagged.apply_stereotype("ACC", bogus="x")
        assert profile.check_element(plain) == []
        assert profile.check_element(tagged) == ["<<ACC>> defines no tagged value 'bogus'"]
        assert profile.check_element(Class("C").apply_stereotype("ACC")) == []

    def test_type_is_part_of_the_key(self):
        profile = _profile()
        assert profile.check_element(Class("A").apply_stereotype("CCLibrary", baseURN="u")) == [
            "stereotype <<CCLibrary>> extends Package, not Class"
        ]
        assert profile.check_element(Package("p").apply_stereotype("CCLibrary", baseURN="u")) == []
