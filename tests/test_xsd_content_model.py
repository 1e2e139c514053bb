"""Unit and property tests for content-model matching (NFA vs backtracking)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xmlutil.qname import QName
from repro.xsd.components import ChoiceGroup, ElementDecl, SequenceGroup
from repro.xsd.content_model import CompiledModel, match_nfa

from tests.reference_validator import match_backtracking


def _q(name: str) -> QName:
    return QName("urn:t", name)


def _symbol(decl: ElementDecl) -> QName:
    return _q(decl.name) if decl.name else decl.ref


def _el(name: str, lo: int = 1, hi: int | None = 1) -> ElementDecl:
    return ElementDecl(name=name, min_occurs=lo, max_occurs=hi)


ENGINES = [match_nfa, match_backtracking]


@pytest.mark.parametrize("match", ENGINES)
class TestBothEngines:
    def test_exact_sequence(self, match):
        model = SequenceGroup([_el("a"), _el("b")])
        assert match(model, [_q("a"), _q("b")], _symbol).ok
        assert not match(model, [_q("b"), _q("a")], _symbol).ok
        assert not match(model, [_q("a")], _symbol).ok
        assert not match(model, [_q("a"), _q("b"), _q("b")], _symbol).ok

    def test_optional_element(self, match):
        model = SequenceGroup([_el("a", 0), _el("b")])
        assert match(model, [_q("b")], _symbol).ok
        assert match(model, [_q("a"), _q("b")], _symbol).ok

    def test_unbounded(self, match):
        model = SequenceGroup([_el("a", 0, None)])
        for count in (0, 1, 5, 70):
            assert match(model, [_q("a")] * count, _symbol).ok

    def test_bounded_range(self, match):
        model = SequenceGroup([_el("a", 2, 4)])
        assert not match(model, [_q("a")], _symbol).ok
        assert match(model, [_q("a")] * 2, _symbol).ok
        assert match(model, [_q("a")] * 4, _symbol).ok
        assert not match(model, [_q("a")] * 5, _symbol).ok

    def test_choice(self, match):
        model = ChoiceGroup([_el("a"), _el("b")])
        assert match(model, [_q("a")], _symbol).ok
        assert match(model, [_q("b")], _symbol).ok
        assert not match(model, [_q("a"), _q("b")], _symbol).ok
        assert not match(model, [], _symbol).ok

    def test_repeated_choice(self, match):
        model = ChoiceGroup([_el("a"), _el("b")], min_occurs=0, max_occurs=None)
        assert match(model, [_q("a"), _q("b"), _q("a")], _symbol).ok
        assert match(model, [], _symbol).ok

    def test_nested_groups(self, match):
        inner = SequenceGroup([_el("x"), _el("y")], min_occurs=0, max_occurs=2)
        model = SequenceGroup([_el("a"), inner, _el("b")])
        assert match(model, [_q("a"), _q("b")], _symbol).ok
        assert match(model, [_q("a"), _q("x"), _q("y"), _q("b")], _symbol).ok
        assert match(model, [_q("a"), _q("x"), _q("y"), _q("x"), _q("y"), _q("b")], _symbol).ok
        assert not match(model, [_q("a"), _q("x"), _q("b")], _symbol).ok

    def test_empty_sequence_matches_empty(self, match):
        assert match(SequenceGroup([]), [], _symbol).ok
        assert not match(SequenceGroup([]), [_q("a")], _symbol).ok

    def test_assignments_identify_declarations(self, match):
        a, b = _el("a", 0, None), _el("b")
        model = SequenceGroup([a, b])
        result = match(model, [_q("a"), _q("a"), _q("b")], _symbol)
        assert result.ok
        assert result.assignments == [a, a, b]

    def test_element_particle_directly(self, match):
        assert match(_el("a", 1, 3), [_q("a"), _q("a")], _symbol).ok
        assert not match(_el("a", 1, 3), [], _symbol).ok

    def test_wide_optional_sequence(self, match):
        # Worst case for backtracking: every optional element taken twice.
        for width in (8, 24):
            model = SequenceGroup([_el(f"f{i}", 0, 2) for i in range(width)])
            tokens = [_q(f"f{i}") for i in range(width) for _ in range(2)]
            assert match(model, tokens, _symbol).ok

    def test_prohibited_particle(self, match):
        model = SequenceGroup([_el("a", 0, 0), _el("b")])
        assert match(model, [_q("b")], _symbol).ok
        assert not match(model, [_q("a"), _q("b")], _symbol).ok


class TestNfaDetails:
    def test_failure_reports_expected_names(self):
        model = SequenceGroup([_el("a"), _el("b")])
        result = match_nfa(model, [_q("a"), _q("z")], _symbol)
        assert not result.ok
        assert result.failure_index == 1
        assert result.expected == ("b",)
        assert "child #2" in result.describe_failure()

    def test_failure_at_end_of_content(self):
        model = SequenceGroup([_el("a"), _el("b")])
        result = match_nfa(model, [_q("a")], _symbol)
        assert not result.ok
        assert result.failure_index is None
        assert "end of content" in result.describe_failure()

    def test_compiled_model_is_reusable(self):
        model = SequenceGroup([_el("a", 0, None)])
        compiled = CompiledModel(model, _symbol)
        assert compiled.match([_q("a")] * 3).ok
        assert compiled.match([]).ok
        assert not compiled.match([_q("b")]).ok

    def test_large_bounded_treated_as_unbounded(self):
        model = SequenceGroup([_el("a", 0, 1000)])
        assert match_nfa(model, [_q("a")] * 200, _symbol).ok


_names = st.sampled_from(["a", "b", "c"])
_occurs = st.sampled_from([(1, 1), (0, 1), (0, None), (1, None), (2, 3), (0, 2)])


@st.composite
def _particles(draw, depth=0):
    lo, hi = draw(_occurs)
    if depth >= 2 or draw(st.booleans()):
        return ElementDecl(name=draw(_names), min_occurs=lo, max_occurs=hi)
    children = draw(st.lists(_particles(depth=depth + 1), min_size=1, max_size=3))
    group_type = draw(st.sampled_from([SequenceGroup, ChoiceGroup]))
    return group_type(children, lo, hi)


class TestEngineEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(_particles(), st.lists(_names, max_size=6))
    def test_nfa_agrees_with_backtracking(self, particle, names):
        tokens = [_q(name) for name in names]
        nfa = match_nfa(particle, tokens, _symbol)
        reference = match_backtracking(particle, tokens, _symbol)
        assert nfa.ok == reference.ok

    @settings(max_examples=100, deadline=None)
    @given(_particles(), st.lists(_names, max_size=6))
    def test_successful_assignments_cover_all_tokens(self, particle, names):
        tokens = [_q(name) for name in names]
        result = match_nfa(particle, tokens, _symbol)
        if result.ok:
            assert len(result.assignments) == len(tokens)
            for token, decl in zip(tokens, result.assignments):
                assert _symbol(decl) == token
