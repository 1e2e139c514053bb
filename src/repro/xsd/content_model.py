"""Occurrence-aware content-model matching.

Validating a ``sequence``/``choice`` particle against the children of an
instance element is regular-language matching:

* :class:`CompiledModel` (and :func:`match_nfa`) -- a compiled
  Thompson-style NFA simulated with epsilon closures (linear in
  ``len(tokens) * states``);
* :func:`determinize` -- the NFA's subset construction, used by the
  compiled validator whenever it is provably result-identical (the NFA
  stays the fallback for models that violate Unique Particle Attribution).

The test suite keeps a direct recursive backtracking matcher
(``tests/reference_validator.py``) as the reference these are checked
against; it is also the "naive" arm of the ablation benchmark in DESIGN.md.

Matching returns a :class:`MatchResult` whose ``assignments`` pin each child
to the element declaration that matched it, which the validator then uses
for type checking.  For schemas obeying the Unique Particle Attribution rule
(everything the NDR generator emits does) the assignment is unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.xmlutil.qname import QName
from repro.xsd.components import ChoiceGroup, ElementDecl, SequenceGroup

Particle = ElementDecl | SequenceGroup | ChoiceGroup
SymbolOf = Callable[[ElementDecl], QName]

#: Bounded maxOccurs above this are treated as unbounded to avoid blowup.
MAX_UNROLL = 64


@dataclass
class MatchResult:
    """Outcome of matching children against a content model."""

    ok: bool
    assignments: list[ElementDecl] = field(default_factory=list)
    failure_index: int | None = None
    expected: tuple[str, ...] = ()

    def describe_failure(self) -> str:
        """A human-readable account of where matching failed."""
        if self.ok:
            return "match succeeded"
        expected = " | ".join(sorted(self.expected)) or "(nothing)"
        where = "end of content" if self.failure_index is None else f"child #{self.failure_index + 1}"
        return f"content model mismatch at {where}; expected {expected}"


# ---------------------------------------------------------------------------
# Compiled NFA engine
# ---------------------------------------------------------------------------


class _Fragment:
    __slots__ = ("start", "accept")

    def __init__(self, start: int, accept: int) -> None:
        self.start = start
        self.accept = accept


class CompiledModel:
    """A Thompson NFA for one content-model particle."""

    def __init__(self, particle: Particle, symbol_of: SymbolOf) -> None:
        self._epsilon: list[list[int]] = []
        self._edges: list[list[tuple[QName, ElementDecl, int]]] = []
        self._symbol_of = symbol_of
        fragment = self._compile(particle)
        self.start = fragment.start
        self.accept = fragment.accept

    # -- construction ------------------------------------------------------------

    def _new_state(self) -> int:
        self._epsilon.append([])
        self._edges.append([])
        return len(self._epsilon) - 1

    def _compile(self, particle: Particle) -> _Fragment:
        if isinstance(particle, ElementDecl):
            base = self._element_fragment(particle)
        elif isinstance(particle, SequenceGroup):
            base = self._concat([self._compile(child) for child in particle.particles])
        else:
            base = self._alternate([self._compile(child) for child in particle.particles])
        min_occurs = particle.min_occurs if not isinstance(particle, ElementDecl) else particle.min_occurs
        max_occurs = particle.max_occurs
        if isinstance(particle, ElementDecl):
            # The element fragment itself is a single occurrence; apply occurs.
            return self._apply_occurs_factory(lambda: self._element_fragment(particle), base, min_occurs, max_occurs)
        return self._apply_occurs_factory(lambda: self._compile_copy(particle), base, min_occurs, max_occurs)

    def _compile_copy(self, particle: SequenceGroup | ChoiceGroup) -> _Fragment:
        copy = (
            SequenceGroup(particle.particles, 1, 1)
            if isinstance(particle, SequenceGroup)
            else ChoiceGroup(particle.particles, 1, 1)
        )
        return self._compile(copy)

    def _element_fragment(self, element: ElementDecl) -> _Fragment:
        start = self._new_state()
        accept = self._new_state()
        self._edges[start].append((self._symbol_of(element), element, accept))
        return _Fragment(start, accept)

    def _concat(self, fragments: list[_Fragment]) -> _Fragment:
        if not fragments:
            state = self._new_state()
            return _Fragment(state, state)
        for left, right in zip(fragments, fragments[1:]):
            self._epsilon[left.accept].append(right.start)
        return _Fragment(fragments[0].start, fragments[-1].accept)

    def _alternate(self, fragments: list[_Fragment]) -> _Fragment:
        start = self._new_state()
        accept = self._new_state()
        if not fragments:
            self._epsilon[start].append(accept)
        for fragment in fragments:
            self._epsilon[start].append(fragment.start)
            self._epsilon[fragment.accept].append(accept)
        return _Fragment(start, accept)

    def _apply_occurs_factory(
        self,
        make_copy: Callable[[], _Fragment],
        first: _Fragment,
        min_occurs: int,
        max_occurs: int | None,
    ) -> _Fragment:
        """Wire ``min..max`` occurrences out of fresh copies of a fragment."""
        if max_occurs is not None and max_occurs > MAX_UNROLL:
            max_occurs = None
        if min_occurs == 1 and max_occurs == 1:
            return first
        if max_occurs == 0:
            # A prohibited particle matches only the empty string.
            state = self._new_state()
            return _Fragment(state, state)
        start = self._new_state()
        accept = self._new_state()
        if min_occurs == 0:
            self._epsilon[start].append(accept)
        required = [first] + [make_copy() for _ in range(max(min_occurs - 1, 0))]
        cursor = start
        for index, fragment in enumerate(required):
            self._epsilon[cursor].append(fragment.start)
            cursor = fragment.accept
            if index + 1 >= min_occurs:
                self._epsilon[cursor].append(accept)
        if max_occurs is None:
            loop = required[-1] if required else make_copy()
            if not required:
                self._epsilon[cursor].append(loop.start)
                cursor = loop.accept
                self._epsilon[cursor].append(accept)
            self._epsilon[loop.accept].append(loop.start)
        else:
            optional_count = max_occurs - max(min_occurs, 1)
            for _ in range(optional_count):
                fragment = make_copy()
                self._epsilon[cursor].append(fragment.start)
                cursor = fragment.accept
                self._epsilon[cursor].append(accept)
        return _Fragment(start, accept)

    # -- simulation ----------------------------------------------------------------

    def _closure(self, states: set[int]) -> set[int]:
        stack = list(states)
        seen = set(states)
        while stack:
            state = stack.pop()
            for nxt in self._epsilon[state]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    def _expected_at(self, states: set[int]) -> tuple[str, ...]:
        names = {symbol.local for state in states for symbol, _, _ in self._edges[state]}
        return tuple(sorted(names))

    def match(self, tokens: list[QName]) -> MatchResult:
        """Match ``tokens`` (children element QNames) against the model."""
        current = self._closure({self.start})
        assignments: list[ElementDecl] = []
        for index, token in enumerate(tokens):
            next_states: set[int] = set()
            matched: ElementDecl | None = None
            for state in current:
                for symbol, decl, target in self._edges[state]:
                    if symbol == token:
                        next_states.add(target)
                        if matched is None:
                            matched = decl
            if not next_states or matched is None:
                return MatchResult(
                    ok=False,
                    assignments=assignments,
                    failure_index=index,
                    expected=self._expected_at(current),
                )
            assignments.append(matched)
            current = self._closure(next_states)
        if self.accept in current:
            return MatchResult(ok=True, assignments=assignments)
        return MatchResult(
            ok=False,
            assignments=assignments,
            failure_index=None,
            expected=self._expected_at(current),
        )


def match_nfa(particle: Particle, tokens: list[QName], symbol_of: SymbolOf) -> MatchResult:
    """Match using a freshly compiled NFA (see :class:`CompiledModel`)."""
    return CompiledModel(particle, symbol_of).match(tokens)


# ---------------------------------------------------------------------------
# Determinized (DFA) engine
# ---------------------------------------------------------------------------

#: Subset-construction ceiling; larger models fall back to NFA simulation.
MAX_DFA_STATES = 512


class DeterminizedModel:
    """A table-driven DFA determinized from a :class:`CompiledModel`.

    Matching is one dict lookup per token instead of an epsilon-closure
    sweep, and produces byte-identical :class:`MatchResult` values (same
    assignments, failure index and expected set).  Built ahead of time by
    :func:`determinize`; the compiled-validator layer uses it on the
    per-document hot path.
    """

    __slots__ = ("_tables",)

    def __init__(
        self,
        tables: list[tuple[dict[QName, tuple[int, ElementDecl]], bool, tuple[str, ...]]],
    ) -> None:
        self._tables = tables

    def match(self, tokens: list[QName]) -> MatchResult:
        """Match ``tokens`` against the determinized model."""
        tables = self._tables
        state = 0
        assignments: list[ElementDecl] = []
        for index, token in enumerate(tokens):
            entry = tables[state][0].get(token)
            if entry is None:
                return MatchResult(
                    ok=False,
                    assignments=assignments,
                    failure_index=index,
                    expected=tables[state][2],
                )
            assignments.append(entry[1])
            state = entry[0]
        transitions, accepting, expected = tables[state]
        if accepting:
            return MatchResult(ok=True, assignments=assignments)
        return MatchResult(
            ok=False, assignments=assignments, failure_index=None, expected=expected
        )


def determinize(model: CompiledModel) -> DeterminizedModel | None:
    """The DFA form of ``model``, or None when not safely determinizable.

    Safe means provably result-identical to :meth:`CompiledModel.match`:
    construction bails out (returns None, caller keeps the NFA) when a
    state set offers the *same* token through *different* declarations --
    a Unique Particle Attribution violation, where the NFA's pick depends
    on set iteration order -- or when subset construction exceeds
    :data:`MAX_DFA_STATES`.  Everything the NDR generator emits
    determinizes.
    """
    start = model._closure({model.start})
    state_ids: dict[frozenset[int], int] = {frozenset(start): 0}
    representatives: list[set[int]] = [start]
    tables: list[tuple[dict[QName, tuple[int, ElementDecl]], bool, tuple[str, ...]]] = []
    cursor = 0
    while cursor < len(representatives):
        representative = representatives[cursor]
        cursor += 1
        targets: dict[QName, set[int]] = {}
        matched: dict[QName, ElementDecl] = {}
        for state in representative:
            for symbol, decl, target in model._edges[state]:
                bucket = targets.get(symbol)
                if bucket is None:
                    targets[symbol] = {target}
                    matched[symbol] = decl
                else:
                    bucket.add(target)
                    if matched[symbol] is not decl:
                        return None  # UPA violation: NFA pick is order-dependent
        transitions: dict[QName, tuple[int, ElementDecl]] = {}
        for symbol, next_states in targets.items():
            closure = model._closure(next_states)
            key = frozenset(closure)
            next_id = state_ids.get(key)
            if next_id is None:
                if len(representatives) >= MAX_DFA_STATES:
                    return None
                next_id = len(representatives)
                state_ids[key] = next_id
                representatives.append(closure)
            transitions[symbol] = (next_id, matched[symbol])
        tables.append(
            (transitions, model.accept in representative, model._expected_at(representative))
        )
    return DeterminizedModel(tables)
