"""Seeded instance documents with known validation answers.

For one catalog's schema set this builds a fixed-composition batch made
the way the repository's own instance corpus is (``tools/bench_report.py``):
:data:`BATCH_SIZE` documents, every optional element filled and each
unbounded particle repeated 3, 4 or 5 times in turn.  Every
:data:`MUTATED_EVERY`-th document is instead broken by a known mutation
(5% of the batch).  The mutation records the element path the validator
must report, so a batch report is checked against answers known from
construction, not against another run of the validator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.instances import InstanceGenerator
from repro.xmlutil.writer import XmlElement, XmlWriter
from repro.xsd.validator import SchemaSet

#: Documents per batch: the size of the repository's instance corpus.
BATCH_SIZE = 200
#: Occurrences of unbounded particles, cycled over the batch's documents.
REPEATS = (3, 4, 5)
#: One document in this many is mutated (mid-way through each run of
#: ``MUTATED_EVERY`` documents), so 5% of a batch is invalid.
MUTATED_EVERY = 20

#: The two known mutations, alternated across document types.
MUTATIONS = ("unknown_child", "bad_code")


@dataclass
class Corpus:
    """One document type's batch and its known answers."""

    schema_set: SchemaSet
    documents: list[tuple[str, str]]
    #: document name -> the element path its mutation breaks
    invalid: dict[str, str] = field(default_factory=dict)

    @property
    def bytes(self) -> int:
        return sum(len(text.encode("utf-8")) for _name, text in self.documents)


def _local(tag: str) -> str:
    return tag.rpartition(":")[2]


def _first(element: XmlElement, path: str, accept) -> tuple[XmlElement, str] | None:
    """Depth-first the first element ``accept`` takes, with its path."""
    here = f"{path}/{_local(element.tag)}"
    if accept(element):
        return element, here
    for child in element.element_children:
        found = _first(child, here, accept)
        if found is not None:
            return found
    return None


def _target(document: XmlElement, accept) -> tuple[XmlElement, str]:
    found = _first(document, "", accept)
    if found is None:
        raise ValueError("the document has no element this mutation applies to")
    return found


def mutate(document: XmlElement, kind: str, codes: set[str]) -> str:
    """Break ``document`` in place; returns the path the validator must flag.

    ``unknown_child`` appends an undeclared element to the first aggregate
    below the root; ``bad_code`` replaces the first code-list value (one of
    ``codes``) with a value outside its enumeration.
    """
    if kind == "unknown_child":
        target, path = _target(
            document, lambda element: element is not document and bool(element.element_children)
        )
        prefix = target.tag.partition(":")[0]
        target.add(f"{prefix}:Unexpected")
        return path
    if kind == "bad_code":
        target, path = _target(
            document,
            lambda element: any(
                isinstance(child, str) and child in codes for child in element.children
            ),
        )
        target.children = [child for child in target.children if not isinstance(child, str)]
        target.text("NOT-A-CODE")
        return path
    raise ValueError(f"unknown mutation {kind!r}")


def build_corpus(root: str, schema_set: SchemaSet, codes: set[str], mutation: str) -> Corpus:
    """The batch for one document type; ``codes`` are its code-list literals."""
    writer = XmlWriter()
    generators = [
        InstanceGenerator(schema_set, fill_optional=True, repeat_unbounded=repeat)
        for repeat in REPEATS
    ]
    texts = [writer.to_string(generator.generate(root)) for generator in generators]
    broken = generators[0].generate(root)
    broken_path = mutate(broken, mutation, codes)
    broken_text = writer.to_string(broken)
    documents: list[tuple[str, str]] = []
    invalid: dict[str, str] = {}
    for index in range(BATCH_SIZE):
        name = f"doc{index:04d}"
        if index % MUTATED_EVERY == MUTATED_EVERY // 2:
            documents.append((name, broken_text))
            invalid[name] = broken_path
        else:
            documents.append((name, texts[index % len(texts)]))
    return Corpus(schema_set=schema_set, documents=documents, invalid=invalid)


def check_report(report: dict, documents: list[tuple[str, str]], invalid: dict[str, str]) -> None:
    """Raise ``AssertionError`` unless ``report`` (``BatchReport.to_json()``)
    gives the known answer for every document."""
    entries = report["documents"]
    if [entry["path"] for entry in entries] != [name for name, _text in documents]:
        raise AssertionError("report does not list the batch's documents in order")
    if report["docs_total"] != len(documents) or report["docs_invalid"] != len(invalid):
        raise AssertionError(
            f"report counts {report['docs_total']}/{report['docs_invalid']}, "
            f"expected {len(documents)}/{len(invalid)}"
        )
    for entry in entries:
        expected_path = invalid.get(entry["path"])
        if expected_path is None:
            if not entry["ok"] or entry.get("problems"):
                raise AssertionError(f"valid document {entry['path']} reported invalid: {entry}")
            continue
        problems = entry.get("problems") or []
        if entry["ok"] or not problems:
            raise AssertionError(f"mutated document {entry['path']} reported valid")
        paths = {problem["path"] for problem in problems}
        if paths != {expected_path}:
            raise AssertionError(
                f"mutated document {entry['path']} flagged at {sorted(paths)}, "
                f"expected {expected_path}"
            )
