"""Batch instance validation: a corpus in, located per-document reports out.

The paper's pipeline ends with generated schemas "used to validate XML
messages exchanged during a business process" (section 4).  This module is
that workload's serving layer:

* :func:`discover_corpus` -- resolve a corpus argument (directory, single
  ``.xml`` file, or manifest file listing one document path per line) to a
  deterministic document list,
* :class:`DocumentReport` / :class:`BatchReport` -- the result model; a
  malformed, unreadable or oversized document (one past the validator's
  :data:`~repro.xsd.compiled.max_depth` or
  :data:`~repro.xsd.compiled.max_elements`) becomes a located report
  entry, never an exception that aborts the batch,
* :class:`ValidationPipeline` -- validates every document, in corpus order,
  against the schema set's cached :class:`~repro.xsd.CompiledSchemaSet`.

Observability: the batch runs under an ``instances.batch`` span with one
``instances.validate`` child span per document, and records
``instances.docs_total`` / ``instances.docs_invalid`` counters plus an
``instances.validate_ms`` histogram.

Report stability: :meth:`BatchReport.to_json` contains only document
identities and findings -- no timings -- so the serialized report is
byte-identical across runs, and between :meth:`ValidationPipeline.run`
and :meth:`ValidationPipeline.run_strings` over the same documents.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.errors import InstanceValidationError, ReproError
from repro.obs.metrics import counter, histogram
from repro.obs.trace import span
from repro.xsd.compiled import compile_schema_set
from repro.xsd.validator import SchemaSet, ValidationProblem

__all__ = [
    "BatchReport",
    "DocumentReport",
    "ValidationPipeline",
    "discover_corpus",
]

# -- corpus discovery ----------------------------------------------------------


def discover_corpus(corpus: str | Path) -> list[Path]:
    """Resolve a corpus argument to a sorted, deterministic document list.

    A directory yields every ``*.xml`` under it (recursively, sorted); a
    ``.xml`` file yields itself; any other file is read as a manifest with
    one document path per line (blank lines and ``#`` comments ignored,
    relative paths resolved against the manifest's directory).
    """
    root = Path(corpus)
    if root.is_dir():
        # os.walk instead of Path.rglob: same files, same sorted order,
        # a fraction of the pathlib overhead on large corpora.
        found: list[Path] = []
        for directory, _dirnames, filenames in os.walk(root):
            base = Path(directory)
            for filename in filenames:
                if filename.endswith(".xml"):
                    found.append(base / filename)
        return sorted(found)
    if not root.is_file():
        raise InstanceValidationError(f"corpus not found: {root}")
    if root.suffix.lower() == ".xml":
        return [root]
    paths: list[Path] = []
    for line in root.read_text(encoding="utf-8").splitlines():
        entry = line.strip()
        if not entry or entry.startswith("#"):
            continue
        candidate = Path(entry)
        if not candidate.is_absolute():
            candidate = root.parent / candidate
        paths.append(candidate)
    return paths


# -- report model --------------------------------------------------------------


@dataclass
class DocumentReport:
    """The outcome of validating one document of a corpus.

    Exactly one of three shapes: valid (``ok`` and no problems), invalid
    (``problems`` non-empty), or faulted (``error`` set -- the document
    could not be read or parsed; validation never ran).
    """

    path: str
    ok: bool
    problems: list[ValidationProblem] = field(default_factory=list)
    error: str | None = None

    def to_json(self) -> dict:
        """Deterministic JSON shape (no timings)."""
        payload: dict = {"path": self.path, "ok": self.ok}
        if self.error is not None:
            payload["error"] = self.error
        else:
            payload["problems"] = [
                {"path": problem.path, "message": problem.message}
                for problem in self.problems
            ]
        return payload


@dataclass
class BatchReport:
    """A whole corpus run: per-document reports plus aggregates."""

    documents: list[DocumentReport]
    elapsed_ms: float

    @property
    def docs_total(self) -> int:
        return len(self.documents)

    @property
    def docs_invalid(self) -> int:
        return sum(1 for report in self.documents if not report.ok)

    @property
    def ok(self) -> bool:
        return self.docs_invalid == 0

    def to_json(self) -> dict:
        """Deterministic JSON shape -- byte-identical across runs.

        Deliberately excludes ``elapsed_ms``: the report describes the
        corpus, not the run.
        """
        return {
            "docs_total": self.docs_total,
            "docs_invalid": self.docs_invalid,
            "documents": [report.to_json() for report in self.documents],
        }

    def to_text(self) -> str:
        """Human-readable summary, one line per finding."""
        lines: list[str] = []
        for report in self.documents:
            if report.error is not None:
                lines.append(f"FAULT {report.path}: {report.error}")
            elif report.problems:
                lines.append(f"INVALID {report.path}")
                for problem in report.problems:
                    lines.append(f"  {problem}")
            else:
                lines.append(f"ok {report.path}")
        lines.append(
            f"{self.docs_total} document(s), {self.docs_invalid} invalid"
        )
        return "\n".join(lines)


# -- the pipeline --------------------------------------------------------------


class ValidationPipeline:
    """Validate corpora of instance documents against one schema set.

    The schema set is compiled once, through the process-wide
    :class:`~repro.xsd.CompilationCache`, so repeated pipelines over the
    same schemas reuse plans.
    """

    def __init__(self, schema_set: SchemaSet, *, fail_fast: bool = False) -> None:
        self.schema_set = schema_set
        self.fail_fast = fail_fast
        self._compiled = compile_schema_set(schema_set)
        # Resolve the per-document instruments once; a repeat registry
        # lookup is a dict hit, but these run once per document.
        self._docs_total = counter("instances.docs_total")
        self._docs_invalid = counter("instances.docs_invalid")
        self._validate_ms = histogram("instances.validate_ms")

    # -- single documents ------------------------------------------------------

    def validate_text(self, text: str) -> list[ValidationProblem]:
        """Validate one document given as XML text."""
        return self._compiled.validate(text)

    def validate_path(self, path: str | Path, label: str | None = None) -> DocumentReport:
        """Validate one document file; faults become the report, not raises."""
        return self._validate(label if label is not None else str(path), Path(path))

    def validate_string(self, text: str, label: str) -> DocumentReport:
        """Validate one in-memory document; the fault-isolated twin of
        :meth:`validate_path` for callers (e.g. ``upcc serve``) whose
        documents arrive over the wire instead of from disk."""
        return self._validate(label, text)

    def _validate(self, name: str, document: str | Path) -> DocumentReport:
        """Validate one document: a :class:`Path` is read first, a str is the text."""
        started = time.perf_counter()
        with span("instances.validate", document=name):
            try:
                if isinstance(document, Path):
                    document = document.read_bytes().decode("utf-8")
                problems = self.validate_text(document)
            except (ReproError, OSError, UnicodeDecodeError) as error:
                # Schema-side defects (e.g. a cyclic reference) are isolated
                # per document too, so the rest of the batch completes.
                report = DocumentReport(path=name, ok=False, error=str(error))
            else:
                report = DocumentReport(path=name, ok=not problems, problems=problems)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        self._validate_ms.observe(elapsed_ms)
        self._docs_total.inc()
        if not report.ok:
            self._docs_invalid.inc()
        return report

    # -- batches ---------------------------------------------------------------

    def run(self, corpus: str | Path) -> BatchReport:
        """Validate every document of ``corpus``; never raises per-document."""
        paths = discover_corpus(corpus)
        return self._batch(str(corpus), [(str(path), path) for path in paths])

    def run_strings(self, documents: list[tuple[str, str]]) -> BatchReport:
        """Validate ``(name, xml text)`` pairs; the in-memory twin of :meth:`run`."""
        return self._batch("<memory>", documents)

    def _batch(self, corpus: str, documents: Sequence[tuple[str, str | Path]]) -> BatchReport:
        """Validate ``(name, document)`` pairs in order, honouring ``fail_fast``."""
        started = time.perf_counter()
        with span("instances.batch", corpus=corpus, documents=len(documents)):
            reports: list[DocumentReport] = []
            for name, document in documents:
                report = self._validate(name, document)
                reports.append(report)
                if self.fail_fast and not report.ok:
                    break
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        return BatchReport(documents=reports, elapsed_ms=elapsed_ms)
