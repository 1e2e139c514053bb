"""Deserialize XMI documents back into UML models.

Two-pass loading: the first pass materializes every element and records the
id table plus unresolved references (property types, association ends,
dependency client/supplier); the second pass resolves references and
replays stereotype applications.  No cache can hold a model before the
reader returns it, so it writes element fields past the tracked
``Element.__setattr__``, then stamps the finished model with one new
version and, when every element has an ``xmi:id``, records that for the
generator.

The loader walks the ElementTree of :func:`repro.xmlutil.reader.read_document`
and matches names by their prefix as written, whatever namespace the
prefix is bound to.  A diagnostic's line, column and element path are
found only when it is reported.

Error handling comes in two modes (see docs/architecture.md, "Strict and
lenient loading"):

* **strict** (the default of :func:`read_xmi`) -- fail fast: the first
  defect raises :class:`~repro.errors.XmiError`, carrying the offending
  element's xmi:id, element path and the 1-based line/column of its
  start tag.
* **lenient** (:func:`load_xmi`, or ``strict=False``) -- recoverable
  defects (missing or duplicate ``xmi:id``, unresolvable type/client/
  supplier references, unknown ``packagedElement`` types, bad
  multiplicities, dangling stereotype bases, ...) are recorded as located
  :class:`LoadIssue` records, the offending element is skipped or
  placeholder-repaired, and loading continues.  One pass collects *every*
  problem; whatever is sound still becomes a model.

Resource limits (``max_elements``, ``max_depth``) guard the reader against
pathological inputs in both modes.  Lenient-mode defect counts land on the
``xmi.load_issues{kind=...}`` counters.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ModelError, XmiError
from repro.obs.logging_bridge import get_logger
from repro.obs.metrics import counter
from repro.obs.trace import span
from repro.uml.association import AggregationKind, Association, AssociationEnd
from repro.uml.classifier import Class, Classifier, DataType, Enumeration, PrimitiveType
from repro.uml.dependency import Dependency
from repro.uml.elements import Element, NamedElement, _set, touch
from repro.uml.model import Model
from repro.uml.multiplicity import Multiplicity
from repro.uml.package import Package
from repro.uml.property import Property
from repro.validation.diagnostics import SourceLocation
from repro.xmi.ids import IDS_COMPLETE
from repro.xmlutil.reader import Document, read_document

_CLASSIFIER_TYPES: dict[str, type[Classifier]] = {
    "uml:Class": Class,
    "uml:DataType": DataType,
    "uml:PrimitiveType": PrimitiveType,
    "uml:Enumeration": Enumeration,
}

#: Default resource-limit guards; generous enough for any real model.
DEFAULT_MAX_ELEMENTS = 1_000_000
DEFAULT_MAX_DEPTH = 100


@dataclass(frozen=True)
class LoadIssue:
    """One recoverable defect found while loading an XMI document.

    ``kind`` is a stable machine-readable slug (``duplicate-id``,
    ``dangling-type-ref``, ...; the full catalog is in
    docs/architecture.md), ``xmi_id`` the offending element's id when
    known, ``path`` the slash-separated element path from the model root
    and ``source`` the position of the element's start tag in the input.
    """

    kind: str
    message: str
    xmi_id: str | None = None
    path: str = ""
    source: SourceLocation | None = None

    @property
    def line(self) -> int | None:
        """The 1-based source line, or None when unknown."""
        return self.source.line if self.source is not None else None

    @property
    def column(self) -> int | None:
        """The 1-based source column, or None when unknown."""
        return self.source.column if self.source is not None else None

    def __str__(self) -> str:
        details = []
        if self.xmi_id is not None:
            details.append(f"xmi:id={self.xmi_id}")
        if self.path:
            details.append(f"path={self.path}")
        if self.source is not None:
            details.append(str(self.source))
        suffix = f" ({', '.join(details)})" if details else ""
        return f"[{self.kind}] {self.message}{suffix}"


@dataclass
class LoadResult:
    """The outcome of one lenient load: the model (if any) plus issues.

    ``model`` is ``None`` only for unrecoverable documents (XML syntax
    errors, a non-XMI root, a breached resource limit); otherwise it holds
    whatever sound content the document contained.
    """

    model: Model | None
    issues: list[LoadIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when a model loaded and no defect was recorded."""
        return self.model is not None and not self.issues

    def summary(self) -> str:
        """One-line summary for status displays."""
        name = self.model.name if self.model is not None else "<no model>"
        return f"{name}: {len(self.issues)} issue(s)"


class _LimitError(XmiError):
    """A resource limit was breached; never downgraded to a LoadIssue."""


class _Loader:
    def __init__(self, document: Document, strict: bool, max_elements: int, max_depth: int) -> None:
        self.document = document
        self.strict = strict
        self.max_elements = max_elements
        self.max_depth = max_depth
        self.issues: list[LoadIssue] = []
        self.by_id: dict[str, Element] = {}
        self._synthetic_ids = 0
        #: False once an element of the model was left without an xmi:id.
        self.ids_complete = True
        #: (property, ref, node): the node where the ref was written,
        #: located only if pass 2 reports a diagnostic.
        self.pending_types: list[tuple[Property, str, ET.Element]] = []
        self.pending_ends: list[tuple[AssociationEnd, str, Association, ET.Element]] = []
        self.pending_dependencies: list[tuple[Dependency, str, str, ET.Element]] = []
        # The tree's spelling of every name the loader matches.
        name = document.name
        self.packaged_tag = name(None, "packagedElement")
        self.comment_tag = name(None, "ownedComment")
        self.attribute_tag = name(None, "ownedAttribute")
        self.literal_tag = name(None, "ownedLiteral")
        self.end_tag = name(None, "ownedEnd")
        self.id_key = name("xmi", "id")
        self.type_key = name("xmi", "type")
        self.model_node: ET.Element | None = None
        self._parents: dict[ET.Element, ET.Element] | None = None

    # -- issue plumbing ----------------------------------------------------------

    def path(self, node: ET.Element) -> str:
        """``node``'s slash-separated path from the model element ("" outside it)."""
        if self._parents is None:
            self._parents = {
                child: parent for parent in self.document.root.iter() for child in parent
            }
        segments = []
        current: ET.Element | None = node
        while current is not None:
            segments.append(current.get("name") or self.document.written(current.tag))
            if current is self.model_node:
                return "/".join(reversed(segments))
            current = self._parents.get(current)
        return ""

    def error(self, message: str, node: ET.Element, xmi_id: str | None) -> XmiError:
        """An error located at ``node``."""
        line, column = self.document.locate(node)
        return XmiError(message, xmi_id=xmi_id, path=self.path(node), line=line, column=column)

    def issue(
        self, kind: str, message: str, node: ET.Element, xmi_id: str | None = None
    ) -> None:
        """Raise (strict) or record (lenient) one recoverable defect at ``node``."""
        error = self.error(message, node, xmi_id)
        if self.strict:
            raise error
        source = SourceLocation(error.line, error.column)
        self.issues.append(LoadIssue(kind, message, xmi_id, error.path, source))
        counter("xmi.load_issues", kind=kind).inc()

    # -- pass 1 ------------------------------------------------------------------

    def register(self, node: ET.Element, element: Element) -> bool:
        """Assign ``element`` its xmi:id; False when the id was unusable."""
        if len(self.by_id) >= self.max_elements:
            raise _LimitError(
                f"document exceeds max_elements={self.max_elements}; "
                f"refusing to load more model elements"
            )
        xmi_id = node.get(self.id_key)
        if xmi_id is None:
            self.issue(
                "missing-id",
                f"element {self.document.written(node.tag)!r} lacks an xmi:id",
                node,
            )
            # Lenient recovery: synthesize an id so later passes can still
            # address the element (the prefix cannot clash with real ids).
            self._synthetic_ids += 1
            xmi_id = f"__synthetic_{self._synthetic_ids}"
            _set(element, "xmi_id", xmi_id)
            self.by_id[xmi_id] = element
            return True
        if xmi_id in self.by_id:
            self.issue("duplicate-id", f"duplicate xmi:id {xmi_id!r}", node, xmi_id)
            # First registration wins; the element stays in the model but
            # references to this id keep resolving to the original.
            _set(element, "xmi_id", xmi_id)
            return False
        _set(element, "xmi_id", xmi_id)
        self.by_id[xmi_id] = element
        return True

    def load_model(self, node: ET.Element) -> Model:
        self.model_node = node
        model = Model(node.get("name", ""))
        self.register(node, model)
        self._load_documentation(node, model)
        for child in node.findall(self.packaged_tag):
            self._load_packaged(child, model, 1)
        return model

    def _load_documentation(self, node: ET.Element, element: Element) -> None:
        comment = node.find(self.comment_tag)
        if comment is not None:
            _set(element, "documentation", comment.get("body", ""))

    def _load_packaged(self, node: ET.Element, owner: Package, depth: int) -> None:
        if depth > self.max_depth:
            raise _LimitError(
                f"document exceeds max_depth={self.max_depth} nested packagedElements"
            )
        xmi_type = node.get(self.type_key, "")
        if xmi_type == "uml:Package":
            package = Package(node.get("name", ""))
            _set(package, "owner", owner)
            owner.packages.append(package)
            self.register(node, package)
            self._load_documentation(node, package)
            for child in node.findall(self.packaged_tag):
                self._load_packaged(child, package, depth + 1)
        elif xmi_type in _CLASSIFIER_TYPES:
            self._load_classifier(node, owner, _CLASSIFIER_TYPES[xmi_type])
        elif xmi_type == "uml:Association":
            self._load_association(node, owner)
        elif xmi_type == "uml:Dependency":
            self._load_dependency(node, owner)
        else:
            message = f"unsupported packagedElement xmi:type {xmi_type!r}"
            self.issue("unknown-element", message, node, node.get(self.id_key))

    def _load_classifier(self, node: ET.Element, owner: Package, cls: type[Classifier]) -> None:
        classifier = cls(node.get("name", ""))
        _set(classifier, "owner", owner)
        owner.classifiers.append(classifier)
        self.register(node, classifier)
        self._load_documentation(node, classifier)
        for child in node:
            if child.tag == self.attribute_tag:
                prop = Property(
                    child.get("name", ""),
                    None,
                    self._multiplicity(child),
                    child.get("default"),
                )
                _set(prop, "owner", classifier)
                classifier.attributes.append(prop)
                self.register(child, prop)
                type_ref = child.get("type")
                if type_ref is not None:
                    self.pending_types.append((prop, type_ref, child))
            elif child.tag == self.literal_tag and isinstance(classifier, Enumeration):
                try:
                    literal = classifier.add_literal(child.get("name", ""), child.get("value"))
                except ModelError as error:
                    if self.strict:
                        raise
                    self.issue("bad-literal", str(error), child)
                    continue
                # Through register() so colliding literal ids are caught;
                # literals without an id stay addressable-by-nothing, as
                # before.
                if child.get(self.id_key) is not None:
                    self.register(child, literal)
                else:
                    self.ids_complete = False

    def _multiplicity(self, node: ET.Element) -> Multiplicity:
        lower_text = node.get("lower", "1")
        upper_text = node.get("upper", "1")
        try:
            lower = int(lower_text)
            upper = None if upper_text == "*" else int(upper_text)
            return Multiplicity(lower, upper)
        except ValueError as error:
            xmi_id = node.get(self.id_key)
            if self.strict:
                raise self.error(
                    f"element {xmi_id!r} has an invalid multiplicity "
                    f"lower={lower_text!r} upper={upper_text!r}: {error}",
                    node,
                    xmi_id,
                ) from error
            message = f"invalid multiplicity lower={lower_text!r} upper={upper_text!r}: {error}"
            self.issue("bad-multiplicity", message, node, xmi_id)
            return Multiplicity(0, None)

    def _load_association(self, node: ET.Element, owner: Package) -> None:
        xmi_id = node.get(self.id_key)
        end_nodes = node.findall(self.end_tag)
        if len(end_nodes) != 2:
            message = f"association {xmi_id!r} has {len(end_nodes)} ends, expected 2"
            self.issue("bad-association", message, node, xmi_id)
            return
        placeholder = Class("")  # replaced during reference resolution
        ends: list[AssociationEnd] = []
        end_refs: list[tuple[str, ET.Element]] = []
        for end_node in end_nodes:
            try:
                aggregation = AggregationKind(end_node.get("aggregation", "none"))
            except ValueError:
                if self.strict:
                    raise
                message = f"unknown aggregation kind {end_node.get('aggregation')!r}"
                self.issue("bad-aggregation", message, end_node, end_node.get(self.id_key))
                aggregation = AggregationKind.NONE
            end = AssociationEnd(
                placeholder,
                end_node.get("name", ""),
                self._multiplicity(end_node),
                aggregation,
                end_node.get("navigable", "true") == "true",
            )
            self.register(end_node, end)
            type_ref = end_node.get("type")
            if type_ref is None:
                message = f"association end {end.xmi_id!r} lacks a type reference"
                self.issue("missing-end-type", message, end_node, end.xmi_id)
                return  # lenient: drop the whole association
            end_refs.append((type_ref, end_node))
            ends.append(end)
        association = Association(ends[0], ends[1], node.get("name", ""))
        _set(association, "owner", owner)
        owner.associations.append(association)
        self.register(node, association)
        for end, (type_ref, end_node) in zip(ends, end_refs):
            self.pending_ends.append((end, type_ref, association, end_node))

    def _load_dependency(self, node: ET.Element, owner: Package) -> None:
        placeholder = NamedElement("")
        dependency = Dependency(placeholder, placeholder, node.get("name", ""))
        _set(dependency, "owner", owner)
        owner.dependencies.append(dependency)
        self.register(node, dependency)
        missing = [key for key in ("client", "supplier") if key not in node.attrib]
        if missing:
            owner.dependencies.remove(dependency)
            self.issue(
                "missing-dependency-ref",
                f"dependency {dependency.xmi_id!r} lacks a "
                f"{' and '.join(missing)} reference",
                node,
                dependency.xmi_id,
            )
            return
        self.pending_dependencies.append(
            (dependency, node.attrib["client"], node.attrib["supplier"], node)
        )

    # -- pass 2 --------------------------------------------------------------------

    def resolve(self) -> None:
        for prop, ref, node in self.pending_types:
            target = self.by_id.get(ref)
            if not isinstance(target, Classifier):
                message = f"property {prop.name!r} references non-classifier id {ref!r}"
                self.issue("dangling-type-ref", message, node, prop.xmi_id)
                continue  # lenient: the property stays untyped
            _set(prop, "type", target)
        for end, ref, association, node in self.pending_ends:
            target = self.by_id.get(ref)
            if not isinstance(target, Class):
                message = f"association end references non-class id {ref!r}"
                self.issue("dangling-end-ref", message, node, end.xmi_id)
                owner = association.owner
                if isinstance(owner, Package) and association in owner.associations:
                    owner.associations.remove(association)
                continue
            _set(end, "type", target)
        for dependency, client_ref, supplier_ref, node in self.pending_dependencies:
            client = self.by_id.get(client_ref)
            supplier = self.by_id.get(supplier_ref)
            if not isinstance(client, NamedElement) or not isinstance(supplier, NamedElement):
                message = f"dependency references unresolved ids {client_ref!r}/{supplier_ref!r}"
                self.issue("dangling-dependency-ref", message, node, dependency.xmi_id)
                owner = dependency.owner
                if isinstance(owner, Package) and dependency in owner.dependencies:
                    owner.dependencies.remove(dependency)
                continue
            _set(dependency, "client", client)
            _set(dependency, "supplier", supplier)

    def apply_stereotypes(self, root: ET.Element) -> None:
        prefix = self.document.name("upcc", "")
        if prefix is None:
            return
        xmi_prefix = self.document.name("xmi", "")
        written = self.document.written
        for child in root:
            if not child.tag.startswith(prefix):
                continue
            stereotype = child.tag[len(prefix):]
            attributes = child.attrib
            base_ref = attributes.get("base")
            element = self.by_id.get(base_ref or "")
            if element is None:
                self.issue(
                    "dangling-stereotype-base",
                    f"stereotype application <<{stereotype}>> references unknown id {base_ref!r}",
                    child,
                    base_ref,
                )
                continue
            tags = element.stereotype_applications.setdefault(stereotype, {})
            if len(attributes) > 1:  # tagged values beside the base reference
                tags.update(
                    (written(name), value)
                    for name, value in attributes.items()
                    if name != "base" and not (xmi_prefix and name.startswith(xmi_prefix))
                )


_log = get_logger("repro.xmi")


def _load_document(
    document: Document,
    strict: bool,
    max_elements: int,
    max_depth: int,
) -> tuple[Model | None, list[LoadIssue]]:
    """Load one parsed document; (model, issues).  Strict mode raises."""
    root = document.root
    model_tag = document.name("uml", "Model")
    if root.tag != document.name("xmi", "XMI"):
        message = f"expected an xmi:XMI root, got {document.written(root.tag)!r}"
    elif model_tag is None or (model_node := root.find(model_tag)) is None:
        message = "document contains no uml:Model"
    else:
        message = None
    if message is not None:
        fatal = LoadIssue("document", message, source=SourceLocation(*document.locate(root)))
        if strict:
            raise XmiError(fatal.message, line=fatal.line, column=fatal.column)
        counter("xmi.load_issues", kind=fatal.kind).inc()
        return None, [fatal]
    with span("xmi.load") as load_span:
        loader = _Loader(document, strict, max_elements, max_depth)
        try:
            model = loader.load_model(model_node)
            loader.resolve()
            loader.apply_stereotypes(root)
            # The model was built with construction writes; stamp it once.
            touch(model)
            if loader.ids_complete:
                model.derived()[IDS_COMPLETE] = True
        except _LimitError as error:
            if strict:
                raise
            counter("xmi.load_issues", kind="resource-limit").inc()
            issues = loader.issues + [LoadIssue("resource-limit", str(error))]
            load_span.set(issues=len(issues))
            return None, issues
        counter("xmi.elements_parsed").inc(len(loader.by_id))
        load_span.set(model=model.name, elements=len(loader.by_id))
        if loader.issues:
            load_span.set(issues=len(loader.issues))
        _log.debug("loaded model %r: %d element(s)", model.name, len(loader.by_id))
    return model, loader.issues


def _source_text(source: str | Path) -> str:
    """Resolve the path-or-content convention of :func:`read_xmi`.

    A :class:`~pathlib.Path` is always read from disk.  A string is XML
    content when it starts (after whitespace) with ``<``; otherwise it is
    treated as a file path when it names an existing file or carries the
    conventional ``.xmi`` suffix -- so an XMI file named ``model.xml`` is
    read from disk, not parsed as literal XML text.
    """
    if isinstance(source, Path):
        return source.read_text(encoding="utf-8")
    if source.lstrip().startswith("<"):
        return source
    if "\n" not in source and (Path(source).exists() or source.endswith(".xmi")):
        return Path(source).read_text(encoding="utf-8")
    return source


def load_xmi(
    source: str | Path,
    *,
    strict: bool = False,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> LoadResult:
    """Load a model leniently, collecting every defect as a located issue.

    In the default lenient mode the returned :class:`LoadResult` never
    raises for malformed *content*: XML syntax errors, non-XMI documents
    and breached resource limits yield ``model=None`` plus a fatal issue,
    and recoverable defects are skipped or placeholder-repaired while the
    rest of the document still loads.  With ``strict=True`` this behaves
    like :func:`read_xmi` but returns a :class:`LoadResult`.
    """
    text = _source_text(source)
    with span("xmi.read", bytes=len(text)):
        counter("xmi.bytes_read").inc(len(text))
        try:
            document = read_document(text)
        except (ET.ParseError, ValueError) as error:
            # expat counts columns from 0; every located diagnostic is 1-based.
            position = getattr(error, "position", None)
            located = SourceLocation(position[0], position[1] + 1) if position else None
            issue = LoadIssue("xml-syntax", f"not well-formed XML: {error}", source=located)
            if strict:
                raise XmiError(issue.message, line=issue.line, column=issue.column) from None
            counter("xmi.load_issues", kind=issue.kind).inc()
            return LoadResult(None, [issue])
        model, issues = _load_document(document, strict, max_elements, max_depth)
        return LoadResult(model, issues)


def read_xmi(
    source: str | Path,
    *,
    strict: bool = True,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> Model:
    """Load a model from an XMI string or file path.

    Strict by default: the first defect raises a located
    :class:`~repro.errors.XmiError`.  With ``strict=False`` defects are
    repaired or skipped where possible (use :func:`load_xmi` to also get
    the issue records); an unrecoverable document still raises.
    """
    result = load_xmi(source, strict=strict, max_elements=max_elements, max_depth=max_depth)
    if result.model is None:
        first = result.issues[0] if result.issues else None
        raise XmiError(
            "cannot recover a model from the document"
            + (f": {first.message}" if first is not None else ""),
            line=first.line if first is not None else None,
            column=first.column if first is not None else None,
        )
    return result.model
