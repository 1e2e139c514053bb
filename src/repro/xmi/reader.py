"""Deserialize XMI documents back into UML models.

Two-pass loading: the first pass materializes every element and records the
id table plus unresolved references (property types, association ends,
dependency client/supplier); the second pass resolves references and
replays stereotype applications.  No cache can hold a model before the
reader returns it, so it writes element fields past the tracked
``Element.__setattr__``, then stamps the finished model with one new
version and, when every element has an ``xmi:id``, records that for the
generator.

Error handling comes in two modes (see docs/architecture.md, "Strict and
lenient loading"):

* **strict** (the default of :func:`read_xmi` / :func:`model_from_xmi`) --
  fail fast: the first defect raises :class:`~repro.errors.XmiError`, now
  carrying the offending element's xmi:id, element path and the 1-based
  line/column of its start tag (threaded through
  :func:`repro.xmlutil.writer.parse_xml`).
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
from repro.xmlutil.writer import XmlElement, parse_xml

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


def _located(node: XmlElement | None) -> SourceLocation | None:
    if node is None or node.source_line is None:
        return None
    return SourceLocation(node.source_line, node.source_column)


class _Loader:
    def __init__(
        self,
        strict: bool = True,
        max_elements: int = DEFAULT_MAX_ELEMENTS,
        max_depth: int = DEFAULT_MAX_DEPTH,
    ) -> None:
        self.strict = strict
        self.max_elements = max_elements
        self.max_depth = max_depth
        self.issues: list[LoadIssue] = []
        self.by_id: dict[str, Element] = {}
        self._synthetic_ids = 0
        #: False once an element of the model was left without an xmi:id.
        self.ids_complete = True
        #: (property, ref, site): a site is the (xmi_id, path, node) where the
        #: ref was written, located only if pass 2 reports a diagnostic.
        self.pending_types: list[tuple[Property, str, tuple]] = []
        self.pending_ends: list[tuple[AssociationEnd, str, Association, tuple]] = []
        self.pending_dependencies: list[tuple[Dependency, str, str, tuple]] = []

    # -- issue plumbing ----------------------------------------------------------

    def issue(
        self,
        kind: str,
        message: str,
        *,
        node: XmlElement | None = None,
        xmi_id: str | None = None,
        path: str = "",
        source: SourceLocation | None = None,
    ) -> None:
        """Raise (strict) or record (lenient) one recoverable defect."""
        if source is None:
            source = _located(node)
        if self.strict:
            raise XmiError(
                message,
                xmi_id=xmi_id,
                path=path,
                line=source.line if source else None,
                column=source.column if source else None,
            )
        self.issues.append(LoadIssue(kind, message, xmi_id=xmi_id, path=path, source=source))
        counter("xmi.load_issues", kind=kind).inc()

    # -- pass 1 ------------------------------------------------------------------

    def register(self, node: XmlElement, element: Element, path: str = "") -> bool:
        """Assign ``element`` its xmi:id; False when the id was unusable."""
        if len(self.by_id) >= self.max_elements:
            raise _LimitError(
                f"document exceeds max_elements={self.max_elements}; "
                f"refusing to load more model elements"
            )
        xmi_id = node.attributes.get("xmi:id")
        if xmi_id is None:
            self.issue(
                "missing-id",
                f"element {node.tag!r} lacks an xmi:id",
                node=node,
                path=path,
            )
            # Lenient recovery: synthesize an id so later passes can still
            # address the element (the prefix cannot clash with real ids).
            self._synthetic_ids += 1
            xmi_id = f"__synthetic_{self._synthetic_ids}"
            _set(element, "xmi_id", xmi_id)
            self.by_id[xmi_id] = element
            return True
        if xmi_id in self.by_id:
            self.issue(
                "duplicate-id",
                f"duplicate xmi:id {xmi_id!r}",
                node=node,
                xmi_id=xmi_id,
                path=path,
            )
            # First registration wins; the element stays in the model but
            # references to this id keep resolving to the original.
            _set(element, "xmi_id", xmi_id)
            return False
        _set(element, "xmi_id", xmi_id)
        self.by_id[xmi_id] = element
        return True

    def load_model(self, node: XmlElement) -> Model:
        model = Model(node.attributes.get("name", ""))
        path = model.name or node.tag
        self.register(node, model, path)
        self._load_documentation(node, model)
        for child in node.element_children:
            if child.tag == "packagedElement":
                self._load_packaged(child, model, path, 1)
        return model

    def _load_documentation(self, node: XmlElement, element: Element) -> None:
        comment = node.find("ownedComment")
        if comment is not None:
            _set(element, "documentation", comment.attributes.get("body", ""))

    def _load_packaged(self, node: XmlElement, owner: Package, path: str, depth: int) -> None:
        if depth > self.max_depth:
            raise _LimitError(
                f"document exceeds max_depth={self.max_depth} nested packagedElements"
            )
        xmi_type = node.attributes.get("xmi:type", "")
        child_path = f"{path}/{node.attributes.get('name') or node.tag}"
        if xmi_type == "uml:Package":
            package = Package(node.attributes.get("name", ""))
            _set(package, "owner", owner)
            owner.packages.append(package)
            self.register(node, package, child_path)
            self._load_documentation(node, package)
            for child in node.element_children:
                if child.tag == "packagedElement":
                    self._load_packaged(child, package, child_path, depth + 1)
        elif xmi_type in _CLASSIFIER_TYPES:
            self._load_classifier(node, owner, _CLASSIFIER_TYPES[xmi_type], child_path)
        elif xmi_type == "uml:Association":
            self._load_association(node, owner, child_path)
        elif xmi_type == "uml:Dependency":
            self._load_dependency(node, owner, child_path)
        else:
            self.issue(
                "unknown-element",
                f"unsupported packagedElement xmi:type {xmi_type!r}",
                node=node,
                xmi_id=node.attributes.get("xmi:id"),
                path=child_path,
            )

    def _load_classifier(
        self, node: XmlElement, owner: Package, cls: type[Classifier], path: str
    ) -> None:
        classifier = cls(node.attributes.get("name", ""))
        _set(classifier, "owner", owner)
        owner.classifiers.append(classifier)
        self.register(node, classifier, path)
        self._load_documentation(node, classifier)
        for child in node.element_children:
            child_path = f"{path}/{child.attributes.get('name') or child.tag}"
            if child.tag == "ownedAttribute":
                prop = Property(
                    child.attributes.get("name", ""),
                    None,
                    self._multiplicity(child, child_path),
                    child.attributes.get("default"),
                )
                _set(prop, "owner", classifier)
                classifier.attributes.append(prop)
                self.register(child, prop, child_path)
                type_ref = child.attributes.get("type")
                if type_ref is not None:
                    self.pending_types.append(
                        (prop, type_ref, (prop.xmi_id, child_path, child))
                    )
            elif child.tag == "ownedLiteral" and isinstance(classifier, Enumeration):
                try:
                    literal = classifier.add_literal(
                        child.attributes.get("name", ""), child.attributes.get("value")
                    )
                except ModelError as error:
                    if self.strict:
                        raise
                    self.issue("bad-literal", str(error), node=child, path=child_path)
                    continue
                # Through register() so colliding literal ids are caught;
                # literals without an id stay addressable-by-nothing, as
                # before.
                if child.attributes.get("xmi:id") is not None:
                    self.register(child, literal, child_path)
                else:
                    self.ids_complete = False

    def _multiplicity(self, node: XmlElement, path: str = "") -> Multiplicity:
        lower_text = node.attributes.get("lower", "1")
        upper_text = node.attributes.get("upper", "1")
        try:
            lower = int(lower_text)
            upper = None if upper_text == "*" else int(upper_text)
            return Multiplicity(lower, upper)
        except ValueError as error:
            xmi_id = node.attributes.get("xmi:id")
            if self.strict:
                source = _located(node)
                raise XmiError(
                    f"element {xmi_id!r} has an invalid multiplicity "
                    f"lower={lower_text!r} upper={upper_text!r}: {error}",
                    xmi_id=xmi_id,
                    path=path,
                    line=source.line if source else None,
                    column=source.column if source else None,
                ) from error
            self.issue(
                "bad-multiplicity",
                f"invalid multiplicity lower={lower_text!r} upper={upper_text!r}: {error}",
                node=node,
                xmi_id=xmi_id,
                path=path,
            )
            return Multiplicity(0, None)

    def _load_association(self, node: XmlElement, owner: Package, path: str) -> None:
        xmi_id = node.attributes.get("xmi:id")
        end_nodes = node.find_all("ownedEnd")
        if len(end_nodes) != 2:
            self.issue(
                "bad-association",
                f"association {xmi_id!r} has {len(end_nodes)} ends, expected 2",
                node=node,
                xmi_id=xmi_id,
                path=path,
            )
            return
        placeholder = Class("")  # replaced during reference resolution
        ends: list[AssociationEnd] = []
        end_refs: list[tuple[str | None, XmlElement]] = []
        for end_node in end_nodes:
            end_path = f"{path}/{end_node.attributes.get('name') or end_node.tag}"
            try:
                aggregation = AggregationKind(end_node.attributes.get("aggregation", "none"))
            except ValueError:
                if self.strict:
                    raise
                self.issue(
                    "bad-aggregation",
                    f"unknown aggregation kind "
                    f"{end_node.attributes.get('aggregation')!r}",
                    node=end_node,
                    xmi_id=end_node.attributes.get("xmi:id"),
                    path=end_path,
                )
                aggregation = AggregationKind.NONE
            end = AssociationEnd(
                placeholder,
                end_node.attributes.get("name", ""),
                self._multiplicity(end_node, end_path),
                aggregation,
                end_node.attributes.get("navigable", "true") == "true",
            )
            self.register(end_node, end, end_path)
            type_ref = end_node.attributes.get("type")
            if type_ref is None:
                self.issue(
                    "missing-end-type",
                    f"association end {end.xmi_id!r} lacks a type reference",
                    node=end_node,
                    xmi_id=end.xmi_id,
                    path=end_path,
                )
                return  # lenient: drop the whole association
            end_refs.append((type_ref, end_node))
            ends.append(end)
        association = Association(ends[0], ends[1], node.attributes.get("name", ""))
        _set(association, "owner", owner)
        owner.associations.append(association)
        self.register(node, association, path)
        for end, (type_ref, end_node) in zip(ends, end_refs):
            end_path = f"{path}/{end_node.attributes.get('name') or end_node.tag}"
            site = (end.xmi_id, end_path, end_node)
            self.pending_ends.append((end, type_ref, association, site))

    def _load_dependency(self, node: XmlElement, owner: Package, path: str) -> None:
        placeholder = NamedElement("")
        dependency = Dependency(placeholder, placeholder, node.attributes.get("name", ""))
        _set(dependency, "owner", owner)
        owner.dependencies.append(dependency)
        self.register(node, dependency, path)
        missing = [key for key in ("client", "supplier") if key not in node.attributes]
        if missing:
            owner.dependencies.remove(dependency)
            self.issue(
                "missing-dependency-ref",
                f"dependency {dependency.xmi_id!r} lacks a "
                f"{' and '.join(missing)} reference",
                node=node,
                xmi_id=dependency.xmi_id,
                path=path,
            )
            return
        site = (dependency.xmi_id, path, node)
        self.pending_dependencies.append(
            (dependency, node.attributes["client"], node.attributes["supplier"], site)
        )

    # -- pass 2 --------------------------------------------------------------------

    def resolve(self) -> None:
        for prop, ref, (xmi_id, path, node) in self.pending_types:
            target = self.by_id.get(ref)
            if not isinstance(target, Classifier):
                self.issue(
                    "dangling-type-ref",
                    f"property {prop.name!r} references non-classifier id {ref!r}",
                    xmi_id=xmi_id,
                    path=path,
                    node=node,
                )
                continue  # lenient: the property stays untyped
            _set(prop, "type", target)
        for end, ref, association, (xmi_id, path, node) in self.pending_ends:
            target = self.by_id.get(ref)
            if not isinstance(target, Class):
                self.issue(
                    "dangling-end-ref",
                    f"association end references non-class id {ref!r}",
                    xmi_id=xmi_id,
                    path=path,
                    node=node,
                )
                owner = association.owner
                if isinstance(owner, Package) and association in owner.associations:
                    owner.associations.remove(association)
                continue
            _set(end, "type", target)
        for dependency, client_ref, supplier_ref, (xmi_id, path, node) in self.pending_dependencies:
            client = self.by_id.get(client_ref)
            supplier = self.by_id.get(supplier_ref)
            if not isinstance(client, NamedElement) or not isinstance(supplier, NamedElement):
                self.issue(
                    "dangling-dependency-ref",
                    f"dependency references unresolved ids {client_ref!r}/{supplier_ref!r}",
                    xmi_id=xmi_id,
                    path=path,
                    node=node,
                )
                owner = dependency.owner
                if isinstance(owner, Package) and dependency in owner.dependencies:
                    owner.dependencies.remove(dependency)
                continue
            _set(dependency, "client", client)
            _set(dependency, "supplier", supplier)

    def apply_stereotypes(self, root: XmlElement) -> None:
        for child in root.element_children:
            if not child.tag.startswith("upcc:"):
                continue
            stereotype = child.tag[len("upcc:"):]
            base_ref = child.attributes.get("base")
            element = self.by_id.get(base_ref or "")
            if element is None:
                self.issue(
                    "dangling-stereotype-base",
                    f"stereotype application <<{stereotype}>> references unknown id {base_ref!r}",
                    node=child,
                    xmi_id=base_ref,
                )
                continue
            tags = {
                name: value
                for name, value in child.attributes.items()
                if name not in ("base",) and not name.startswith("xmi:")
            }
            element.stereotype_applications.setdefault(stereotype, {}).update(tags)


_log = get_logger("repro.xmi")


def _load_document(
    root: XmlElement,
    strict: bool,
    max_elements: int,
    max_depth: int,
) -> tuple[Model | None, list[LoadIssue]]:
    """Load one parsed document; (model, issues).  Strict mode raises."""
    if root.tag != "xmi:XMI":
        fatal = LoadIssue(
            "document", f"expected an xmi:XMI root, got {root.tag!r}", source=_located(root)
        )
        if strict:
            raise XmiError(fatal.message, line=fatal.line, column=fatal.column)
        counter("xmi.load_issues", kind=fatal.kind).inc()
        return None, [fatal]
    model_node = root.find("uml:Model")
    if model_node is None:
        fatal = LoadIssue("document", "document contains no uml:Model", source=_located(root))
        if strict:
            raise XmiError(fatal.message, line=fatal.line, column=fatal.column)
        counter("xmi.load_issues", kind=fatal.kind).inc()
        return None, [fatal]
    with span("xmi.load") as load_span:
        loader = _Loader(strict=strict, max_elements=max_elements, max_depth=max_depth)
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


def model_from_xmi(root: XmlElement) -> Model:
    """Load a model from a parsed ``xmi:XMI`` element tree (strict mode)."""
    model, _ = _load_document(
        root, strict=True, max_elements=DEFAULT_MAX_ELEMENTS, max_depth=DEFAULT_MAX_DEPTH
    )
    assert model is not None  # strict mode raises instead
    return model


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
            root = parse_xml(text)
        except (ET.ParseError, ValueError) as error:
            if strict:
                raise
            position = getattr(error, "position", None)
            located = SourceLocation(*position) if position else None
            counter("xmi.load_issues", kind="xml-syntax").inc()
            return LoadResult(
                None, [LoadIssue("xml-syntax", f"not well-formed XML: {error}", source=located)]
            )
        model, issues = _load_document(root, strict, max_elements, max_depth)
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
