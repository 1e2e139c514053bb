"""Library maintenance operations with integrity checks.

Because the model uses object identity for every reference (attribute
types, association ends, dependencies), renames and moves never leave
dangling references -- the checks here guard the *naming* invariants
(uniqueness per library, NDR viability) instead.
"""

from __future__ import annotations

from repro.ccts.base import ElementWrapper
from repro.ccts.libraries import Library
from repro.ccts.model import CctsModel
from repro.errors import CctsError, NamingError
from repro.ndr.names import sanitize_ncname
from repro.profile import TAG_BASE_URN, TAG_VERSION
from repro.uml.classifier import Classifier
from repro.uml.package import Package
from repro.uml.property import Property


def update_base_urns(model: CctsModel, old_base: str, new_base: str) -> list[str]:
    """Replace ``old_base`` with ``new_base`` in every library's baseURN.

    Returns the names of the libraries that changed -- the paper's
    "updating all namespaces" amenity.
    """
    changed: list[str] = []
    for library in model.libraries():
        current = library.element.tagged_value(library.stereotype, TAG_BASE_URN)
        if current is not None and current.startswith(old_base):
            library.element.set_tagged_value(
                library.stereotype, TAG_BASE_URN, new_base + current[len(old_base):]
            )
            changed.append(library.name)
    return changed


def bump_version(library: Library, new_version: str) -> str:
    """Set a library's version tag; returns the previous version."""
    previous = library.library_version
    library.element.set_tagged_value(library.stereotype, TAG_VERSION, new_version)
    return previous


def rename_classifier(model: CctsModel, wrapper: ElementWrapper, new_name: str) -> None:
    """Rename a classifier, enforcing NDR viability and library uniqueness.

    Object-identity references keep every type reference, association end
    and basedOn dependency intact across the rename.
    """
    try:
        sanitize_ncname(new_name)
    except NamingError as error:
        raise CctsError(f"cannot rename to {new_name!r}: {error}") from error
    owner = wrapper.element.owner
    if isinstance(owner, Package) and any(
        sibling.name == new_name and sibling is not wrapper.element
        for sibling in owner.classifiers
    ):
        raise CctsError(
            f"cannot rename {wrapper.name!r} to {new_name!r}: the name is taken in "
            f"package {owner.name!r}"
        )
    wrapper.element.name = new_name


def move_classifier(model: CctsModel, wrapper: ElementWrapper, target: Library) -> None:
    """Move a classifier into another library of a compatible kind."""
    from repro.validation.rules.libraries import _ALLOWED_CONTENT

    allowed = _ALLOWED_CONTENT.get(target.stereotype)
    stereotypes = set(wrapper.element.stereotypes)
    if allowed is not None and stereotypes and not (stereotypes & allowed):
        raise CctsError(
            f"cannot move {'/'.join(sorted(stereotypes))} {wrapper.name!r} into "
            f"{target.stereotype} {target.name!r}"
        )
    if target.package.find_classifier(wrapper.name) is not None:
        raise CctsError(
            f"cannot move {wrapper.name!r}: {target.name!r} already defines that name"
        )
    source = wrapper.element.owner
    if not isinstance(source, Package):
        raise CctsError(f"{wrapper.name!r} is not owned by a package")
    source.classifiers.remove(wrapper.element)
    wrapper.element.owner = target.package
    target.package.classifiers.append(wrapper.element)


def find_unused(model: CctsModel) -> dict[str, list[str]]:
    """Elements nothing references: candidates for library cleanup.

    Returns qualified names grouped by kind ("CDT", "QDT", "ENUM", "ACC").
    An ACC counts as used when any ABIE is based on it or any ASCC targets
    it; a data type counts as used when any attribute is typed by it; an
    enumeration when any CON/SUP uses it.
    """
    used_types: set[int] = set()
    for prop in model.model.all_of_type(Property):
        if prop.type is not None:
            used_types.add(id(prop.type))
    used_accs: set[int] = set()
    for abie in model.abies():
        base = abie.based_on
        if base is not None:
            used_accs.add(id(base.element))
    for acc in model.accs():
        for ascc in acc.asccs:
            used_accs.add(id(ascc.target.element))
    for qdt in model.qdts():
        base = qdt.based_on
        if base is not None:
            used_types.add(id(base.element))

    unused: dict[str, list[str]] = {"CDT": [], "QDT": [], "ENUM": [], "ACC": []}
    for cdt in model.cdts():
        if id(cdt.element) not in used_types:
            unused["CDT"].append(cdt.qualified_name)
    for qdt in model.qdts():
        if id(qdt.element) not in used_types:
            unused["QDT"].append(qdt.qualified_name)
    for element in model.model.all_with_stereotype("ENUM"):
        if isinstance(element, Classifier) and id(element) not in used_types:
            unused["ENUM"].append(element.qualified_name)
    for acc in model.accs():
        if id(acc.element) not in used_accs:
            unused["ACC"].append(acc.qualified_name)
    return unused


def impact_of(model: CctsModel, wrapper: ElementWrapper) -> list[str]:
    """Libraries whose generated schema changes when ``wrapper`` changes.

    Walks the reverse dependency closure: direct users (typed attributes,
    association targets, basedOn clients) and then the libraries owning
    them, transitively -- the question behind the paper's complaint that
    "interdependencies between CDTs, QDTs etc. blur".
    """
    target_ids = {id(wrapper.element)}
    affected_libraries: set[str] = set()
    owner_library = model.owning_library_of(wrapper.element)
    if owner_library is not None:
        affected_libraries.add(owner_library.name)

    changed = True
    while changed:
        changed = False
        for prop in model.model.all_of_type(Property):
            if prop.type is not None and id(prop.type) in target_ids:
                classifier = prop.owner
                if classifier is not None and id(classifier) not in target_ids:
                    target_ids.add(id(classifier))
                    changed = True
        from repro.uml.association import Association
        from repro.uml.dependency import Dependency

        for association in model.model.all_of_type(Association):
            if id(association.target.type) in target_ids and id(association.source.type) not in target_ids:
                target_ids.add(id(association.source.type))
                changed = True
        for dependency in model.model.all_of_type(Dependency):
            if id(dependency.supplier) in target_ids and id(dependency.client) not in target_ids:
                target_ids.add(id(dependency.client))
                changed = True

    for classifier in model.model.all_of_type(Classifier):
        if id(classifier) in target_ids:
            package = model.model.owning_package_of(classifier)
            while package is not None:
                from repro.ccts.libraries import library_wrapper_for

                library = library_wrapper_for(package, model.model)
                if library is not None and library.stereotype != "BusinessLibrary":
                    affected_libraries.add(library.name)
                    break
                owner = package.owner
                package = owner if isinstance(owner, Package) else None
    return sorted(affected_libraries)
