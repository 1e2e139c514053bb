"""The top-level entry point: a core-components model.

:class:`CctsModel` owns a :class:`repro.uml.Model` root, creates business
libraries, and exposes whole-model queries used by the generator, the
validation engine, the registry and the CLI.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.ccts.bie import Abie
from repro.ccts.core_components import Acc
from repro.ccts.data_types import CoreDataType, QualifiedDataType
from repro.ccts.libraries import (
    BieLibrary,
    BusinessLibrary,
    CcLibrary,
    CdtLibrary,
    DocLibrary,
    EnumLibrary,
    Library,
    PrimLibrary,
    QdtLibrary,
    library_wrapper_for,
)
from repro.errors import CctsError
from repro.obs.metrics import counter
from repro.profile import (
    ABIE,
    ACC,
    BUSINESS_LIBRARY,
    CDT,
    QDT,
    TAG_BASE_URN,
    UPCC,
)
from repro.uml.classifier import Class, DataType
from repro.uml.elements import Element
from repro.uml.model import Model
from repro.uml.package import Package

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.validation.diagnostics import ValidationReport


#: Keys of this module's entries in ``Model.derived()``.
_LIBRARIES = "ccts.libraries"
_LIBRARIES_BY_QUALIFIED_NAME = "ccts.libraries_by_qualified_name"
_BASIC_REPORT = "ccts.basic_report"


class CctsModel:
    """A core-components model: the root object users interact with."""

    def __init__(self, name: str = "Model", model: Model | None = None) -> None:
        self.model = model if model is not None else Model(name)
        self.profile = UPCC

    @property
    def name(self) -> str:
        """The model name."""
        return self.model.name

    # -- construction ------------------------------------------------------------

    def add_business_library(self, name: str, base_urn: str = "", **tags: str) -> BusinessLibrary:
        """Create a top-level business library."""
        tags.setdefault(TAG_BASE_URN, base_urn or f"urn:{name.lower()}")
        package = self.model.add_package(name, stereotype=BUSINESS_LIBRARY, **tags)
        return BusinessLibrary(package, self.model)

    # -- library queries ------------------------------------------------------------

    def business_libraries(self) -> list[BusinessLibrary]:
        """All top-level business libraries."""
        return [
            BusinessLibrary(package, self.model)
            for package in self.model.packages
            if package.has_stereotype(BUSINESS_LIBRARY)
        ]

    def libraries(self) -> list[Library]:
        """Every stereotyped library anywhere in the model.

        The scan is memoized in :meth:`Model.derived
        <repro.uml.model.Model.derived>`, so repeated lookups on a model
        whose version has not moved reuse the wrapper list.
        """
        memo = self.model.derived()
        found = memo.get(_LIBRARIES)
        if found is None:
            found = memo[_LIBRARIES] = [
                wrapper
                for package in self.model.all_of_type(Package)
                if (wrapper := library_wrapper_for(package, self.model)) is not None
            ]
        return list(found)

    def basic_validation_report(self) -> ValidationReport:
        """The report of the basic UPCC rules on the model as it is now.

        Memoized on the model's version like :meth:`libraries`: rules only
        read the model, so while no element has changed they find the same
        things.  The report is kept whatever its outcome and shared between
        callers, who must not modify it; ``validation.memo_hits`` counts the
        reuses.
        """
        from repro.validation.engine import validate_model

        memo = self.model.derived()
        report = memo.get(_BASIC_REPORT)
        if report is not None:
            counter("validation.memo_hits").inc()
            return report
        report = memo[_BASIC_REPORT] = validate_model(self, basic_only=True)
        return report

    def _libraries_of(self, wrapper_type: type) -> list:
        return [library for library in self.libraries() if type(library) is wrapper_type]

    def cdt_libraries(self) -> list[CdtLibrary]:
        """All CDT libraries."""
        return self._libraries_of(CdtLibrary)

    def qdt_libraries(self) -> list[QdtLibrary]:
        """All QDT libraries."""
        return self._libraries_of(QdtLibrary)

    def cc_libraries(self) -> list[CcLibrary]:
        """All CC libraries."""
        return self._libraries_of(CcLibrary)

    def bie_libraries(self) -> list[BieLibrary]:
        """All BIE libraries (excluding DOC libraries)."""
        return self._libraries_of(BieLibrary)

    def doc_libraries(self) -> list[DocLibrary]:
        """All DOC libraries."""
        return self._libraries_of(DocLibrary)

    def enum_libraries(self) -> list[EnumLibrary]:
        """All ENUM libraries."""
        return self._libraries_of(EnumLibrary)

    def prim_libraries(self) -> list[PrimLibrary]:
        """All PRIM libraries."""
        return self._libraries_of(PrimLibrary)

    def library_named(self, name: str) -> Library:
        """The library called ``name`` anywhere in the model."""
        for library in self.libraries():
            if library.name == name:
                return library
        raise CctsError(f"model {self.name!r} contains no library named {name!r}")

    def library_by_qualified_name(self, qualified_name: str) -> Library | None:
        """The library whose qualified name is ``qualified_name`` (the first
        in model order should two share it), or None."""
        memo = self.model.derived()
        found = memo.get(_LIBRARIES_BY_QUALIFIED_NAME)
        if found is None:
            found = memo[_LIBRARIES_BY_QUALIFIED_NAME] = {}
            for library in self.libraries():
                found.setdefault(library.qualified_name, library)
        return found.get(qualified_name)

    # -- element queries ---------------------------------------------------------------

    def accs(self) -> list[Acc]:
        """Every ACC in the model."""
        return [
            Acc(element, self.model)
            for element in self.model.all_with_stereotype(ACC)
            if isinstance(element, Class)
        ]

    def abies(self) -> list[Abie]:
        """Every ABIE in the model."""
        return [
            Abie(element, self.model)
            for element in self.model.all_with_stereotype(ABIE)
            if isinstance(element, Class)
        ]

    def cdts(self) -> list[CoreDataType]:
        """Every CDT in the model."""
        return [
            CoreDataType(element, self.model)
            for element in self.model.all_with_stereotype(CDT)
            if isinstance(element, DataType)
        ]

    def qdts(self) -> list[QualifiedDataType]:
        """Every QDT in the model."""
        return [
            QualifiedDataType(element, self.model)
            for element in self.model.all_with_stereotype(QDT)
            if isinstance(element, DataType)
        ]

    def acc(self, name: str) -> Acc:
        """The ACC called ``name``."""
        for acc in self.accs():
            if acc.name == name:
                return acc
        raise CctsError(f"model {self.name!r} contains no ACC {name!r}")

    def abie(self, name: str) -> Abie:
        """The ABIE called ``name``."""
        for abie in self.abies():
            if abie.name == name:
                return abie
        raise CctsError(f"model {self.name!r} contains no ABIE {name!r}")

    def owning_library_of(self, element: Element) -> Library | None:
        """The library whose package owns ``element``, if any.

        This is how the generator decides which schema defines a type: the
        *owning* package, not the diagram it is drawn in (paper section 3:
        "Code is originally defined in package 4 and has only been drawn in
        package 3").
        """
        package = self.model.owning_package_of(element)
        while package is not None:
            library = library_wrapper_for(package, self.model)
            if library is not None:
                return library
            owner = package.owner
            package = owner if isinstance(owner, Package) else None
        return None

    # -- profile validation hook ----------------------------------------------------------

    def profile_problems(self) -> list[str]:
        """Every stereotype-application problem in the model."""
        problems: list[str] = []
        for element in self.model.all_elements():
            for problem in self.profile.check_element(element):
                label = getattr(element, "qualified_name", repr(element))
                problems.append(f"{label}: {problem}")
        return problems
