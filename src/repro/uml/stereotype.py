"""Profile machinery: stereotype definitions, tag definitions, profiles.

A :class:`Profile` is a catalog of :class:`StereotypeDef` objects grouped in
named profile packages, mirroring Figure 3 of the paper (Management,
DataTypes, Common).  Definitions constrain *which metaclasses* a stereotype
may extend and *which tags* it may carry; :meth:`Profile.check_application`
enforces both, which is how the validation engine detects profile misuse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ProfileError
from repro.uml.elements import Element


@dataclass(frozen=True)
class TagDef:
    """Definition of one tagged value: name, requiredness, default."""

    name: str
    required: bool = False
    default: str | None = None
    description: str = ""


@dataclass
class StereotypeDef:
    """Definition of a stereotype: its name, metaclasses and tags.

    ``metaclasses`` holds class *names* from the UML kernel ("Package",
    "Class", "Property", "Association", "Dependency", "Enumeration",
    "DataType", "PrimitiveType"); an element matches when any name in its
    MRO matches.
    """

    name: str
    metaclasses: tuple[str, ...]
    tags: tuple[TagDef, ...] = ()
    description: str = ""
    abstract: bool = False

    def tag(self, name: str) -> TagDef | None:
        """The tag definition called ``name``, or None."""
        for tag_def in self.tags:
            if tag_def.name == name:
                return tag_def
        return None

    def extends(self, element: Element) -> bool:
        """True when this stereotype may be applied to ``element``."""
        mro_names = {cls.__name__ for cls in type(element).__mro__}
        return any(metaclass in mro_names for metaclass in self.metaclasses)


@dataclass
class Profile:
    """A named profile: packages of stereotype definitions.

    Lookups and checks read two tables compiled from the definitions: a
    name -> definition dict for :meth:`find`, and the problems of each
    ``(element type, stereotype, applied tag names)`` application for
    :meth:`check_element`.  Both depend only on the profile and are
    dropped by :meth:`add`, so a profile edited later is checked afresh.
    """

    name: str
    packages: dict[str, list[StereotypeDef]] = field(default_factory=dict)
    _definitions: dict[str, StereotypeDef] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _checks: dict[tuple[type, str, tuple[str, ...]], tuple[str, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def add(self, package: str, stereotype: StereotypeDef) -> StereotypeDef:
        """Register a stereotype definition under a profile package."""
        existing = self.find(stereotype.name)
        if existing is not None:
            raise ProfileError(f"stereotype {stereotype.name!r} already defined in profile {self.name!r}")
        self.packages.setdefault(package, []).append(stereotype)
        self._definitions = None
        self._checks = {}
        return stereotype

    def find(self, name: str) -> StereotypeDef | None:
        """Look up a stereotype definition by name across all packages."""
        definitions = self._definitions
        if definitions is None:
            definitions = {}
            for stereotypes in self.packages.values():
                for stereotype in stereotypes:
                    definitions.setdefault(stereotype.name, stereotype)
            self._definitions = definitions
        return definitions.get(name)

    def get(self, name: str) -> StereotypeDef:
        """Like :meth:`find` but raises :class:`ProfileError` when missing."""
        stereotype = self.find(name)
        if stereotype is None:
            raise ProfileError(f"profile {self.name!r} defines no stereotype {name!r}")
        return stereotype

    def stereotype_names(self, package: str | None = None) -> list[str]:
        """All stereotype names, optionally limited to one profile package."""
        if package is not None:
            return [s.name for s in self.packages.get(package, [])]
        return [s.name for defs in self.packages.values() for s in defs]

    def check_application(self, element: Element, stereotype_name: str) -> list[str]:
        """Validate one stereotype application; returns problem strings.

        Checks that the stereotype exists, is not abstract, extends the
        element's metaclass, that every applied tag is defined and that
        every required tag is present.
        """
        problems: list[str] = []
        definition = self.find(stereotype_name)
        if definition is None:
            return [f"unknown stereotype <<{stereotype_name}>>"]
        if definition.abstract:
            problems.append(f"stereotype <<{stereotype_name}>> is abstract and cannot be applied directly")
        if not definition.extends(element):
            problems.append(
                f"stereotype <<{stereotype_name}>> extends {'/'.join(definition.metaclasses)}, "
                f"not {type(element).__name__}"
            )
        applied_tags = element.stereotype_applications.get(stereotype_name, {})
        for tag_name in applied_tags:
            if definition.tag(tag_name) is None:
                problems.append(f"<<{stereotype_name}>> defines no tagged value {tag_name!r}")
        for tag_def in definition.tags:
            if tag_def.required and tag_def.name not in applied_tags and tag_def.default is None:
                problems.append(
                    f"<<{stereotype_name}>> requires tagged value {tag_def.name!r} which is missing"
                )
        return problems

    def check_element(self, element: Element) -> list[str]:
        """Validate every stereotype application on ``element``.

        An application's problems depend only on the element's type, the
        stereotype and the applied tag names, so each such triple is
        checked once per profile edit.
        """
        problems: list[str] = []
        checks = self._checks
        element_type = type(element)
        for stereotype_name, tags in element.stereotype_applications.items():
            key = (element_type, stereotype_name, tuple(tags))
            found = checks.get(key)
            if found is None:
                found = checks[key] = tuple(self.check_application(element, stereotype_name))
            problems.extend(found)
        return problems
