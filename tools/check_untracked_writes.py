#!/usr/bin/env python
"""Lint: no untracked writes outside the model layer and the XMI reader.

``repro.uml.Element.__setattr__`` is a write barrier: a tracked write moves
the version of the element's model, and every cache of that model keys on
its version.  Construction writes go past the barrier; they are only safe
on elements no cache can hold yet, which is why only ``src/repro/uml/``
(the element constructors) and ``src/repro/xmi/reader.py`` (which builds
whole models, then stamps them once) may make them.  Anywhere else in
``src/repro`` this check fails on:

* ``object.__setattr__`` -- called or merely referenced (an alias would
  bypass the check otherwise);
* a ``__dict__`` write -- assigning ``x.__dict__``, storing or deleting an
  item of ``x.__dict__`` or ``vars(x)``, or calling a mutating dict method
  on them;
* importing ``_set``, the construction-write helper, from
  ``repro.uml.elements``.

The one exception outside those files is the hash slot of the frozen
``QName`` (``object.__setattr__(self, "_hash", ...)`` in
``xmlutil/qname.py``).  The check is AST-based; mentions in docstrings and
comments are fine.  Run directly::

    python tools/check_untracked_writes.py

or via the test suite (``tests/test_untracked_writes.py``).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: Files (relative to src/repro, posix-style) allowed untracked writes.
ALLOWED_FILES = {"xmi/reader.py"}
#: Directories (relative to src/repro) allowed untracked writes.
ALLOWED_DIRS = ("uml/",)
#: ``(file, attribute)`` pairs allowed one ``object.__setattr__`` each.
ALLOWED_SLOTS = {("xmlutil/qname.py", "_hash")}

_DICT_MUTATORS = {"update", "setdefault", "pop", "popitem", "clear", "__setitem__", "__delitem__"}


def _allowed(relative: str) -> bool:
    return relative in ALLOWED_FILES or relative.startswith(ALLOWED_DIRS)


def _is_object_setattr(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "__setattr__"
        and isinstance(node.value, ast.Name)
        and node.value.id == "object"
    )


def _is_instance_dict(node: ast.AST) -> bool:
    """True for ``x.__dict__`` and ``vars(x)``."""
    if isinstance(node, ast.Attribute):
        return node.attr == "__dict__"
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "vars"
        and bool(node.args)
    )


def _targets(node: ast.AST) -> list[ast.AST]:
    if isinstance(node, ast.Assign):
        return list(node.targets)
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return [node.target]
    if isinstance(node, ast.Delete):
        return list(node.targets)
    return []


def _violation_lines(tree: ast.AST, relative: str) -> list[int]:
    exempt: set[int] = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and _is_object_setattr(node.func)
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and (relative, node.args[1].value) in ALLOWED_SLOTS
        ):
            exempt.add(id(node.func))
    lines: list[int] = []
    for node in ast.walk(tree):
        if _is_object_setattr(node) and id(node) not in exempt:
            lines.append(node.lineno)
        for target in _targets(node):
            if (isinstance(target, ast.Attribute) and target.attr == "__dict__") or (
                isinstance(target, ast.Subscript) and _is_instance_dict(target.value)
            ):
                lines.append(target.lineno)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _DICT_MUTATORS
            and _is_instance_dict(node.func.value)
        ):
            lines.append(node.lineno)
        if (
            isinstance(node, ast.ImportFrom)
            and node.module == "repro.uml.elements"
            and any(alias.name == "_set" for alias in node.names)
        ):
            lines.append(node.lineno)
    return sorted(set(lines))


def find_violations(package_root: Path) -> list[str]:
    """All untracked write sites as ``path:line`` strings."""
    violations: list[str] = []
    for path in sorted(package_root.rglob("*.py")):
        relative = path.relative_to(package_root).as_posix()
        if _allowed(relative):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        violations.extend(f"{relative}:{line}" for line in _violation_lines(tree, relative))
    return violations


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns 0 when clean, 1 when violations exist."""
    arguments = argv if argv is not None else sys.argv[1:]
    if arguments:
        package_root = Path(arguments[0])
    else:
        package_root = Path(__file__).resolve().parent.parent / "src" / "repro"
    violations = find_violations(package_root)
    if violations:
        print("untracked writes found; assign through the element (or add to uml/):")
        for violation in violations:
            print(f"  {violation}")
        return 1
    print("OK: no untracked writes outside uml/ and xmi/reader.py in src/repro")
    return 0


if __name__ == "__main__":
    sys.exit(main())
