"""Tier-1 lint: writes that skip the model's write barrier stay contained.

Only ``src/repro/uml/`` and ``src/repro/xmi/reader.py`` may write element
fields past ``Element.__setattr__`` (``object.__setattr__``, ``__dict__``);
see ``tools/check_untracked_writes.py``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _checker():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import check_untracked_writes
    finally:
        sys.path.pop(0)
    return check_untracked_writes


def test_no_untracked_writes_in_library_code():
    checker = _checker()
    violations = checker.find_violations(ROOT / "src" / "repro")
    assert violations == [], (
        "untracked writes outside uml/ and xmi/reader.py: " + ", ".join(violations)
    )


def test_model_layer_and_reader_are_exempt():
    checker = _checker()
    assert checker._allowed("uml/elements.py")
    assert checker._allowed("xmi/reader.py")
    assert not checker._allowed("xmi/ids.py")
    assert not checker._allowed("console/maintenance.py")


def test_checker_flags_planted_writes(tmp_path):
    checker = _checker()
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "bad.py").write_text(
        "def f(x, y):\n"
        "    object.__setattr__(x, 'name', 1)\n"
        "    x.__dict__['name'] = 2\n"
        "    x.__dict__.update(name=3)\n"
        "    vars(x)['name'] = 4\n"
        "    y.__dict__ = {}\n"
        "    alias = object.__setattr__\n"
        "from repro.uml.elements import _set\n",
        encoding="utf-8",
    )
    (package / "fine.py").write_text(
        '"""object.__setattr__ and x.__dict__[k] = v in a docstring are fine."""\n'
        "def g(x):\n"
        "    x.name = 1\n"
        "    return x.__dict__.get('name'), dict(vars(x))\n",
        encoding="utf-8",
    )
    assert checker.find_violations(package) == [f"bad.py:{line}" for line in range(2, 9)]


def test_only_the_qname_hash_slot_is_excepted(tmp_path):
    checker = _checker()
    package = tmp_path / "pkg"
    (package / "xmlutil").mkdir(parents=True)
    (package / "xmlutil" / "qname.py").write_text(
        "def f(self):\n"
        "    object.__setattr__(self, '_hash', 1)\n"
        "    object.__setattr__(self, 'local', 2)\n",
        encoding="utf-8",
    )
    assert checker.find_violations(package) == ["xmlutil/qname.py:3"]


def test_main_exit_codes(tmp_path, capsys):
    checker = _checker()
    clean = tmp_path / "clean"
    clean.mkdir()
    (clean / "ok.py").write_text("x = 1\n", encoding="utf-8")
    assert checker.main([str(clean)]) == 0
    dirty = tmp_path / "dirty"
    dirty.mkdir()
    (dirty / "bad.py").write_text("object.__setattr__(1, 'a', 2)\n", encoding="utf-8")
    assert checker.main([str(dirty)]) == 1
    assert "bad.py:1" in capsys.readouterr().out
