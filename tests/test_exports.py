"""The package exports only what something beyond its own unit tests uses."""

import ast
import inspect
from pathlib import Path

import infodist as qd

ROOT = Path(__file__).resolve().parents[1]
USERS = [
    *(p for p in (ROOT / "src" / "infodist").glob("*.py") if p.name != "__init__.py"),
    *(ROOT / "demos").glob("*.py"),
    *(ROOT / "perfbench").glob("*.py"),
    ROOT / "tests" / "test_acceptance.py",
    ROOT / "tests" / "test_theorems.py",
]


def _names_used(path):
    """Every whole identifier the file's code reads, as a name or an attribute. Strings, comments,
    imports and the names given by ``def`` and ``class`` do not count: a definition is not a use."""
    nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
    return {n.id for n in nodes if isinstance(n, ast.Name)} | {n.attr for n in nodes if isinstance(n, ast.Attribute)}


def test_every_export_has_a_user():
    exports = {name for name, value in vars(qd).items() if not name.startswith("_") and not inspect.ismodule(value)}
    used = set().union(*map(_names_used, USERS))
    assert sorted(exports - used) == []
