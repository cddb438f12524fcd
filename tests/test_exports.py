"""The package exports only what something beyond its own unit tests uses, and the command line
fails with one exception type per exit code."""

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


def test_cli_raises_only_its_two_failure_types():
    """``main`` maps UsageError to exit 2 and InfodistError to exit 1. Any other raise in cli.py
    must be argparse's ArgumentTypeError, which argparse turns into its own exit 2, or a private
    exception that cli.py catches itself."""
    nodes = list(ast.walk(ast.parse((ROOT / "src" / "infodist" / "cli.py").read_text(encoding="utf-8"))))
    caught = {n.id for h in nodes if isinstance(h, ast.ExceptHandler) and h.type for n in ast.walk(h.type)
              if isinstance(n, ast.Name)}  # fmt: skip
    raised = set()
    for node in nodes:
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            raised.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    others = {name for name in raised - {"UsageError", "InfodistError", "ArgumentTypeError"}
              if not (name and name.startswith("_") and name in caught)}  # fmt: skip
    assert others == set()
    assert {"UsageError", "InfodistError"} <= raised


def test_every_export_has_a_user():
    exports = {name for name, value in vars(qd).items() if not name.startswith("_") and not inspect.ismodule(value)}
    used = set().union(*map(_names_used, USERS))
    assert sorted(exports - used) == []
