"""The package exports only what something beyond its own unit tests uses, defines only exception
types that something beyond them catches, and the command line fails with one exception type per
exit code."""

import ast
import importlib
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


def _names_caught(path):
    """Every name that an ``except`` clause of the file's code lists, as a name or an attribute."""
    handlers = [n.type for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))) if isinstance(n, ast.ExceptHandler)]
    nodes = [n for h in handlers if h for n in ast.walk(h)]
    return {n.id for n in nodes if isinstance(n, ast.Name)} | {n.attr for n in nodes if isinstance(n, ast.Attribute)}


def test_cli_raises_only_its_two_failure_types():
    """``main`` maps UsageError to exit 2 and InfodistError to exit 1. Any other raise in cli.py
    must be argparse's ArgumentTypeError, which argparse turns into its own exit 2, or a private
    exception that cli.py catches itself."""
    cli = ROOT / "src" / "infodist" / "cli.py"
    nodes = list(ast.walk(ast.parse(cli.read_text(encoding="utf-8"))))
    caught = _names_caught(cli)
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


def test_every_exception_type_is_caught_by_name():
    """A type that nothing beyond the unit tests tells apart from its base is one ``raise`` of the
    base with the same message."""
    defined = set()
    for path in (ROOT / "src" / "infodist").glob("*.py"):
        module = importlib.import_module(f"infodist.{path.stem}" if path.stem != "__init__" else "infodist")
        defined |= {name for name, value in vars(module).items()
                    if inspect.isclass(value) and issubclass(value, BaseException) and value.__module__ == module.__name__}  # fmt: skip
    caught = set().union(*map(_names_caught, USERS))
    assert {"InfodistError", "UsageError", "_Overflow"} <= defined
    assert sorted(defined - caught) == []


def test_no_module_imports_a_private_name_of_another():
    """A name that starts with an underscore belongs to its module: a sibling that needs it gets a
    public entry point instead, so each concept keeps one implementation behind one module."""
    borrowed = []
    for path in sorted((ROOT / "src" / "infodist").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("infodist")):
                borrowed += [f"{path.name}: {node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
    assert borrowed == []


def test_one_ginibre_qr_sampler():
    """Haar unitaries and random isometries both come from ``linalg._orthonormal_columns``: no
    module calls LAPACK's QR, by attribute or by a name imported from ``numpy.linalg``."""
    calls = []
    for path in sorted((ROOT / "src" / "infodist").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "qr":
                calls.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg") and "qr" in {a.name for a in node.names}:
                calls.append(f"{path.name}:{node.lineno}: from {node.module} import qr")
    assert calls == []


def test_no_module_imports_dataclasses():
    """The record types are named tuples and ``__slots__`` classes: ``@dataclass`` generates and
    ``exec``s its methods when the module is imported, in every new CLI process."""
    imports = []
    for path in sorted((ROOT / "src" / "infodist").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            imports += [f"{path.name}:{node.lineno}: {name}" for name in names if name.split(".")[0] == "dataclasses"]
    assert imports == []


def test_no_small_float_literal_outside_config():
    """Thresholds are named and documented in ``config``: no other module's code holds a nonzero
    float literal below 1e-6 (a bare 1e-300 row-sum floor once sat in ``information``)."""
    literals = []
    for path in sorted((ROOT / "src" / "infodist").glob("*.py")):
        if path.name == "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and type(node.value) is float and 0 < abs(node.value) < 1e-6:
                literals.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert literals == []
