"""Package-wide guards: the runtime imports only the standard library and
numpy, every exported name exists, and every module is one the CLI
loads."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "panelcast"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def _absolute_imports(tree):
    """Top-level names of every absolute import in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_runtime_imports_only_stdlib_and_numpy(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    # The builtin SHA-256 module is _sha2 on 3.12+ and _sha256 before, and
    # sys.stdlib_module_names lists only the running interpreter's own.
    allowed = set(sys.stdlib_module_names) | {"numpy", "_sha2", "_sha256"}
    assert sorted(set(_absolute_imports(tree)) - allowed) == []


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    module = importlib.import_module(f"panelcast.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


def test_cli_loads_every_module():
    # A module the CLI never imports is reached only from tests; it belongs
    # in tests/. Checked in a fresh interpreter so the test session's own
    # imports do not count.
    code = (
        "import sys, panelcast.cli; "
        "print(' '.join(sorted(m.split('.', 1)[1] for m in sys.modules "
        "if m.startswith('panelcast.'))))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert sorted(set(MODULES) - set(out.split())) == []


def _defined(stmt):
    """Names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def _referenced(stmt):
    """Names a statement reads, imports or looks up as an attribute."""
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_exports_used_by_engine():
    # An exported name that no engine code refers to, apart from its own
    # definition, is reached only from tests; it belongs in tests/ or goes.
    exports, users = {}, {}
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = _defined(stmt)
            if "__all__" in own:
                exports[path.stem] = ast.literal_eval(stmt.value)
                continue
            for name in _referenced(stmt):
                users.setdefault(name, []).append((path.stem, own))
    unused = [
        f"{module}.{name}"
        for module, names in sorted(exports.items())
        for name in names
        if all(user == module and name in own for user, own in users.get(name, []))
    ]
    assert unused == []
