"""The package keeps zero runtime dependencies.

Every module of ``src/omniscio`` imports only the package itself and the
standard library, and ``pyproject.toml`` declares ``dependencies = []``.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "omniscio"


def imported_modules(path):
    """(line, top-level module) for every import in the file; relative
    imports read as the package itself."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                yield node.lineno, "omniscio"
            else:
                yield node.lineno, node.module.partition(".")[0]


def test_package_imports_only_itself_and_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    outside = [
        f"{path.name}:{line}: {name}"
        for path in modules
        for line, name in imported_modules(path)
        if name != "omniscio" and name not in sys.stdlib_module_names
    ]
    assert outside == []


def test_pyproject_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    assert project["dependencies"] == []
