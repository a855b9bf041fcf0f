"""The package imports nothing but the standard library and numpy."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fourierdg"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def imported_roots(tree: ast.AST) -> list[str]:
    """Top-level module names of every absolute import in ``tree``."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.append(node.module.split(".")[0])
    return roots


def test_package_sources_found():
    assert (PACKAGE / "__init__.py").is_file()


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_relative(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    foreign = sorted(set(imported_roots(tree)) - ALLOWED)
    assert not foreign, f"{path.name} imports {foreign}"


def test_guard_flags_a_third_party_import():
    tree = ast.parse("import numpy as np\nfrom scipy import linalg\nfrom . import data\n")
    assert sorted(set(imported_roots(tree)) - ALLOWED) == ["scipy"]
