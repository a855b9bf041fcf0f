"""The package imports nothing but the standard library and numpy, reads
no environment variable, and raises only the documented error kinds."""

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


MODULES = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]


def parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def unused_imports(tree: ast.AST) -> list[str]:
    """Names bound by an import in ``tree`` that ``tree`` never reads."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(bound - read)


def referenced_names(trees) -> set[str]:
    """Every name that one of ``trees`` reads, imports or reaches as an
    attribute."""
    referenced = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return referenced


def unreferenced_definitions(trees: dict, exported: set) -> list[str]:
    """Module-level functions and classes that no module of ``trees`` reads,
    imports or reaches as an attribute, and that are not ``exported``."""
    referenced = referenced_names(trees.values()) | set(exported)
    return sorted(
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in referenced
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    unused = unused_imports(parse(path))
    assert not unused, f"{path.name} imports {unused} without using them"


def test_guard_flags_an_unused_import():
    tree = ast.parse("import os\nimport numpy as np\nfrom .data import a, b\nnp.zeros(a)\n")
    assert unused_imports(tree) == ["b", "os"]


def test_every_definition_is_referenced_or_exported():
    import fourierdg

    trees = {p.stem: parse(p) for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_definitions(trees, set(fourierdg.__all__)) == []


def test_guard_flags_an_unreferenced_definition():
    trees = {
        "a": ast.parse("def used(): pass\ndef dead(): pass\nclass Kept: pass\n"),
        "b": ast.parse("from .a import used\nused()\n"),
    }
    assert unreferenced_definitions(trees, {"Kept"}) == ["a.dead"]


def unread_exports(exported, trees) -> list[str]:
    """Names of ``exported`` that none of ``trees`` reads, imports or
    reaches as an attribute."""
    return sorted(set(exported) - referenced_names(trees))


def test_every_export_is_read():
    # the package's modules, the demos and the benchmark harness (read only);
    # __init__ is left out, since it imports every exported name
    import fourierdg

    repo = PACKAGE.parent.parent
    paths = MODULES + sorted((repo / "demos").glob("*.py")) + sorted(
        (repo / "perfbench").glob("*.py"))
    assert unread_exports(fourierdg.__all__, [parse(p) for p in paths]) == []


def test_guard_flags_an_unread_export():
    trees = [
        ast.parse("from .a import used\nused()\n"),
        ast.parse("import fourierdg as fdg\nfdg.reached(1)\n"),
    ]
    assert unread_exports(["used", "reached", "dead"], trees) == ["dead"]


ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(tree: ast.AST) -> list[str]:
    """Each place ``tree`` reads the process environment through ``os``, so
    that no hidden input can change what the package does."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READERS
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, f"from os import {alias.name}")
                      for alias in node.names if alias.name in ENVIRONMENT_READERS]
    return [f"line {lineno}: {what}" for lineno, what in sorted(found)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reads_the_environment(path):
    reads = environment_reads(parse(path))
    assert not reads, f"{path.name} reads the environment: {reads}"


def test_guard_flags_an_environment_read():
    tree = ast.parse(
        "import os\nseed = os.environ.get('SEED')\nfrom os import getenv\n"
        "os.path.join('a', 'b')\nos.makedirs('d')\nx = os.getenv('X')\n"
    )
    assert environment_reads(tree) == [
        "line 2: os.environ", "line 3: from os import getenv", "line 6: os.getenv",
    ]


# The three outcomes the CLI reports (README "Exit codes") and their base.
ERROR_KINDS = [
    "errors.FourierDGError", "errors.ParameterError", "errors.ParseError",
    "errors.TrainingDivergedError",
]


def error_classes(trees: dict) -> list[str]:
    """``module.Class`` for every class the ``errors`` module defines and
    every class of any module that derives from one of them, directly or
    through another such class."""
    kinds = {node.name for node in trees["errors"].body if isinstance(node, ast.ClassDef)}
    found = {f"errors.{name}" for name in kinds}
    grew = True
    while grew:
        grew = False
        for module, tree in trees.items():
            for node in ast.walk(tree):
                if not isinstance(node, ast.ClassDef) or f"{module}.{node.name}" in found:
                    continue
                bases = {getattr(b, "attr", getattr(b, "id", None)) for b in node.bases}
                if bases & kinds:
                    found.add(f"{module}.{node.name}")
                    kinds.add(node.name)
                    grew = True
    return sorted(found)


def test_error_kinds_are_the_documented_three_and_their_base():
    trees = {p.stem: parse(p) for p in sorted(PACKAGE.glob("*.py"))}
    assert error_classes(trees) == ERROR_KINDS


def test_guard_flags_an_extra_error_kind():
    trees = {
        "errors": ast.parse(
            "class FourierDGError(Exception): pass\n"
            "class ParameterError(FourierDGError): pass\n"
        ),
        "a": ast.parse(
            "from . import errors\nclass ShapeError(errors.ParameterError): pass\n"
            "class RankError(ShapeError): pass\nclass Usage(ValueError): pass\n"
        ),
    }
    assert error_classes(trees) == [
        "a.RankError", "a.ShapeError", "errors.FourierDGError", "errors.ParameterError",
    ]
