"""Source hygiene: every name a module imports is used in that module, and
every private function, class and method is referenced somewhere in the
package."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(
    p for p in (Path(__file__).parent.parent / "src" / "gapstab").glob("*.py")
    if p.name != "__init__.py"
)


def _imported_names(tree):
    """(name, line) of every name bound by an import, __future__ aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _private_definitions(tree):
    """(name, line) of every private module-level function and class and
    every private method of a module-level class; dunder names aside."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    nodes = [node for node in tree.body if isinstance(node, defs)]
    nodes += [
        item
        for node in nodes
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, defs)
    ]
    for node in nodes:
        if node.name.startswith("_") and not node.name.endswith("__"):
            yield node.name, node.lineno


def _referenced_names(tree):
    """Every bare name and attribute name the module reads or writes."""
    names = _used_names(tree)
    names.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    return names


PACKAGE_REFERENCES = set().union(
    *(_referenced_names(ast.parse(p.read_text(), filename=str(p))) for p in SOURCES)
)


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"algebra.py", "stability.py", "games.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree) if name not in used]
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_private_name_is_referenced(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    orphans = [
        f"{name} (line {line})"
        for name, line in _private_definitions(tree)
        if name not in PACKAGE_REFERENCES
    ]
    assert orphans == [], f"{path.name} defines private names nothing references: {orphans}"
