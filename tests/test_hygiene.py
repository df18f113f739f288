"""Source hygiene: every name a module imports is used in that module."""

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


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"algebra.py", "stability.py", "games.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree) if name not in used]
    assert unused == [], f"{path.name} imports names it never uses: {unused}"
