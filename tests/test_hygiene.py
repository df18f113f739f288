"""Source hygiene: every name a module imports is used in that module,
every private function, class and method is referenced somewhere in the
package, and every public one somewhere in the package, its tests or its
benchmark harness; the public names that only the tests read are a fixed,
listed set."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted(p for p in (ROOT / "src" / "gapstab").glob("*.py") if p.name != "__init__.py")


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


def _definitions(tree):
    """(name, line, is_member) of every module-level function and class and
    every method (or property) of a module-level class; dunder names aside."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    nodes = [(node, False) for node in tree.body if isinstance(node, defs)]
    nodes += [
        (item, True)
        for node, _ in nodes
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, defs)
    ]
    for node, is_member in nodes:
        if not node.name.endswith("__"):
            yield node.name, node.lineno, is_member


def _referenced_names(tree):
    """Every bare name and attribute name the module reads or writes."""
    names = _used_names(tree)
    names.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    return names


def _public_references(tree, paths=True):
    """(names, members): what may reach a public module-level name (a
    referenced or imported name, an attribute, or, with ``paths``, a
    dot-separated segment of a space-free string constant, as in the
    ``"Class.method"`` paths a tracer patches) and what may reach a public
    method (an attribute or such a segment; a bare name is a local variable,
    not a method)."""
    segments = {
        part
        for node in ast.walk(tree)
        if paths and isinstance(node, ast.Constant) and isinstance(node.value, str)
        and not any(c.isspace() for c in node.value)
        for part in node.value.split(".")
    }
    members = segments | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names = members | _used_names(tree) | {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    return names, members


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


PACKAGE_REFERENCES = set().union(*(_referenced_names(_parse(p)) for p in SOURCES))
PUBLIC_NAMES, PUBLIC_MEMBERS = set(), set()
for _path in (p for d in ("src/gapstab", "tests", "perfbench") for p in (ROOT / d).glob("*.py")):
    _names, _members = _public_references(_parse(_path))
    PUBLIC_NAMES |= _names
    PUBLIC_MEMBERS |= _members


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
    orphans = [
        f"{name} (line {line})"
        for name, line, _ in _definitions(_parse(path))
        if name.startswith("_") and name not in PACKAGE_REFERENCES
    ]
    assert orphans == [], f"{path.name} defines private names nothing references: {orphans}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_public_name_is_referenced(path):
    orphans = [
        f"{name} (line {line})"
        for name, line, is_member in _definitions(_parse(path))
        if not name.startswith("_")
        and name not in (PUBLIC_MEMBERS if is_member else PUBLIC_NAMES)
    ]
    assert orphans == [], f"{path.name} defines public names nothing references: {orphans}"


# Public names that only the tests read, each with the reason it stays.  A
# new name read only by tests fails below, and so does a listed name that
# gains a reader in the package or the benchmark harness (drop it here then).
TEST_ONLY = {
    # oracles and fixtures
    "games.expand_rules": "explicit rule tables, the oracle of the tagged evaluators",
    "groups.validate_irreps": "the Schur-orthogonality oracle of every irrep family",
    "groups.MulTableGroup": "a group given by its table, the oracle of the arithmetic laws",
    "algebra.rep_residual": "the law residual of a representation, a test oracle",
    "spectral.ProbMeasure.fourier": "one Fourier coefficient, the oracle of the phase kernel",
    "spectral.ProbMeasure.delta": "a point mass, a fixture of non-generating supports",
    "stability.RoundingCertificate.pullback": "w* pi(g) w, the oracle of the per-element distances",
    "algebra.TracialAlgebra.zero": "the zero element, a fixture",
    "cli.write_almost_hom": "writes the map files that the CLI round command reads",
    # paper statements still waiting for a reader
    "stability.round_commuting_pair": "the 1444 eps pair rounding",
    "stability.round_twisted_pair": "the 30000 eps twisted rounding on a given pair",
    "stability.subgroup_closeness_check": "the 38 sqrt(eps) subgroup bound (AC4)",
    "stability.stabilize_product": "the product theorem under property (T)",
    "spectral.alon_roichman_sample": "random supports with certified kappa",
    "codes.reed_muller_multilinear": "a code family for the scaling experiment",
}


def test_public_names_read_only_by_tests_are_listed():
    """Readers are the package's code, whose strings are labels (such as the
    path name "fourier"), not references, and the benchmark harness, whose
    tracer names what it patches by "Class.method" strings."""
    names, members = set(), set()
    package = (ROOT / "src" / "gapstab").glob("*.py")
    readers = [_public_references(_parse(p), paths=False) for p in package]
    readers += [_public_references(_parse(p)) for p in (ROOT / "perfbench").glob("*.py")]
    for n, m in readers:
        names |= n
        members |= m
    defs = (ast.FunctionDef, ast.ClassDef)
    found = set()
    for path in SOURCES:
        for node in _parse(path).body:
            if not isinstance(node, defs) or node.name.startswith("_"):
                continue
            if node.name not in names:
                found.add(f"{path.stem}.{node.name}")
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, defs) and not item.name.startswith("_"):
                    if item.name not in members:
                        found.add(f"{path.stem}.{node.name}.{item.name}")
    assert found == set(TEST_ONLY)
