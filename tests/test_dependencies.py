"""The runtime dependencies are named alike in the code, pyproject.toml and
README, each is imported by the one module that owns it, and no module
under ``src/datagraph`` imports a name it never reads."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # the standard library's from Python 3.11
ROOT = Path(__file__).resolve().parents[1]


def third_party_imports(path: Path) -> set[str]:
    """Top-level names of every module that the module at ``path`` imports
    and that is neither the standard library nor the package itself."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__", "datagraph"}


def imported_third_party() -> set[str]:
    """:func:`third_party_imports` over every module under ``src/datagraph``."""
    return set().union(*map(third_party_imports, (ROOT / "src" / "datagraph").rglob("*.py")))


def test_every_third_party_import_is_a_declared_dependency_and_readme_names_them():
    with open(ROOT / "pyproject.toml", "rb") as f:
        dependencies = tomllib.load(f)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group().lower().replace("-", "_") for spec in dependencies}
    assert imported_third_party() == declared
    (line,) = [line for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
               if "Runtime deps:" in line]
    assert set(re.findall(r"`([^`]+)`", line)) == declared


# the one module that may import each runtime dependency
OWNERS = {"numpy": "worldgen.py", "requests": "backends.py", "urllib3": "backends.py", "click": "cli.py"}


def test_each_runtime_dependency_is_imported_only_by_the_module_that_owns_it():
    importers: dict[str, set[str]] = {}
    for path in (ROOT / "src" / "datagraph").rglob("*.py"):
        for name in third_party_imports(path):
            importers.setdefault(name, set()).add(path.name)
    assert importers == {name: {owner} for name, owner in OWNERS.items()}


def unused_imports(path: Path) -> set[str]:
    """The names that the imports of the module at ``path`` bind and that its
    code never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_no_module_imports_a_name_it_never_reads():
    # __init__.py's imports are the package's exports
    unused = {
        path.name: names
        for path in sorted((ROOT / "src" / "datagraph").rglob("*.py"))
        if path.name != "__init__.py" and (names := unused_imports(path))
    }
    assert unused == {}
