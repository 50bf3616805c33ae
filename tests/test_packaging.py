"""The package's declared dependencies cover what its modules import."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def imported_top_level(path: Path) -> set[str]:
    """Top-level names of the absolute imports anywhere in a module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_third_party_imports_are_declared_dependencies():
    imported = set().union(*map(imported_top_level, (ROOT / "src" / "redzone").glob("*.py")))
    third_party = imported - set(sys.stdlib_module_names)
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    # each module is distributed under its own name
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower()
                for dep in project["dependencies"]}
    assert {"numpy", "orjson"} <= third_party  # imports inside functions count too
    assert third_party <= declared
