"""The runtime imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "ordsgp").glob("*.py"))


def imported_modules(tree):
    """Top-level names of every absolute import; relative imports give None."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield None if node.level else node.module.partition(".")[0]


def test_sources_are_found():
    assert len(SOURCES) >= 8


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_are_stdlib_or_ordsgp(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    outside = {
        name
        for name in imported_modules(tree)
        if name is not None and name != "ordsgp" and name not in sys.stdlib_module_names
    }
    assert not outside, f"{path.name} imports {sorted(outside)}"
