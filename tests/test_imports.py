"""Every import in the package sits at module level, so no import cycle hides in a function."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "qtremble").glob("*.py"))


def _function_imports(tree: ast.AST) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            lines.extend(inner.lineno for inner in ast.walk(node)
                         if isinstance(inner, (ast.Import, ast.ImportFrom)))
    return lines


def test_sources_found():
    assert len(SOURCES) >= 8


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    lines = _function_imports(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    assert not lines, f"{path.name} imports inside a function at line(s) {sorted(set(lines))}"


def test_detects_a_function_level_import():
    tree = ast.parse("import os\n\ndef f():\n    from math import pi\n    return pi\n")
    assert _function_imports(tree) == [4]
