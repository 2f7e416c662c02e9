"""Static hygiene of the package sources (no linter is a dependency)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "scbundle"


def _unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(e.value for e in node.value.elts)
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []
