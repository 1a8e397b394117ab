"""Every name a module of the package imports is used in that module."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "rolechain"


def imported(tree: ast.Module) -> dict[str, int]:
    """Each name the module's imports bind, and the line binding it."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"
