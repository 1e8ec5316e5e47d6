"""Tooling gate: every import in ``src/tcreal`` is used by its module.

No linter ships with the project, so this walks each module's syntax tree
with the standard library ``ast``: a name an import binds must be read
somewhere in the module or listed in its ``__all__`` (a re-export).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tcreal"


def unused_imports(source):
    """(line, name) of each name an import in ``source`` binds and the
    module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_gate_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from itertools import chain, groupby as gb\n"
        "__all__ = ['chain']\n"
        "def f():\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == [(3, "gb")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
