"""No module of the package or the scripts imports a name it never uses.

No linter is assumed installed, so the check walks each file's syntax tree:
a name bound by ``import`` or ``from ... import`` counts as used when it is
read anywhere in the file (annotations included) or listed in ``__all__``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*ROOT.glob("src/genecon/*.py"), *ROOT.glob("scripts/*.py")])


def unused_imports(source: str) -> list[str]:
    """``line: name`` of each imported name that ``source`` never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return [f"{line}: {name}" for name, line in sorted(imported.items(), key=lambda x: x[1])
            if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "import os\nimport numpy as np\nfrom x import (a, b as c)\nnp.zeros(a)\n"
    assert unused_imports(source) == ["1: os", "3: c"]
