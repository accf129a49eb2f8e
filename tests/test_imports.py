"""Every name a library module imports is used in that module."""

import ast
from pathlib import Path

import pytest

import t2algebra

MODULES = sorted(
    path
    for path in Path(t2algebra.__file__).parent.glob("*.py")
    if path.name != "__init__.py"  # re-exports its imports
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # ``import a.b`` binds a; an ``as`` name binds in place of the name
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import json, os.path\n"
        "from .a import b, c as d\n"
        "json.dumps(b)\n"
    )
    assert unused_imports(source) == ["d", "os"]
