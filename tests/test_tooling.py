"""Source hygiene of the package, checked with the standard library's ast
module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "rhopf"


def unused_imports(source: str) -> list:
    """(line, name) of every name an import binds and the module never
    reads; ``from __future__`` imports bind no name."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and \
                node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_unused_imports_finds_what_is_never_read():
    source = ("from __future__ import annotations\nimport os\n"
              "import os.path as osp\nfrom re import match, sub as s\n"
              "def f(x: Path) -> None:\n    return match('', x)\n")
    assert unused_imports(source) == [(2, "os"), (3, "osp"), (4, "s")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
