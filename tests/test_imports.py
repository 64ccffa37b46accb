"""Every name a module of ``src/sparselag`` imports is used there; a name listed in ``__all__`` is used."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sparselag"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_sees_plain_dotted_aliased_and_exported_imports():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from .model import Config, _frozen\n__all__ = ['Config']\nnp.ones(os.sep)\n")
    assert _unused_imports(source) == ["_frozen"]
