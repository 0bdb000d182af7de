"""Import hygiene: every module of the package uses every name it imports.

The check reads the source with the standard library's ``ast`` only.  A name
counts as used when it is loaded anywhere in the module (an attribute base
such as ``np`` in ``np.zeros`` included) or appears in a quoted annotation.
``__init__.py`` is exempt: its imports are the package's exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rbsde_lab"


def _annotations(node: ast.AST) -> list[ast.AST]:
    if isinstance(node, ast.arg):
        return [node.annotation]
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.returns]
    return [node.annotation] if isinstance(node, ast.AnnAssign) else []


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that it never uses, in source order."""
    module = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.partition(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        for note in _annotations(node):
            # a quoted annotation is a string constant: parse it for its names
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used |= {n.id for n in ast.walk(ast.parse(note.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    return sorted((name for name in imported if name not in used), key=imported.__getitem__)


def test_the_check_finds_unused_names_and_sees_every_kind_of_use():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path\n"
        "import numpy as np\n"
        "from typing import Sequence, Iterator\n"
        "from .lattice import Tree, build_tree as bt, Leaf\n"
        "def f(t: 'Tree') -> Sequence[int]:\n"
        "    leaf: 'list[Leaf]' = []\n"
        "    return np.zeros(3)\n"
    )
    assert unused_imports(source) == ["os", "Iterator", "bt"]


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_package_modules_use_every_name_they_import(path):
    assert unused_imports((PACKAGE / path).read_text()) == []
