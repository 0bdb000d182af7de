"""Import hygiene: every module of the package uses every name it imports,
and every private name it defines is used somewhere in the package.

The checks read the source with the standard library's ``ast`` only.  A name
counts as used when it is loaded anywhere in the module (an attribute base
such as ``np`` in ``np.zeros`` included) or appears in a quoted annotation.
``__init__.py`` is exempt from the import check: its imports are the
package's exports.  A module-level private name (``_x``, not a dunder)
counts as used when some module of the package loads it, imports it or
reads it as an attribute; a helper left behind by a refactor fails.  Every
module's ``__all__`` names only what it binds, and lists every name the
package re-exports from it, the game oracle's lazily resolved names included;
a fresh interpreter imports every export from the package.  A setting no
caller varies is a constant, not a parameter: each defaulted parameter of a
function that a module's ``__all__`` names is passed by some call in the
package, the tests or the benchmark.
"""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rbsde_lab"


def _annotations(node: ast.AST) -> list[ast.AST]:
    if isinstance(node, ast.arg):
        return [node.annotation]
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.returns]
    return [node.annotation] if isinstance(node, ast.AnnAssign) else []


def _quoted_names(node: ast.AST) -> set[str]:
    """Names in the node's quoted annotations: each is a string constant,
    parsed for its names."""
    return {n.id for note in _annotations(node) if isinstance(note, ast.Constant) and isinstance(note.value, str)
            for n in ast.walk(ast.parse(note.value, mode="eval")) if isinstance(n, ast.Name)}


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
        used |= _quoted_names(node)
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


def _private_definitions(module: ast.Module) -> list[str]:
    """Module-level private names (``_x``, not ``__x__``) a module defines."""
    names = []
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.endswith("__")]


def orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """``module:name`` of every module-level private name that no module of
    ``sources`` (file name -> source) references."""
    modules = {name: ast.parse(source) for name, source in sources.items()}
    used: set[str] = set()
    for module in modules.values():
        for node in ast.walk(module):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used |= {alias.name for alias in node.names}
            used |= _quoted_names(node)
    return [f"{name}:{defined}" for name, module in modules.items()
            for defined in _private_definitions(module) if defined not in used]


def test_the_orphan_check_sees_loads_imports_attributes_and_annotations():
    sources = {
        "a.py": ("_CACHE = {}\n_A, _B = 1, 2\n__all__ = []\n"
                 "def _used(): pass\ndef _orphan(): pass\nclass _Kind: pass\n"
                 "def f() -> '_Kind':\n    return _CACHE\n"),
        "b.py": "from .a import _used\nimport a\nx = a._A\n_used()\n",
    }
    assert orphaned_private_names(sources) == ["a.py:_B", "a.py:_orphan"]


def test_every_private_name_of_the_package_is_used():
    assert orphaned_private_names({p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}) == []


def unset_defaults(functions: dict[str, ast.FunctionDef], sources: list[str]) -> list[str]:
    """``label(parameter)`` for every defaulted parameter of ``functions``
    (label -> definition) that no call in ``sources`` passes, by keyword or
    by position.  A call counts for a function when it is made through the
    function's name, as a plain name, an attribute or an import alias.
    Arguments from a ``*`` unpacking on, and a ``**`` mapping, pass nothing
    the check can see."""
    passed: dict[str, set[str]] = {fn.name: set() for fn in functions.values()}
    positions = {fn.name: [a.arg for a in fn.args.posonlyargs + fn.args.args] for fn in functions.values()}
    for source in sources:
        module = ast.parse(source)
        aliases = {alias.asname: alias.name for node in ast.walk(module) if isinstance(node, ast.ImportFrom)
                   for alias in node.names if alias.asname}
        for call in ast.walk(module):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            name = aliases.get(name, name)
            if name not in passed:
                continue
            count = next((i for i, arg in enumerate(call.args) if isinstance(arg, ast.Starred)), len(call.args))
            passed[name] |= set(positions[name][:count]) | {kw.arg for kw in call.keywords if kw.arg}
    unset = []
    for label, fn in functions.items():
        args = fn.args
        defaulted = positions[fn.name][len(positions[fn.name]) - len(args.defaults):]
        defaulted += [a.arg for a, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
        unset += [f"{label}({param})" for param in defaulted if param not in passed[fn.name]]
    return unset


def test_the_default_check_sees_positions_keywords_attributes_and_aliases():
    definitions = ast.parse("def f(a, b=1, *, c=2, d=3): pass\n"
                            "def g(x=0, y=0): pass\n"
                            "def h(z=0): pass\n")
    sources = ["from m import g as gg\nf(0, 5, c=1)\ngg(*[1], y=2)\n",
               "import m\nm.h(**{'z': 1})\n"]
    assert unset_defaults({fn.name: fn for fn in definitions.body}, sources) == ["f(d)", "g(x)", "h(z)"]


def test_every_defaulted_parameter_of_an_export_is_passed_by_some_call():
    # the game oracle's lazy exports are in games.__all__, as the test below checks
    functions = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        exported = importlib.import_module(f"rbsde_lab.{path.stem}").__all__
        functions |= {f"{path.stem}.{node.name}": node for node in ast.parse(path.read_text()).body
                      if isinstance(node, ast.FunctionDef) and node.name in exported}
    root = PACKAGE.parents[1]
    sources = [p.read_text() for where in (PACKAGE, root / "tests", root / "perfbench")
               for p in sorted(where.glob("*.py"))]
    assert unset_defaults(functions, sources) == []


def test_every_all_name_is_bound_and_every_export_is_in_its_modules_all():
    modules = {p.stem: importlib.import_module(f"rbsde_lab.{p.stem}")
               for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
    unbound = [f"{name}.{export}" for name, mod in modules.items()
               for export in mod.__all__ if not hasattr(mod, export)]
    assert unbound == []
    unlisted = [f"{module}.{name}" for module, name in _package_exports()
                if name not in modules[module].__all__]
    assert unlisted == []


def _package_exports() -> list[tuple[str, str]]:
    """(module, name) of every name the package exports: the names
    ``__init__.py`` imports, and the game oracle's names it resolves on
    first access."""
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    eager = [(node.module, alias.name) for node in init.body if isinstance(node, ast.ImportFrom)
             for alias in node.names]
    return eager + [("games", name) for name in sorted(importlib.import_module("rbsde_lab")._GAMES_EXPORTS)]


def test_every_export_imports_from_a_fresh_package_that_loads_games_on_demand():
    names = [name for _, name in _package_exports()]
    code = ("import sys; import rbsde_lab; print('rbsde_lab.games' in sys.modules); "
            f"from rbsde_lab import {', '.join(names)}; "
            "from rbsde_lab import games; "
            "print(all(getattr(rbsde_lab, n) is getattr(games, n) for n in rbsde_lab._GAMES_EXPORTS))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(PACKAGE.parent),
                                                                    os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.split() == ["False", "True"]
