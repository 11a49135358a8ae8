"""Every name a package module imports is used in that module, and every
private top-level name it defines is used somewhere in the package.

No linter ships with the package's tool chain, so this reads each module's
syntax tree: an import or a private helper left behind by a deletion fails
here, named by module and name.  ``__init__.py`` re-exports its imports and
``from __future__`` imports are compiler directives, so both are skipped.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sudoku_spectra"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by imports in ``source`` that no other node reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"; "import a.b as c" and "from a import b" bind their name
                imported[alias.asname or alias.name.split(".")[0]] = alias.name
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{full} (as {name})" if name != full else name
                  for name, full in imported.items() if name not in used)


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from typing import Union, Sequence\nx: Sequence = os.path.sep\n")
    assert unused_imports(source) == ["Union", "numpy (as np)"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(module):
    assert unused_imports(module.read_text()) == [], module.name


def _defined_names(statement) -> list[str]:
    """The names a top-level def, class or assignment binds."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        return [t.id for t in statement.targets if isinstance(t, ast.Name)]
    if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        return [statement.target.id]
    return []


def _read_names(statement) -> set[str]:
    """Every name a statement reads, as a variable, an attribute or an import."""
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each top-level ``_name`` (not a dunder) that no
    statement of ``sources`` reads, its own definition aside."""
    statements = [(module, s) for module, text in sources.items() for s in ast.parse(text).body]
    reads = [_read_names(s) for _, s in statements]
    return [f"{module}:{name}" for i, (module, statement) in enumerate(statements)
            for name in _defined_names(statement)
            if name.startswith("_") and not name.startswith("__")
            and not any(name in read for j, read in enumerate(reads) if j != i)]


def test_the_check_finds_an_orphaned_private_name():
    sources = {"a.py": "import re\n_SPACE = re.compile(' ')\n_USED = 1\n"
                       "def _recursive(n):\n    return _recursive(n - 1)\n",
               "b.py": "from a import _USED\n__all__ = []\n"}
    assert orphaned_private_names(sources) == ["a.py:_SPACE", "a.py:_recursive"]


def test_every_private_top_level_name_is_used():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert orphaned_private_names(sources) == []
