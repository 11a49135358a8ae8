"""Every name a package module imports is used in that module, every
private top-level name it defines is used somewhere in the package, and
every public one is exported or read by the package, its tests, its demos
or its benchmark.

No linter ships with the package's tool chain, so this reads each module's
syntax tree: an import, a private helper or a public constant left behind
by a deletion fails here, named by module and name.  ``__init__.py``
re-exports its imports and ``from __future__`` imports are compiler
directives, so both are skipped by the import check.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sudoku_spectra"
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


def _unread_names(sources: dict[str, str], readers: dict[str, str], selected) -> list[str]:
    """``module:name`` for each top-level name of ``sources`` that ``selected``
    accepts and that no statement of ``sources`` or ``readers`` reads, its
    own definition aside."""
    statements = [(module, s) for module, text in {**sources, **readers}.items()
                  for s in ast.parse(text).body]
    reads = [_read_names(s) for _, s in statements]
    return [f"{module}:{name}" for i, (module, statement) in enumerate(statements)
            if module in sources for name in _defined_names(statement)
            if selected(name) and not any(name in read for j, read in enumerate(reads) if j != i)]


def orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each top-level ``_name`` (not a dunder) that no
    statement of ``sources`` reads, its own definition aside."""
    return _unread_names(sources, {}, lambda name: name.startswith("_") and not name.startswith("__"))


def dead_public_names(sources: dict[str, str], readers: dict[str, str]) -> list[str]:
    """``module:name`` for each public top-level name of ``sources`` that
    neither they (an ``__init__`` export included) nor ``readers`` read."""
    return _unread_names(sources, readers, lambda name: not name.startswith("_"))


def test_the_check_finds_an_orphaned_private_name():
    sources = {"a.py": "import re\n_SPACE = re.compile(' ')\n_USED = 1\n"
                       "def _recursive(n):\n    return _recursive(n - 1)\n",
               "b.py": "from a import _USED\n__all__ = []\n"}
    assert orphaned_private_names(sources) == ["a.py:_SPACE", "a.py:_recursive"]


def test_every_private_top_level_name_is_used():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert orphaned_private_names(sources) == []


def test_the_check_finds_a_dead_public_name():
    sources = {"__init__.py": "from .a import EXPORTED\n",
               "a.py": "MAX_A = 5\nMAX_B = 6\nEXPORTED = 1\nTESTED = 2\n"
                       "def helper(n):\n    return helper(n - 1) + MAX_B\n"}
    readers = {"tests/test_a.py": "from pkg import a\nassert a.TESTED == 2\n"}
    assert dead_public_names(sources, readers) == ["a.py:MAX_A", "a.py:helper"]


def test_every_public_top_level_name_is_exported_or_read():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    readers = {str(p.relative_to(ROOT)): p.read_text()
               for folder in ("tests", "demos", "perfbench") for p in sorted((ROOT / folder).glob("*.py"))}
    assert dead_public_names(sources, readers) == []
