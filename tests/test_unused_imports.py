"""Every name a package module imports is used in that module.

No linter ships with the package's tool chain, so this reads each module's
syntax tree: an import left behind by a deletion fails here, named by
module and import.  ``__init__.py`` re-exports its imports and
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
