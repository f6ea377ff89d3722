"""Every name a `segdial` module imports is used in that module.

A name counts as used where the module's code reads it, and where a string
of the module is itself an expression naming it: an `__all__` entry, or a
quoted annotation such as `"requests.Session"`. A docstring sentence does
not parse as an expression, so a name that only prose mentions counts as
unused. Imports under `if TYPE_CHECKING:` and inside functions are checked
too; `from __future__ import ...` binds nothing.
"""

import ast
from pathlib import Path

import pytest

import segdial

SRC = Path(segdial.__file__).resolve().parent
MODULES = sorted(SRC.rglob("*.py"))


def _names_read(tree: ast.AST) -> set[str]:
    """The names a module reads, in its code and in its expression strings."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value.strip(), mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return names


def _unused_imports(tree: ast.AST) -> list[str]:
    """`line: name` of each imported name that `tree` never reads."""
    read = _names_read(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    unused.append(f"{node.lineno}: {bound}")
    return unused


def test_the_check_sees_the_package():
    assert SRC / "ap.py" in MODULES and SRC / "commands" / "curate.py" in MODULES


def test_the_check_tells_a_use_from_a_mention():
    tree = ast.parse(
        "from typing import TYPE_CHECKING, Union\n"
        "if TYPE_CHECKING:\n"
        "    from segdial.mask import RasterMask\n"
        "import os.path\n"
        "from segdial.geometry import Bitset\n"
        '__all__ = ["Bitset"]\n'
        "def f():\n"
        '    """Takes a `RasterMask` or a Union of masks."""\n'
        "    return os.sep\n"
    )
    assert _unused_imports(tree) == ["1: Union", "3: RasterMask"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(SRC).as_posix())
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []
