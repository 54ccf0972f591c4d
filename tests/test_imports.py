"""Every name a library module imports is used in that module.

No linter ships with the project, so this walks each module's syntax tree.
A name counts as used when it is read anywhere in the module, including
inside a string annotation.  The package's __init__ is exempt: its imports
are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dlbounds"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that it never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    trees = [tree]
    for ann in _annotations(tree):
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            trees.append(ast.parse(ann.value, mode="eval"))
    used = {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_checker_sees_string_annotations_and_aliases():
    source = ("from typing import Sequence, Iterable\n"
              "import numpy as np\n"
              "import os.path\n"
              "def f(x: 'Sequence[int]') -> None:\n"
              "    return np.zeros(1)\n")
    assert unused_imports(source) == ["Iterable", "os"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
