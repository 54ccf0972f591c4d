"""Every name a library module imports is used in that module, importing
the library needs numpy alone, and only core tests arrays for finiteness.

No linter ships with the project, so this walks each module's syntax tree.
A name counts as used when it is read anywhere in the module, including
inside a string annotation.  The package's __init__ is exempt: its imports
are the public re-exports.  Imports at every level, function bodies
included, may name only the standard library, numpy or the package itself,
and numpy is the one runtime dependency pyproject.toml declares.
Every vector and matrix is checked by core's array rule (as_matrix and
as_vector), so `np.isfinite` appears in core alone: a second call site is a
hand-written copy of the rule.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dlbounds"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(PACKAGE.glob("*.py"))


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


def absolute_imports(source: str) -> list[str]:
    """Top-level package of every absolute import in the module, at any
    level: module body, class body or function body."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module.split(".")[0])
    return sorted(set(found))


def test_import_checker_sees_every_level_and_skips_relative_imports():
    source = ("import os.path\n"
              "from . import core\n"
              "from .coders import x\n"
              "try:\n"
              "    import scipy.linalg\n"
              "except ImportError:\n"
              "    pass\n"
              "class K:\n"
              "    import json\n"
              "def f():\n"
              "    from scipy.integrate import quad\n"
              "    def g():\n"
              "        import re\n")
    assert absolute_imports(source) == ["json", "os", "re", "scipy"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=[p.stem for p in ALL_MODULES])
def test_module_level_imports_are_stdlib_or_numpy(path):
    # every level, function bodies included: the library needs numpy alone
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    assert [m for m in absolute_imports(path.read_text(encoding="utf-8")) if m not in allowed] == []


def test_cli_import_leaves_scipy_unloaded_until_used():
    script = (
        "import sys\n"
        "def scipy_loaded():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "import dlbounds.cli\n"
        "assert not scipy_loaded(), scipy_loaded()\n"
        "import numpy as np\n"
        "from dlbounds.bounds import log_integral_check\n"
        "from dlbounds.core import substream, uniform_sphere_matrix\n"
        "from dlbounds.kernels import gram_matrix, kernel_from_name\n"
        "assert log_integral_check(10.0, [0.5]) <= 1e-8\n"
        "points = uniform_sphere_matrix(8, 40, substream(3, 0)).T\n"
        "gram_matrix(kernel_from_name('poly:2'), points)\n"
        "gram = gram_matrix(kernel_from_name('gaussian:0.8'), points)\n"
        "assert np.all(np.diag(gram) == 1.0), np.diag(gram)\n"
        "assert not scipy_loaded(), scipy_loaded()\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def package_imports(source: str) -> list[str]:
    """The package modules a module imports from, at any level."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module] if node.module else [alias.name for alias in node.names])
    return sorted(found)


def test_coders_imports_only_core_from_the_package():
    # the coders module holds only the coders: no bound calculator, no Babel value
    source = "from . import core\nfrom .bounds import x\ndef f():\n    from .coherence import y\n"
    assert package_imports(source) == ["bounds", "coherence", "core"]
    assert package_imports((PACKAGE / "coders.py").read_text(encoding="utf-8")) == ["core"]


def distribution_names(requirements: list[str]) -> list[str]:
    """The distribution name of each requirement string, "numpy>=1.23" -> "numpy"."""
    return [re.match(r"[\w.-]+", req).group() for req in requirements]


def test_runtime_dependencies_are_numpy_alone():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    with open(PACKAGE.parent.parent / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    assert distribution_names(project["dependencies"]) == ["numpy"]
    assert "scipy" in distribution_names(project["optional-dependencies"]["test"])


def isfinite_calls(source: str) -> int:
    """Calls of numpy's isfinite, as np.isfinite or numpy.isfinite."""
    return sum(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "isfinite" and isinstance(node.func.value, ast.Name)
               and node.func.value.id in ("np", "numpy")
               for node in ast.walk(ast.parse(source)))


def test_isfinite_checker_counts_numpy_calls_only():
    source = ("import math\n"
              "import numpy as np\n"
              "def f(a, x):\n"
              "    return np.isfinite(a).all() and math.isfinite(x) and np.all(np.isfinite(a))\n")
    assert isfinite_calls(source) == 2


def test_only_core_calls_np_isfinite():
    calls = {p.name: isfinite_calls(p.read_text(encoding="utf-8")) for p in ALL_MODULES}
    assert [name for name, count in calls.items() if count] == ["core.py"]
