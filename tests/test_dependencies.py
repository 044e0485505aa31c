"""The package's only runtime dependency outside the standard library is
numpy, as `pyproject.toml` declares.

Every import in every module of the package, new modules and imports inside
functions included, must have a standard-library module, `numpy` or
`cubefib` itself (a relative import) as its top-level package."""

import ast
import sys
from pathlib import Path

import pytest

import cubefib

PACKAGE = Path(cubefib.__file__).parent
MODULES = sorted(path.name for path in PACKAGE.glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "cubefib"}


def _imported_roots(tree):
    """(line, top-level package) of each import statement in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, "cubefib" if node.level else node.module.split(".")[0]


def test_modules_are_found():
    for name in ("cli.py", "fibration.py", "finitefield.py", "gridcount.py", "sieve.py"):
        assert name in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_only_stdlib_numpy_and_cubefib(name):
    path = PACKAGE / name
    tree = ast.parse(path.read_text(), filename=str(path))
    foreign = [(line, root) for line, root in _imported_roots(tree) if root not in ALLOWED]
    assert not foreign, f"{name} imports outside the stdlib and numpy: {foreign}"
