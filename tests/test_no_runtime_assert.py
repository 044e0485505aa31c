"""Certified results must not rest on `assert`, which `python -O` strips.

Every module of the package raises `FalsificationAlarm` or `ValueError`
instead, and this test keeps it so for each module, new ones included."""

import ast
from pathlib import Path

import pytest

import cubefib

PACKAGE = Path(cubefib.__file__).parent
CONVERTED = sorted(path.name for path in PACKAGE.glob("*.py"))


def test_converted_list_covers_the_known_modules():
    for name in ("driver.py", "fibration.py", "finitefield.py", "lattice.py",
                 "localdensity.py", "nt.py", "sieve.py"):
        assert name in CONVERTED


@pytest.mark.parametrize("name", CONVERTED)
def test_module_has_no_assert_statement(name):
    path = PACKAGE / name
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{name} has assert statements at lines {lines}"
