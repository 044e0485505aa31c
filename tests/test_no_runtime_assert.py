"""Certified results must not rest on `assert`, which `python -O` strips.

The modules listed here raise `FalsificationAlarm` or `ValueError` instead;
add a module to the list once its asserts are converted."""

import ast
from pathlib import Path

import pytest

import cubefib

CONVERTED = ("driver.py", "lattice.py", "nt.py", "sieve.py")


@pytest.mark.parametrize("name", CONVERTED)
def test_module_has_no_assert_statement(name):
    path = Path(cubefib.__file__).parent / name
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{name} has assert statements at lines {lines}"
