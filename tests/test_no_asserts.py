"""Modules whose checks must survive python -O hold no assert statement."""

import ast
from pathlib import Path

import pytest

import pwl

SRC = Path(pwl.__file__).parent


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_module_has_no_assert(module):
    path = SRC / f"{module}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], f"{module}.py has assert statements at lines {lines}"
