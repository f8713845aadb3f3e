"""Modules whose checks must survive python -O hold no assert statement."""

import ast
from pathlib import Path

import pytest

import pwl

ASSERT_FREE = ("cli", "cohomology", "gamma1", "iwasawa", "linalg", "matrices",
               "padic", "qexp", "slope", "sympow", "verify")


@pytest.mark.parametrize("module", ASSERT_FREE)
def test_module_has_no_assert(module):
    path = Path(pwl.__file__).parent / f"{module}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], f"{module}.py has assert statements at lines {lines}"
