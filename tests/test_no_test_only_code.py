"""Every function and class in src/pwl is reached from the program itself.

The program is src/pwl and the benchmark scripts in perfbench.  A
definition counts as reached when its name appears there as a name, an
attribute, an imported name or an identifier-like string (the CLI looks
some up by name).  Dunder methods are exempt, and ALLOWED lists the names
that only tests call, each with its reason.

The match is by name only, so a definition is missed whenever another
object of the same name is used: the deleted tautological weight `z` hid
behind a local `z`, and `PadicMat.det` behind `IntMat.det`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "pwl").glob("*.py"))
PROGRAM = SRC + sorted((ROOT / "perfbench").glob("*.py"))

ALLOWED = {
    "family_preimage": "acceptance criterion 14 lifts Sym^n cocycles with it",
    "eval": "the tests' oracle for a cocycle's value on a group element",
    "class_coords": "the class map the H^1 tests check operators against",
    "shift": "the tests' oracle for lowering a weight by an integer",
}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _used_names():
    used = set()
    for path in PROGRAM:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.update(node.name.split("."))
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and node.value.isidentifier()):
                used.add(node.value)
    return used


def _defined_names():
    defined = {}
    for path in SRC:
        for node in ast.walk(_tree(path)):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not (node.name.startswith("__")
                             and node.name.endswith("__"))):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
    return defined


def test_every_definition_is_reached():
    used = _used_names()
    unreached = {name: where for name, where in _defined_names().items()
                 if name not in used}
    extra = {name: where for name, where in unreached.items()
             if name not in ALLOWED}
    assert extra == {}, f"only tests reach {extra}"
    # an entry whose name is gone or now reached must leave ALLOWED
    stale = sorted(set(ALLOWED) - set(unreached))
    assert stale == [], f"ALLOWED names {stale} are not test-only definitions"
