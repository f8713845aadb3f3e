"""Every function and class in src/pwl is reached from the program itself.

The program is the CLI and the benchmark's family job.  The gate runs it
in this process under sys.setprofile: every command of cli.COMMANDS once
on small inputs, one command that ends in a PwlError, and
perfbench/family_job.run(1).  A def in src/pwl, nested ones included, is
reached when the profiler sees a call enter its code, keyed by file and
first line, so two defs of one name are told apart.  ALLOWED lists, by
qualified name, the defs that only tests enter, each with its reason.

__repr__ is exempt: the program prints JSON built from plain values, so
__repr__ serves only error messages and debugging.

A class is reached when its name appears in the program (src/pwl and
perfbench) as a name, an attribute or an imported name: the errors are
raised, not called into, on the runs above.
"""

import ast
import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from pwl import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "pwl").glob("*.py"))
PROGRAM = SRC + sorted((ROOT / "perfbench").glob("*.py"))
EXEMPT = {"__repr__"}

# one small run of each command; the last ends in BadWeight (exit 1)
RUNS = {
    "basis": ["basis", "--level", "11"],
    "h1": ["h1", "--level", "11", "--prime", "3", "--precision", "2",
           "--sym", "2"],
    "hecke": ["hecke", "--level", "11", "--prime", "11", "--precision", "2",
              "--ell", "2"],
    "slopes": ["slopes", "--level", "11", "--prime", "11", "--precision",
               "2", "--ell", "2"],
    "family": ["family", "--prime", "3", "--precision", "4", "--degree", "4"],
    "eisenstein": ["eisenstein", "--weight", "12", "--terms", "6",
                   "--hecke-ell", "2"],
    "verify": ["verify", "--suite", "all"],
}
FAILING = ["eisenstein", "--weight", "3"]

ALLOWED = {
    "family_preimage": "acceptance criterion 14 lifts Sym^n cocycles with it",
    "Cocycle.eval": "the tests' oracle for a cocycle's value on a group "
                    "element",
    "Cocycle.stacked_coords": "the stacked coordinates the class-map tests "
                              "read",
    "H1Presentation.class_coords": "the class map the H^1 tests check "
                                   "operators against",
    "Weight.shift": "the tests' oracle for lowering a weight by an integer",
    "WeightFn.__mul__": "the reference family action in test_iwasawa "
                        "multiplies weight functions",
    "WeightFn.scale": "the reference family action in test_iwasawa scales "
                      "weight functions",
    "WeightFn.__eq__": "test_iwasawa compares the reference family action "
                       "with act_family",
    "SymCoeffs.rand": "Cocycle.random draws the Sym^n cocycles of the H^1 "
                      "and Hecke tests with it",
    "_roots_over_p": "slope_factor's cut at s >= 2, which no command asks for",
}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _defs():
    """{(file, first line): qualified name} of every def in src/pwl; the
    first line is the first decorator's, as in co_firstlineno."""
    found = {}

    def walk(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                if child.name not in EXEMPT:
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    found[(str(path), first)] = name
                walk(child, name + ".", path)
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".", path)
            else:
                walk(child, prefix, path)

    for path in SRC:
        walk(_tree(path), "", path)
    return found


def _load(path, name):
    """A fresh copy of the module at path, as a new process loads it."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _entered():
    """(file, first line) of every code object called while the program
    is loaded and runs."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno))

    out, err = io.StringIO(), io.StringIO()
    sys.setprofile(profile)
    try:
        # the CLI builds its option types when it is loaded
        main = _load(ROOT / "src" / "pwl" / "cli.py", "pwl.cli").main
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            for args in RUNS.values():
                main(["--no-meta"] + args)
            with pytest.raises(SystemExit) as exc:
                main(["--no-meta"] + FAILING)
        job = _load(ROOT / "perfbench" / "family_job.py", "family_job")
        result = job.run(1)
    finally:
        sys.setprofile(None)
    assert exc.value.code == 1 and '"BadWeight"' in err.getvalue()
    assert result["agree"] == [True] * 7
    assert out.getvalue().count("\n") == len(RUNS)
    return {(str(Path(f).resolve()), line) for f, line in seen}


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
    return used


def test_runs_cover_every_command():
    assert sorted(RUNS) == sorted(name for name, _, _ in cli.COMMANDS)


def test_every_definition_is_reached():
    defs = _defs()
    entered = _entered()
    unreached = {name: f"{Path(path).name}:{line}"
                 for (path, line), name in defs.items()
                 if (path, line) not in entered}
    used = _used_names()
    unreached.update({node.name: f"{path.name}:{node.lineno}"
                      for path in SRC for node in ast.walk(_tree(path))
                      if isinstance(node, ast.ClassDef)
                      and node.name not in used})
    extra = {name: where for name, where in unreached.items()
             if name not in ALLOWED}
    assert extra == {}, f"only tests reach {extra}"
    # an entry whose def is gone or now entered must leave ALLOWED
    stale = sorted(set(ALLOWED) - set(unreached))
    assert stale == [], f"ALLOWED names {stale} are not test-only defs"
