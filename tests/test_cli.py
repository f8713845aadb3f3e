"""End-to-end checks of the installed command line entry point."""

import ast
import hashlib
import importlib
import json
import os
import runpy
import subprocess
import sys
from fractions import Fraction

import pytest

from pwl import cli, cohomology, errors, iwasawa, verify


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "pwl.cli", *args],
                          capture_output=True, text=True)


def test_basis_ranks():
    res = run_cli("--no-meta", "basis", "--level", "5")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["rank"] == 3 and doc["cosets"] == 24 and doc["schema"] == 1
    res = run_cli("--no-meta", "basis", "--level", "7")
    assert json.loads(res.stdout)["rank"] == 5


def test_output_is_reproducible():
    a = run_cli("--no-meta", "basis", "--level", "5")
    b = run_cli("--no-meta", "basis", "--level", "5")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_meta_adds_timestamp():
    res = run_cli("basis", "--level", "5")
    doc = json.loads(res.stdout)
    assert "generated_at" in doc


def test_h1_and_hecke_commands():
    res = run_cli("--no-meta", "h1", "--level", "9", "--prime", "3",
                  "--precision", "2")
    doc = json.loads(res.stdout)
    assert doc["free_rank"] == 7 and doc["is_free"]
    res = run_cli("--no-meta", "hecke", "--level", "11", "--prime", "11",
                  "--precision", "2", "--ell", "2")
    doc = json.loads(res.stdout)
    poly = doc["charpoly"]
    val = sum(c * (-2) ** i for i, c in enumerate(poly)) % 11 ** 2
    assert val == 0 and doc["cosets"] == 3


def test_slopes_command():
    res = run_cli("--no-meta", "slopes", "--level", "11", "--prime", "11",
                  "--precision", "2", "--ell", "11")
    doc = json.loads(res.stdout)
    assert ["0", 7] in doc["root_valuations"]
    assert doc["unit_root_rank"] == 7


def test_family_window_calculator():
    # each action uses up tail_width(3, 4) = 8 coordinates; the degree is
    # only echoed, as the tail does not depend on it
    for degree in ("1", "4", "9"):
        res = run_cli("--no-meta", "family", "--prime", "3", "--precision",
                      "4", "--degree", degree, "--out-width", "3",
                      "--actions", "2")
        doc = json.loads(res.stdout)
        assert doc == {"prime": 3, "precision": 4, "degree": int(degree),
                       "branches": 6, "tail": 8, "out_width": 3,
                       "actions": 2, "stored_width": 19, "schema": 1}


def test_eisenstein_command():
    res = run_cli("--no-meta", "eisenstein", "--weight", "4", "--terms", "6",
                  "--hecke-ell", "2")
    doc = json.loads(res.stdout)
    assert doc["coefficients"][:3] == ["1/240", "1", "9"]
    assert doc["hecke_pairing"] == "9"
    # T_2 E_4 = 9 E_4 at every coefficient it knows, not only at q^1
    coeffs = [Fraction(c) for c in doc["coefficients"]]
    assert [Fraction(c) for c in doc["hecke_coefficients"]] == [
        9 * c for c in coeffs[:4]]
    assert doc["hecke_coefficients"] == ["3/80", "9", "81", "252"]


def test_verify_command():
    res = run_cli("--no-meta", "--seed", "5", "verify", "--suite", "identity")
    doc = json.loads(res.stdout)
    assert doc["passed"] and doc["checks"] > 700


def test_error_reporting():
    res = run_cli("--no-meta", "basis", "--level", "3")
    assert res.returncode == 1
    assert res.stdout == ""
    err = json.loads(res.stderr)
    assert err["error"] == "BadLevel"


def test_usage_error_exit_code():
    res = run_cli("--no-meta", "basis")
    assert res.returncode == 2


def test_parser_usage_errors():
    # argparse rejects each of these before any command runs; --prec is
    # no abbreviation of --precision
    for args in ((), ("nope",), ("basis", "--level", "abc"),
                 ("verify", "--suite", "nope"),
                 ("h1", "--level", "11", "--prime", "11", "--prec", "3")):
        res = run_cli("--no-meta", *args)
        assert res.returncode == 2 and res.stdout == "", args
        assert res.stderr
    res = run_cli("--help")
    assert res.returncode == 0 and "verify" in res.stdout


def test_suite_names_come_from_verify():
    # --suite is checked against verify.SUITES, read when verify parses
    res = run_cli("--no-meta", "verify", "--suite", "nope")
    assert res.returncode == 2 and res.stdout == ""
    assert "Invalid value for '--suite'" in res.stderr
    assert all(name in res.stderr for name in verify.SUITES)
    parser = cli._parser("pwl")
    for name in verify.SUITES + ("all",):
        assert parser.parse_args(["verify", "--suite", name]).suite == name


def loaded_modules(*args):
    """The pwl modules, and fractions and decimal if loaded, that a fresh
    interpreter holds after `import pwl.cli` and, given args, one
    in-process cli.main(args)."""
    run = f"cli.main({list(args)!r}); " if args else ""
    code = ("import json, sys; from pwl import cli; " + run +
            "print(json.dumps([m for m in sys.modules "
            "if m.split('.')[0] == 'pwl' or m in ('fractions', 'decimal')]),"
            " file=sys.stderr)")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert res.returncode == 0, res.stderr
    return set(json.loads(res.stderr))


def test_commands_import_only_what_they_run():
    # each process compiles every module it imports when no bytecode is
    # cached, so parsing loads no command's modules and a command loads
    # only its own
    assert loaded_modules() == {"pwl", "pwl.cli", "pwl.errors", "pwl.padic"}
    common = ("--level", "11", "--prime", "11", "--precision", "2",
              "--ell", "2")
    hecke = loaded_modules("--no-meta", "hecke", *common)
    assert {"pwl.cohomology", "pwl.shapiro", "pwl.linalg"} <= hecke
    assert not hecke & {"pwl.verify", "pwl.slope", "pwl.qexp", "pwl.iwasawa",
                        "fractions", "decimal"}
    slopes = loaded_modules("--no-meta", "slopes", *common)
    assert {"pwl.slope", "pwl.linalg"} <= slopes
    assert not slopes & {"pwl.verify", "pwl.qexp", "pwl.iwasawa",
                         "fractions", "decimal"}
    family = loaded_modules("--no-meta", "family", "--prime", "3",
                            "--precision", "4", "--degree", "4")
    assert "pwl.iwasawa" in family
    assert not family & {"pwl.cohomology", "pwl.gamma1", "pwl.linalg"}


def exit_hook(*runs):
    """A fresh interpreter imports pwl.cli and runs cli.main on each args
    list of runs, catching SystemExit: the exit codes, the atexit
    callbacks added since start-up, and gc.get_freeze_count() before and
    after atexit._run_exitfuncs()."""
    code = "\n".join([
        "import atexit, gc, json, sys", "n = atexit._ncallbacks()",
        "from pwl import cli", "codes = []",
        f"for args in {[list(r) for r in runs]!r}:",
        "    try:", "        codes.append(cli.main(args))",
        "    except SystemExit as exc:", "        codes.append(exc.code)",
        "added, frozen = atexit._ncallbacks() - n, gc.get_freeze_count()",
        "atexit._run_exitfuncs()",
        "print(json.dumps([codes, added, frozen, gc.get_freeze_count()]),"
        " file=sys.stderr)"])
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stderr.splitlines()[-1])


def test_import_registers_no_exit_hook():
    # the benchmark's start-up probe and library users import pwl.cli alone
    assert exit_hook() == [[], 0, 0, 0]


def test_main_freezes_at_exit_once():
    # one callback however often main runs or however it ends; nothing is
    # frozen until the interpreter exits
    codes, added, before, after = exit_hook(
        ["--no-meta", "basis", "--level", "11"],
        ["--no-meta", "basis", "--level", "3"])
    assert codes == [None, 1] and added == 1 and before == 0
    assert after > 0


def test_moved_value_path_names_resolve_from_cohomology():
    # perfbench still reads part of the value path from pwl.cohomology:
    # the aliases are exactly the names that family_job.py imports and
    # trace_job.py traces there which pwl.cohomology does not define
    bench = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
    with open(os.path.join(bench, "family_job.py")) as fh:
        tree = ast.parse(fh.read())
    read = {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and node.module == "pwl.cohomology" for alias in node.names}
    targets = runpy.run_path(os.path.join(bench, "trace_job.py"),
                             run_name="trace_job")["TARGETS"]
    read |= {path.split(".")[0] for modname, path, _, _ in targets
             if modname == "pwl.cohomology"}
    assert set(cohomology._MOVED) == read - set(vars(cohomology))
    for name in cohomology._MOVED:
        assert getattr(cohomology, name) is getattr(iwasawa, name)
    for name in ("act_family", "PrecInt", "no_such_name"):
        with pytest.raises(AttributeError, match=name):
            getattr(cohomology, name)


def test_main_in_process_matches_subprocess(capsys):
    args = ["--no-meta", "hecke", "--level", "11", "--prime", "11",
            "--precision", "2", "--ell", "2"]
    assert cli.main(args, prog_name="pwl") is None
    assert capsys.readouterr().out == run_cli(*args).stdout


def test_rejects_bad_prime_and_precision():
    for args, option in (
            (("h1", "--level", "11", "--prime", "15", "--precision", "2"),
             "--prime"),
            (("h1", "--level", "11", "--prime", "2", "--precision", "2"),
             "--prime"),
            (("family", "--prime", "4", "--precision", "2", "--degree", "2"),
             "--prime"),
            # psi_13: past where the primality test is exact
            (("h1", "--level", "5", "--prime", "3317044064679887385961981",
              "--precision", "1"), "--prime"),
            (("h1", "--level", "11", "--prime", "11", "--precision", "0"),
             "--precision"),
            *((("hecke", "--level", "11", "--prime", "11", "--precision",
                "2", "--ell", ell), "--ell")
              for ell in ("4", "1", "0", "3317044064679887385961981"))):
        res = run_cli("--no-meta", *args)
        assert res.returncode == 2 and res.stdout == ""
        assert f"Invalid value for '{option}'" in res.stderr



def test_huge_prime_parses_quickly():
    # 2^61 - 1: trial division to its square root took minutes
    res = subprocess.run(
        [sys.executable, "-m", "pwl.cli", "--no-meta", "h1", "--level", "5",
         "--prime", str(2 ** 61 - 1), "--precision", "1"],
        capture_output=True, text=True, timeout=30)
    assert res.returncode == 0 and json.loads(res.stdout)["free_rank"] == 3


# small valid arguments per command, for the integer option sweep below
SMALL_ARGS = {
    "basis": {"--level": "5"},
    "h1": {"--level": "5", "--prime": "3", "--precision": "2"},
    "hecke": {"--level": "5", "--prime": "3", "--precision": "2", "--ell": "2"},
    "slopes": {"--level": "5", "--prime": "3", "--precision": "2",
               "--ell": "3"},
    "family": {"--prime": "3", "--precision": "2", "--degree": "2"},
    "eisenstein": {"--weight": "4", "--terms": "6", "--hecke-ell": "2"},
    "verify": {"--suite": "congruence"},
}


def test_integer_options_never_raise_a_traceback(capsys):
    # every integer option at -1 and at 0: the run succeeds, or exits 1
    # with a JSON PwlError, or exits 2 with a usage error; any other
    # exception escapes and fails the test
    for name, _, options in cli.COMMANDS:
        flags = [flag for flag, kw in options
                 if getattr(kw.get("type"), "__name__", None) == "int"]
        runs = [(None, None)] + [(flag, value) for flag in ["--seed", *flags]
                                 for value in ("-1", "0")]
        for flag, value in runs:
            opts = dict(SMALL_ARGS[name])
            seed = value if flag == "--seed" else "0"
            if flag not in (None, "--seed"):
                opts[flag] = value
            args = ["--no-meta", "--seed", seed, name,
                    *(x for kv in opts.items() for x in kv)]
            try:
                code = cli.main(args)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            if code is None:
                assert json.loads(out)["schema"] == 1, args
            elif code == 1:
                assert out == "", args
                kind = getattr(errors, json.loads(err)["error"])
                assert issubclass(kind, errors.PwlError), args
            else:
                assert code == 2 and out == "" and "error:" in err, args
            assert flag is not None or code is None, args


def test_verify_reports_violation():
    # a broken identity makes `verify` exit 1 with a typed error, also
    # when the interpreter runs optimized (asserts stripped)
    code = ("import sys; from pwl import cli, verify; "
            "verify.binom_identity = lambda n, i, j, h: (0, 1); "
            "sys.argv = ['pwl', '--no-meta', 'verify', '--suite', 'identity']; "
            "cli.main()")
    for flags in ([], ["-O"]):
        res = subprocess.run([sys.executable, *flags, "-c", code],
                             capture_output=True, text=True)
        assert res.returncode == 1 and res.stdout == ""
        err = json.loads(res.stderr)
        assert err["error"] == "ContractViolated"
        assert err["payload"]["lhs"] == "0" and err["payload"]["rhs"] == "1"


def test_readme_usage_lines_run():
    # every `pwl ...` line of the README's command-line block must run
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read()
    section = text.split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    lines = [ln.split()[1:] for ln in block.splitlines() if ln.startswith("pwl ")]
    assert len(lines) == 7
    for args in lines:
        res = run_cli(*args)
        assert res.returncode == 0, (args, res.stderr)
        assert json.loads(res.stdout)["schema"] == 1


# sha256 of the --no-meta stdout bytes of the three benchmark CLI jobs
# (perfbench/run.py WORKLOADS) and of the level-37 T_37 charpoly, the
# longest Gamma_1 coset walk (78324 letters), and of a Sym^4 charpoly at
# level 13 whose H^1 presentation has U != I (75 stacked coordinates,
# free rank 70): any change to their output bytes fails here.  The rest
# pin the character split (shapiro) and its fallback to Gamma_1(N); the
# last three were recorded when their levels, whose unit groups are not
# cyclic, still ran on Gamma_1(N)
PINNED_OUTPUTS = [
    (("slopes", "--level", "23", "--prime", "23", "--precision", "24",
      "--ell", "23"),
     "e5d418c4958df3b5537e36f7c67badbb4892e6e003b616e479d35cf7c4000247"),
    (("hecke", "--level", "43", "--prime", "43", "--precision", "3",
      "--ell", "2"),
     "e5d19931849826f91a15268942b35014cb7c5bbddaa4b5590ec1a145aed6a64c"),
    (("slopes", "--level", "5", "--prime", "31", "--precision", "4",
      "--ell", "31", "--sym", "16"),
     "941f0813db8d8b87fbe3e521c49829fe855aefec6c5e50e9992fe5fd50e84cb7"),
    (("hecke", "--level", "37", "--prime", "37", "--precision", "3",
      "--ell", "37"),
     "704abb32b4c24d77384ea3ce86fc6bae0037332f62e05f4a346910da9d92df8d"),
    (("hecke", "--level", "13", "--prime", "7", "--precision", "3",
      "--ell", "2", "--sym", "4"),
     "68b2f4bd6ff96b6835b70de9c8c6468192606ad965de136b4cd05b9fa9dc52a5"),
    # T_2 has no unit root: its one slope factor lift runs at w = deg P
    (("slopes", "--level", "7", "--prime", "3", "--precision", "4",
      "--ell", "2"),
     "1cc3ad02145019bf4d29da48fa88f3e1b240041156331dd64b4bd4d2fd8a39c8"),
    # split: Gamma_0(53) has two elliptic generators of order 2
    (("hecke", "--level", "53", "--prime", "53", "--precision", "3",
      "--ell", "2"),
     "002a38a8142d61e9cc99deb8ba1f5a5a602304e2712f98f9655e80e5bdf50954"),
    # split: Gamma_0(13) has two of order 2 and two of order 3
    (("hecke", "--level", "13", "--prime", "13", "--precision", "3",
      "--ell", "2"),
     "6cb6b40dcca420ccea90058f3af4d27b539774d461a4aefbd9f32d1ad328a2c9"),
    # fallback: 3 divides |(Z/9)^*| = 6
    (("hecke", "--level", "9", "--prime", "3", "--precision", "3",
      "--ell", "2"),
     "c67fcacd92a968099640fd2e0dc6eb54abf1d5565f48fb2fbc060c45d3d99fea"),
    # fallback: the characters of order 11 do not take values in Z_5
    (("hecke", "--level", "23", "--prime", "5", "--precision", "3",
      "--ell", "2"),
     "21535a0783da219bc450f9a31fb4383eacb47077c5869661427d4404d251bf19"),
    # split, n odd: the chi(-1) = -1 blocks, where SymCoeffs.act_matrix
    # scales Sym^3 by a character that is not trivial
    (("hecke", "--level", "7", "--prime", "13", "--precision", "4",
      "--ell", "2", "--sym", "3"),
     "953713ac46cb38259eea7755ea0a5be996757b08eaac9bdfee555a0db86d0382"),
    # split at p | N = 7 * 13: 36 blocks over Gamma_0(91)
    (("hecke", "--level", "91", "--prime", "13", "--precision", "3",
      "--ell", "2"),
     "5dd7b0638f28b9e6c0a5b8e245ff3d485b966e4ca064cb5de0e95597e0c9b5b6"),
    # split, n odd: (Z/21)^* = Z/2 x Z/6 has exponent 6, dividing 12
    (("hecke", "--level", "21", "--prime", "13", "--precision", "3",
      "--ell", "2", "--sym", "1"),
     "0cc5ba48adf2fa5152d68065efb5f120909cd0d45eed24e95c3f71d532c87349"),
    # split: (Z/8)^*/+-1 has exponent 2, dividing 3 - 1
    (("slopes", "--level", "8", "--prime", "3", "--precision", "3",
      "--ell", "3"),
     "3a06cdbd1e601e112443691750161b30a05be7909da26c5fe3b6efa2140590a5"),
]


@pytest.mark.parametrize("args, digest", PINNED_OUTPUTS,
                         ids=["slopes_N23", "hecke_N43", "sym16_N5",
                              "hecke_N37", "sym4_N13", "slopes_N7",
                              "hecke_N53", "hecke_N13", "hecke_N9_p3",
                              "hecke_N23_p5", "sym3_N7_p13",
                              "hecke_N91_p13", "sym1_N21_p13",
                              "slopes_N8_p3"])
def test_benchmark_outputs_are_pinned(args, digest):
    res = subprocess.run([sys.executable, "-m", "pwl.cli", "--no-meta", *args],
                         capture_output=True)
    assert res.returncode == 0, res.stderr
    assert hashlib.sha256(res.stdout).hexdigest() == digest


def test_not_free_error_is_pinned():
    # Sym^2 at level 11 has torsion in a block of the split, whose own
    # moduli (Gamma_0(11)'s 3 generators x 3 coordinates) the
    # NotFreeModule message lists: sha256 of the stderr bytes
    res = subprocess.run([sys.executable, "-m", "pwl.cli", "--no-meta",
                          "hecke", "--level", "11", "--prime", "11",
                          "--precision", "3", "--ell", "2", "--sym", "2"],
                         capture_output=True)
    assert res.returncode == 1 and res.stdout == b""
    assert hashlib.sha256(res.stderr).hexdigest() == (
        "731a8d2636d436675faf1ecd86437347a676885d0d09822a2b1027b066256ac5")


# the same for `pwl --no-meta --seed S verify --suite all` (its report
# holds check counts only, so both seeds print the same bytes) and for the
# family_N9 job's stdout at seeds 1-5
VERIFY_ALL = "16dceff5e8d5709cffda23769d014156bb88ec55e52f900b7e320cf381b700e7"
FAMILY_JOB_OUTPUTS = {
    1: "cd2607bd1c1d913ab6832ac5d22a550690660a4265e7f43ba9ec768de25f6dd9",
    2: "438fa6c543ecd0e43990d5456a8c775956614fc2ac4dead90a7be7a011074aa1",
    3: "d7d00552555882989adfdd165e947f4389ba9406a1cc4600a43e777708b1778f",
    4: "5760f08b7db66a29634305eeb1640f6a89465def7b5d786c845c52d3f0dd6b7c",
    5: "86ed1322e122955592bb1941b0db9ee9c472b31bea49d7adc0bfd8d3e62c39b1",
}


@pytest.mark.parametrize("seed", (0, 1))
def test_verify_all_is_pinned(seed):
    res = subprocess.run([sys.executable, "-m", "pwl.cli", "--no-meta",
                          "--seed", str(seed), "verify", "--suite", "all"],
                         capture_output=True)
    assert res.returncode == 0, res.stderr
    assert hashlib.sha256(res.stdout).hexdigest() == VERIFY_ALL


def test_family_job_is_pinned(capsys):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "family_job.py")
    job = runpy.run_path(path, run_name="family_job")
    for seed, digest in FAMILY_JOB_OUTPUTS.items():
        job["main"](["--seed", str(seed)])
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == digest, seed


def test_family_job_loads_no_elimination():
    # the family job multiplies packed rows but runs no Smith form and no
    # charpoly, so a fresh process that runs it never compiles pwl.linalg
    bench = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
            "import family_job; agree = family_job.run(1)['agree']; "
            "print(json.dumps([agree, [m for m in sys.modules "
            "if m.split('.')[0] == 'pwl']]))")
    res = subprocess.run([sys.executable, "-c", code, bench],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    agree, loaded = json.loads(res.stdout)
    assert agree == [True] * 7
    assert "pwl.packed" in loaded and "pwl.linalg" not in loaded


def test_trace_targets_resolve():
    # a renamed layer would only show up as "missing" in a traced run, with
    # its per-layer metric stuck at 0
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "trace_job.py")
    targets = runpy.run_path(path, run_name="trace_job")["TARGETS"]
    assert targets
    for modname, attr_path, name, _ in targets:
        owner = importlib.import_module(modname)
        for part in attr_path.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), name
