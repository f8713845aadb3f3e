"""End-to-end checks of the installed command line entry point."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from pwl import cli, errors


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
    res = run_cli("--no-meta", "family", "--prime", "3", "--precision", "4",
                  "--degree", "4", "--out-width", "3", "--actions", "2")
    doc = json.loads(res.stdout)
    assert doc == {"prime": 3, "precision": 4, "degree": 4, "branches": 6,
                   "tail": 24, "out_width": 3, "actions": 2,
                   "stored_width": 51, "schema": 1}


def test_eisenstein_command():
    res = run_cli("--no-meta", "eisenstein", "--weight", "4", "--terms", "6",
                  "--hecke-ell", "2")
    doc = json.loads(res.stdout)
    assert doc["coefficients"][:3] == ["1/240", "1", "9"]
    assert doc["hecke_pairing"] == "9"


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
            (("h1", "--level", "11", "--prime", "11", "--precision", "0"),
             "--precision"),
            *((("hecke", "--level", "11", "--prime", "11", "--precision",
                "2", "--ell", ell), "--ell") for ell in ("4", "1", "0"))):
        res = run_cli("--no-meta", *args)
        assert res.returncode == 2 and res.stdout == ""
        assert f"Invalid value for '{option}'" in res.stderr


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
# longest coset walk (78324 letters), and of a Sym^4 charpoly at level 13
# whose H^1 presentation has U != I (75 stacked coordinates, free rank 70):
# any change to their output bytes fails here
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
]


@pytest.mark.parametrize("args, digest", PINNED_OUTPUTS,
                         ids=["slopes_N23", "hecke_N43", "sym16_N5",
                              "hecke_N37", "sym4_N13"])
def test_benchmark_outputs_are_pinned(args, digest):
    res = subprocess.run([sys.executable, "-m", "pwl.cli", "--no-meta", *args],
                         capture_output=True)
    assert res.returncode == 0, res.stderr
    assert hashlib.sha256(res.stdout).hexdigest() == digest
