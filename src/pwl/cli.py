"""Command line interface for bases, cohomology, Hecke data and slopes.

Every command prints one JSON document with sorted keys to stdout.
Package errors (a failed `verify` suite raises ContractViolated) become
a JSON object on stderr and exit status 1; argparse exits with status 2
on argument problems and prints nothing to stdout.  With --no-meta the
output carries no timestamp, so identical inputs give identical bytes.
Each command imports its modules when it runs: without cached bytecode,
a process compiles each module it imports; parsing needs only errors and padic.
"""

import argparse
import json
import sys
import time

from .errors import BadRange, PwlError
from .padic import _is_odd_prime, is_prime, tail_width

SCHEMA = 1


def _checked(option, test, what, kind=int):
    """argparse type: kind(text) if it passes test; any other value is a
    usage error "Invalid value for '<option>': <value> <what>", or with
    the message of the BadRange that test raises on it."""
    def parse(text):
        value = kind(text)  # a ValueError reads "invalid int value"
        try:
            if test(value):
                return value
            why = f"{value} {what}"
        except BadRange as exc:  # a value past what the test decides
            why = str(exc)
        # ArgumentError(None, ...) reaches the parser's error() as is
        raise argparse.ArgumentError(
            None, f"Invalid value for '{option}': {why}")
    parse.__name__ = kind.__name__
    return parse


def _at_least(option, low):
    return _checked(option, lambda v: v >= low, f"is below {low}")


def _suite(text):
    """argparse type of --suite: reads verify.SUITES when verify parses."""
    from .verify import SUITES
    return _checked("--suite", lambda v: v == "all" or v in SUITES,
                    f"is not all or one of {', '.join(SUITES)}", str)(text)


_PRIME = ("--prime", dict(
    type=_checked("--prime", _is_odd_prime, "is not an odd prime"),
    required=True, help="Odd prime p."))
_PRECISION = ("--precision", dict(type=_at_least("--precision", 1),
                                  required=True, help="Digits r, mod p^r."))
_ELL = ("--ell", dict(type=_checked("--ell", is_prime, "is not a prime"),
                      required=True, help="Prime index ell of T_ell."))
_LEVEL = ("--level", dict(type=int, required=True, help="Congruence level N."))
_SYM = ("--sym", dict(type=_at_least("--sym", 0), default=0, help="Symmetric "
                      "power degree of the coefficients (default: %(default)s)."))


def basis(a):
    """Free generators of the level subgroup and coset counts."""
    from .gamma1 import free_basis
    fb = free_basis(a.level)
    return {"level": a.level, "rank": fb.rank(),
            "projective_cosets": fb.mu, "cosets": 2 * fb.mu,
            "generators": [list(g.entries()) for g in fb.gens]}


def h1_cmd(a):
    """Presentation of first cohomology: free rank and divisors."""
    from .cohomology import SymCoeffs, h1
    from .gamma1 import free_basis
    pres = h1(SymCoeffs(a.prime, a.precision, a.sym), free_basis(a.level))
    return {"level": a.level, "prime": a.prime, "precision": a.precision,
            "sym": a.sym, "free_rank": pres.free_rank(),
            "is_free": pres.is_free(), "moduli": pres.moduli}


def _charpoly(a):
    """Reps of T_ell and the charpoly of T_ell on the free quotient."""
    from .cohomology import SymCoeffs, h1, hecke_matrix, t_ell_reps
    from .gamma1 import free_basis
    fb = free_basis(a.level)
    coeffs = SymCoeffs(a.prime, a.precision, a.sym)
    reps = t_ell_reps(a.ell, fb)
    pres = h1(coeffs, fb)
    return reps, pres.charpoly(hecke_matrix(coeffs, fb, reps))


def hecke(a):
    """Characteristic polynomial of a Hecke operator on the free quotient."""
    reps, poly = _charpoly(a)
    return {"level": a.level, "prime": a.prime, "precision": a.precision,
            "ell": a.ell, "sym": a.sym, "cosets": len(reps),
            "charpoly": poly}


def slopes(a):
    """Newton polygon of a Hecke operator and its unit-root factor."""
    from .slope import newton_polygon, slope_factor
    _, P = _charpoly(a)
    poly = newton_polygon(P, a.prime, a.precision)
    Q, _, loss = slope_factor(P, 1, a.prime, a.precision)
    return {"level": a.level, "prime": a.prime, "precision": a.precision,
            "ell": a.ell, "sym": a.sym,
            "vertices": [list(v) for v in poly.vertices],
            "root_valuations": [[str(v), m]
                                for v, m in poly.root_valuations()],
            "censored_on_hull": poly.ambiguous,
            "unit_root_factor": Q, "unit_root_rank": len(Q) - 1,
            "factor_precision": a.precision - loss}


def family(a):
    """Size a coordinate window for computations over the weight space."""
    from .iwasawa import branch_count
    tail = tail_width(a.prime, a.precision)
    return {"prime": a.prime, "precision": a.precision, "degree": a.degree,
            "branches": branch_count(a.prime), "tail": tail,
            "out_width": a.out_width, "actions": a.actions,
            "stored_width": a.out_width + a.actions * tail}


def eisenstein_cmd(a):
    """Coefficients of the level-one Eisenstein series."""
    from .qexp import eisenstein, hecke_t, pairing, trivial_char
    f = eisenstein(a.weight, a.terms)
    out = {"weight": a.weight, "terms": a.terms,
           "coefficients": [str(c) for c in f.coeffs]}
    if a.hecke_ell is not None:
        g = hecke_t(a.hecke_ell, a.weight, trivial_char(1), f)
        out["hecke_ell"] = a.hecke_ell
        out["hecke_coefficients"] = [str(c) for c in g.coeffs]
        out["hecke_pairing"] = str(pairing(g))
    return out


def verify(a):
    """Run a self-check suite and report what it verified."""
    from .verify import run_suite
    return run_suite(a.suite, seed=a.seed)


# (name, function, options) per subcommand
COMMANDS = [
    ("basis", basis, [_LEVEL]),
    ("h1", h1_cmd, [_LEVEL, _PRIME, _PRECISION, _SYM]),
    ("hecke", hecke, [_LEVEL, _PRIME, _PRECISION, _ELL, _SYM]),
    ("slopes", slopes, [_LEVEL, _PRIME, _PRECISION, _ELL, _SYM]),
    ("family", family, [
        _PRIME, _PRECISION,
        ("--degree", dict(type=_at_least("--degree", 1), required=True,
                          help="Weight-series order d, mod X^d; only echoed.")),
        ("--out-width", dict(type=_at_least("--out-width", 1), default=1,
                             help="Certified coordinates (default: %(default)s).")),
        ("--actions", dict(type=_at_least("--actions", 0), default=1,
                           help="How many monoid actions the stored window "
                           "must survive (default: %(default)s)."))]),
    ("eisenstein", eisenstein_cmd, [
        ("--weight", dict(type=int, required=True)),
        ("--terms", dict(type=_at_least("--terms", 0), default=10,
                         help="Coefficients (default: %(default)s).")),
        ("--hecke-ell", dict(type=_checked("--hecke-ell", is_prime,
                                           "is not a prime"),
                             help="Also apply the classical T_ell."))]),
    ("verify", verify, [
        ("--suite", dict(type=_suite, default="all", help="A suite of "
                         "pwl.verify, or all (default: %(default)s)."))]),
]


def _parser(prog):
    parser = argparse.ArgumentParser(
        prog=prog, allow_abbrev=False, description="Weight families, "
        "cohomology of congruence groups, and slopes.")
    parser.add_argument("--seed", type=int, default=0, help="Master seed for "
                        "randomized checks (default: %(default)s).")
    parser.add_argument("--no-meta", action="store_true", help="Omit "
                        "timestamps so output is byte-reproducible.")
    subs = parser.add_subparsers(metavar="COMMAND", required=True)
    for name, fn, options in COMMANDS:
        doc = fn.__doc__
        sub = subs.add_parser(name, help=doc, description=doc,
                              allow_abbrev=False)
        for flag, kwargs in options:
            sub.add_argument(flag, **kwargs)
        sub.set_defaults(run=fn)
    return parser


def main(args=None, prog_name="pwl"):
    """Run one command: print its JSON on stdout, or exit 1 with a JSON
    error on stderr.  Usage errors exit 2 through argparse."""
    a = _parser(prog_name).parse_args(args)
    try:
        payload = a.run(a)
    except PwlError as exc:
        err = {"error": type(exc).__name__, "message": str(exc)}
        if exc.payload:
            err["payload"] = {str(k): str(v) for k, v in exc.payload.items()}
        print(json.dumps(err, sort_keys=True), file=sys.stderr)
        sys.exit(1)
    payload["schema"] = SCHEMA
    if not a.no_meta:
        payload["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    print(json.dumps(payload, sort_keys=True))


if __name__ == "__main__":
    main()
