"""Command line interface for bases, cohomology, Hecke data and slopes.

Every command prints one JSON document with sorted keys to stdout.
Package errors become a JSON object on stderr and exit status 1; click
keeps its usual status 2 for argument problems.  With --no-meta the
output carries no timestamp, so identical inputs give identical bytes.
"""

import functools
import json
import sys
import time

import click

from .cohomology import SymCoeffs, h1, hecke_matrix, t_ell_reps
from .errors import PwlError
from .gamma1 import free_basis
from .iwasawa import branch_count, family_tail
from .padic import _is_odd_prime
from .qexp import eisenstein, hecke_t, pairing, trivial_char
from .slope import newton_polygon, slope_factor
from .verify import SUITES, run_suite

SCHEMA = 1


def _emit(ctx, payload):
    payload = dict(payload)
    payload["schema"] = SCHEMA
    if not ctx.obj["no_meta"]:
        payload["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    click.echo(json.dumps(payload, sort_keys=True))


def _guard(fn):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except PwlError as exc:
            err = {"error": type(exc).__name__, "message": str(exc)}
            payload = getattr(exc, "payload", None)
            if payload:
                err["payload"] = {str(k): str(v) for k, v in payload.items()}
            click.echo(json.dumps(err, sort_keys=True), err=True)
            sys.exit(1)
    return wrapped


def _odd_prime(ctx, param, value):
    if not _is_odd_prime(value):
        raise click.BadParameter(f"{value} is not an odd prime")
    return value


def _prime_ell(ctx, param, value):
    if not (value == 2 or _is_odd_prime(value)):
        raise click.BadParameter(f"{value} is not a prime")
    return value


def _at_least_one(ctx, param, value):
    if value < 1:
        raise click.BadParameter(f"{value} is below 1")
    return value


_prime_option = click.option("--prime", type=int, required=True,
                             callback=_odd_prime, help="Odd prime p.")
_precision_option = click.option("--precision", type=int, required=True,
                                 callback=_at_least_one,
                                 help="Digits r, mod p^r.")
_ell_option = click.option("--ell", type=int, required=True,
                           callback=_prime_ell,
                           help="Prime index ell of T_ell.")


@click.group()
@click.option("--seed", default=0, show_default=True,
              help="Master seed for randomized checks.")
@click.option("--no-meta", is_flag=True,
              help="Omit timestamps so output is byte-reproducible.")
@click.pass_context
def main(ctx, seed, no_meta):
    """Weight families, cohomology of congruence groups, and slopes."""
    ctx.obj = {"seed": seed, "no_meta": no_meta}


@main.command()
@click.option("--level", type=int, required=True, help="Congruence level N.")
@click.pass_context
@_guard
def basis(ctx, level):
    """Free generators of the level subgroup and coset counts."""
    fb = free_basis(level)
    _emit(ctx, {"level": level, "rank": fb.rank(),
                "projective_cosets": fb.mu, "cosets": 2 * fb.mu,
                "generators": [list(g.entries()) for g in fb.gens]})


@main.command("h1")
@click.option("--level", type=int, required=True)
@_prime_option
@_precision_option
@click.option("--sym", type=int, default=0, show_default=True,
              help="Symmetric power degree of the coefficients.")
@click.pass_context
@_guard
def h1_cmd(ctx, level, prime, precision, sym):
    """Presentation of first cohomology: free rank and divisors."""
    fb = free_basis(level)
    pres = h1(SymCoeffs(prime, precision, sym), fb)
    _emit(ctx, {"level": level, "prime": prime, "precision": precision,
                "sym": sym, "free_rank": pres.free_rank(),
                "is_free": pres.is_free(), "moduli": pres.moduli})


@main.command()
@click.option("--level", type=int, required=True)
@_prime_option
@_precision_option
@_ell_option
@click.option("--sym", type=int, default=0, show_default=True)
@click.pass_context
@_guard
def hecke(ctx, level, prime, precision, ell, sym):
    """Characteristic polynomial of a Hecke operator on the free quotient."""
    fb = free_basis(level)
    coeffs = SymCoeffs(prime, precision, sym)
    reps = t_ell_reps(ell, fb)
    pres = h1(coeffs, fb)
    poly = pres.charpoly(hecke_matrix(coeffs, fb, reps))
    _emit(ctx, {"level": level, "prime": prime, "precision": precision,
                "ell": ell, "sym": sym, "cosets": len(reps),
                "charpoly": poly})


@main.command()
@click.option("--level", type=int, required=True)
@_prime_option
@_precision_option
@_ell_option
@click.option("--sym", type=int, default=0, show_default=True)
@click.pass_context
@_guard
def slopes(ctx, level, prime, precision, ell, sym):
    """Newton polygon of a Hecke operator and its unit-root factor."""
    fb = free_basis(level)
    coeffs = SymCoeffs(prime, precision, sym)
    pres = h1(coeffs, fb)
    P = pres.charpoly(hecke_matrix(coeffs, fb, t_ell_reps(ell, fb)))
    poly = newton_polygon(P, prime, precision)
    Q, _, loss = slope_factor(P, 1, prime, precision)
    _emit(ctx, {"level": level, "prime": prime, "precision": precision,
                "ell": ell, "sym": sym,
                "vertices": [list(v) for v in poly.vertices],
                "root_valuations": [[str(v), m]
                                    for v, m in poly.root_valuations()],
                "censored_on_hull": poly.ambiguous,
                "unit_root_factor": Q, "unit_root_rank": len(Q) - 1,
                "factor_precision": precision - loss})


@main.command()
@_prime_option
@_precision_option
@click.option("--degree", type=int, required=True,
              help="Weight-series truncation order d, mod X^d.")
@click.option("--out-width", type=int, default=1, show_default=True)
@click.option("--actions", type=int, default=1, show_default=True,
              help="How many monoid actions the stored window must survive.")
@click.pass_context
@_guard
def family(ctx, prime, precision, degree, out_width, actions):
    """Size a coordinate window for computations over the weight space."""
    tail = family_tail(prime, precision, degree)
    _emit(ctx, {"prime": prime, "precision": precision, "degree": degree,
                "branches": branch_count(prime), "tail": tail,
                "out_width": out_width, "actions": actions,
                "stored_width": out_width + actions * tail})


@main.command("eisenstein")
@click.option("--weight", type=int, required=True)
@click.option("--terms", type=int, default=10, show_default=True)
@click.option("--hecke-ell", type=int, default=None,
              help="Also apply the classical operator at this index.")
@click.pass_context
@_guard
def eisenstein_cmd(ctx, weight, terms, hecke_ell):
    """Coefficients of the level-one Eisenstein series."""
    f = eisenstein(weight, terms)
    out = {"weight": weight, "terms": terms,
           "coefficients": [str(c) for c in f.coeffs]}
    if hecke_ell is not None:
        g = hecke_t(hecke_ell, weight, trivial_char(1), f,
                    normalization="classical")
        out["hecke_ell"] = hecke_ell
        out["hecke_coefficients"] = [str(c) for c in g.coeffs]
        out["hecke_pairing"] = str(pairing(g))
    _emit(ctx, out)


@main.command()
@click.option("--suite", type=click.Choice(SUITES + ("all",)),
              default="all", show_default=True)
@click.pass_context
@_guard
def verify(ctx, suite):
    """Run a self-check suite and report what it verified."""
    report = run_suite(suite, seed=ctx.obj["seed"])
    _emit(ctx, report)
    if not report["passed"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
