"""Self-check suites shared by the command line and the tests.

Each suite runs a batch of fixed and seeded identities and returns a
small report dict.  A violated identity raises ContractViolated with the
offending data in its payload (never an assert, so the checks also run
under python -O), and a returned report means the suite passed.  Child
seeds are derived by hashing the user seed with the suite label, so
suites are reproducible independently of the order they run in.
"""

import hashlib
import random

from .cohomology import SymCoeffs, h1, hecke_matrix, t_ell_reps
from .errors import ContractViolated
from .gamma1 import free_basis
from .linalg import charpoly_mod, identity_mat, mat_mul
from .matrices import PadicMat
from .padic import PrecInt, Weight, vp_factorial
from .slope import newton_polygon, ps_tp_inv, slope_factor, \
    verify_truncate_lemma
from .sympow import SeqVec, SymVec, act_sym, act_universal, binom_identity, \
    congr_project, tail_width


def child_seed(seed, label):
    digest = hashlib.sha256(f"{seed}:{label}".encode()).hexdigest()
    return int(digest[:16], 16)


def _check(ok, what, **payload):
    if not ok:
        raise ContractViolated(what, payload=payload)


def _rand_monoid_mat(rng, p, r):
    M = p ** r
    while True:
        d = rng.randrange(M)
        if d % p:
            break
    return PadicMat(p, r, rng.randrange(M), rng.randrange(M),
                    p * rng.randrange(M // p), d)


def suite_action(seed=0):
    """Composition law of the universal weight action, several characters."""
    checks = 0
    for p in (3, 5):
        r = 4
        rng = random.Random(child_seed(seed, f"action-{p}"))
        t = tail_width(p, r)
        chars = [Weight.of_int(0, p, r), Weight.of_int(3, p, r),
                 Weight.wild_only(1 + p, p, r)]
        for chi in chars:
            for _ in range(6):
                m1 = _rand_monoid_mat(rng, p, r)
                m2 = _rand_monoid_mat(rng, p, r)
                F = SeqVec(chi, 3,
                           [rng.randrange(p ** r) for _ in range(3 + 2 * t)])
                lhs = act_universal(m1 * m2, F)
                rhs = act_universal(m1, act_universal(m2, F))
                _check(lhs.agrees(rhs, 3), "action composition law fails",
                       chi=chi, m1=m1, m2=m2, F=F.coords)
                checks += 1
    return {"suite": "action", "passed": True, "checks": checks}


def suite_identity(seed=0):
    """The alternating binomial identity, integer and p-adic upper index."""
    cases = [(n, i, j, h) for n in range(-6, 7) for i in range(5)
             for j in range(5) for h in range(min(i, j) + 1)]
    rng = random.Random(child_seed(seed, "identity"))
    for p in (3, 5):
        pad = 4 + vp_factorial(4, p)
        for _ in range(10):
            n = PrecInt(p, pad, rng.randrange(p ** pad))
            i, j = rng.randrange(1, 5), rng.randrange(1, 5)
            cases.append((n, i, j, rng.randrange(min(i, j) + 1)))
    for n, i, j, h in cases:
        lhs, rhs = binom_identity(n, i, j, h)
        _check(lhs == rhs, "binomial identity fails",
               n=n, i=i, j=j, h=h, lhs=lhs, rhs=rhs)
    return {"suite": "identity", "passed": True, "checks": len(cases)}


def suite_congruence(seed=0):
    """Degree truncation commutes with the action across the congruence step."""
    checks = 0
    p = 3
    rng = random.Random(child_seed(seed, "congruence"))
    for r in (1, 2):
        step = p ** (r - 1) * (p - 1)
        for n0, n1 in ((0, step), (1, 1 + step), (2, 2 + 2 * step)):
            for _ in range(4):
                m = _rand_monoid_mat(rng, p, r + 2)
                v = SymVec(p, r + 2, n1,
                           [rng.randrange(p ** (r + 2)) for _ in range(n1 + 1)])
                lhs = congr_project(r, n1, n0, act_sym(m, v))
                rhs = act_sym(m, congr_project(r, n1, n0, v))
                _check(lhs.reduce(r) == rhs.reduce(r),
                       "truncation is not equivariant", m=m, lhs=lhs, rhs=rhs)
                checks += 1
    return {"suite": "congruence", "passed": True, "checks": checks}


def suite_hecke(seed=0):
    """Commutativity and the known eigenvalues on the level-11 quotient."""
    basis = free_basis(11)
    coeffs = SymCoeffs(11, 3, 0)
    M = 11 ** 3
    T2 = hecke_matrix(coeffs, basis, t_ell_reps(2, basis))
    T3 = hecke_matrix(coeffs, basis, t_ell_reps(3, basis))
    _check(mat_mul(T2, T3, M) == mat_mul(T3, T2, M),
           "T2 and T3 do not commute")
    pres = h1(coeffs, basis)
    ev = {2: -2, 3: -1}
    for ell, T in ((2, T2), (3, T3)):
        poly = pres.charpoly(T)
        val = sum(c * ev[ell] ** i for i, c in enumerate(poly)) % M
        _check(val == 0, f"{ev[ell]} is no eigenvalue of T{ell}", P=poly)
    return {"suite": "hecke", "passed": True, "rank": pres.free_rank(),
            "checks": 3}


def suite_slope(seed=0):
    """Polygon, unit-root factor and scaled-inverse contraction at level 11."""
    basis = free_basis(11)
    coeffs = SymCoeffs(11, 4, 0)
    pres = h1(coeffs, basis)
    T11 = pres.induced_matrix(hecke_matrix(coeffs, basis, t_ell_reps(11, basis)))
    P = charpoly_mod(T11, 11, 4)
    poly = newton_polygon(P, 11, 4)
    mult = poly.slope_multiplicity(0)
    _check(mult >= 1, "no unit-root slope", P=P)
    Q, _, loss = slope_factor(P, 1, 11, 4)
    _check(loss == 0 and len(Q) - 1 == mult,
           "unit-root factor disagrees with the polygon", Q=Q, loss=loss)
    _check(sum(Q) % 11 == 0, "X = 1 is not a root mod 11", Q=Q)
    W, _, _ = ps_tp_inv(T11, 1, 11, 4)
    k = len(W)
    for m in (1, 2):
        Mm = 11 ** m
        power = identity_mat(k)
        for _ in range(k * m):
            power = mat_mul(power, W, Mm)
        _check(all(x == 0 for row in power for x in row),
               "scaled inverse is not nilpotent", modulus=Mm, W=W)
    return {"suite": "slope", "passed": True, "ordinary_rank": mult,
            "checks": 5}


def suite_truncate(seed=0):
    """Window contracts for the family action at the base level."""
    report = verify_truncate_lemma(9, 1, 2, 3, 4, 4, trials=4,
                                   seed=child_seed(seed, "truncate"))
    return {"suite": "truncate", "passed": True,
            "checks": report["group_coords_checked"]
            + report["translate_coords_checked"]}


def run_suite(name, seed=0):
    """Run one named suite, or all of them under name 'all'."""
    if name == "all":
        reports = [_TABLE[n](seed) for n in SUITES]
        return {"suite": "all", "passed": all(r["passed"] for r in reports),
                "checks": sum(r["checks"] for r in reports),
                "reports": reports}
    return _TABLE[name](seed)


_TABLE = {"action": suite_action, "identity": suite_identity,
          "congruence": suite_congruence, "hecke": suite_hecke,
          "slope": suite_slope, "truncate": suite_truncate}
SUITES = tuple(_TABLE)
