"""Self-check suites shared by the command line and the acceptance tests.

Each suite runs a batch of fixed and seeded identities and returns a
small report dict.  A violated identity raises ContractViolated with the
offending data in its payload (never an assert, so the checks also run
under python -O), and a returned report means the suite passed.  Each
suite seeds its own generator with the string "seed:label" (random
hashes a str seed itself), so suites are reproducible independently of
the order they run in.

The suites take their sizes as keywords, defaulting to the sizes of
`pwl verify`: precision, degree and trials (action); span, top, digits
and trials (identity); trials (congruence and truncate); precision,
eigenvalues and reorder (hecke); pairs and powers (slope).  The shapiro
suite runs at the SHAPIRO_CASES and the truncate suite at the one
TRUNCATE_CASE, its family windows holding tail_width(p, r) coordinates
past its outputs, the tail every weight action uses up.  An unknown
suite name raises BadRange.  tests/test_acceptance.py runs the same
suites at its own sizes, so each invariant is written once.
"""

import random

from .cohomology import SymCoeffs, h1, hecke_matrix, t_ell_reps
from .errors import BadRange, ContractViolated
from .gamma1 import free_basis, in_gamma1
from .iwasawa import (FamilyVec, PrecInt, SeqVec, Weight, WeightFn,
                      act_family, act_universal, binom_identity, branch_count,
                      congr_project, tail_width)
from .linalg import (_poly_eval_matrix, charpoly_mod, mat_mul, poly_mul,
                     smith_mod)
from .matrices import IntMat
from .padic import vp, vp_factorial
from .shapiro import blocks
from .slope import newton_polygon, ps_tp_inv, slope_factor
from .sympow import SymVec, act_sym

# (N, p, r, ell, n) of the shapiro suite: elliptic generators of order 2
# and 3 at level 13, none at level 23 (U_23, where chi(ell) is 0), and
# odd and even n with p != N
SHAPIRO_CASES = ((13, 13, 3, 2, 0), (23, 23, 4, 23, 0), (7, 13, 4, 2, 3),
                 (13, 37, 3, 2, 4))

# (N, s, k0, p, r, d) of the truncate suite: level 9 = 3^2 at p = 3 mod
# 3^4, slope bound s, cut weight k0 and weight series of degree d
TRUNCATE_CASE = (9, 1, 2, 3, 4, 4)

# a_ell of the newform 11a; the cusp part of H^1 at level 11 is
# two-dimensional, so each is a double root of the T_ell charpoly
NEWFORM_11A = {2: -2, 3: -1, 5: 1, 7: -2, 13: 4}


def _check(ok, what, **payload):
    if not ok:
        raise ContractViolated(what, payload=payload)


def double_root(P, a, M):
    """(X - a)^2 divides P mod M: P(a) = P'(a) = 0, as P = (X - a) Q + P(a)
    with Q(a) = P'(a); P has ascending coefficients."""
    value = sum(c * a ** i for i, c in enumerate(P))
    slope = sum(i * c * a ** (i - 1) for i, c in enumerate(P) if i)
    return value % M == slope % M == 0


def rand_monoid_mat(rng, p, r):
    """A random (a b; c d) mod p^r with p | c and d a unit, made exact by
    raising a by the least multiple of p^r (each adds p^r d) with ad > bc."""
    M = p ** r
    while True:
        d = rng.randrange(M)
        if d % p:
            break
    a, b, c = rng.randrange(M), rng.randrange(M), p * rng.randrange(M // p)
    return IntMat(a + M * max(0, (b * c - a * d) // (M * d) + 1), b, c, d)


def suite_action(seed=0, precision=4, degree=3, trials=6):
    """Composition law of the universal weight action, several characters."""
    checks = 0
    for p in (3, 5):
        M = p ** precision
        rng = random.Random(f"{seed}:action-{p}")
        width = degree + 2 * tail_width(p, precision)
        chars = [Weight.of_int(0, p, precision), Weight.of_int(3, p, precision),
                 Weight.wild_only(1 + p, p, precision)]
        for chi in chars:
            for _ in range(trials):
                m1 = rand_monoid_mat(rng, p, precision)
                m2 = rand_monoid_mat(rng, p, precision)
                F = SeqVec(chi, [rng.randrange(M) for _ in range(width)])
                lhs = act_universal(m1 * m2, F)
                rhs = act_universal(m1, act_universal(m2, F))
                _check(lhs.agrees(rhs, degree), "action composition law fails",
                       chi=chi, m1=m1, m2=m2, F=F.coords)
                checks += 1
    return {"suite": "action", "passed": True, "checks": checks}


def suite_identity(seed=0, span=6, top=4, digits=4, trials=10):
    """The alternating binomial identity, integer and p-adic upper index;
    a p-adic n carries digits + v_p(top!) and both sides keep digits."""
    cases = [(n, i, j, h) for n in range(-span, span + 1)
             for i in range(top + 1) for j in range(top + 1)
             for h in range(min(i, j) + 1)]
    rng = random.Random(f"{seed}:identity")
    for p in (3, 5):
        pad = digits + vp_factorial(top, p)
        for _ in range(trials):
            n = PrecInt(p, pad, rng.randrange(p ** pad))
            i, j = rng.randrange(top + 1), rng.randrange(top + 1)
            cases.append((n, i, j, rng.randrange(min(i, j) + 1)))
    for n, i, j, h in cases:
        lhs, rhs = binom_identity(n, i, j, h)
        kept = isinstance(n, int) or min(lhs.r, rhs.r) >= digits
        _check(lhs == rhs and kept, f"binomial identity fails to {digits} digits",
               n=n, i=i, j=j, h=h, lhs=lhs, rhs=rhs)
    return {"suite": "identity", "passed": True, "checks": len(cases)}


def suite_congruence(seed=0, trials=4):
    """Degree truncation commutes with the action across the congruence step."""
    checks = 0
    p = 3
    rng = random.Random(f"{seed}:congruence")
    for r in (1, 2):
        step = p ** (r - 1) * (p - 1)
        for n0, n1 in ((0, step), (1, 1 + step), (2, 2 + 2 * step)):
            for _ in range(trials):
                m = rand_monoid_mat(rng, p, r + 2)
                v = SymVec(p, r + 2, n1,
                           [rng.randrange(p ** (r + 2)) for _ in range(n1 + 1)])
                lhs = congr_project(r, n1, n0, act_sym(m, v))
                rhs = act_sym(m, congr_project(r, n1, n0, v))
                _check(lhs == rhs,
                       "truncation is not equivariant", m=m, lhs=lhs, rhs=rhs)
                checks += 1
    return {"suite": "congruence", "passed": True, "checks": checks}


def suite_hecke(seed=0, precision=3, eigenvalues=NEWFORM_11A,
                reorder=(2, 3, 11)):
    """Level 11, mod 11^precision: T2 and T3 commute, each a_ell is a
    double root of the T_ell charpoly, and for each ell in reorder, reps
    left-multiplied by random words and shuffled give the same matrix
    (coboundaries vanish on trivial coefficients).  Every run builds H^1
    and reports its rank, with eigenvalues to check or none."""
    basis = free_basis(11)
    coeffs = SymCoeffs(11, precision, 0)
    M = 11 ** precision
    reps = {ell: t_ell_reps(ell, basis)
            for ell in (2, 3, *eigenvalues, *reorder)}
    T = {ell: hecke_matrix(coeffs, basis, R) for ell, R in reps.items()}
    _check(mat_mul(T[2], T[3], M) == mat_mul(T[3], T[2], M),
           "T2 and T3 do not commute")
    pres = h1(coeffs, basis)
    for ell, lam in eigenvalues.items():
        P = charpoly_mod(pres.induced_matrix(T[ell]), 11, precision)
        _check(double_root(P, lam, M),
               f"{lam} is no double eigenvalue of T{ell}", P=P)
    rng = random.Random(f"{seed}:hecke")
    for ell in reorder:
        alt = []
        for A in reps[ell]:
            for _ in range(rng.randrange(1, 7)):
                g = rng.choice(basis.gens)
                A = (g if rng.random() < 0.5 else g.inverse()) * A
            alt.append(A)
        rng.shuffle(alt)
        _check(hecke_matrix(coeffs, basis, alt) == T[ell],
               f"T{ell} depends on the choice of reps")
    return {"suite": "hecke", "passed": True,
            "rank": pres.free_rank(),
            "checks": 1 + len(eigenvalues) + len(reorder)}


def suite_slope(seed=0, pairs=((11, 11), (3, 9)), powers=2):
    """Polygon, unit-root factor and scaled-inverse contraction of U_p at
    level N mod p^4 for each (p, N) in pairs; ordinary_rank is the first's."""
    precision = 4
    checks = 0
    rank = None
    for p, N in pairs:
        basis = free_basis(N)
        coeffs = SymCoeffs(p, precision, 0)
        pres = h1(coeffs, basis)
        T = pres.induced_matrix(hecke_matrix(coeffs, basis,
                                             t_ell_reps(p, basis)))
        P = charpoly_mod(T, p, precision)
        vals = dict(newton_polygon(P, p, precision).root_valuations())
        mult = vals.get("0", 0)
        _check(mult >= 1, "no unit-root slope", P=P)
        Q, _, loss = slope_factor(P, 1, p, precision)
        _check(loss == 0 and len(Q) - 1 == mult,
               "unit-root factor disagrees with the polygon", Q=Q, loss=loss)
        _check(sum(Q) % p == 0, f"X = 1 is not a root mod {p}", Q=Q)
        W, _, prec = ps_tp_inv(T, 1, p, precision)
        _check(prec >= precision - 1, "scaled inverse lost digits", prec=prec)
        for m in range(1, powers + 1):
            power = _poly_eval_matrix([0] * (len(W) * m) + [1], W, p ** m)
            _check(all(x == 0 for row in power for x in row),
                   "scaled inverse is not nilpotent", modulus=p ** m, W=W)
        checks += 4 + powers
        rank = mult if rank is None else rank
    return {"suite": "slope", "passed": True, "ordinary_rank": rank,
            "checks": checks}


def suite_shapiro(seed=0):
    """Shapiro's lemma at each (N, p, r, ell, n) of SHAPIRO_CASES: hecke and
    slopes split there, the block ranks sum to the free rank of
    H^1(Gamma_1(N), Sym^n), the block charpolys multiply to its T_ell
    charpoly mod p^r, and, for ell prime to N, each block's
    P_(chi^-1)(X) is chi(ell)^(-d) P_chi(chi(ell) X), d its degree."""
    checks = 0
    for N, p, r, ell, n in SHAPIRO_CASES:
        M = p ** r
        _, parts = blocks(N, p, r, ell, n)
        _check(len(parts) > 1, "no character split", N=N, p=p, n=n)
        basis = free_basis(N)
        coeffs = SymCoeffs(p, r, n)
        pres = h1(coeffs, basis)
        whole = charpoly_mod(pres.induced_matrix(hecke_matrix(
            coeffs, basis, t_ell_reps(ell, basis))), p, r)
        _check(sum(x.free_rank() for _, x, _ in parts) == pres.free_rank(),
               "block ranks do not sum to the free rank", N=N, p=p, n=n)
        product = [1]
        for _, _, P in parts:
            product = poly_mul(product, P, M)
        _check(product == whole, "block charpolys do not multiply to the "
               "charpoly", N=N, p=p, ell=ell, n=n, product=product, P=whole)
        checks += 2
        if N % ell:
            polys = {chi: P for chi, _, P in parts}
            for chi, P in polys.items():
                inv = tuple(pow(x, -1, M) if x else 0 for x in chi)
                a, d = chi[ell % N], len(P) - 1
                want = [c * pow(a, k - d, M) % M for k, c in enumerate(P)]
                _check(polys[inv] == want, "P_(chi^-1)(X) is not "
                       "chi(ell)^-d P_chi(chi(ell) X)", N=N, chi=chi, P=P)
                checks += 1
    return {"suite": "shapiro", "passed": True, "checks": checks}


def _ideal_member(series, factor_val, zeta_shift, p, r, d):
    """Is the branch series in p^factor_val * (c + X) with c = zeta_shift?"""
    M = p ** r
    mat = [[0] * d for _ in range(d)]
    for j in range(d):
        mat[j][j] = zeta_shift * p ** factor_val % M
        if j:
            mat[j][j - 1] = p ** factor_val % M
    return smith_mod(mat, p, r).solve([x % M for x in series]) is not None


def suite_truncate(seed=0, trials=4):
    """Window contracts for the family action at TRUNCATE_CASE.

    For windows supported in coordinates >= k0 - 1: group elements send
    the low window into N * (weight - k0), and the p-translate sends the
    low window into p^s * (weight - k0) and the high window into p^s.
    Ideal membership is decided exactly by linear solves.
    """
    N, s, k0, p, r, d = TRUNCATE_CASE
    rng = random.Random(f"{seed}:truncate")
    fb = free_basis(N)
    vN = vp(N, p)
    width = k0 + 1 + tail_width(p, r)  # two outputs past the window
    nb = branch_count(p)
    M = p ** r
    checks = 0
    for trial in range(trials):
        F = FamilyVec(p, r, d, [WeightFn.zero(p, r, d)] * (k0 - 1) + [
            WeightFn(p, r, d, [[rng.randrange(M) for _ in range(d)]
                               for _ in range(nb)])
            for _ in range(k0 - 1, width)])

        m = fb.gens[rng.randrange(fb.rank())]
        gam = m if rng.random() < 0.5 else m.inverse()
        for _ in range(3):                 # words of four letters
            g2 = fb.gens[rng.randrange(fb.rank())]
            gam = gam * (g2 if rng.random() < 0.5 else g2.inverse())
        _check(in_gamma1(gam, N), "word leaves the level subgroup",
               matrix=gam.entries())
        out_g = act_family(gam, F)
        for i, fn in enumerate(out_g.coords[:k0 - 1]):
            for zeta in range(nb):
                _check(_ideal_member(fn.comps[zeta], vN, zeta - k0, p, r, d),
                       "group action escapes the level ideal", trial=trial,
                       coord=i, branch=zeta, matrix=gam.entries())
            checks += 1

        theta = rng.randrange(p)
        out_t = act_family(IntMat(p, -theta, 0, 1), F)
        for i, fn in enumerate(out_t.coords):
            for zeta in range(nb):
                if i < k0 - 1:
                    ok = _ideal_member(fn.comps[zeta], s, zeta - k0, p, r, d)
                else:
                    ok = all(x % p ** s == 0 for x in fn.comps[zeta])
                _check(ok, "translate action escapes the slope ideal",
                       trial=trial, coord=i, branch=zeta, theta=theta)
            checks += 1
    return {"suite": "truncate", "passed": True, "checks": checks}


def run_suite(name, seed=0):
    """Run one named suite, or all under name 'all'; a failed suite raises."""
    if name == "all":
        reports = [_TABLE[n](seed) for n in SUITES]
        return {"suite": "all", "passed": True,
                "checks": sum(r["checks"] for r in reports),
                "reports": reports}
    if name not in _TABLE:
        raise BadRange(f"no suite {name!r}; choose from all, {', '.join(SUITES)}")
    return _TABLE[name](seed)


_TABLE = {"action": suite_action, "identity": suite_identity,
          "congruence": suite_congruence, "hecke": suite_hecke,
          "slope": suite_slope, "truncate": suite_truncate,
          "shapiro": suite_shapiro}
SUITES = tuple(_TABLE)
