"""Acceptance gate: one test per published criterion, timed and bounded.

Every test checks its identity at the stated modulus and asserts its own
runtime budget, so the -v listing gives one pass/fail line per
criterion.
"""

import random
import time
from fractions import Fraction

from pwl.cohomology import (Cocycle, SymCoeffs, family_preimage, h1,
                            hecke_matrix, specialize_cocycle, t_ell_reps)
from pwl.gamma1 import free_basis
from pwl.iwasawa import (FamilyVec, WeightFn, act_family, branch_count,
                         family_tail, sp_vector)
from pwl.linalg import charpoly_mod, mat_mul
from pwl.matrices import PadicMat
from pwl.padic import PrecInt, Weight, vp_factorial
from pwl.qexp import eisenstein, hecke_t, pairing, trivial_char
from pwl.slope import (newton_polygon, ps_tp_inv, slope_factor,
                       verify_truncate_lemma)
from pwl.sympow import (SeqVec, SymVec, act_sym, act_universal,
                        binom_identity, congr_project, specialize, tail_width)


def stamp(label, t0, bound):
    dt = time.perf_counter() - t0
    assert dt < bound, f"{label} took {dt:.2f}s, budget {bound}s"
    print(f"[{label}] PASS ({dt:.2f}s)")


def rand_monoid_mat(rng, p, r):
    M = p ** r
    while True:
        d = rng.randrange(M)
        if d % p:
            break
    return PadicMat(p, r, rng.randrange(M), rng.randrange(M),
                    p * rng.randrange(M // p), d)


def divide_linear(P, lam, M):
    """Divide the ascending polynomial P by X - lam; (quotient, remainder)."""
    D = P[::-1]
    out = [D[0] % M]
    for a in D[1:]:
        out.append((a + lam * out[-1]) % M)
    return out[:-1][::-1], out[-1]


def test_criterion_01_action_composition_law():
    t0 = time.perf_counter()
    for p in (3, 5):
        r = 5
        t = tail_width(p, r)
        width = 6 + 2 * t
        assert width == {3: 26, 5: 20}[p]
        chars = [Weight.of_int(0, p, r), Weight.of_int(3, p, r),
                 Weight.wild_only(1 + p, p, r)]
        for ci, chi in enumerate(chars):
            rng = random.Random(1000 * p + ci)
            for _ in range(50):
                m1 = rand_monoid_mat(rng, p, r)
                m2 = rand_monoid_mat(rng, p, r)
                F = SeqVec(chi, 6,
                           [rng.randrange(p ** r) for _ in range(width)])
                lhs = act_universal(m1 * m2, F)
                rhs = act_universal(m1, act_universal(m2, F))
                assert lhs.agrees(rhs, 6)
    stamp("criterion 01 composition law", t0, 10.0)


def test_criterion_02_binomial_identity():
    t0 = time.perf_counter()
    for n in range(-12, 13):
        for i in range(11):
            for j in range(11):
                for h in range(min(i, j) + 1):
                    lhs, rhs = binom_identity(n, i, j, h)
                    assert lhs == rhs
    for p in (3, 5):
        pad = 6 + vp_factorial(10, p)
        rng = random.Random(20 + p)
        for _ in range(20):
            n = PrecInt(p, pad, rng.randrange(p ** pad))
            i, j = rng.randrange(11), rng.randrange(11)
            h = rng.randrange(min(i, j) + 1)
            lhs, rhs = binom_identity(n, i, j, h)
            assert min(lhs.r, rhs.r) >= 6
            assert lhs == rhs
    stamp("criterion 02 binomial identity", t0, 5.0)


def test_criterion_03_specialization_equivariance():
    t0 = time.perf_counter()
    p, r = 3, 6
    t = tail_width(p, r)
    assert 8 + 1 + t == 21
    for n in range(9):
        chi = Weight.of_int(n, p, r)
        rng = random.Random(300 + n)
        for _ in range(20):
            m = rand_monoid_mat(rng, p, r)
            seq = SeqVec(chi, n + 1,
                         [rng.randrange(p ** r) for _ in range(n + 1 + t)])
            lhs = specialize(act_universal(m, seq), n)
            rhs = act_sym(m, specialize(seq, n))
            assert lhs == rhs
    stamp("criterion 03 specialization equivariance", t0, 10.0)


def test_criterion_04_congruence_projection():
    t0 = time.perf_counter()
    p = 3
    for r in (1, 2):
        step = p ** (r - 1) * (p - 1)
        for n0, n1 in ((0, step), (1, 1 + step), (2, 2 + 2 * step)):
            rng = random.Random(40 + 10 * r + n0)
            for _ in range(10):
                m = rand_monoid_mat(rng, p, r + 2)
                v = SymVec(p, r + 2, n1,
                           [rng.randrange(p ** (r + 2)) for _ in range(n1 + 1)])
                lhs = congr_project(r, n1, n0, act_sym(m, v))
                rhs = act_sym(m, congr_project(r, n1, n0, v))
                assert lhs.reduce(r) == rhs.reduce(r)
    stamp("criterion 04 congruence projection", t0, 5.0)


def test_criterion_05_family_specialization_intertwining():
    t0 = time.perf_counter()
    p, r, d = 3, 4, 4
    tail = family_tail(p, r, d)
    width = 4 + tail
    assert width == 28
    M = p ** r
    nb = branch_count(p)
    for k in (2, 3, 4, 7):
        rng = random.Random(500 + k)
        for _ in range(10):
            m = rand_monoid_mat(rng, p, r)
            coords = [WeightFn(p, r, d,
                               [[rng.randrange(M) for _ in range(d)]
                                for _ in range(nb)])
                      for _ in range(width)]
            F = FamilyVec(p, r, d, 4, coords)
            lhs = sp_vector(k, act_family(m, F))
            rhs = act_universal(m, sp_vector(k, F))
            assert lhs.agrees(rhs, 4)
    stamp("criterion 05 family intertwining", t0, 30.0)


def test_criterion_06_free_basis_ranks():
    t0 = time.perf_counter()
    assert free_basis(5).rank() == 3
    assert free_basis(7).rank() == 5
    assert free_basis(11).rank() == 11
    stamp("criterion 06 free basis ranks", t0, 10.0)


def test_criterion_07_level_eleven_cohomology_rank():
    t0 = time.perf_counter()
    pres = h1(SymCoeffs(11, 6, 0), free_basis(11))
    assert pres.is_free()
    # 2 * genus + (number of cusps - 1) = 2 + 9
    assert pres.free_rank() == 11
    stamp("criterion 07 level 11 rank", t0, 30.0)


def test_criterion_08_eigenvalue_multiplicities():
    t0 = time.perf_counter()
    p, r = 11, 6
    M = p ** r
    fb = free_basis(11)
    co = SymCoeffs(p, r, 0)
    pres = h1(co, fb)
    # the newform 11a has a_2 = -2, a_3 = -1, a_5 = 1, a_7 = -2, a_13 = 4;
    # the cusp part of H^1 is two-dimensional, so each is a double root
    for ell, lam in ((2, -2), (3, -1), (5, 1), (7, -2), (13, 4)):
        P = pres.charpoly(hecke_matrix(co, fb, t_ell_reps(ell, fb)))
        q1, rem1 = divide_linear(P, lam, M)
        q2, rem2 = divide_linear(q1, lam, M)
        assert rem1 == 0 and rem2 == 0
    stamp("criterion 08 eigenvalue multiplicities", t0, 300.0)


def test_criterion_09_commutativity_and_order_independence():
    t0 = time.perf_counter()
    p, r = 11, 4
    M = p ** r
    fb = free_basis(11)
    co = SymCoeffs(p, r, 0)
    T2 = hecke_matrix(co, fb, t_ell_reps(2, fb))
    T3 = hecke_matrix(co, fb, t_ell_reps(3, fb))
    assert mat_mul(T2, T3, M) == mat_mul(T3, T2, M)
    # another choice of reps (each left-multiplied by a random word in the
    # generators, in shuffled order) gives the same matrix on trivial
    # coefficients, where coboundaries vanish
    rng = random.Random(9)
    for ell in (2, 3, 11):
        reps = t_ell_reps(ell, fb)
        alt = []
        for A in reps:
            for _ in range(rng.randrange(1, 7)):
                g = rng.choice(fb.gens)
                A = (g if rng.random() < 0.5 else g.inverse()) * A
            alt.append(A)
        rng.shuffle(alt)
        assert hecke_matrix(co, fb, alt) == hecke_matrix(co, fb, reps)
    stamp("criterion 09 commutativity", t0, 300.0)


def test_criterion_10_unit_root_segment():
    t0 = time.perf_counter()
    fb = free_basis(11)
    co = SymCoeffs(11, 4, 0)
    pres = h1(co, fb)
    T11 = pres.induced_matrix(hecke_matrix(co, fb, t_ell_reps(11, fb)))
    P = charpoly_mod(T11, 11, 4)
    mult = newton_polygon(P, 11, 4).slope_multiplicity(0)
    assert mult >= 1
    Q, _, loss = slope_factor(P, 1, 11, 4)
    assert loss == 0 and len(Q) - 1 == mult
    # X = 1 divides the reduction: the weight-2 unit eigenvalue 1 is seen
    assert sum(Q) % 11 == 0
    stamp("criterion 10 unit-root segment", t0, 300.0)


def test_criterion_11_scaled_inverse_nilpotence():
    t0 = time.perf_counter()
    for p, N in ((11, 11), (3, 9)):
        fb = free_basis(N)
        co = SymCoeffs(p, 4, 0)
        pres = h1(co, fb)
        T = pres.induced_matrix(hecke_matrix(co, fb, t_ell_reps(p, fb)))
        W, _, prec = ps_tp_inv(T, 1, p, 4)
        assert prec >= 3
        n = len(W)
        for m in (1, 2, 3):
            Mm = p ** m
            power = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
            for _ in range(n * m):
                power = mat_mul(power, W, Mm)
            assert all(x == 0 for row in power for x in row)
    stamp("criterion 11 scaled-inverse nilpotence", t0, 60.0)


def test_criterion_12_truncation_contracts():
    t0 = time.perf_counter()
    report = verify_truncate_lemma(9, 1, 2, 3, 4, 4, trials=20, seed=12)
    assert report["trials"] == 20
    assert report["group_coords_checked"] == 20
    assert report["translate_coords_checked"] == 60
    stamp("criterion 12 truncation contracts", t0, 60.0)


def test_criterion_13_eisenstein_and_pairing():
    t0 = time.perf_counter()
    constants = {4: Fraction(1, 240), 6: Fraction(-1, 504),
                 8: Fraction(1, 480)}
    for k in (4, 6, 8):
        f = eisenstein(k, 50)
        assert f.a(0) == constants[k]
        for h in range(1, 51):
            assert f.a(h) == sum(d ** (k - 1)
                                 for d in range(1, h + 1) if h % d == 0)
    f4 = eisenstein(4, 10)
    g = hecke_t(2, 4, trivial_char(1), f4, normalization="classical")
    assert pairing(g) == 9
    assert all(g.a(h) == 9 * f4.a(h) for h in range(6))
    stamp("criterion 13 eisenstein and pairing", t0, 5.0)


def test_criterion_14_family_preimages():
    t0 = time.perf_counter()
    p, r, d = 3, 3, 3
    fb = free_basis(9)
    sym = SymCoeffs(p, r, 1)
    for i in range(10):
        rng = random.Random(1400 + i)
        c = Cocycle.random(sym, fb, rng)
        fam = family_preimage(c, d)
        back = specialize_cocycle(3, fam)
        rr = min(r, d)
        for v, w in zip(back.values, c.values):
            assert all((a - b) % p ** rr == 0
                       for a, b in zip(v.coords, w.coords))
    stamp("criterion 14 family preimages", t0, 120.0)
