"""Acceptance gate: one test per published criterion, timed and bounded.

Every test checks its identity at the stated modulus and asserts its own
runtime budget, so the -v listing gives one pass/fail line per
criterion.  Criteria 01, 02, 04 and 08-12 run the pwl.verify suites
that `pwl verify` runs, at acceptance sizes, and assert their check
counts, so a suite that silently does less fails here.
"""

import random
import time
from fractions import Fraction

from pwl.cohomology import (Cocycle, SymCoeffs, family_preimage, h1,
                            specialize_cocycle)
from pwl.gamma1 import free_basis
from pwl.iwasawa import (FamilyVec, WeightFn, act_family, branch_count,
                         family_tail, sp_vector)
from pwl.padic import Weight
from pwl.qexp import eisenstein, hecke_t, pairing, trivial_char
from pwl.sympow import SeqVec, act_sym, act_universal, specialize, tail_width
from pwl.verify import (NEWFORM_11A, rand_monoid_mat, suite_action,
                        suite_congruence, suite_hecke, suite_identity,
                        suite_slope, suite_truncate)


def stamp(label, t0, bound):
    dt = time.perf_counter() - t0
    assert dt < bound, f"{label} took {dt:.2f}s, budget {bound}s"
    print(f"[{label}] PASS ({dt:.2f}s)")


def test_criterion_01_action_composition_law():
    t0 = time.perf_counter()
    assert [6 + 2 * tail_width(p, 5) for p in (3, 5)] == [26, 20]
    report = suite_action(precision=5, degree=6, trials=50)
    assert report["checks"] == 2 * 3 * 50
    stamp("criterion 01 composition law", t0, 10.0)


def test_criterion_02_binomial_identity():
    t0 = time.perf_counter()
    # 25 integer n, sum over i, j <= 10 of min(i, j) + 1 = 506, 2 * 20 p-adic
    report = suite_identity(span=12, top=10, digits=6, trials=20)
    assert report["checks"] == 25 * 506 + 40
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
    assert suite_congruence(trials=10)["checks"] == 2 * 3 * 10
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
    # the newform 11a has a_2 = -2, a_3 = -1, a_5 = 1, a_7 = -2, a_13 = 4;
    # the cusp part of H^1 is two-dimensional, so each is a double root
    report = suite_hecke(precision=6, eigenvalues=NEWFORM_11A, reorder=())
    assert report["checks"] == 1 + 5
    stamp("criterion 08 eigenvalue multiplicities", t0, 300.0)


def test_criterion_09_commutativity_and_order_independence():
    t0 = time.perf_counter()
    # T2 T3 = T3 T2, and reps of T_2, T_3, T_11 left-multiplied by random
    # words and shuffled give the same matrix
    report = suite_hecke(precision=4, eigenvalues={}, reorder=(2, 3, 11))
    assert report["checks"] == 1 + 3
    stamp("criterion 09 commutativity", t0, 300.0)


def test_criterion_10_unit_root_segment():
    t0 = time.perf_counter()
    # the T_11 factor of slope 0 matches the polygon and vanishes at 1
    report = suite_slope(pairs=((11, 11),))
    assert report["checks"] == 6 and report["ordinary_rank"] == 7
    stamp("criterion 10 unit-root segment", t0, 300.0)


def test_criterion_11_scaled_inverse_nilpotence():
    t0 = time.perf_counter()
    report = suite_slope(pairs=((11, 11), (3, 9)), powers=3)
    assert report["checks"] == 2 * (4 + 3)
    stamp("criterion 11 scaled-inverse nilpotence", t0, 60.0)


def test_criterion_12_truncation_contracts():
    t0 = time.perf_counter()
    # 20 group coordinates and 3 * 20 translate coordinates
    assert suite_truncate(trials=20)["checks"] == 20 + 60
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
    g = hecke_t(2, 4, trivial_char(1), f4)
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
