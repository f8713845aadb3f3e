"""Cohomology of the level subgroups: classes, operators, families."""

import math
import random

import pytest

from pwl import cohomology
from pwl.cohomology import (Cocycle, FamilyCoeffs, SymCoeffs, _coset_index,
                            _coset_partner, _gamma1_quotient, diamond_rep,
                            family_preimage, h1, hecke_images, hecke_matrix,
                            specialize_cocycle, t_ell_reps)
from pwl.errors import (BadRange, DimensionMismatch, InternalInconsistency,
                        NotCoprime, NotFreeModule, WidthInsufficient)
from pwl.gamma1 import FreeBasisData, free_basis
from pwl.iwasawa import WeightFn, act_family
from pwl.linalg import mat_mul, mat_vec
from pwl.matrices import IntMat
from pwl.padic import tail_width
from pwl.sympow import SymVec
from pwl.verify import rand_monoid_mat


def coboundary(coeffs, basis, b):
    """The cocycle g -> g.b - b."""
    return Cocycle(coeffs, basis, [coeffs.act(g, b) - b for g in basis.gens])


def rand_word_matrix(rng, basis, max_len=6):
    m = IntMat.identity()
    for _ in range(rng.randrange(1, max_len + 1)):
        g = basis.gens[rng.randrange(basis.rank())]
        m = m * (g if rng.random() < 0.5 else g.inverse())
    return m


def other_choice(reps, basis, rng):
    """The same cosets: each rep left-multiplied by a random word in the
    generators, in shuffled order."""
    out = [rand_word_matrix(rng, basis) * A for A in reps]
    rng.shuffle(out)
    return out


def scan_partner(B, reps, N):
    """B A^-1 for the first rep A that absorbs B, by testing every rep."""
    for A in reps:
        G = _gamma1_quotient(B, A, N)
        if G is not None:
            return G
    raise InternalInconsistency("no representative absorbs the translate")


def ref_hecke_matrix(coeffs, basis, reps):
    """The operator's matrix by one D x D mat_mul per word letter, with
    every block update reduced mod p^r as it is added."""
    D = coeffs.dim()
    R = basis.rank()
    M = coeffs.p ** coeffs.r
    T = [[0] * (R * D) for _ in range(R * D)]

    def add_block(h, q, S, sign):
        for i in range(D):
            row = T[h * D + i]
            for j in range(D):
                row[q * D + j] = (row[q * D + j] + sign * S[i][j]) % M

    gen_mats = [coeffs.act_matrix(g) for g in basis.gens]
    inv_mats = [coeffs.act_matrix(g.inverse()) for g in basis.gens]
    for h, gam in enumerate(basis.gens):
        for A in reps:
            word = basis.express(scan_partner(A * gam, reps, basis.N))
            S = coeffs.act_matrix(A.cofactor())
            for k in word:
                if k > 0:
                    add_block(h, k - 1, S, 1)
                    S = mat_mul(S, gen_mats[k - 1], M)
                else:
                    S = mat_mul(S, inv_mats[-k - 1], M)
                    add_block(h, -k - 1, S, -1)
    return T


# (N, n, p, r, reps): "Tp" is t_ell_reps(p), "Tl" t_ell_reps of a small
# prime ell != p, "diamond" one diamond_rep; every N, n, p and r occurs
HECKE_CASES = [
    (5, 16, 31, 4, "Tl"),
    (5, 0, 5, 8, "Tp"),
    (5, 2, 31, 8, "Tp"),
    (5, 5, 3, 1, "Tp"),
    (7, 1, 3, 4, "Tp"),
    (7, 5, 31, 1, "diamond"),
    (7, 16, 5, 4, "Tl"),
    (11, 2, 5, 8, "Tp"),
    (11, 16, 3, 1, "diamond"),
    (11, 0, 31, 8, "Tl"),
    (13, 5, 3, 8, "Tl"),
    (13, 0, 31, 4, "Tl"),
    (13, 1, 5, 1, "Tp"),
]


@pytest.mark.parametrize("N, n, p, r, kind", HECKE_CASES)
def test_hecke_matrix_matches_reference(N, n, p, r, kind):
    rng = random.Random(1000 * N + 10 * n + r)
    fb = free_basis(N)
    if kind == "Tp":
        reps = t_ell_reps(p, fb)
    elif kind == "Tl":
        ell = rng.choice([q for q in (2, 3, 5, 7) if q != p and N % q])
        reps = t_ell_reps(ell, fb)
    else:
        m = rng.choice([x for x in range(2, N) if math.gcd(x, N) == 1])
        reps = [diamond_rep(m, N)]
    co = SymCoeffs(p, r, n)
    assert hecke_matrix(co, fb, reps) == ref_hecke_matrix(co, fb, reps)


class FullCoeffs:
    """Stub coefficients: every action is the D x D matrix with all entries
    M - 1.  Not a representation, but hecke_matrix and ref_hecke_matrix
    compute the same sums of products from it, with the largest entries
    mod M there are."""

    def __init__(self, D, p, r):
        self.D, self.p, self.r = D, p, r

    def dim(self):
        return self.D

    def act_matrix(self, mat):
        return [[self.p ** self.r - 1] * self.D for _ in range(self.D)]


@pytest.mark.parametrize("co, N, ell", [
    pytest.param(FullCoeffs(D, p, r), N, 2, id=f"D{D}-{p}^{r}-N{N}")
    for D, p, r in ((17, 3, 1), (2, 31, 8), (41, 3, 1), (5, 5, 3), (9, 3, 2),
                    (2, 31, 1))
    for N in (5, 7, 11, 13)
] + [pytest.param(SymCoeffs(31, 4, 16), 5, 31, id="sym16-N5-T31")])
def test_hecke_matrix_field_bound_stress(co, N, ell):
    # the Montgomery step's fields near their bounds: W one bit short
    # carries between fields, and at D M = 62 just below 2^6 a k one bit
    # short lets the prefix fields outgrow W
    fb = free_basis(N)
    reps = t_ell_reps(ell, fb)
    assert hecke_matrix(co, fb, reps) == ref_hecke_matrix(co, fb, reps)


def test_hecke_matrix_identity_operator():
    # one one-letter word per generator: L = 1, so the packed fields get
    # the fewest bits any operator gets, W = 2 bits(2 D M)
    fb = free_basis(7)
    co = SymCoeffs(5, 4, 5)
    n = fb.rank() * co.dim()
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    assert hecke_matrix(co, fb, [IntMat.identity()]) == eye


@pytest.mark.parametrize("N, p, n, trivial", [(9, 3, 2, 2), (15, 5, 3, 2)])
def test_hecke_matrix_identity_letters(N, p, n, trivial):
    # some generators act as the identity on Sym^n mod p and some do not:
    # skipping the products of the identity letters changes no entry
    fb = free_basis(N)
    co = SymCoeffs(p, 1, n)
    eye = [[int(i == j) for j in range(n + 1)] for i in range(n + 1)]
    assert sum(co.act_matrix(g) == eye for g in fb.gens) == trivial
    reps = t_ell_reps(p, fb)
    assert hecke_matrix(co, fb, reps) == ref_hecke_matrix(co, fb, reps)


def test_hecke_matrix_work_counts(monkeypatch):
    # T_23 at level 23: one exact coset test per translate (45 generators
    # times 23 reps) and 13564 letters over the rewritten words, on the
    # matrix path and on the value path alike
    quotients, letters = [], []
    quotient, express = cohomology._gamma1_quotient, FreeBasisData.express

    def counted_quotient(B, A, N):
        quotients.append(1)
        return quotient(B, A, N)

    def counted_express(self, mat):
        word = express(self, mat)
        letters.append(len(word))
        return word

    monkeypatch.setattr(cohomology, "_gamma1_quotient", counted_quotient)
    monkeypatch.setattr(FreeBasisData, "express", counted_express)
    fb = free_basis(23)
    co, reps = SymCoeffs(23, 2, 0), t_ell_reps(23, fb)
    hecke_matrix(co, fb, reps)
    assert len(quotients) == 1035 == fb.rank() * 23
    assert sum(letters) == 13564
    c = Cocycle.random(co, fb, random.Random(23))
    quotients.clear()
    letters.clear()
    hecke_images(c, reps)
    assert len(quotients) == 1035
    assert sum(letters) == 13564


def test_h1_trivial_level11():
    fb = free_basis(11)
    pres = h1(SymCoeffs(11, 6, 0), fb)
    assert pres.free_rank() == 11
    assert pres.is_free()
    assert sum(pres.moduli) == 6 * 11


def test_rep_counts():
    fb11 = free_basis(11)
    assert len(t_ell_reps(2, fb11)) == 3
    assert len(t_ell_reps(3, fb11)) == 4
    assert len(t_ell_reps(11, fb11)) == 11
    fb9 = free_basis(9)
    assert len(t_ell_reps(2, fb9)) == 3
    assert len(t_ell_reps(3, fb9)) == 3


def test_t_ell_reps_needs_prime():
    fb = free_basis(11)
    for ell in (4, 1, 0, -3, 9):
        with pytest.raises(BadRange):
            t_ell_reps(ell, fb)


def test_rep_invariants():
    # on every level 5..25, for small ell and the primes dividing N: ell + 1
    # reps (ell if ell | N) of determinant ell with a = 1 and c = 0 mod N,
    # so the adjugate stays admissible for the p-adic actions; pairwise
    # inequivalent, and closed under right multiplication by the generators
    for N in range(5, 26):
        fb = free_basis(N)
        moves = [h for g in fb.gens for h in (g, g.inverse())]
        ells = {2, 3, 5, 7} | {q for q in (11, 13, 17, 19, 23) if N % q == 0}
        for ell in sorted(ells):
            reps = t_ell_reps(ell, fb)
            assert len(reps) == ell + (N % ell != 0)
            for i, A in enumerate(reps):
                assert A.det() == ell
                assert A.a % N == 1 and A.c % N == 0
                assert all(_gamma1_quotient(A, B, N) is None
                           for B in reps[i + 1:])
                for g in moves:
                    scan_partner(A * g, reps, N)


def test_keyed_partner_matches_scan():
    # every generator translate of the T_ell reps, of the identity alone
    # and of all diamond reps at once (determinant-1 cosets that share a
    # Hermite form and differ in their bottom rows) at levels 5..29: the
    # coset key picks the rep the scan over all reps finds
    translates = 0
    for N in range(5, 30):
        fb = free_basis(N)
        rep_lists = [t_ell_reps(ell, fb) for ell in (2, 3, 5, 7, 11, 13)]
        rep_lists.append([IntMat.identity()])
        rep_lists.append([diamond_rep(m, N) for m in range(1, N)
                          if math.gcd(m, N) == 1])
        for reps in rep_lists:
            index = _coset_index(reps, N)
            for A in reps:
                for g in fb.gens:
                    B = A * g
                    G = _coset_partner(B, index, N)
                    assert G == scan_partner(B, reps, N)
                    translates += 1
    assert translates == 38319


def test_keyed_partner_rejects_incomplete_and_repeated_reps():
    fb = free_basis(11)
    reps = t_ell_reps(3, fb)
    # a dropped rep leaves some translate without a partner
    with pytest.raises(InternalInconsistency, match="no representative"):
        hecke_matrix(SymCoeffs(3, 2, 0), fb, reps[1:])
    with pytest.raises(InternalInconsistency, match="no representative"):
        hecke_images(Cocycle.random(SymCoeffs(3, 2, 0), fb, random.Random(3)),
                     reps[:-1])
    # a second rep of a coset already present: g A with g in the subgroup
    twin = fb.gens[0] * reps[2]
    assert _gamma1_quotient(twin, reps[2], 11) == fb.gens[0]
    with pytest.raises(InternalInconsistency, match="share a coset"):
        _coset_index(reps + [twin], 11)
    with pytest.raises(InternalInconsistency, match="share a coset"):
        hecke_matrix(SymCoeffs(3, 2, 0), fb, [twin] + reps)


def test_hecke_commute_and_order_independence():
    p, r = 11, 4
    M = p ** r
    fb = free_basis(11)
    co = SymCoeffs(p, r, 0)
    T2 = hecke_matrix(co, fb, t_ell_reps(2, fb))
    T3 = hecke_matrix(co, fb, t_ell_reps(3, fb))
    assert mat_mul(T2, T3, M) == mat_mul(T3, T2, M)
    # another choice of reps changes the matrix by a map into the
    # coboundaries, which are zero for trivial coefficients
    rng = random.Random(7)
    assert hecke_matrix(co, fb, other_choice(t_ell_reps(2, fb), fb, rng)) == T2
    fb7 = free_basis(7)
    co = SymCoeffs(5, 3, 2)
    pres = h1(co, fb7)
    T = hecke_matrix(co, fb7, t_ell_reps(5, fb7))
    T_alt = hecke_matrix(co, fb7, other_choice(t_ell_reps(5, fb7), fb7, rng))
    n = len(T)
    for j in range(n):
        col = [(T[i][j] - T_alt[i][j]) % 5 ** 3 for i in range(n)]
        assert pres.sf.solve(col) is not None
    assert pres.charpoly(T) == pres.charpoly(T_alt)


def test_diamond_reps():
    m = diamond_rep(4, 11)
    assert m.det() == 1
    assert m.c % 11 == 0 and (m.a * 4 - 1) % 11 == 0 and (m.d - 4) % 11 == 0
    with pytest.raises(NotCoprime):
        diamond_rep(3, 9)


def test_diamond_identity_and_multiplicativity():
    p, r = 11, 4
    M = p ** r
    fb = free_basis(11)
    co = SymCoeffs(p, r, 0)
    rng = random.Random(3)
    c = Cocycle.random(co, fb, rng)
    d1 = hecke_images(c, [diamond_rep(1, 11)])
    assert all(co.eq(x, y) for x, y in zip(c.values, d1.values))
    Dm = {n: hecke_matrix(co, fb, [diamond_rep(n, 11)]) for n in (2, 3, 6)}
    assert mat_mul(Dm[2], Dm[3], M) == Dm[6]


def test_value_and_matrix_paths_agree():
    fb = free_basis(9)
    rng = random.Random(5)
    for co in (SymCoeffs(3, 4, 0), SymCoeffs(3, 3, 2)):
        reps = t_ell_reps(2, fb)
        T = hecke_matrix(co, fb, reps)
        for _ in range(3):
            c = Cocycle.random(co, fb, rng)
            img = hecke_images(c, reps)
            want = mat_vec(T, c.stacked_coords(), co.p ** co.r)
            assert want == img.stacked_coords()


def test_eval_twisted_homomorphism():
    fb = free_basis(9)
    co = SymCoeffs(3, 4, 2)
    rng = random.Random(7)
    for _ in range(15):
        c = Cocycle.random(co, fb, rng)
        w1 = rand_word_matrix(rng, fb)
        w2 = rand_word_matrix(rng, fb)
        lhs = c.eval(w1 * w2)
        rhs = c.eval(w1) + co.act(w1, c.eval(w2))
        assert co.eq(lhs, rhs)
        assert co.eq(c.eval(IntMat.identity()), co.zero())


def test_cocycle_rejects_wrong_value_count(monkeypatch):
    fb = free_basis(7)
    co = SymCoeffs(5, 2, 1)
    with pytest.raises(DimensionMismatch):
        Cocycle(co, fb, [co.zero()] * (fb.rank() - 1))
    # a basis whose rank disagrees with its generator list
    monkeypatch.setattr(FreeBasisData, "rank", lambda self: len(self.gens) + 1)
    with pytest.raises(DimensionMismatch):
        coboundary(co, fb, SymVec(5, 2, 1, [1, 0]))


def test_coboundaries_vanish_in_h1():
    fb = free_basis(9)
    co = SymCoeffs(3, 3, 1)
    pres = h1(co, fb)
    rng = random.Random(8)
    for _ in range(5):
        b = co.rand(rng)
        cob = coboundary(co, fb, b)
        assert all(x == 0 for x in pres.class_coords(cob))
        c = Cocycle.random(co, fb, rng)
        assert pres.class_coords(c) == pres.class_coords(c + cob)


def test_class_coords_detect_coboundaries():
    fb = free_basis(9)
    co = SymCoeffs(3, 3, 1)
    pres = h1(co, fb)
    rng = random.Random(9)
    hits = 0
    for _ in range(10):
        c1 = Cocycle.random(co, fb, rng)
        c2 = Cocycle.random(co, fb, rng)
        same = pres.class_coords(c1) == pres.class_coords(c2)
        diff = (c1 - c2).stacked_coords()
        solvable = pres.sf.solve(diff) is not None
        assert same == solvable
        hits += 0 if same else 1
    assert hits > 0


def test_cardinality_identities():
    # rank-nullity for the coboundary map and the class count
    fb = free_basis(9)
    for co in (SymCoeffs(3, 2, 1), SymCoeffs(3, 3, 2)):
        pres = h1(co, fb)
        D = co.dim()
        R = fb.rank()
        r = co.r
        exps = pres.sf.exps
        kernel = sum(exps) + r * (D - len(exps))
        image = sum(r - e for e in exps)
        assert kernel + image == r * D
        assert sum(pres.moduli) + image == r * R * D


def test_induced_matrix_needs_coboundary_stable_operator():
    fb = free_basis(7)
    co = SymCoeffs(5, 3, 2)
    pres = h1(co, fb)
    assert pres.is_free()
    n = fb.rank() * co.dim()
    M = 5 ** 3
    # the identity and T_5 preserve the coboundaries; the map that sums
    # every generator block into the first one does not
    pres.induced_matrix([[int(i == j) for j in range(n)] for i in range(n)])
    pres.induced_matrix(hecke_matrix(co, fb, t_ell_reps(5, fb)))
    collapse = [[int(i == j % co.dim()) for j in range(n)] for i in range(n)]
    assert any(pres.sf.solve(mat_vec(collapse, [row[t] for row in pres.beta],
                                      M)) is None for t in range(co.dim()))
    with pytest.raises(InternalInconsistency, match="coboundaries"):
        pres.induced_matrix(collapse)


def test_induced_matrix_needs_free_presentation():
    fb = free_basis(9)
    co = SymCoeffs(3, 3, 2)
    pres = h1(co, fb)
    assert not pres.is_free()
    n = fb.rank() * co.dim()
    eye = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    with pytest.raises(NotFreeModule):
        pres.induced_matrix(eye)


def reference_beta(co, fb):
    """The coboundary matrix built value by value: column t stacks the
    coboundary of the t-th unit vector."""
    D = co.dim()
    cols = [coboundary(co, fb, SymVec(co.p, co.r, co.n,
                                      [int(i == t) for i in range(D)]))
            .stacked_coords() for t in range(D)]
    return [list(row) for row in zip(*cols)]


def reference_induced(pres, T):
    """U T U^-1 as two dense products, restricted to the free indices."""
    M = pres.coeffs.p ** pres.coeffs.r
    full = mat_mul(mat_mul(pres.sf.U, T, M), pres.sf.Uinv, M)
    F = [i for i, e in enumerate(pres.moduli) if e == pres.coeffs.r]
    return [[full[a][b] for b in F] for a in F]


@pytest.mark.parametrize("N, p, r, n, ell", [
    (5, 31, 4, 16, 2), (7, 5, 3, 2, 5), (11, 11, 3, 0, 2), (13, 7, 3, 4, 2),
    (13, 7, 2, 4, 3), (9, 5, 2, 2, 2), (17, 3, 2, 0, 3), (9, 3, 3, 2, 2)])
def test_h1_matches_reference_construction(N, p, r, n, ell):
    fb = free_basis(N)
    co = SymCoeffs(p, r, n)
    pres = h1(co, fb)
    assert pres.beta == reference_beta(co, fb)
    if not pres.is_free():  # only (9, 3, 3, 2): mixed divisors
        return
    # seeded combinations a T_ell + b T_ell' + c I keep the coboundaries
    M = p ** r
    rng = random.Random(N * 1000 + n)
    T1 = hecke_matrix(co, fb, t_ell_reps(ell, fb))
    T2 = hecke_matrix(co, fb, t_ell_reps(p, fb))
    for _ in range(3):
        a, b, c = (rng.randrange(M) for _ in range(3))
        T = [[(a * x + b * y + c * (i == j)) % M
              for j, (x, y) in enumerate(zip(r1, r2))]
             for i, (r1, r2) in enumerate(zip(T1, T2))]
        assert pres.induced_matrix(T) == reference_induced(pres, T)


def test_specialize_commutes_with_eval():
    # family evaluation then weight specialization == specialize then eval
    p, r, d = 3, 4, 3
    k = 4
    fb = free_basis(9)
    out = k - 1
    co = FamilyCoeffs(p, r, d, out, out + tail_width(p, r))
    rng = random.Random(11)
    c_fam = Cocycle.random(co, fb, rng)
    c_sym = specialize_cocycle(k, c_fam)
    for _ in range(4):
        w = rand_word_matrix(rng, fb, max_len=4)
        fam_val = c_fam.eval(w)
        sv = specialize_cocycle(k, Cocycle(co, fb, [fam_val] * fb.rank()))
        assert c_sym.coeffs.eq(sv.values[0], c_sym.eval(w))


def test_family_hecke_intertwines_specialization():
    # apply the p-operator in the family, specialize, and compare with the
    # symmetric-power operator applied to the specialized cocycle; one
    # operator uses up one tail
    p, r, d = 3, 4, 3
    k = 4
    fb = free_basis(9)
    reps = t_ell_reps(3, fb)
    out = k - 1
    co = FamilyCoeffs(p, r, d, out, out + tail_width(p, r))
    rng = random.Random(13)
    c_fam = Cocycle.random(co, fb, rng)
    c_sym = specialize_cocycle(k, c_fam)
    got = specialize_cocycle(k, hecke_images(c_fam, reps))
    want = hecke_images(c_sym, reps)
    assert len(got.values) == fb.rank() == 7
    for x, y in zip(got.values, want.values):
        assert c_sym.coeffs.eq(x, y)


def test_family_action_returns_out_width():
    # the value path acts on out_width + tail_width and returns out_width:
    # the first out_width coordinates of the full action, whatever the
    # stored width (p(r + d) is family_tail's budget), for monoid matrices and
    # level-subgroup words; a stored value one coordinate short raises
    p, r, d, out = 3, 3, 2, 3
    tail = tail_width(p, r)
    fb = free_basis(9)
    rng = random.Random(19)
    for extra in (tail, 2 * tail, p * (r + d)):
        co = FamilyCoeffs(p, r, d, out, out + extra)
        for _ in range(3):
            x = co.rand(rng)
            # rand skips the validated constructor: shaped and reduced
            assert all(WeightFn(p, r, d, f.comps).comps == f.comps
                       for f in x.coords)
            for m in (rand_monoid_mat(rng, p, r), rand_word_matrix(rng, fb)):
                got = co.act(m, x)
                assert len(got.coords) == out
                assert [f.comps for f in got.coords] == [
                    f.comps for f in act_family(m, x).coords[:out]]
    co = FamilyCoeffs(p, r, d, out, out + tail - 1)
    with pytest.raises(WidthInsufficient):
        co.act(IntMat.identity(), co.rand(rng))


def test_family_operator_values_are_out_width():
    # each stored value is acted on once per operator, so an image value
    # is out_width wide and a second action raises rather than guess
    p, r, d, out = 3, 3, 2, 3
    fb = free_basis(9)
    co = FamilyCoeffs(p, r, d, out, out + 2 * tail_width(p, r))
    img = hecke_images(Cocycle.random(co, fb, random.Random(23)),
                       t_ell_reps(3, fb))
    assert [len(v.coords) for v in img.values] == [out] * fb.rank()
    assert len(co.zero().coords) == out
    with pytest.raises(WidthInsufficient):
        co.act(fb.gens[0], img.values[0])


def test_family_preimage_round_trip():
    # the lift is the constant series (v, 0, 0) on the branch of the weight
    # k = 3 mod p(p - 1) = 6, and zero on every other branch, followed by
    # the tail_width(3, 3) = 6 zero coordinates one action reads
    fb = free_basis(9)
    co = SymCoeffs(3, 3, 1)
    rng = random.Random(17)
    zero = [[0, 0, 0]] * 6
    for _ in range(5):
        c = Cocycle.random(co, fb, rng)
        lifted = family_preimage(c, d=3)
        back = specialize_cocycle(co.n + 2, lifted)
        for x, y in zip(back.values, c.values):
            assert co.eq(x, y)
        for F, v in zip(lifted.values, c.values):
            assert len(v.coords) == 2
            assert len(F.coords) == 2 + tail_width(3, 3) == 8
            for f, x in zip(F.coords, v.coords):
                assert f.comps == [[x, 0, 0] if zeta == 3 else [0, 0, 0]
                                   for zeta in range(6)]
            assert all(f.comps == zero for f in F.coords[2:])


@pytest.mark.parametrize("r, n, d", [(3, 1, 3), (4, 2, 4)])
def test_family_preimage_hecke_specializes(r, n, d):
    # the lift stores the tail one action reads: U_3 on the lift, then
    # specialized at k = n + 2, is U_3 on the specialized lift
    fb = free_basis(9)
    reps = t_ell_reps(3, fb)
    c = Cocycle.random(SymCoeffs(3, r, n), fb, random.Random(29 + r))
    lifted = family_preimage(c, d)
    k = n + 2
    got = specialize_cocycle(k, hecke_images(lifted, reps))
    want = hecke_images(specialize_cocycle(k, lifted), reps)
    for x, y in zip(got.values, want.values):
        assert want.coeffs.eq(x, y)


def test_specialize_cocycle_rejects_negative_degree():
    # weight k < 2 would be Sym^(k - 2) of negative degree
    fb = free_basis(9)
    co = FamilyCoeffs(3, 2, 2, 1, 1)
    c_fam = Cocycle(co, fb, [co.zero()] * fb.rank())
    for k in (1, 0):
        with pytest.raises(BadRange):
            specialize_cocycle(k, c_fam)


@pytest.mark.parametrize("p, r", [(3, 0), (9, 2), (4, 2), (1, 2), (2, 3)])
def test_coefficient_modules_check_their_modulus(p, r):
    # p must be an odd prime and r >= 1, as for a PrecInt; the values
    # check it too, so SymVec(4, 2, ...) is not acted on as if 4 were prime
    with pytest.raises(BadRange):
        SymCoeffs(p, r, 2)
    with pytest.raises(BadRange):
        FamilyCoeffs(p, r, 2, 1, 60)
    with pytest.raises(BadRange):
        SymVec(p, r, 1, [1, 2])
    with pytest.raises(BadRange):
        WeightFn(p, r, 2, [[0, 0]] * max(p * (p - 1), 0))


def test_family_coeffs_rejects_short_window():
    with pytest.raises(WidthInsufficient):
        FamilyCoeffs(3, 2, 2, 5, 4)
