"""Cohomology of the level subgroups: classes, operators, families."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwl import cohomology, iwasawa, shapiro
from pwl.cohomology import (SymCoeffs, _coset_key, _gamma1_quotient,
                            _partner_words, diamond_rep, h1, hecke_matrix,
                            t_ell_reps)
from pwl.errors import (BadRange, DimensionMismatch, InternalInconsistency,
                        NotAdmissible, NotAUnit, NotCoprime, NotFreeModule,
                        PrecisionMismatch, PwlError, WidthInsufficient)
from pwl.gamma1 import FreeBasisData, free_basis
from pwl.iwasawa import (Cocycle, FamilyCoeffs, FamilyVec, WeightFn,
                         act_family, branch_count, char_series,
                         family_preimage, hecke_images, specialize_cocycle,
                         tail_width)
from pwl.linalg import charpoly_mod, mat_mul
from pwl.matrices import IntMat
from pwl.packed import mat_vec
from pwl.qexp import bernoulli, divisor_sigma, eisenstein, hecke_t
from pwl.sympow import SymVec
from pwl.verify import rand_monoid_mat


def coboundary(coeffs, basis, b):
    """The cocycle g -> g.b - b, as one signed sum per generator."""
    batches = [[(g, 0, 1), (IntMat.identity(), 0, -1)] for g in basis.gens]
    return Cocycle(coeffs, basis, coeffs.act_sums(batches, [b]))


def combine(c1, c2, sign):
    """c1 + sign c2 for cocycles with Sym^n values."""
    co = c1.coeffs
    return Cocycle(co, c1.basis, [
        SymVec(co.p, co.r, co.n,
               [x + sign * y for x, y in zip(u.coords, v.coords)])
        for u, v in zip(c1.values, c2.values)])


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
        G = _gamma1_quotient(B, A, N, (1,))
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
    # the rank path: sigma is factored by rows, the A_j by columns, k = r
    (5, 16, 31, 4, "Tp"),
    (9, 4, 3, 2, "Tp"),  # U_3 at 3 | N: columns only
    (11, 12, 5, 3, "Tp"),
    (7, 10, 7, 2, "Tp"),
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


class RankCoeffs(FullCoeffs):
    """FullCoeffs whose rep actions (determinant != 1) keep only the
    columns, or only the rows, in `keep` at M - 1 and are 0 elsewhere, so
    each start factors through exactly those with every bound of the rank
    path at its largest: the generator actions are all M - 1."""

    def __init__(self, D, p, r, by, keep):
        super().__init__(D, p, r)
        self.by, self.keep = by, keep

    def act_matrix(self, mat):
        full = super().act_matrix(mat)
        if mat.det() == 1:
            return full
        if self.by == "cols":
            return [[x if t in self.keep else 0 for t, x in enumerate(row)]
                    for row in full]
        return [row if i in self.keep else [0] * self.D
                for i, row in enumerate(full)]


@pytest.mark.parametrize("co, N, ell", [
    pytest.param(FullCoeffs(D, p, r), N, 2, id=f"D{D}-{p}^{r}-N{N}")
    for D, p, r in ((17, 3, 1), (2, 31, 8), (41, 3, 1), (5, 5, 3), (9, 3, 2),
                    (2, 31, 1))
    for N in (5, 7, 11, 13)
] + [pytest.param(RankCoeffs(D, p, r, by, keep), N, ell,
                  id=f"D{D}-{p}^{r}-{by}{''.join(map(str, keep))}-N{N}")
     for D, p, r, by, keep in (
         # Montgomery edges: 2 D M just below 2^35 and 2^36, W = 2 kap
         (2, 97, 5, "rows", (1,)), (4, 97, 5, "rows", (1, 3)),
         # column plans, lam = k (M - 1): the fold bound meets 2 kap
         (5, 31, 6, "cols", (0, 2)), (3, 97, 5, "cols", (1,)),
         # 64-bit fields (struct), with a gap in the kept rows
         (17, 3, 2, "cols", (0, 1, 2, 3)), (9, 5, 2, "rows", (4, 6, 7)))
     for N, ell in ((5, 2), (7, 3), (13, 2))
] + [pytest.param(SymCoeffs(31, 4, 16), 5, 31, id="sym16-N5-T31")])
def test_hecke_matrix_field_bound_stress(co, N, ell):
    # the Montgomery step and the fold near their bounds: W one bit short
    # lets a field carry into the next, and kap one bit short lets a state
    # field reach 2M, so that Z - Y borrows from the next
    fb = free_basis(N)
    reps = t_ell_reps(ell, fb)
    assert hecke_matrix(co, fb, reps) == ref_hecke_matrix(co, fb, reps)


@pytest.mark.parametrize("N", [5, 7])
@pytest.mark.parametrize("p, r, m", [(13, 9, 20), (5, 14, 30)])
def test_hecke_matrix_fold_bound_stress(N, p, r, m):
    # the one rep 2 g^m, g the first generator, has one coset, and the
    # partner word of each generator h is g^m h g^-m: 2m of its 2m + 1
    # letters are g, so one block's sums take nearly all of `most`, and
    # keeping one column at M - 1 makes lam = M - 1.  W is then the fold
    # bound's, above 2 kap, with the largest field near 2^W: W one bit
    # short, or lam left out of it, carries between fields
    fb = free_basis(N)
    A = IntMat(2, 0, 0, 2)
    for _ in range(m):
        A = A * fb.gens[0]
    co = RankCoeffs(2, p, r, "cols", (1,))
    assert hecke_matrix(co, fb, [A]) == ref_hecke_matrix(co, fb, [A])


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

    def counted_quotient(*args):
        quotients.append(1)
        return quotient(*args)

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


def test_hecke_matrix_rank_rows(monkeypatch):
    # Sym^16 T_31 at level 5, r = 4 (the sym16_N5 workload): each of the
    # 32 reps' starts factors through min(r, n + 1) = 4 rows, not 17
    rows = []
    factor = cohomology._factor_start

    def counted_factor(S):
        plan, Y0 = factor(S)
        rows.append(len(Y0))
        return plan, Y0

    monkeypatch.setattr(cohomology, "_factor_start", counted_factor)
    fb = free_basis(5)
    hecke_matrix(SymCoeffs(31, 4, 16), fb, t_ell_reps(31, fb))
    assert rows == [4] * 32


@pytest.mark.parametrize("N, H, p, r, n, ell, products", [
    (5, (1,), 31, 4, 16, 31, 645),  # sym16_N5: 938 unshared, 772 per gen
    (13, (2,), 7, 3, 4, 2, 47),     # Sym^4 T_2 on Gamma_0(13): 67 unshared
    (11, (2,), 11, 3, 1, 11, 173),  # Sym^1 U_11 on Gamma_0(11): 231
])
def test_hecke_matrix_state_products(monkeypatch, N, H, p, r, n, ell,
                                     products):
    # one state product per distinct nonidentity prefix of a start's
    # words: the walk reads each product's fields through one _reader call
    calls = []
    reader = cohomology._reader

    def counted_reader(n, w):
        read = reader(n, w)

        def counted(x):
            calls.append(x)
            return read(x)
        return counted

    monkeypatch.setattr(cohomology, "_reader", counted_reader)
    fb = free_basis(N, H)
    hecke_matrix(SymCoeffs(p, r, n), fb, t_ell_reps(ell, fb))
    assert len(calls) == products


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((3, 5, 7, 31)), st.integers(1, 5), st.integers(0, 24),
       st.data())
def test_t_p_start_columns_vanish(p, r, n, data):
    # adj (1 j; 0 p) = (p -j; 0 1) acts by rows (p X - j)^i: column t is
    # 0 mod p^min(t, r), so the start has at most min(r, n + 1) nonzero
    # columns
    j = data.draw(st.integers(0, p - 1))
    S = SymCoeffs(p, r, n).act_matrix(IntMat(p, -j, 0, 1))
    for t in range(n + 1):
        assert all(row[t] % p ** min(t, r) == 0 for row in S)
    assert sum(any(row[t] for row in S) for t in range(n + 1)) <= min(r, n + 1)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((3, 5, 7, 31)), st.integers(1, 5), st.integers(0, 24),
       st.integers(5, 40))
def test_sigma_start_rows_vanish(p, r, n, N):
    # adj(diamond_rep(p, N) (p 0; 0 1)) = (d -b; -pN pa) acts by rows
    # (d X - b)^i p^(n-i) (a - N X)^(n-i): at most min(r, n + 1) are nonzero
    if N % p == 0:
        N += 1
    sigma = diamond_rep(p, N) * IntMat(p, 0, 0, 1)
    S = SymCoeffs(p, r, n).act_matrix(sigma.cofactor())
    assert sum(map(any, S)) <= min(r, n + 1)


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
                assert all(_gamma1_quotient(A, B, N, (1,)) is None
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
            index = {_coset_key(A, N, (1,)): A for A in reps}
            assert len(index) == len(reps)
            for A in reps:
                for g in fb.gens:
                    B = A * g
                    G = _gamma1_quotient(B, index[_coset_key(B, N, (1,))],
                                         N, (1,))
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
    assert _gamma1_quotient(twin, reps[2], 11, (1,)) == fb.gens[0]
    with pytest.raises(InternalInconsistency, match="share a coset"):
        _partner_words(fb, reps + [twin])
    with pytest.raises(InternalInconsistency, match="share a coset"):
        hecke_matrix(SymCoeffs(3, 2, 0), fb, [twin] + reps)


def test_gamma1_quotient_needs_determinant_one():
    # (3 0; 0 3) adj(1 0; 0 3) / 3 = (3 0; 0 1) is integral but not in
    # Gamma_1(11); (1 0; 0 12) over the identity is integral with
    # a = d = 1 and c = 0 mod 11, and only its determinant 12 rules it out
    assert _gamma1_quotient(IntMat(3, 0, 0, 3), IntMat(1, 0, 0, 3), 11,
                            (1,)) is None
    assert _gamma1_quotient(IntMat(1, 0, 0, 12), IntMat.identity(), 11,
                            (1,)) is None


def test_hecke_commute_and_order_independence():
    # another choice of reps changes T by a map into the coboundaries and
    # leaves its charpoly on H^1; criterion 09 checks T2 T3 = T3 T2 and
    # the trivial coefficients at level 11, where the map is zero
    rng = random.Random(7)
    fb7 = free_basis(7)
    co = SymCoeffs(5, 3, 2)
    pres = h1(co, fb7)
    T = hecke_matrix(co, fb7, t_ell_reps(5, fb7))
    T_alt = hecke_matrix(co, fb7, other_choice(t_ell_reps(5, fb7), fb7, rng))
    n = len(T)
    for j in range(n):
        col = [(T[i][j] - T_alt[i][j]) % 5 ** 3 for i in range(n)]
        assert pres.sf.solve(col) is not None
    assert (charpoly_mod(pres.induced_matrix(T), 5, 3)
            == charpoly_mod(pres.induced_matrix(T_alt), 5, 3))


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


def test_empty_reps_give_the_zero_operator():
    # no reps: the value path gives the zero cocycle, the matrix path the
    # zero matrix
    fb, co = free_basis(5), SymCoeffs(3, 2, 1)
    n = fb.rank() * co.dim()
    T = hecke_matrix(co, fb, [])
    assert T == [[0] * n for _ in range(n)]
    c = Cocycle.random(co, fb, random.Random(5))
    img = hecke_images(c, [])
    assert img.stacked_coords() == [0] * n
    assert mat_vec(T, c.stacked_coords(), co.p ** co.r) == [0] * n


def test_eval_twisted_homomorphism():
    fb = free_basis(9)
    co = SymCoeffs(3, 4, 2)
    rng = random.Random(7)
    for _ in range(15):
        c = Cocycle.random(co, fb, rng)
        w1 = rand_word_matrix(rng, fb)
        w2 = rand_word_matrix(rng, fb)
        lhs = c.eval(w1 * w2)
        M = co.p ** co.r
        rhs = SymVec(co.p, co.r, co.n, [
            x + y for x, y in zip(c.eval(w1).coords, mat_vec(
                co.act_matrix(w1), c.eval(w2).coords, M))])
        assert co.eq(lhs, rhs)
        assert co.eq(c.eval(IntMat.identity()), SymVec(3, 4, 2, [0, 0, 0]))


def test_cocycle_rejects_wrong_value_count(monkeypatch):
    fb = free_basis(7)
    co = SymCoeffs(5, 2, 1)
    with pytest.raises(DimensionMismatch):
        Cocycle(co, fb, [SymVec(5, 2, 1, [0, 0])] * (fb.rank() - 1))
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
        assert pres.class_coords(c) == pres.class_coords(combine(c, cob, 1))


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
        diff = combine(c1, c2, -1).stacked_coords()
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


def test_induced_matrix_traps_a_wrong_selection():
    # column pos[f] of U must be e_f: two free entries of pos swapped put
    # the selection out of step with U
    fb, co = free_basis(7), SymCoeffs(5, 3, 2)
    pres = h1(co, fb)
    F = [i for i, e in enumerate(pres.moduli) if e == co.r]
    n = len(pres.moduli)
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    assert len(F) >= 2
    assert pres.induced_matrix(eye) == [[int(i == j) for j in range(len(F))]
                                        for i in range(len(F))]
    pos = pres.sf.pos
    pos[F[0]], pos[F[1]] = pos[F[1]], pos[F[0]]
    with pytest.raises(InternalInconsistency, match="unit vector"):
        pres.induced_matrix(eye)


def test_induced_matrix_needs_free_presentation():
    fb = free_basis(9)
    co = SymCoeffs(3, 3, 2)
    pres = h1(co, fb)
    assert not pres.is_free()
    n = fb.rank() * co.dim()
    eye = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    with pytest.raises(NotFreeModule):
        pres.induced_matrix(eye)


@pytest.mark.parametrize("rows, cols", [(7, 7), (5, 5), (5, 6)])
def test_induced_matrix_checks_operator_shape(rows, cols):
    # n = 3 generators x dim 2 = 6: each shape is reported as a shape
    fb, co = free_basis(5), SymCoeffs(3, 2, 1)
    pres = h1(co, fb)
    assert len(pres.moduli) == 6
    with pytest.raises(DimensionMismatch):
        pres.induced_matrix([[0] * cols for _ in range(rows)])


def reference_beta(co, fb):
    """The coboundary matrix built value by value: column t stacks the
    coboundary of the t-th unit vector."""
    D = co.dim()
    cols = [coboundary(co, fb, SymVec(co.p, co.r, co.n,
                                      [int(i == t) for i in range(D)]))
            .stacked_coords() for t in range(D)]
    return [list(row) for row in zip(*cols)]


def inverse_mod(U, p, r):
    """U^-1 mod p^r by Gauss-Jordan on [U | I], each pivot a unit."""
    M, m = p ** r, len(U)
    rows = [[x % M for x in row] + [int(i == j) for j in range(m)]
            for i, row in enumerate(U)]
    for k in range(m):
        piv = next(i for i in range(k, m) if rows[i][k] % p)
        rows[k], rows[piv] = rows[piv], rows[k]
        inv = pow(rows[k][k], -1, M)
        rows[k] = [x * inv % M for x in rows[k]]
        for i, row in enumerate(rows):
            if i != k and row[k]:
                rows[i] = [(x - row[k] * y) % M for x, y in zip(row, rows[k])]
    return [row[m:] for row in rows]


def reference_induced(pres, T):
    """U T U^-1 as two dense products, U^-1 by Gauss-Jordan, restricted to
    the free indices."""
    p, r = pres.coeffs.p, pres.coeffs.r
    M = p ** r
    full = mat_mul(mat_mul(pres.sf.U, T, M), inverse_mod(pres.sf.U, p, r), M)
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
                got, = co.act_sums([[(m, 0, 1)]], [x])
                assert len(got.coords) == out
                assert [f.comps for f in got.coords] == [
                    f.comps for f in act_family(m, x).coords[:out]]
    co = FamilyCoeffs(p, r, d, out, out + tail - 1)
    with pytest.raises(WidthInsufficient):
        co.act_sums([[(IntMat.identity(), 0, 1)]], [co.rand(rng)])


def flat(co, v):
    """A value's residues: Sym^n coordinates, or every branch series of
    every family coordinate laid end to end."""
    if isinstance(co, SymCoeffs):
        return list(v.coords)
    return [x for f in v.coords for comp in f.comps for x in comp]


def act_one(co, g, v):
    """g.v, flat, by one act_family on the window one action reads, or by
    mat_vec of act_matrix."""
    if isinstance(co, SymCoeffs):
        return mat_vec(co.act_matrix(g), v.coords, co.p ** co.r)
    w = co.out_width + tail_width(co.p, co.r)
    return flat(co, act_family(g, FamilyVec(co.p, co.r, co.d, v.coords[:w])))


def fold_images(c, reps):
    """hecke_images letter by letter: c(gh) = c(g) + g.c(h) along each
    partner word from adj(A), one action per letter, each partial sum
    reduced mod p^r."""
    co, basis = c.coeffs, c.basis
    M = co.p ** co.r
    adjs, words = cohomology._partner_words(basis, reps)
    out = []
    for gen_words in words:
        total = [0] * len(act_one(co, IntMat.identity(), c.values[0]))
        for cur, word in zip(adjs, gen_words):
            for k in word:
                g, v = basis.gens[abs(k) - 1], c.values[abs(k) - 1]
                if k < 0:
                    cur = cur * g.inverse()
                sign = 1 if k > 0 else -1
                total = [(x + sign * y) % M
                         for x, y in zip(total, act_one(co, cur, v))]
                if k > 0:
                    cur = cur * g
        out.append(total)
    return out


# (N, p, ell): ell = p and ell prime to N; the family needs p | N (its
# monoid has p | c), Sym^n runs every case
BATCH_CASES = [(9, 3, 3), (9, 3, 2), (10, 5, 5), (10, 5, 3), (12, 3, 3),
               (12, 3, 5), (15, 3, 3), (15, 5, 2), (9, 5, 2), (12, 5, 5)]


@pytest.mark.parametrize("N, p, ell", BATCH_CASES)
def test_hecke_images_match_the_per_letter_fold(N, p, ell):
    fb = free_basis(N)
    reps = t_ell_reps(ell, fb)
    systems = [SymCoeffs(p, 3, 2), SymCoeffs(p, 2, 1, (0, 1, p ** 2 - 1))]
    if N % p == 0:
        r = 3 if p == 3 else 2
        systems.append(FamilyCoeffs(p, r, 2, 2, 2 + tail_width(p, r) + 1))
    for co in systems:
        for seed in (1, 2):
            c = Cocycle.random(co, fb, random.Random(N * 100 + seed))
            got = [flat(co, v) for v in hecke_images(c, reps).values]
            assert got == fold_images(c, reps)


@pytest.mark.parametrize("N, p", [(9, 3), (10, 5)])
def test_hecke_images_field_bound_stress(N, p):
    # every stored residue is M - 1, through the operator's largest batch,
    # and one batch of 64 copies of a term whose matrix has a = b = d = -1
    # mod p^r and v_p(c) = 1 (the widest set of live L)
    r, d = 2, 2
    M = p ** r
    fb = free_basis(N)
    co = FamilyCoeffs(p, r, d, 3, 3 + tail_width(p, r))
    top = WeightFn(p, r, d, [[M - 1] * d for _ in range(branch_count(p))])
    c = Cocycle(co, fb, [FamilyVec(p, r, d, [top] * co.stored_width)]
                * fb.rank())
    reps = t_ell_reps(p, fb)
    got = [flat(co, v) for v in hecke_images(c, reps).values]
    assert got == fold_images(c, reps)
    mat = IntMat(2 * M - 1, M - 1, p, M - 1)
    one = act_one(co, mat, c.values[0])
    many, = co.act_sums([[(mat, 0, 1)] * 64], c.values[:1])
    assert flat(co, many) == [64 * x % M for x in one]


def test_act_sums_shares_repeated_terms():
    # a (matrix, value) pair twice in one batch and again in another,
    # with both signs, and an empty batch
    p, r, d = 3, 3, 2
    M = p ** r
    rng = random.Random(31)
    co = FamilyCoeffs(p, r, d, 3, 3 + tail_width(p, r))
    values = [co.rand(rng) for _ in range(3)]
    g, h = rand_monoid_mat(rng, p, r), rand_monoid_mat(rng, p, r)
    batches = [[(g, 0, 1), (h, 1, -1), (g, 0, 1)],
               [(g, 0, -1), (g, 2, 1), (h, 1, -1)], []]
    got = co.act_sums(batches, values)
    assert len(got) == 3
    for batch, out in zip(batches, got):
        want = [0] * (3 * branch_count(p) * d)
        for mat, j, sign in batch:
            want = [(x + sign * y) % M
                    for x, y in zip(want, act_one(co, mat, values[j]))]
        assert flat(co, out) == want
    sym = SymCoeffs(p, r, 2)
    svals = [sym.rand(rng) for _ in range(3)]
    for batch, out in zip(batches, sym.act_sums(batches, svals)):
        want = [0, 0, 0]
        for mat, j, sign in batch:
            want = [(x + sign * y) % M
                    for x, y in zip(want, act_one(sym, mat, svals[j]))]
        assert out.coords == want


def test_family_empty_words_and_reps_give_zero():
    # the identity's empty word and the operator with no reps sum no terms
    p, r, d, out = 3, 3, 2, 2
    fb = free_basis(9)
    co = FamilyCoeffs(p, r, d, out, out + tail_width(p, r))
    c = Cocycle.random(co, fb, random.Random(37))
    zero = [0] * (out * branch_count(p) * d)
    assert flat(co, c.eval(IntMat.identity())) == zero
    img = hecke_images(c, [])
    assert [flat(co, v) for v in img.values] == [zero] * fb.rank()


def test_act_sums_checks_width_before_the_monoid():
    # a value too short for one action raises WidthInsufficient even when a
    # matrix is outside the monoid; with the width, NotAdmissible
    p, r, d = 3, 2, 2
    co = FamilyCoeffs(p, r, d, 2, 2 + tail_width(p, r))
    rng = random.Random(41)
    good, short = co.rand(rng), FamilyVec(p, r, d, co.rand(rng).coords[:3])
    bad = IntMat(1, 0, 1, 1)
    with pytest.raises(WidthInsufficient):
        co.act_sums([[(bad, 0, 1)]], [good, short])
    with pytest.raises(NotAdmissible):
        co.act_sums([[(IntMat.identity(), 0, 1)], [(bad, 1, -1)]],
                    [good, good])


def test_act_sums_check_their_values():
    # a Sym^n value of another degree, prime or precision, or a family
    # value whose coordinates are mod another (p^r, X^d), raises rather
    # than being read as if it fit
    one = [(IntMat.identity(), 0, 1)]
    with pytest.raises(DimensionMismatch):
        SymCoeffs(3, 2, 2).act_sums([one], [SymVec(3, 2, 1, [1, 2])])
    for value in (SymVec(5, 2, 1, [1, 2]), SymVec(3, 1, 1, [1, 2])):
        with pytest.raises(PrecisionMismatch):
            SymCoeffs(3, 2, 1).act_sums([one], [value])
    co = FamilyCoeffs(3, 2, 2, 1, 1 + tail_width(3, 2))
    other = FamilyCoeffs(3, 2, 3, 1, 1 + tail_width(3, 2))
    with pytest.raises(PrecisionMismatch):
        co.act_sums([one], [other.rand(random.Random(43))])


@pytest.mark.parametrize("out_width", (0, -1))
def test_family_coeffs_rejects_no_output(out_width):
    with pytest.raises(BadRange):
        FamilyCoeffs(3, 4, 4, out_width, 8)


def test_family_operator_values_are_out_width():
    # each stored value is acted on once per operator, so an image value
    # is out_width wide and a second action raises rather than guess
    p, r, d, out = 3, 3, 2, 3
    fb = free_basis(9)
    co = FamilyCoeffs(p, r, d, out, out + 2 * tail_width(p, r))
    img = hecke_images(Cocycle.random(co, fb, random.Random(23)),
                       t_ell_reps(3, fb))
    assert [len(v.coords) for v in img.values] == [out] * fb.rank()
    zero, = co.act_sums([[]], [co.rand(random.Random(24))])
    assert len(zero.coords) == out
    with pytest.raises(WidthInsufficient):
        co.act_sums([[(fb.gens[0], 0, 1)]], [img.values[0]])


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


def test_family_preimage_traps_a_lift_that_does_not_specialize_back(
        monkeypatch):
    # a specialization one off in a single coordinate must raise the trap
    real = iwasawa.specialize_cocycle

    def off_by_one(k, cocycle):
        out = real(k, cocycle)
        v = out.values[0]
        out.values[0] = SymVec(v.p, v.r, v.n, [v.coords[0] + 1] + v.coords[1:])
        return out

    monkeypatch.setattr(iwasawa, "specialize_cocycle", off_by_one)
    c = Cocycle.random(SymCoeffs(3, 3, 1), free_basis(9), random.Random(5))
    with pytest.raises(InternalInconsistency, match="fails to specialize"):
        family_preimage(c, d=3)


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


def sym_cocycle():
    return Cocycle.random(SymCoeffs(3, 3, 1), free_basis(9), random.Random(5))


DEGENERATE = {
    "preimage-degree-0": lambda: family_preimage(sym_cocycle(), 0),
    "preimage-degree-minus-1": lambda: family_preimage(sym_cocycle(), -1),
    "family-degree-0": lambda: FamilyCoeffs(3, 4, 0, 3, 20),
    "family-out-width-0": lambda: FamilyCoeffs(3, 4, 4, 0, 20),
    "h1-empty-character": lambda: h1(SymCoeffs(5, 2, 0, ()), free_basis(5)),
    "hecke-t-empty-character": lambda: hecke_t(2, 4, (), eisenstein(4, 10)),
    # ell^(k-1) = 1/2 would put floats in the coefficients
    "hecke-t-weight-0": lambda: hecke_t(2, 0, (1,), eisenstein(4, 10)),
    "family-act-sums-no-values": lambda: FamilyCoeffs(3, 4, 4, 3, 20).act_sums(
        [[(IntMat.identity(), 0, 1)]], []),
    "sym-act-sums-no-values": lambda: SymCoeffs(3, 2, 0).act_sums(
        [[(IntMat.identity(), 0, 1)]], []),
    "family-act-sums-term-past-values": lambda: FamilyCoeffs(
        3, 4, 4, 3, 20).act_sums([[(IntMat.identity(), 1, 1)]], [FamilyVec(
            3, 4, 4, [WeightFn.zero(3, 4, 4)] * 20)]),
    "sym-degree-minus-1": lambda: SymVec(3, 2, -1, []),
    "tail-at-2": lambda: tail_width(2, 1),
    "char-series-degree-0": lambda: char_series(2, 3, 4, 0),
    # B_(-1) read as B_0 = 1, and sigma_s(0) as 0
    "bernoulli-minus-1": lambda: bernoulli(-1),
    "bernoulli-minus-2": lambda: bernoulli(-2),
    "divisor-sigma-0": lambda: divisor_sigma(0, 3),
    "divisor-sigma-minus-5": lambda: divisor_sigma(-5, 1),
    # e^s for s < 0 is a float
    "divisor-sigma-s-minus-1": lambda: divisor_sigma(6, -1),
    # the Teichmueller power of a splitting level at r < 1
    "hecke-charpoly-precision-0": lambda: shapiro.hecke_charpoly(
        11, 11, 0, 2, 0),
    "hecke-charpoly-precision-minus-1": lambda: shapiro.hecke_charpoly(
        23, 23, -1, 23, 0),
}


@pytest.mark.parametrize("call", DEGENERATE.values(), ids=DEGENERATE)
def test_degenerate_sizes_raise_a_pwl_error(call):
    # a degenerate size is refused with a typed error, not an IndexError
    # or ZeroDivisionError from deep inside
    with pytest.raises(PwlError):
        call()


def test_specialize_cocycle_rejects_negative_degree():
    # weight k < 2 would be Sym^(k - 2) of negative degree
    fb = free_basis(9)
    co = FamilyCoeffs(3, 2, 2, 1, 1)
    c_fam = Cocycle(co, fb, [FamilyVec(3, 2, 2, [WeightFn.zero(3, 2, 2)])]
                    * fb.rank())
    for k in (1, 0):
        with pytest.raises(BadRange):
            specialize_cocycle(k, c_fam)


def test_specialize_cocycle_reads_the_kept_coordinates():
    # a window wider than k - 1 specializes as its first k - 1 coordinates
    # do, and a narrower one raises
    p, r, d, k = 3, 4, 3, 5
    fb = free_basis(9)
    wide = Cocycle.random(FamilyCoeffs(p, r, d, k - 1, k + 6), fb,
                          random.Random(17))

    def cut(width):
        return Cocycle(wide.coeffs, fb, [FamilyVec(p, r, d, F.coords[:width])
                                         for F in wide.values])

    assert ([v.coords for v in specialize_cocycle(k, wide).values]
            == [v.coords for v in specialize_cocycle(k, cut(k - 1)).values])
    with pytest.raises(WidthInsufficient):
        specialize_cocycle(k, cut(k - 2))


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


@pytest.mark.parametrize("N, p, r, n, ell", [
    (7, 13, 3, 3, 2),    # n odd: states of d = -c enter class c negated
    (11, 11, 2, 1, 11),  # U_11, n odd, no elliptic generator
    (13, 13, 2, 0, 2),   # Sym^0: the class sums are letter counts
    (13, 37, 2, 4, 2),
])
def test_class_sums_twist_like_the_value_path(N, p, r, n, ell):
    # on Gamma_0(N) the operator on Sym^n(chi) is sum_c chi(c) times class
    # c's block column of hecke_matrix; the value path folds each letter
    # with chi(d) Sym^n of its prefix, on any values, cocycle or not
    basis, chars = shapiro._split(N, p, r, n)
    assert len(basis.classes) == (N - 1) // 2
    reps = t_ell_reps(ell, basis)
    W = hecke_matrix(SymCoeffs(p, r, n), basis, reps)
    RD, M = len(W), p ** r
    assert all(len(row) == len(basis.classes) * RD for row in W)
    rng = random.Random(N + n)
    for chi in chars[:3]:
        co = SymCoeffs(p, r, n, chi)
        T = [[sum(chi[c] * row[i * RD + j]
                  for i, c in enumerate(basis.classes)) % M
              for j in range(RD)] for row in W]
        c = Cocycle.random(co, basis, rng)
        assert (mat_vec(T, c.stacked_coords(), M)
                == hecke_images(c, reps).stacked_coords())


def test_elliptic_relations_in_h1():
    # H^1(Gamma_0(13), Z/13^3) has rank 2 g + cusps - 1 = 1: each of the
    # four elliptic generators adds N_t = m, a unit, so only the free one
    # is left, and T_2 acts there by 1 + 2
    basis, chars = shapiro._split(13, 13, 3, 0)
    assert [m for _, m in basis.elliptic] == [2, 2, 3, 3]
    assert set(chars[0][d] for d in range(1, 13)) == {1}
    co = SymCoeffs(13, 3, 0, chars[0])
    pres = h1(co, basis)
    assert len(pres.beta[0]) == 1 + 4 and pres.moduli == [0] * 4 + [3]
    assert [t for t, _ in pres.proj] == [t for t, _ in basis.elliptic]
    T = hecke_matrix(SymCoeffs(13, 3, 0), basis, t_ell_reps(2, basis))
    RD = len(T)
    T1 = [[sum(row[i * RD + j] for i in range(6)) % 13 ** 3
           for j in range(RD)] for row in T]
    assert charpoly_mod(pres.induced_matrix(T1), 13, 3) == [13 ** 3 - 3, 1]
    # N_t / 3 needs 3 to be a unit: at p = 3 h1 refuses Gamma_0(13)
    with pytest.raises(NotAUnit):
        h1(SymCoeffs(3, 2, 0), basis)
