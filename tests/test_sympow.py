import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pwl.errors import (BadRange, BadWeight, CongruenceViolated,
                        DimensionMismatch, NotAdmissible, WidthInsufficient)
from pwl.linalg import mat_mul
from pwl.matrices import IntMat
from pwl.iwasawa import (
    PrecInt,
    SeqVec,
    Weight,
    act_universal,
    binom_identity,
    congr_project,
    eval_char,
    specialize,
    tail_width,
)
from pwl.sympow import SymVec, act_sym, sym_matrix
from pwl.verify import rand_monoid_mat
from reference import monoid_mat, ref_cf


def rand_seq(rng, chi, width):
    M = chi.p ** chi.r
    return SeqVec(chi, [rng.randrange(M) for _ in range(width)])


def ref_sym_matrix(n, mat, p, r):
    """Entry (i, j) of the degree-n action as the triple sum
    sum_h C(i,h) C(n-i, j-h) a^h b^(i-h) c^(j-h) d^(n-i-j+h) mod p^r."""
    M = p ** r
    a, b, c, d = mat.a % M, mat.b % M, mat.c % M, mat.d % M
    rows = []
    for i in range(n + 1):
        row = []
        for j in range(n + 1):
            acc = 0
            for h in range(max(0, i + j - n), min(i, j) + 1):
                acc += (math.comb(i, h) * math.comb(n - i, j - h)
                        * pow(a, h, M) * pow(b, i - h, M)
                        * pow(c, j - h, M) * pow(d, n - i - j + h, M))
            row.append(acc % M)
        rows.append(row)
    return rows


def ref_act_universal(mat, seq):
    """The weight-chi action's double sum over every j and h <= min(i, j)."""
    chi, p, r = seq.chi, seq.p, seq.r
    M = p ** r
    a, b, c, d = mat.a % M, mat.b % M, mat.c % M, mat.d % M
    w = chi.wild.res
    width = len(seq.coords)
    out = []
    for i in range(width - tail_width(p, r)):
        fall = [1]
        for L in range(1, width):
            fall.append(fall[-1] * ((w - (i + L - 1)) % M) % M)
        acc = 0
        for j in range(width):
            aj = seq.coords[j]
            if aj == 0:
                continue
            for h in range(min(i, j) + 1):
                L = j - h
                dch = eval_char(chi.shift(i + j - h), PrecInt(p, r, d)).res
                acc += (aj * math.comb(i, h) * fall[L] * pow(a, h, M)
                        * pow(b, i - h, M) * ref_cf(c, L, p, r) * dch)
        out.append(acc % M)
    return out


class TestActSym:
    def test_identity(self):
        v = SymVec(3, 3, 4, [1, 2, 3, 4, 5])
        assert act_sym(IntMat.identity(), v) == v

    def test_degree_zero_is_trivial(self):
        # Sym^0 is Z/p^r with the trivial action, whatever the entries
        rng = random.Random(17)
        for p, r in ((3, 1), (3, 4), (11, 6), (43, 3)):
            M = p ** r
            mats = [IntMat(p, 0, 0, p), IntMat(p, p, 0, p * p),
                    monoid_mat(p, r, 0, 0, 0, 1), monoid_mat(p, r, p, p, p, 1)]
            while len(mats) < 24:
                a, b, c, d = (rng.randrange(-3 * p, 3 * p) * rng.choice((1, p))
                              for _ in range(4))
                if a * d - b * c > 0:
                    mats.append(IntMat(a, b, c, d))
                if d % p:
                    mats.append(monoid_mat(p, r, a, b, p * c, d))
            for m in mats:
                assert sym_matrix(0, m, p, r) == [[1]]
                x = rng.randrange(M)
                assert act_sym(m, SymVec(p, r, 0, [x])).coords == [x]

    def test_negative_degree(self):
        with pytest.raises(BadRange):
            sym_matrix(-1, IntMat.identity(), 3, 2)

    def test_diagonal_scales(self):
        # diag(a, d): e_i -> a^i d^(n-i) e_i
        p, r, n = 5, 3, 3
        m = IntMat(2, 0, 0, 3)
        v = SymVec(p, r, n, [1, 1, 1, 1])
        got = act_sym(m, v)
        want = [pow(2, i, 125) * pow(3, n - i, 125) % 125 for i in range(n + 1)]
        assert got.coords == want

    def test_upper_triangular_binomial(self):
        # (1 b; 0 1): coordinate i of the image is sum_j C(i,j) b^(i-j) v_j
        p, r, n = 3, 4, 5
        b = 7
        m = IntMat(1, b, 0, 1)
        rng = random.Random(0)
        v = SymVec(p, r, n, [rng.randrange(81) for _ in range(n + 1)])
        got = act_sym(m, v)
        M = p ** r
        for i in range(n + 1):
            want = sum(math.comb(i, j) * pow(b, i - j, M) * v.coords[j]
                       for j in range(i + 1)) % M
            assert got.coords[i] == want

    def test_monomial_cross_check(self):
        # compare against direct polynomial substitution with exact rationals
        p, r, n = 5, 4, 4
        rng = random.Random(1)
        for _ in range(10):
            a, b, c, d = (rng.randrange(-5, 6) for _ in range(4))
            if a * d - b * c <= 0:
                continue
            m = IntMat(a, b, c, d)
            v = SymVec(p, r, n, [rng.randrange(p ** r) for _ in range(n + 1)])
            # monomial coords of v: x_i = C(n,i) v_i on T1^i T2^(n-i)
            mono = [Fraction(math.comb(n, i) * v.coords[i]) for i in range(n + 1)]
            # substitute T1 -> a T1 + c T2, T2 -> b T1 + d T2
            out = [Fraction(0)] * (n + 1)
            for i in range(n + 1):
                # (a T1 + c T2)^i (b T1 + d T2)^(n-i)
                poly = [Fraction(0)] * (n + 1)  # index = T1-degree
                for s in range(i + 1):
                    for t in range(n - i + 1):
                        poly[s + t] += (math.comb(i, s) * a ** s * c ** (i - s)
                                        * math.comb(n - i, t) * b ** t
                                        * d ** (n - i - t))
                for k in range(n + 1):
                    out[k] += mono[i] * poly[k]
            want = [int(out[k] / math.comb(n, k)) % p ** r for k in range(n + 1)]
            assert act_sym(m, v).coords == want

    def test_composition(self):
        p, r, n = 3, 3, 6
        rng = random.Random(2)
        for _ in range(20):
            m1 = rand_monoid_mat(rng, p, r)
            m2 = rand_monoid_mat(rng, p, r)
            v = SymVec(p, r, n, [rng.randrange(27) for _ in range(n + 1)])
            assert act_sym(m1 * m2, v) == act_sym(m1, act_sym(m2, v))


class TestActUniversal:
    def test_identity_action(self):
        p, r = 3, 3
        chi = Weight.of_int(4, p, r)
        rng = random.Random(3)
        seq = rand_seq(rng, chi, 2 + tail_width(p, r))
        got = act_universal(IntMat.identity(), seq)
        assert got.coords[:2] == seq.coords[:2]

    def test_diagonal_single_term(self):
        # diag(a, d) with c = b = 0: coordinate i scaled by a^i d^(chi - 2i)
        p, r = 5, 3
        chi = Weight.wild_only(7, p, r)
        m = IntMat(2, 0, 0, 3)
        rng = random.Random(4)
        width = 3 + tail_width(p, r)
        seq = rand_seq(rng, chi, width)
        got = act_universal(m, seq)
        M = p ** r
        for i in range(3):
            # j = h = i survives: scale a^i d^(chi - i)
            scale = pow(2, i, M) * eval_char(chi.shift(i), PrecInt(p, r, 3)).res
            assert got.coords[i] == scale * seq.coords[i] % M

    def test_unipotent_binomial(self):
        # (1 b; 0 1): same binomial formula as the finite symmetric power
        p, r = 3, 4
        chi = Weight.wild_only(5, p, r)
        b = 4
        m = IntMat(1, b, 0, 1)
        rng = random.Random(5)
        width = 4 + tail_width(p, r)
        seq = rand_seq(rng, chi, width)
        got = act_universal(m, seq)
        M = p ** r
        for i in range(4):
            want = sum(math.comb(i, j) * pow(b, i - j, M) * seq.coords[j]
                       for j in range(i + 1)) % M
            assert got.coords[i] == want

    def test_width_contract(self):
        # a window of w coordinates gives w - tail_width outputs; a window
        # of exactly tail_width coordinates gives none and raises
        for p, r in ((3, 3), (5, 2), (7, 4)):
            chi = Weight.of_int(2, p, r)
            t = tail_width(p, r)
            for extra in (1, 2, 5):
                seq = SeqVec(chi, [1] * (t + extra))
                assert len(act_universal(IntMat.identity(), seq).coords) == extra
            with pytest.raises(WidthInsufficient):
                act_universal(IntMat.identity(), SeqVec(chi, [1] * t))

    @pytest.mark.parametrize("p", (3, 5))
    def test_matches_reference(self, p):
        # v_p(c) = 1 gives the widest set of live L, v_p(c) >= r only L = 0;
        # about a third of the coordinates are zero
        rng = random.Random(50 + p)
        for r in range(1, 5):
            M = p ** r
            t = tail_width(p, r)
            for c in (p * 7, p * (p + 1), p ** r * 2, 0):
                chi = Weight(rng.randrange(p - 1),
                             PrecInt(p, r, rng.randrange(M)))
                d = rng.choice([u for u in range(1, M) if u % p])
                m = monoid_mat(p, r, rng.randrange(M), rng.randrange(M), c, d)
                coords = [0 if rng.random() < 0.3 else rng.randrange(M)
                          for _ in range(5 + t)]
                seq = SeqVec(chi, coords)
                assert act_universal(m, seq).coords == ref_act_universal(m, seq)

    @pytest.mark.parametrize("p", (3, 5))
    def test_field_bound_stress(self, p):
        # every residue the kernel multiplies is as large as it can be:
        # windows of M - 1, a = b = d = -1 mod p^r, v_p(c) = 1 for the
        # widest set of live L, d^chi = -1 for odd tame parts
        for r in range(1, 6):
            M = p ** r
            t = tail_width(p, r)
            m = monoid_mat(p, r, -1, -1, p, -1)
            for tame in range(p - 1):
                for wild in (tame, M - 1):
                    chi = Weight(tame, PrecInt(p, r, wild))
                    for width in (2 * t, 2 * t + 1):
                        seq = SeqVec(chi, [M - 1] * width)
                        assert (act_universal(m, seq).coords
                                == ref_act_universal(m, seq))


class TestSpecialize:
    def test_equivariance(self):
        p, r = 3, 4
        t = tail_width(p, r)
        rng = random.Random(7)
        for n in range(0, 7):
            chi = Weight.of_int(n, p, r)
            for _ in range(5):
                m = rand_monoid_mat(rng, p, r)
                seq = rand_seq(rng, chi, n + 1 + t)
                lhs = specialize(act_universal(m, seq), n)
                rhs = act_sym(m, specialize(seq, n))
                assert lhs == rhs

    def test_weight_mismatch(self):
        chi = Weight.of_int(3, 3, 2)
        seq = SeqVec(chi, [0] * 10)
        with pytest.raises(BadWeight):
            specialize(seq, 4)

    def test_width_guard(self):
        # a window's certified width is its length: 6 coordinates cannot
        # specialize to the 7 of degree 6
        chi = Weight.of_int(6, 3, 2)
        assert specialize(SeqVec(chi, [0] * 7), 6).coords == [0] * 7
        with pytest.raises(WidthInsufficient):
            specialize(SeqVec(chi, [0] * 6), 6)


class TestCongrProject:
    def test_congruence_guard(self):
        v = SymVec(3, 2, 5, [0] * 6)
        with pytest.raises(CongruenceViolated):
            congr_project(2, 5, 2, v)  # 3 is not a multiple of 3*2

    def test_range_guard(self):
        v = SymVec(3, 2, 2, [0] * 3)
        with pytest.raises(BadRange):
            congr_project(1, 2, 4, v)


class TestBinomIdentity:
    def test_single_term_case(self):
        # j = h: the sum collapses to binom(n-h, i-h) C(h, h)
        lhs, rhs = binom_identity(10, 4, 2, 2)
        assert lhs == rhs == binom_identity(10, 4, 2, 2)[1]

    def test_range_guard(self):
        with pytest.raises(BadRange):
            binom_identity(5, 2, 3, 4)


class TestSymMatrixPacked:
    def test_matches_reference(self):
        # every degree up to 30; negative entries, entries divisible by p,
        # all four entries = -1 mod p^r (the largest packed coefficients)
        # and a random monoid matrix
        rng = random.Random(29)
        for n in range(31):
            p = (3, 5, 31)[n % 3]
            r = (1, 4, 8)[n // 3 % 3]
            M = p ** r
            mats = [IntMat(M - 1, -1, -1, M - 1), rand_monoid_mat(rng, p, r)]
            while len(mats) < 5:
                a, b, c, d = (rng.randrange(-M, M) * rng.choice((1, 1, p, 0))
                              for _ in range(4))
                if a * d - b * c > 0:
                    mats.append(IntMat(a, b, c, d))
            for m in mats:
                assert sym_matrix(n, m, p, r) == ref_sym_matrix(n, m, p, r)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 12), st.sampled_from([3, 5, 31]),
           st.integers(1, 8),
           st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=8, max_size=8))
    def test_multiplicative(self, n, p, r, e):
        # rho(XY) = rho(X) rho(Y) mod p^r
        def positive(a, b, c, d):
            # swapping the columns flips the sign of the determinant
            assume(a * d != b * c)
            return IntMat(a, b, c, d) if a * d > b * c else IntMat(b, a, d, c)
        X, Y = positive(*e[:4]), positive(*e[4:])
        assert sym_matrix(n, X * Y, p, r) == mat_mul(
            sym_matrix(n, X, p, r), sym_matrix(n, Y, p, r), p ** r)


class TestTypedErrors:
    def test_symvec_length(self):
        with pytest.raises(DimensionMismatch):
            SymVec(3, 2, 2, [0, 0])

    def test_symvec_negative_degree(self):
        for n in (-1, -2):
            with pytest.raises(BadRange):
                SymVec(3, 2, n, [0] * max(n + 1, 0))

    def test_seqvec_weight(self):
        with pytest.raises(BadWeight):
            SeqVec(4, [0, 0])

    def test_act_universal_outside_monoid(self):
        # p must divide c and not d; (1 0; 1 1) at p = 5, r = 1 used to
        # return an uncertified [4], and at p = 3, r = 2 a raw ValueError
        for mat, p, r in ((IntMat(1, 0, 1, 1), 5, 1),
                          (IntMat(1, 0, 1, 1), 3, 2),
                          (IntMat(1, 0, 3, 6), 3, 2)):
            seq = SeqVec(Weight.of_int(2, p, r), [1] * (1 + tail_width(p, r)))
            with pytest.raises(NotAdmissible):
                act_universal(mat, seq)

    def test_congr_project_degree(self):
        v = SymVec(3, 2, 2, [0] * 3)
        with pytest.raises(DimensionMismatch):
            congr_project(1, 4, 2, v)


class TestSymMatrixShape:
    def test_entries_integral(self):
        m = sym_matrix(3, IntMat(1, 1, 2, 3), 5, 2)
        assert len(m) == 4 and all(len(row) == 4 for row in m)
        assert all(0 <= x < 25 for row in m for x in row)


def test_seqvec_agrees_needs_same_prime_and_weight():
    # as SymVec equality is False across degrees; the prime is compared
    # first, because Weights of different primes do not compare
    v = SeqVec(Weight.of_int(2, 3, 4), [1, 2, 3])
    assert v.agrees(SeqVec(Weight.of_int(2, 3, 2), [1, 2, 3]), 2)
    assert not v.agrees(SeqVec(Weight.of_int(4, 3, 4), [1, 2, 3]), 2)
    assert not v.agrees(SeqVec(Weight.wild_only(2, 5, 4), [1, 2, 3]), 2)


def test_seqvec_agrees_rejects_vacuous_widths():
    # a side shorter than the compared width raises instead of passing on
    # the coordinates it happens to hold
    chi = Weight.of_int(1, 3, 1)
    assert SeqVec(chi, [1]).agrees(SeqVec(chi, [1, 2]), 1)
    for width in (2, 5):
        with pytest.raises(WidthInsufficient):
            SeqVec(chi, [1]).agrees(SeqVec(chi, [1, 2]), width)
        with pytest.raises(WidthInsufficient):
            SeqVec(chi, [1, 2]).agrees(SeqVec(chi, [1]), width)
