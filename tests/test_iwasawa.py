"""Weight-space functions and the family action."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwl.errors import (BadRange, DimensionMismatch, NotAdmissible,
                        NotAUnit, PrecisionMismatch, WidthInsufficient)
from pwl.iwasawa import (FamilyVec, PrecInt, SeqVec, Weight, WeightFn,
                         _residues, act_family, act_universal, branch_count,
                         char_series, eval_char, family_tail, sp_k, sp_vector,
                         tail_width)
from pwl.gamma1 import in_gamma1
from pwl.matrices import IntMat
from reference import monoid_mat, ref_cf


def rand_fn(rng, p, r, d):
    M = p ** r
    return WeightFn(p, r, d, [[rng.randrange(M) for _ in range(d)]
                              for _ in range(branch_count(p))])


def const_fn(value, p, r, d):
    """The constant function value on every branch."""
    return WeightFn(p, r, d, [[value] + [0] * (d - 1)
                              for _ in range(branch_count(p))])


def fn_add(f, g):
    """f + g, coefficientwise, for weight functions mod one (p^r, X^d)."""
    return WeightFn(f.p, f.r, f.d, [[x + y for x, y in zip(a, b)]
                                    for a, b in zip(f.comps, g.comps)])


def rand_fam(rng, p, r, d, width):
    return FamilyVec(p, r, d, [rand_fn(rng, p, r, d) for _ in range(width)])


def ref_falling(p, r, d, i, L):
    """prod_{m=i}^{i+L-1} (z - 2 - m) as branch lists."""
    M = p ** r
    comps = [[1 % M] + [0] * (d - 1) for _ in range(branch_count(p))]
    for m in range(i, i + L):
        for zeta, q in enumerate(comps):
            c0 = (zeta - 2 - m) % M
            comps[zeta] = [(c0 * q[k] + (q[k - 1] if k else 0)) % M
                           for k in range(d)]
    return comps


def ref_act_family(mat, fam):
    """The family action's double sum over every stored j and
    h <= min(i, j), for the width - tail_width(p, r) outputs i."""
    p, r, dd = fam.p, fam.r, fam.d
    width = len(fam.coords)
    M = p ** r
    a0, b0, c0, d0 = mat.a % M, mat.b % M, mat.c % M, mat.d % M
    nb = branch_count(p)
    G = char_series(d0, p, r, dd)
    dinv = pow(d0, -1, M)
    zero = WeightFn.zero(p, r, dd)
    out = []
    for i in range(width - tail_width(p, r)):
        S = WeightFn.zero(p, r, dd)
        for j in range(width):
            if fam.coords[j] == zero:
                continue
            Q = [[0] * dd for _ in range(nb)]
            for h in range(min(i, j) + 1):
                L = j - h
                scal = (math.comb(i, h) * pow(a0, h, M) * pow(b0, i - h, M)
                        * ref_cf(c0, L, p, r) * pow(dinv, 2 + i + j - h, M)
                        % M)
                if scal == 0:
                    continue
                PL = ref_falling(p, r, dd, i, L)
                for zeta in range(nb):
                    for k in range(dd):
                        Q[zeta][k] = (Q[zeta][k] + scal * PL[zeta][k]) % M
            S = fn_add(S, WeightFn(p, r, dd, Q) * fam.coords[j])
        out.append(G * S)
    return out


def rand_family_case(rng, p, r, d, c, outputs):
    """A monoid matrix with lower-left entry c and a window of outputs +
    tail_width(p, r) coordinates, some of them zero."""
    M = p ** r
    dd = rng.choice([u for u in range(1, M) if u % p])
    a, b = rng.randrange(M), rng.randrange(M)
    mat = monoid_mat(p, r, a, b, c, dd)
    coords = [WeightFn.zero(p, r, d) if rng.random() < 0.3
              else rand_fn(rng, p, r, d)
              for _ in range(outputs + tail_width(p, r))]
    return mat, FamilyVec(p, r, d, coords)


def assert_same_residues(got, want):
    assert [f.comps for f in got.coords] == [f.comps for f in want]


# in Gamma_1(9), with 3 | c and 5 | c, and entries above p^r for small r
GAMMA1_9 = IntMat(1, 1, 45, 46)


@pytest.mark.parametrize("p", (3, 5))
def test_act_family_matches_reference(p):
    # v_p(c) = 1 gives the widest set of live L, v_p(c) >= r only L = 0
    assert in_gamma1(GAMMA1_9, 9)
    rng = random.Random(40 + p)
    for r in range(1, 5):
        for d in range(1, 5):
            for c in (p * 7, p * (p + 1), p ** r * 2, 0):
                mat, fam = rand_family_case(rng, p, r, d, c, 4)
                assert_same_residues(act_family(mat, fam),
                                     ref_act_family(mat, fam))
            # an IntMat of Gamma_1(9) with entries above p^r
            assert_same_residues(act_family(GAMMA1_9, fam),
                                 ref_act_family(GAMMA1_9, fam))


def test_act_family_matches_reference_wide():
    # a long certified window reaches large i and every live L for each h
    rng = random.Random(47)
    for c in (3, 6, 9, 0):
        mat, fam = rand_family_case(rng, 3, 3, 2, c, 12)
        assert_same_residues(act_family(mat, fam), ref_act_family(mat, fam))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((3, 5)), st.integers(1, 3), st.integers(1, 3),
       st.integers(1, 4), st.integers(1, 6), st.randoms(use_true_random=False))
def test_act_family_property(p, r, d, vc, outputs, rng):
    c = p ** vc * rng.randrange(1, p ** r) if rng.random() < 0.9 else 0
    mat, fam = rand_family_case(rng, p, r, d, c, outputs)
    assert_same_residues(act_family(mat, fam), ref_act_family(mat, fam))


@pytest.mark.parametrize("r", range(1, 6))
@pytest.mark.parametrize("p", (3, 5))
def test_act_family_field_bound_stress(p, r):
    # every residue the kernel multiplies is as large as it can be: windows
    # of M - 1 in every coefficient, a = b = d = -1 mod p^r, and v_p(c) = 1
    # for the widest set of live L (a = 2M - 1 keeps the determinant
    # positive); stored width two tails, d <= 6 - r
    M = p ** r
    mat = IntMat(2 * M - 1, M - 1, p, M - 1)
    t = tail_width(p, r)
    for d in range(1, 7 - r):
        top = WeightFn(p, r, d, [[M - 1] * d for _ in range(branch_count(p))])
        fam = FamilyVec(p, r, d, [top] * (2 * t))
        assert_same_residues(act_family(mat, fam), ref_act_family(mat, fam))


def max_live(c, p, r):
    """The largest L with c^L/L! != 0 mod p^r, exactly; for p | c its
    valuation is at least L - (L - 1)/(p - 1) >= (L + 1)/2, so L < 2r."""
    return max(L for L in range(2 * r) if ref_cf(c, L, p, r))


@pytest.mark.parametrize("p", (3, 5, 7))
def test_kernel_reads_nothing_past_the_last_live_term(p):
    # D_L(i) = sum_(h <= i) row_i[h] x_(h+L) with i < n outputs, so no
    # coordinate at index >= n + max live L is read: overwriting them all
    # leaves both kernels unchanged.  v_p(c) = 1 gives the widest live L,
    # and in the family the coordinate just below that index is read
    rng = random.Random(60 + p)
    n = 3
    for r in range(1, 5):
        M = p ** r
        c = p * (p + 1)
        mat = IntMat(1 + M * p * (p + 1), rng.randrange(M), c, 1 + p)
        cut = n + max_live(c, p, r)
        chi = Weight(rng.randrange(p - 1), PrecInt(p, r, rng.randrange(M)))
        seq = SeqVec(chi, [rng.randrange(M) for _ in range(n + tail_width(p, r))])
        junk = SeqVec(chi, seq.coords[:cut]
                      + [rng.randrange(M) for _ in seq.coords[cut:]])
        assert act_universal(mat, junk).coords == act_universal(mat, seq).coords
        d = 1 if p == 7 else 2
        fam = rand_fam(rng, p, r, d, n + tail_width(p, r))
        want = act_family(mat, fam).coords
        junk = FamilyVec(p, r, d, fam.coords[:cut]
                         + [rand_fn(rng, p, r, d) for _ in fam.coords[cut:]])
        assert_same_residues(act_family(mat, junk), want)
        read = FamilyVec(p, r, d, fam.coords[:cut - 1]
                         + [rand_fn(rng, p, r, d)] + fam.coords[cut:])
        assert act_family(mat, read).coords != want


def branch_fn(zeta, p, r, d):
    """The idempotent of branch zeta: 1 there, 0 on every other branch."""
    return WeightFn(p, r, d, [[int(i == zeta)] + [0] * (d - 1)
                              for i in range(branch_count(p))])


def test_branch_idempotents():
    p, r, d = 3, 3, 2
    es = [branch_fn(zeta, p, r, d) for zeta in range(branch_count(p))]
    total = WeightFn.zero(p, r, d)
    for i, e in enumerate(es):
        assert e * e == e
        total = fn_add(total, e)
        for j, f in enumerate(es):
            if i != j:
                assert e * f == WeightFn.zero(p, r, d)
    assert total == const_fn(1, p, r, d)


def test_tautological_weight_specializes():
    # branch zeta holds zeta + X, so sp_k must read X at k minus the branch
    p, r, d = 3, 4, 3
    w = WeightFn(p, r, d, [[zeta, 1, 0] for zeta in range(branch_count(p))])
    for k in range(-5, 15):
        assert sp_k(k, w) == PrecInt(3, 3, k)


def test_char_series_integer_powers():
    f = char_series(7, 3, 5, 4)
    for k in range(-6, 15):
        assert sp_k(k, f) == PrecInt(3, 4, pow(7, k, 3 ** 5))
    g = char_series(2, 5, 3, 3)
    for k in range(-4, 25):
        assert sp_k(k, g) == PrecInt(5, 3, pow(2, k, 5 ** 3))


def test_one_n_matches_powers():
    # one-units 1 + N (p | N): log/exp series route versus modular exponentiation
    f = char_series(1 + 9, 3, 4, 4)
    for k in range(-8, 21):
        assert sp_k(k, f) == PrecInt(3, 4, pow(10, k, 3 ** 4))
    g = char_series(1 + 10, 5, 3, 3)
    for k in range(-6, 13):
        assert sp_k(k, g) == PrecInt(5, 3, pow(11, k, 5 ** 3))


def test_char_series_matches_character_eval():
    # series in X = k - zeta versus the value at k; both take log<u> from
    # padic, so this checks the series and branch bookkeeping, while
    # test_char_series_integer_powers checks against modular powers
    p, r, d = 3, 5, 4
    rng = random.Random(11)
    for _ in range(25):
        u = rng.randrange(1, p ** r)
        if u % p == 0:
            continue
        f = char_series(u, p, r, d)
        # every weight mod p^r is the character of such an integer k
        k = rng.randrange(p ** r * (p - 1))
        chi = Weight.of_int(k, p, r)
        assert sp_k(k, f) == eval_char(chi, PrecInt(p, r, u))


def test_char_series_guard():
    with pytest.raises(NotAUnit):
        char_series(6, 3, 3, 2)


def test_specialization_is_ring_hom():
    p, r, d = 3, 4, 3
    rng = random.Random(5)
    for _ in range(10):
        f = rand_fn(rng, p, r, d)
        g = rand_fn(rng, p, r, d)
        for k in (0, 2, 5, 9):
            assert sp_k(k, f * g) == sp_k(k, f) * sp_k(k, g)
            assert sp_k(k, fn_add(f, g)) == sp_k(k, f) + sp_k(k, g)


def test_act_identity():
    p, r, d = 3, 3, 2
    rng = random.Random(2)
    fam = rand_fam(rng, p, r, d, 3 + tail_width(p, r))
    out = act_family(IntMat.identity(), fam)
    assert out.coords == fam.coords[:len(out.coords)]


def test_act_diagonal():
    p, r, d = 3, 3, 2
    M = p ** r
    rng = random.Random(3)
    fam = rand_fam(rng, p, r, d, 3 + tail_width(p, r))
    for u in (4, 7, 11):
        out = act_family(IntMat(1, 0, 0, u), fam)
        cs = char_series(u, p, r, d)
        uinv = pow(u, -1, M)
        for i in range(len(out.coords)):
            rhs = cs * fam.coords[i].scale(pow(uinv, 2 + i, M))
            assert out.coords[i] == rhs


def test_act_up_shape_closed_form():
    # a = p, c = 0 forces h = j in the double sum, leaving an exact
    # lower-triangular expression independent of the weight variable
    p, r, d = 3, 3, 2
    M = p ** r
    rng = random.Random(7)
    for theta in range(p):
        fam = rand_fam(rng, p, r, d, 4 + tail_width(p, r))
        out = act_family(IntMat(p, -theta, 0, 1), fam)
        for i in range(len(out.coords)):
            rhs = WeightFn.zero(p, r, d)
            for j in range(i + 1):
                scal = math.comb(i, j) * pow(p, j, M) * pow(-theta, i - j, M)
                rhs = fn_add(rhs, fam.coords[j].scale(scal))
            assert out.coords[i] == rhs


def test_act_unipotent_closed_form():
    p, r, d = 3, 3, 2
    rng = random.Random(8)
    fam = rand_fam(rng, p, r, d, 4 + tail_width(p, r))
    out = act_family(IntMat(1, 1, 0, 1), fam)
    for i in range(len(out.coords)):
        rhs = WeightFn.zero(p, r, d)
        for j in range(i + 1):
            rhs = fn_add(rhs, fam.coords[j].scale(math.comb(i, j)))
        assert out.coords[i] == rhs


def test_act_width_guard():
    # w coordinates give w - tail_width outputs, whatever d; exactly
    # tail_width coordinates give none and raise
    rng = random.Random(9)
    for p, r, d in ((3, 2, 2), (5, 3, 1), (7, 2, 4)):
        t = tail_width(p, r)
        fam = rand_fam(rng, p, r, d, t + 1)
        assert len(act_family(IntMat.identity(), fam).coords) == 1
        with pytest.raises(WidthInsufficient):
            act_family(IntMat.identity(), FamilyVec(p, r, d, fam.coords[:t]))


def test_act_outside_monoid():
    # p must divide c and not d; (1 0; 1 1) used to raise a raw ValueError
    p, r, d = 3, 2, 2
    fam = FamilyVec(p, r, d, [WeightFn.zero(p, r, d)] * (1 + tail_width(p, r)))
    for mat in (IntMat(1, 0, 1, 1), IntMat(1, 0, 3, 6)):
        with pytest.raises(NotAdmissible):
            act_family(mat, fam)


def test_intertwines_single_weight_action():
    # family action, then specialize at k == specialize, then weight k-2 action
    p, r, d = 3, 4, 3
    tail = tail_width(p, r)
    rng = random.Random(13)
    mats = [IntMat(2, 1, 3, 5), IntMat(1, 0, 3, 1), IntMat(4, 2, 6, 7)]
    for k in range(2, 8):
        fam = rand_fam(rng, p, r, d, 3 + tail)
        for mat in mats:
            left = sp_vector(k, act_family(mat, fam))
            right = act_universal(mat, sp_vector(k, fam))
            assert left.agrees(right, 3)


@pytest.mark.parametrize("p", (3, 5, 7))
def test_family_tail_does_not_depend_on_degree(p):
    # the family action uses up tail_width(p, r) coordinates for every
    # series degree d: a window of out + tail_width gives the same out
    # outputs as one of out + p(r + d), family_tail's budget.  v_p(c) = 1
    # gives the widest set of live L
    rng = random.Random(70 + p)
    out = 3
    for r in range(1, 6):
        M = p ** r
        for d in (1, 2, 4, 6):
            dd = rng.choice([u for u in range(1, M) if u % p])
            a, b = rng.randrange(M), rng.randrange(M)
            mat = monoid_mat(p, r, a, b, p * (p + 1), dd)
            long = rand_fam(rng, p, r, d, out + p * (r + d))
            short = FamilyVec(p, r, d, long.coords[:out + tail_width(p, r)])
            want = act_family(mat, long).coords[:out]
            assert_same_residues(act_family(mat, short), want)


def test_tail_width_needs_an_odd_prime():
    # t(p - 2)/(p - 1) >= r has no solution at p = 2: a typed error, not a
    # bare ZeroDivisionError; p = 3 is the first prime with a tail
    for r in (1, 4):
        with pytest.raises(BadRange):
            tail_width(2, r)
    assert tail_width(3, 4) == 8 and tail_width(5, 2) == 3


def test_family_tail_values():
    assert family_tail(3, 4, 3) == 21
    assert family_tail(5, 2, 2) == 20
    assert family_tail(3, 2, 2) < family_tail(3, 3, 2)


def test_weight_fn_shape_guard():
    with pytest.raises(DimensionMismatch):
        WeightFn(3, 2, 2, [[0, 0]] * 5)
    with pytest.raises(DimensionMismatch):
        WeightFn(3, 2, 2, [[0, 0]] * 5 + [[0]])


def test_weight_fn_arithmetic_is_reduced():
    # scaling, products and act_family build their results without
    # the public constructor; each must hold the residues it would give
    rng = random.Random(31)
    p, r, d = 3, 3, 3
    M = p ** r
    for _ in range(10):
        f, g = rand_fn(rng, p, r, d), rand_fn(rng, p, r, d)
        k = rng.randrange(-5 * M, 5 * M)
        for got, raw in ((f.scale(k), [[x * k for x in a] for a in f.comps]),
                         (f * g, (f * g).comps)):
            assert got.comps == WeightFn(p, r, d, raw).comps
    mat = IntMat(2 + M, 5, 3, 4)  # a lifted: 2 * 4 - 5 * 3 < 0
    fam = rand_fam(rng, p, r, d, 1 + tail_width(p, r))
    for x in act_family(mat, fam).coords:
        assert len(x.comps) == branch_count(p)
        assert all(len(c) == d and all(0 <= e < M for e in c) for c in x.comps)


def test_weight_fn_precision_guard():
    f = const_fn(1, 3, 2, 2)
    for g in (const_fn(1, 3, 3, 2), const_fn(1, 3, 2, 3),
              const_fn(1, 5, 2, 2)):
        with pytest.raises(PrecisionMismatch):
            f * g


def test_family_vec_rejects_raw_coordinates():
    with pytest.raises(NotAdmissible):
        FamilyVec(3, 2, 2, [0])
    with pytest.raises(NotAdmissible):
        FamilyVec(3, 2, 2, [WeightFn.zero(3, 2, 2), [[0, 0]] * 6])


def test_family_vec_rejects_other_precisions():
    # coordinates mod p^2 in a window mod p^4 would act as if certified,
    # and X^2 coordinates in an X^3 window would be read past their end
    for p, r, d in ((3, 2, 3), (3, 4, 2), (5, 4, 3)):
        with pytest.raises(PrecisionMismatch):
            FamilyVec(3, 4, 3, [WeightFn.zero(3, 4, 3),
                                WeightFn.zero(p, r, d)])


@pytest.mark.parametrize("M", (1, 2, 3, 81, 2 ** 32 - 5, 2 ** 32 + 15,
                               23 ** 24))
def test_residues_draw_what_randrange_draws(M):
    # the draws of FamilyCoeffs.rand: the values of n randrange(M) calls on
    # a twin generator, which is left in the same state
    rng, twin = random.Random(M), random.Random(M)
    n = 200
    assert _residues(rng, M, n) == [twin.randrange(M) for _ in range(n)]
    assert rng.random() == twin.random()
