"""Diagonalization, solving, and charpoly over Z/p^r."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pwl.cohomology import SymCoeffs, h1, hecke_matrix, t_ell_reps
from pwl.errors import (AmbiguousAtPrecision, DimensionMismatch,
                        NotInvertible, PrecisionExhausted)
from pwl.gamma1 import free_basis
from pwl.linalg import (_PACK_WIDTH, _poly_eval_matrix, _width, charpoly_mod,
                        identity_mat, mat_mul, mat_vec, pack_row, poly_mul,
                        smith_mod, unpack_row)
from pwl.padic import vp
from pwl.slope import ps_tp_inv, slope_factor
from reference import schoolbook_mul


def rand_mat(rng, m, n, M):
    return [[rng.randrange(M) for _ in range(n)] for _ in range(m)]


def kernel_exponent(sf):
    """|kernel| = p ** this, read off the elementary divisors."""
    return sum(sf.exps) + sf.r * (sf.n - len(sf.exps))


def image_exponent(sf):
    """|image| = p ** this."""
    return sum(sf.r - e for e in sf.exps)


def kernel_basis(sf):
    """Column vectors spanning the kernel, from the columns of V."""
    M = sf.p ** sf.r
    out = []
    for i, e in enumerate(sf.exps):
        if e:
            scale = sf.p ** (sf.r - e)
            out.append([sf.V[t][i] * scale % M for t in range(sf.n)])
    for i in range(len(sf.exps), sf.n):
        out.append([sf.V[t][i] % M for t in range(sf.n)])
    return out


def ref_smith(A, p, r):
    """Smith form by full row and column passes on B, U and V, every row
    operation on U mirrored into U^-1 as a column pass (Cohen, A Course in
    Computational Algebraic Number Theory, 2.4).  (exps, U, V, U^-1): the
    oracle for smith_mod's pivots and outputs, entry for entry, and for the
    U^-1 that smith_mod does not build."""
    m = len(A)
    n = len(A[0]) if m else 0
    M = p ** r
    B = [[x % M for x in row] for row in A]
    U = identity_mat(m)
    Uinv = identity_mat(m)
    V = identity_mat(n)
    exps = []
    for k in range(min(m, n)):
        piv_i = piv_j = -1
        e = r
        for i in range(k, m):
            row = B[i]
            for j in range(k, n):
                x = row[j]
                if x:
                    v = vp(x, p)
                    if v < e:
                        piv_i, piv_j, e = i, j, v
                        if not v:
                            break
            if not e:
                break
        if piv_i < 0:
            exps.extend([r] * (min(m, n) - k))
            break
        if piv_i != k:
            B[k], B[piv_i] = B[piv_i], B[k]
            U[k], U[piv_i] = U[piv_i], U[k]
            for row in Uinv:
                row[k], row[piv_i] = row[piv_i], row[k]
        if piv_j != k:
            for row in B:
                row[k], row[piv_j] = row[piv_j], row[k]
            for row in V:
                row[k], row[piv_j] = row[piv_j], row[k]
        pe = p ** e
        unit = B[k][k] // pe
        uinv = pow(unit, -1, M)
        B[k] = [x * uinv % M for x in B[k]]
        U[k] = [x * uinv % M for x in U[k]]
        mults = []
        for i in range(m):
            if i != k and B[i][k]:
                f = B[i][k] // pe
                B[i] = [(x - f * y) % M for x, y in zip(B[i], B[k])]
                U[i] = [(x - f * y) % M for x, y in zip(U[i], U[k])]
                mults.append((i, f))
        for row in Uinv:
            row[k] = (unit * row[k] + sum(f * row[i] for i, f in mults)) % M
        for j in range(n):
            if j == k:
                continue
            f = B[k][j] // pe
            if not f:
                continue
            for row in B:
                row[j] = (row[j] - f * row[k]) % M
            for row in V:
                row[j] = (row[j] - f * row[k]) % M
        exps.append(e)
    return exps, U, V, Uinv


def check_smith(A, p, r):
    """U A V is diag(p^exps) with exps ascending; exps, U and V equal
    ref_smith's entry for entry; ref_smith's U^-1 inverts U, its unpivoted
    columns c are e_pos[c] (column pos[c] of U is e_c), and A V = U^-1 D."""
    M = p ** r
    m = len(A)
    n = len(A[0]) if m else 0
    sf = smith_mod(A, p, r)
    exps, U, V, Uinv = ref_smith(A, p, r)
    assert (sf.m, sf.n) == (m, n)
    assert (sf.exps, sf.U, sf.V) == (exps, U, V)
    assert sf.exps == sorted(sf.exps)
    assert all(0 <= e <= r for e in sf.exps)
    assert len(sf.exps) == min(m, n)
    D = mat_mul(mat_mul(sf.U, A, M), sf.V, M)
    for i in range(m):
        for j in range(n):
            want = p ** sf.exps[i] % M if (i == j and i < len(sf.exps)) else 0
            assert D[i][j] == want
    assert det_mod_p(sf.U, p) != 0
    assert det_mod_p(sf.V, p) != 0
    assert mat_mul(sf.U, Uinv, M) == identity_mat(m)
    assert mat_mul(Uinv, sf.U, M) == identity_mat(m)
    # the unpivoted coordinates: induced_matrix selects column pos[c]
    assert sorted(sf.pos) == list(range(m))
    for c in range(sum(e < r for e in sf.exps), m):
        e_c = [int(i == c) for i in range(m)]
        assert [row[sf.pos[c]] for row in sf.U] == e_c, c
        assert [row[c] for row in Uinv] == [int(i == sf.pos[c])
                                            for i in range(m)], c
    # U A V = D, so column j of A V is p^e_j times column j of U^-1 (and
    # zero past min(m, n)): ps_tp_inv reads its basis off A V
    AV = mat_mul(A, sf.V, M)
    for j in range(n):
        want = ([row[j] * p ** sf.exps[j] % M for row in Uinv]
                if j < len(sf.exps) else [0] * m)
        assert [row[j] for row in AV] == want, j


def det_int(A):
    if len(A) == 1:
        return A[0][0]
    total = 0
    for j in range(len(A)):
        minor = [row[:j] + row[j + 1:] for row in A[1:]]
        term = A[0][j] * det_int(minor)
        total += term if j % 2 == 0 else -term
    return total


def det_mod_p(A, p):
    # Gaussian elimination over the prime field
    n = len(A)
    B = [[x % p for x in row] for row in A]
    det = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if B[i][k] % p), None)
        if piv is None:
            return 0
        if piv != k:
            B[k], B[piv] = B[piv], B[k]
            det = -det
        det = det * B[k][k] % p
        inv = pow(B[k][k], -1, p)
        for i in range(k + 1, n):
            f = B[i][k] * inv % p
            B[i] = [(x - f * y) % p for x, y in zip(B[i], B[k])]
    return det % p


def test_smith_reconstruction():
    rng = random.Random(1)
    p, r = 3, 4
    M = p ** r
    for m, n in [(2, 2), (3, 3), (4, 3), (3, 5), (5, 5)]:
        for _ in range(8):
            A = rand_mat(rng, m, n, M)
            # salt in some non-unit structure
            if rng.random() < 0.5:
                i = rng.randrange(m)
                A[i] = [x * p % M for x in A[i]]
            check_smith(A, p, r)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((3, 5, 43)), st.integers(1, 6), st.integers(0, 8),
       st.integers(1, 8), st.data())
@example(3, 2, 3, 4, None)
@example(5, 1, 0, 1, None)
def test_smith_property(p, r, m, n, data):
    # entries are (unit-ish part, power of p), so valuations vary freely;
    # a drawn row may be zero, and data=None pins the zero matrix
    M = p ** r
    A = [[0] * n for _ in range(m)]
    if data is not None:
        for i in range(m):
            if not data.draw(st.booleans(), label="zero row"):
                A[i] = [x * p ** e % M for x, e in data.draw(st.lists(
                    st.tuples(st.integers(0, 10 ** 12), st.integers(0, 7)),
                    min_size=n, max_size=n), label="row")]
    check_smith(A, p, r)


def test_smith_matches_reference_on_pipeline_matrices():
    # the level-5 Sym^16 coboundary matrix (51 x 17, the sym16_N5 job's
    # Smith form), the zero level-43 one (155 x 1, the charpoly_N43 job's:
    # no pivot, so U stays the identity) and the level-23 U_23 matrix on the
    # free quotient (45 x 45)
    beta = h1(SymCoeffs(31, 4, 16), free_basis(5)).beta
    assert (len(beta), len(beta[0])) == (51, 17)
    check_smith(beta, 31, 4)
    beta = h1(SymCoeffs(43, 3, 0), free_basis(43)).beta
    assert (len(beta), len(beta[0])) == (155, 1) and not any(map(any, beta))
    check_smith(beta, 43, 3)
    fb, co = free_basis(23), SymCoeffs(23, 2, 0)
    T = h1(co, fb).induced_matrix(hecke_matrix(co, fb, t_ell_reps(23, fb)))
    assert (len(T), len(T[0])) == (45, 45)
    check_smith(T, 23, 2)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from((3, 5)), st.integers(2, 5), st.integers(1, 3),
       st.data())
def test_ps_tp_inv_basis_is_unit_columns_of_uinv(p, r, s, data):
    """ps_tp_inv's basis, the first deg Q columns of K V (K = R(A)), is the
    first deg Q columns of ref_smith's U^-1 for K.  A = S T S^-1: T upper
    triangular with ascending diagonal valuations in 0..r (r: a zero
    entry), S unit lower times unit upper triangular."""
    M = p ** r
    n = data.draw(st.integers(1, 6), label="n")
    entry = st.integers(0, M - 1)
    vals = sorted(data.draw(st.lists(st.integers(0, r), min_size=n,
                                     max_size=n), label="valuations"))
    T = [[data.draw(entry) if j > i else 0 for j in range(n)]
         for i in range(n)]
    for i, v in enumerate(vals):
        unit = data.draw(st.integers(1, p - 1)) + p * data.draw(entry)
        T[i][i] = unit * p ** v % M
    L = [[data.draw(entry) if j < i else int(i == j) for j in range(n)]
         for i in range(n)]
    R = [[data.draw(entry) if j > i else int(i == j) for j in range(n)]
         for i in range(n)]
    S = mat_mul(L, R, M)
    sf = smith_mod(S, p, r)  # U S V = I, so S^-1 = V U
    A = mat_mul(mat_mul(S, T, M), mat_mul(sf.V, sf.U, M), M)
    try:
        B = ps_tp_inv(A, s, p, r)[1]
    except (AmbiguousAtPrecision, NotInvertible, PrecisionExhausted):
        return
    _, R, loss = slope_factor(charpoly_mod(A, p, r), s, p, r)
    prec = r - loss  # K's precision, not the one ps_tp_inv returns for W
    exps, _, _, Uinv = ref_smith(_poly_eval_matrix(R, A, p ** prec), p, prec)
    k = exps.count(0)
    assert exps == [0] * k + [prec] * (n - k)
    assert B == [row[:k] for row in Uinv]


def growth_matrix(m, n, M):
    """L R mod M, L (m x q) with every entry on and below its diagonal 1,
    R (q x n) with 1 on its diagonal and M - 1 above, q = min(m, n).
    smith_mod pivots on the diagonal with every multiplier 1 and every
    pivot-row entry M - 1, so field (i, j) of B takes min(i, j) passes of
    (M - 1)^2: past half of the width bound (min(m, n) + 1) M^2."""
    q = min(m, n)
    L = [[int(k <= i) for k in range(q)] for i in range(m)]
    R = [[M - 1 if k < j else int(k == j) for j in range(n)]
         for k in range(q)]
    return mat_mul(L, R, M)


@pytest.mark.parametrize("m, n, w", [(12, 12, 64), (12, 30, 64),
                                     (13, 13, 65), (20, 20, 65)])
def test_smith_fields_at_the_width_bound(m, n, w):
    # M = 3^19: (min(m, n) + 1) M^2 is just below 2^64 at min(m, n) = 12
    # (64-bit fields, through struct) and just above it at 13 (65 bits,
    # by shifts).  Every entry M - 1 takes one pass and stops; the growth
    # matrix fills B's fields to 11 (M - 1)^2 > 2^63 at 12 and
    # 19 (M - 1)^2 > 2^64 at 20, so a width one bit narrower overflows
    M = 3 ** 19
    assert _width((min(m, n) + 1) * M * M) == w
    check_smith([[M - 1] * n for _ in range(m)], 3, 19)
    check_smith(growth_matrix(m, n, M), 3, 19)


@pytest.mark.parametrize("A", [[[1, 2], [3]], [[3], [1, 2]]])
def test_smith_rejects_ragged_rows(A):
    with pytest.raises(DimensionMismatch):
        smith_mod(A, 3, 2)


def test_solve_found_and_verified():
    rng = random.Random(2)
    p, r = 3, 5
    M = p ** r
    for m, n in [(3, 3), (4, 2), (2, 4)]:
        for _ in range(10):
            A = rand_mat(rng, m, n, M)
            x0 = [rng.randrange(M) for _ in range(n)]
            b = mat_vec(A, x0, M)
            x = smith_mod(A, p, r).solve(b)
            assert x is not None
            assert mat_vec(A, x, M) == b


def test_solve_unsolvable():
    assert smith_mod([[3]], 3, 3).solve([1]) is None
    assert smith_mod([[9, 0], [0, 9]], 3, 2).solve([3, 1]) is None
    # zero rows constrain the right-hand side
    assert smith_mod([[0], [0]], 3, 2).solve([0, 1]) is None


@pytest.mark.parametrize("b", [[1, 0, 5], [1]])
def test_solve_checks_length(b):
    with pytest.raises(DimensionMismatch):
        smith_mod([[1, 0], [0, 3]], 3, 2).solve(b)


def test_solve_checks_length_with_no_rows():
    # U is 0 x 0, so no row of it can compare its length with b's
    sf = smith_mod([], 3, 2)
    with pytest.raises(DimensionMismatch):
        sf.solve([1])
    assert sf.solve([]) == []


def test_invert():
    rng = random.Random(3)
    p, r = 5, 3
    M = p ** r
    for n in (1, 2, 4):
        for _ in range(6):
            L = identity_mat(n)
            Rm = identity_mat(n)
            for i in range(n):
                for j in range(i):
                    L[i][j] = rng.randrange(M)
                    Rm[j][i] = rng.randrange(M)
            A = mat_mul(L, Rm, M)
            # U A V = I, so A^-1 = V U
            sf = smith_mod(A, p, r)
            assert sf.exps == [0] * n
            Ainv = mat_mul(sf.V, sf.U, M)
            assert mat_mul(A, Ainv, M) == identity_mat(n)
            assert mat_mul(Ainv, A, M) == identity_mat(n)
    assert smith_mod([[5, 0], [0, 1]], 5, 3).exps == [0, 1]


def test_kernel_size_brute_force():
    rng = random.Random(4)
    p, r = 3, 2
    M = p ** r
    for m, n in [(2, 2), (2, 3), (3, 2)]:
        for _ in range(6):
            A = rand_mat(rng, m, n, M)
            if rng.random() < 0.5:
                A[0] = [x * p % M for x in A[0]]
            sf = smith_mod(A, p, r)
            brute = sum(1 for v in itertools.product(range(M), repeat=n)
                        if all(x == 0 for x in mat_vec(A, list(v), M)))
            assert brute == p ** kernel_exponent(sf)
            image = {tuple(mat_vec(A, list(v), M))
                     for v in itertools.product(range(M), repeat=n)}
            assert len(image) == p ** image_exponent(sf)


def test_kernel_basis_spans():
    rng = random.Random(5)
    p, r = 3, 2
    M = p ** r
    for _ in range(6):
        A = rand_mat(rng, 2, 2, M)
        A[0] = [x * p % M for x in A[0]]
        sf = smith_mod(A, p, r)
        basis = kernel_basis(sf)
        for v in basis:
            assert all(x == 0 for x in mat_vec(A, v, M))
        spanned = set()
        for coeffs in itertools.product(range(M), repeat=len(basis)):
            vec = [0, 0]
            for c, v in zip(coeffs, basis):
                vec = [(x + c * y) % M for x, y in zip(vec, v)]
            spanned.add(tuple(vec))
        assert len(spanned) == p ** kernel_exponent(sf)


def pack_by_shifts(row, w):
    """One shift-or per field: the reference for pack_row's word path."""
    x = 0
    for v in reversed(row):
        x = (x << w) | v
    return x


def unpack_by_shifts(x, n, w, M):
    """One shift and mask per field: the reference for unpack_row."""
    return [(x >> (w * j) & ((1 << w) - 1)) % M for j in range(n)]


TOP = (1 << 64) - 1


@pytest.mark.parametrize("row", [[], [0], [1], [TOP], [0, 0, 0],
                                 [TOP, 0, 1, TOP], [1, TOP, TOP, 0, 0]])
def test_word_fields_match_shifts(row):
    # w = 64 moves fields through struct; it must agree with shifting,
    # zero high fields and n = 0 included
    n = len(row)
    x = pack_row(row, 64)
    assert x == pack_by_shifts(row, 64)
    for M in (TOP + 1, 43 ** 3, 1):
        assert unpack_row(x, n, 64, M) == unpack_by_shifts(x, n, 64, M)
    assert unpack_row(x, n, 64, TOP + 1) == row


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 20).flatmap(lambda n: st.lists(
    st.sampled_from((0, 1, TOP)) | st.integers(0, TOP),
    min_size=2 * n - 1, max_size=2 * n - 1)))
def test_unpack_words_reads_a_prefix(fields):
    # the block-product case: an int of 2n - 1 fields, of which unpack_row
    # reads only the first n
    n = (len(fields) + 1) // 2
    x = pack_by_shifts(fields, 64)
    for M in (TOP + 1, 3 ** 4):
        assert unpack_row(x, n, 64, M) == [v % M for v in fields[:n]]
        assert unpack_row(x, n, 64, M) == unpack_by_shifts(x, n, 64, M)


@pytest.mark.parametrize("M", [3 ** 4, 43 ** 3, 23 ** 24, 3 ** 20])
def test_poly_mul_matches_schoolbook(M):
    # 23^24: fields of 218 to 221 bits, wider than a word; 3^20:
    # 64-bit fields (struct) where a factor has length 1; every
    # coefficient M - 1 fills each field to its bound, min(len f, len g)
    # (M - 1)^2
    rng = random.Random(10)
    for lf in range(1, 13):
        for lg in range(1, 13):
            top = [M - 1] * lf, [M - 1] * lg
            assert poly_mul(*top, M) == schoolbook_mul(*top, M)
            f = [rng.randrange(-3 * M, 3 * M) for _ in range(lf)]
            g = [rng.choice((0, 1, M - 1, M, -1, rng.randrange(M)))
                 for _ in range(lg)]
            assert poly_mul(f, g, M) == schoolbook_mul(f, g, M), (f, g)
            assert poly_mul(g, f, M) == schoolbook_mul(f, g, M), (f, g)


def triple_sum(A, B, M):
    """A B mod M entry by entry: the reference for mat_mul."""
    m = len(B[0]) if B else 0
    return [[sum(Ai[t] * B[t][j] for t in range(len(B))) % M
             for j in range(m)] for Ai in A]


def test_mat_mul_matches_triple_sum():
    rng = random.Random(11)
    M = 43 ** 3
    for n, k, m in [(3, 3, 3), (4, 2, 5), (1, 6, 1), (5, 1, 2), (0, 3, 2),
                    (3, 0, 0), (2, 3, 0)]:
        for _ in range(4):
            A = [[rng.choice((0, 0, 1, M - 1, rng.randrange(-M, 2 * M)))
                  for _ in range(k)] for _ in range(n)]
            B = rand_mat(rng, k, m, M)
            for t in range(k):
                if rng.random() < 0.4:
                    B[t] = [0] * m  # zero rows of B are skipped
            Z = [[0] * m for _ in range(k)]
            for Bv in (B, Z):
                assert mat_mul(A, Bv, M) == triple_sum(A, Bv, M), (A, Bv)


def test_mat_mul_packed_matches_triple_sum():
    # B at least _PACK_WIDTH wide: A and B are reduced mod M before the
    # packed multiply-adds, so entries of A below 0 or from M on count
    # as their residues, and zero rows of B add nothing
    rng = random.Random(12)
    for M in (7 ** 3, 43 ** 3, 31 ** 4, 23 ** 24):
        for n, k, m in [(3, 5, _PACK_WIDTH), (4, 1, _PACK_WIDTH + 1),
                        (2, 17, 51), (0, 3, _PACK_WIDTH), (5, 0, 40)]:
            A = [[rng.choice((0, 0, 1, M - 1, -1, -M, M, -M - 1,
                              rng.randrange(-3 * M, 3 * M)))
                  for _ in range(k)] for _ in range(n)]
            B = [[rng.choice((0, M - 1, rng.randrange(-M, 2 * M)))
                  for _ in range(m)] for _ in range(k)]
            for t in range(k):
                if rng.random() < 0.4:
                    B[t] = [0] * m
            assert mat_mul(A, B, M) == triple_sum(A, B, M), (A, B)


@pytest.mark.parametrize("M, k", [
    (43 ** 3, 4),
    (2 ** 30 + 1, 15),  # 15 (M - 1)^2 < 2^64: the largest fields of a word
    (2 ** 30 + 1, 16),  # 16 (M - 1)^2 = 2^64: the first 65-bit width
])
def test_mat_mul_packed_at_field_bound(M, k):
    # every entry M - 1: each field of the packed product is k (M - 1)^2,
    # the bound len(B) (M - 1)^2 itself
    for m in (_PACK_WIDTH, _PACK_WIDTH + 3):
        A = [[M - 1] * k for _ in range(3)]
        B = [[M - 1] * m for _ in range(k)]
        assert mat_mul(A, B, M) == triple_sum(A, B, M) == [[k % M] * m] * 3
    assert _width(15 * 2 ** 60) == 64 and _width(16 * 2 ** 60) == 65


@pytest.mark.parametrize("A, B", [
    ([[1, 2, 3]], [[1], [1]]),    # A is wider than B is tall
    ([[1]], [[1], [1]]),          # A is narrower
    ([[1, 2], [3]], [[1], [1]]),  # one short row of A
    # the same on B at least _PACK_WIDTH wide
    ([[1, 2, 3]], [[1] * _PACK_WIDTH] * 2),
    ([[1, 2], [3]], [[1] * _PACK_WIDTH] * 2),
])
def test_mat_mul_checks_shapes(A, B):
    with pytest.raises(DimensionMismatch):
        mat_mul(A, B, 7)


@pytest.mark.parametrize("A, v", [
    ([[1, 2]], [1, 2, 3]),
    ([[1, 2, 3]], [1, 2]),
    ([[1, 2], [3]], [1, 2]),
])
def test_mat_vec_checks_shapes(A, v):
    with pytest.raises(DimensionMismatch):
        mat_vec(A, v, 7)


def berkowitz(A, M):
    """det(X I - A) over Z/M by the division-free Berkowitz method, O(n^4);
    ascending coefficients.  The oracle for charpoly_mod."""
    n = len(A)
    if n == 0:
        return [1 % M]
    poly = [1 % M, (-A[0][0]) % M]
    for k in range(1, n):
        a = A[k][k] % M
        R = [A[k][j] % M for j in range(k)]
        C = [A[i][k] % M for i in range(k)]
        B = [[A[i][j] % M for j in range(k)] for i in range(k)]
        t = [1 % M, (-a) % M]
        w = C
        for step in range(k):
            t.append((-sum(x * y for x, y in zip(R, w))) % M)
            if step < k - 1:
                w = mat_vec(B, w, M)
        new = [0] * (k + 2)
        for i, ti in enumerate(t):
            if ti:
                for j, pj in enumerate(poly):
                    if i + j < k + 2 and pj:
                        new[i + j] = (new[i + j] + ti * pj) % M
        poly = new
    return list(reversed(poly))


def pivot_stress(rng, n, p, r, kind):
    """Random n x n matrix mod p^r whose sub-diagonal columns are shaped to
    exercise the Hessenberg pivot search."""
    M = p ** r
    A = rand_mat(rng, n, n, M)
    for k in range(n):
        below = range(k + 1, n)
        if kind == "non-units":      # least valuation 1..r-1, never 0
            e = rng.randrange(1, r) if r > 1 else 1
            for i in below:
                A[i][k] = A[i][k] * p ** rng.randrange(e, r + 1) % M
            if n > k + 1 and e < r:
                A[rng.choice(below)][k] = p ** e * (rng.randrange(1, p)) % M
        elif kind == "zero":         # every other sub-column vanishes
            if k % 2 == 0:
                for i in below:
                    A[i][k] = 0
        elif kind == "last-row":     # the only unit sits in the last row
            for i in below:
                A[i][k] = A[i][k] * p % M
            if n > k + 1:
                A[n - 1][k] = rng.randrange(1, p) + p * rng.randrange(M)
    return A


def test_charpoly_matches_berkowitz():
    rng = random.Random(8)
    kinds = ("random", "non-units", "zero", "last-row")
    for p in (3, 11, 43):
        for r in (1, 6, 7):
            M = p ** r
            for n in range(13):
                for kind in kinds:
                    A = pivot_stress(rng, n, p, r, kind)
                    assert charpoly_mod(A, p, r) == berkowitz(A, M), \
                        (p, r, n, kind)
    # no pivot below the sub-diagonal at the width boundary: for 3^12,
    # (n+1)^2 M^3 has 64 bits at n = 10 (word fields) and 65 at n = 11
    for n in (10, 11):
        A = pivot_stress(rng, n, 3, 12, "zero")
        assert charpoly_mod(A, 3, 12) == berkowitz(A, 3 ** 12), n


def unit_lower_inverse(L, M):
    """L^-1 mod M for unit lower-triangular L, by forward substitution."""
    n = len(L)
    X = identity_mat(n)
    for i in range(n):
        for j in range(i):
            X[i][j] = -sum(L[i][t] * X[t][j] for t in range(j, i)) % M
    return X


def test_charpoly_width_is_a_word_while_the_bound_fits():
    assert [_width(b) for b in (1, TOP, TOP + 1, 1 << 70)] == [64, 64, 65, 71]
    # the boundary inputs of the conjugate-of-triangular test below sit on
    # both sides of the word: the column width, then the recurrence width
    M12, M19 = 3 ** 12, 3 ** 19
    assert [_width((n + 1) ** 2 * M12 ** 3) for n in (10, 11)] == [64, 65]
    assert [_width((n + 2) * M19 ** 2) for n in (11, 12)] == [64, 65]


def test_charpoly_large_conjugate_of_triangular():
    # A = L T L^-1 with T upper-triangular, entries near M - 1: the
    # charpoly is prod (X - t_ii), at sizes where the packed fields of
    # charpoly_mod are wide enough to overflow if the width bound were off
    # with the word boundary of charpoly_mod's widths: bits((n+1)^2 M^3) is
    # 64, then 65 for 3^12 at n = 10, 11, and bits((n+2) M^2) for 3^19 at
    # n = 11, 12
    rng = random.Random(9)
    for p, r, n in ((43, 3, 40), (43, 3, 100), (23, 24, 40), (23, 24, 100),
                    (3, 12, 10), (3, 12, 11), (3, 19, 11), (3, 19, 12)):
        M = p ** r
        L = identity_mat(n)
        T = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if j < i:
                    L[i][j] = rng.randrange(M)
                else:
                    T[i][j] = M - 1 - rng.randrange(3)
        Linv = unit_lower_inverse(L, M)
        assert mat_mul(L, Linv, M) == identity_mat(n)
        A = mat_mul(mat_mul(L, T, M), Linv, M)
        want = [1]
        for i in range(n):
            # multiply by X - t_ii
            want = [(a - T[i][i] * b) % M
                    for a, b in zip([0] + want, want + [0])]
        assert charpoly_mod(A, p, r) == want, (p, r, n)


def test_charpoly_takes_unreduced_entries():
    A = [[-1, 10 ** 30], [7, -3 ** 40]]
    assert charpoly_mod(A, 5, 3) == berkowitz(A, 125)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((2, 3, 5, 43)), st.integers(1, 6),
       st.integers(0, 8).flatmap(lambda n: st.lists(
           st.lists(st.tuples(st.integers(0, 10 ** 12), st.integers(0, 7)),
                    min_size=n, max_size=n), min_size=n, max_size=n)))
def test_charpoly_property_matches_berkowitz(p, r, entries):
    # entries are (unit-ish part, power of p), so valuations vary freely
    M = p ** r
    A = [[x * p ** e % M for x, e in row] for row in entries]
    coeffs = charpoly_mod(A, p, r)
    assert coeffs == berkowitz(A, M)
    assert len(coeffs) == len(A) + 1 and coeffs[-1] == 1 % M


def test_charpoly_matches_determinant():
    rng = random.Random(6)
    for p, r in ((3, 4), (11, 6)):
        M = p ** r
        for n in (1, 2, 3, 4, 5):
            A = rand_mat(rng, n, n, M)
            coeffs = charpoly_mod(A, p, r)
            assert len(coeffs) == n + 1
            assert coeffs[-1] == 1
            for x in range(n + 3):
                shifted = [[(x if i == j else 0) - A[i][j] for j in range(n)]
                           for i in range(n)]
                want = det_int(shifted) % M
                got = sum(c * pow(x, i, M) for i, c in enumerate(coeffs)) % M
                assert got == want


def test_charpoly_cayley_hamilton():
    rng = random.Random(7)
    p, r = 3, 5
    M = p ** r
    for _ in range(5):
        A = rand_mat(rng, 3, 3, M)
        coeffs = charpoly_mod(A, p, r)
        acc = [[0] * 3 for _ in range(3)]
        power = identity_mat(3)
        for c in coeffs:
            for i in range(3):
                for j in range(3):
                    acc[i][j] = (acc[i][j] + c * power[i][j]) % M
            power = mat_mul(power, A, M)
        assert acc == [[0] * 3 for _ in range(3)]


@pytest.mark.parametrize("A", [[[1, 2]], [[1], [2]], [[1, 2], [3]]])
def test_charpoly_rejects_non_square(A):
    with pytest.raises(DimensionMismatch):
        charpoly_mod(A, 3, 2)
