"""Diagonalization, solving, and charpoly over Z/p^r."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pwl.errors import DimensionMismatch
from pwl.linalg import charpoly_mod, identity_mat, mat_mul, mat_vec, smith_mod


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


def check_smith(A, p, r):
    """U A V is diag(p^exps) with exps ascending, and Uinv is U^-1."""
    M = p ** r
    m = len(A)
    n = len(A[0]) if m else 0
    sf = smith_mod(A, p, r)
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
    assert mat_mul(sf.U, sf.Uinv, M) == identity_mat(m)
    assert mat_mul(sf.Uinv, sf.U, M) == identity_mat(m)


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


def unit_lower_inverse(L, M):
    """L^-1 mod M for unit lower-triangular L, by forward substitution."""
    n = len(L)
    X = identity_mat(n)
    for i in range(n):
        for j in range(i):
            X[i][j] = -sum(L[i][t] * X[t][j] for t in range(j, i)) % M
    return X


def test_charpoly_large_conjugate_of_triangular():
    # A = L T L^-1 with T upper-triangular, entries near M - 1: the
    # charpoly is prod (X - t_ii), at sizes where the packed fields of
    # charpoly_mod are wide enough to overflow if the width bound were off
    rng = random.Random(9)
    for p, r in ((43, 3), (23, 24)):
        M = p ** r
        for n in (40, 100):
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
