"""Linear algebra over Z/p^r: diagonalization, solving, charpoly.

smith_mod reduces a matrix to diag(p^e_1, ..., p^e_k) with e_1 <= e_2 <= ...
by invertible row and column transforms (minimal-valuation pivoting, the
first unit ends the search, unit normalization).  It returns U, V and also
U^-1: every row operation on U is mirrored by the inverse column operation
on Uinv (Cohen, A Course in Computational Algebraic Number Theory, 2.4).
A row swap is a column swap; scaling row k by u^-1 and then the batch
U[i] -= f_i U[k] are one pass Uinv[:, k] = u Uinv[:, k] + sum f_i Uinv[:, i].
So solving, changing to Smith coordinates and back, and cokernel
presentations all come out of one reduction.  Matrices are lists of rows
of plain ints.

charpoly_mod reduces a square matrix to Hessenberg form by similarities
over Z/p^r (again with minimal-valuation pivots, so every multiplier is
integral) and reads det(X I - A) off the division-free Hessenberg
recurrence, in O(n^3) operations; coefficients are returned in ascending
degree order with the leading coefficient last (monic).

pack_row / unpack_row hold a row of nonnegative ints as the w-bit fields of
one int (entry j at bit w*j; Kronecker substitution).  A scalar times a
packed row scales every field, and a sum of packed rows adds them field by
field, so a dot product with the rows of a packed matrix is one C-level
sum(map(mul, ...)) as long as no field reaches 2^w.  The caller picks w from
a bound on the entries: cohomology.hecke_matrix and sympow.sym_matrix do, and
share unpack_row.  mat_mul stays unpacked on purpose: it skips zero entries,
and on the one-off products left to it (the induced operator) that beats
packing both operands for a single use.
"""

from .padic import vp


def identity_mat(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B, M):
    n, k = len(A), len(B)
    m = len(B[0]) if B else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        row = out[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                for j in range(m):
                    row[j] = (row[j] + a * Bt[j]) % M
    return out


def pack_row(row, w):
    """The nonnegative entries of row, each below 2^w, as the w-bit fields
    of one int: entry j occupies bits w*j .. w*j + w - 1."""
    x = 0
    for v in reversed(row):
        x = (x << w) | v
    return x


def unpack_row(x, n, w, M):
    """The first n w-bit fields of x, each reduced mod M."""
    mask = (1 << w) - 1
    return [((x >> (w * j)) & mask) % M for j in range(n)]


def mat_vec(A, v, M):
    return [sum(a * x for a, x in zip(row, v)) % M for row in A]


class SmithForm:
    """U A V = diag(p^exps) mod p^r with U, V invertible; Uinv = U^-1."""

    __slots__ = ("p", "r", "m", "n", "exps", "U", "V", "Uinv")

    def __init__(self, p, r, m, n, exps, U, V, Uinv):
        self.p, self.r = p, r
        self.m, self.n = m, n
        self.exps = exps
        self.U = U
        self.V = V
        self.Uinv = Uinv

    def solve(self, b):
        """Particular solution of A x = b, or None."""
        p, r = self.p, self.r
        M = p ** r
        y = mat_vec(self.U, b, M)
        z = [0] * self.n
        for i, e in enumerate(self.exps):
            if y[i] % p ** e != 0:
                return None
            z[i] = y[i] // p ** e
        for i in range(len(self.exps), self.m):
            if y[i] % M != 0:
                return None
        return mat_vec(self.V, z, M)


def smith_mod(A, p, r):
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
    return SmithForm(p, r, m, n, exps, U, V, Uinv)


def charpoly_mod(A, p, r):
    """det(X I - A) mod p^r: ascending coefficients, monic.

    A is first brought to upper Hessenberg form H by similarities in
    GL_n(Z/p^r).  For column k the sub-diagonal entry of least valuation
    p^e * u is swapped into row k+1; every lower entry x then has
    valuation >= e, so c = (x / p^e) * u^-1 satisfies c * p^e * u = x and
    row_i -= c row_{k+1}, col_{k+1} += c col_i clears it exactly.  The
    charpoly of H follows from the division-free recurrence
    P_m = (X - h_mm) P_{m-1} - sum_{i<m} h_im (h_{i+1,i} ... h_{m,m-1}) P_{i-1}
    on its leading blocks.  O(n^3) operations on residues mod p^r.
    """
    M = p ** r
    n = len(A)
    H = [[x % M for x in row] for row in A]
    for k in range(n - 2):
        piv, e = -1, r
        for i in range(k + 1, n):
            x = H[i][k]
            if x:
                v = vp(x, p)
                if v < e:
                    piv, e = i, v
                    if not v:
                        break
        if piv < 0:
            continue
        k1 = k + 1
        if piv != k1:
            H[k1], H[piv] = H[piv], H[k1]
            for row in H:
                row[k1], row[piv] = row[piv], row[k1]
        pe = p ** e
        uinv = pow(H[k1][k] // pe, -1, M)
        top = H[k1][k:]
        mults = []
        for i in range(k + 2, n):
            row = H[i]
            if row[k]:
                c = row[k] // pe * uinv % M
                row[k:] = [(a - c * b) % M for a, b in zip(row[k:], top)]
                mults.append((i, c))
        if mults:
            for row in H:
                row[k1] = (row[k1] + sum(c * row[i] for i, c in mults)) % M
    polys = [[1 % M]]
    for m in range(n):
        prev = polys[-1]
        h = H[m][m]
        new = [0] + prev
        for j, c in enumerate(prev):
            new[j] -= h * c
        t = 1
        for i in range(m - 1, -1, -1):
            t = t * H[i + 1][i] % M
            if not t:
                break
            c = H[i][m] * t % M
            if c:
                for j, q in enumerate(polys[i]):
                    new[j] -= c * q
        polys.append([x % M for x in new])
    return polys[-1]
