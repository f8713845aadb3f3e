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
recurrence in O(n^2) interpreted steps on packed columns; coefficients are
returned in ascending degree order with the leading coefficient last (monic).

pack_row / unpack_row hold a row of nonnegative ints as the w-bit fields of
one int (entry j at bit w*j; Kronecker substitution).  A scalar times a
packed row scales every field, and a sum of packed rows adds them field by
field, so a dot product with the rows of a packed matrix is one C-level
sum(map(mul, ...)) as long as no field reaches 2^w.  The caller picks w from
a bound on the entries: cohomology.hecke_matrix, sympow.sym_matrix,
sympow._act_window and charpoly_mod do, and share unpack_row
(hecke_matrix only for its block sums: it reduces each per-letter product
field by field in place, by one Montgomery step).  mat_mul stays unpacked
on purpose: it skips zero entries of its left operand, which pays on the
sparse rows it is given (the free rows of U in cohomology's induced
operator).
"""

from .errors import DimensionMismatch
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
    on its leading blocks.  Column j of H is one int of w-bit fields
    (pack_row), row i in field pos[i] (a row swap swaps two entries of
    pos), reduced mod M = p^r only where read.  Pivot k is O(n) big-int
    operations: the row pass col_j += y_j * neg for j > k (y_j = h_{k+1,j}
    mod M, neg the packed M - c_i; column k skips it, as nothing reads what
    it clears) and the column pass col_{k+1} += sum c_i col_i.  A pivot
    row-passes a column at most once, adding y (M - c) < M^2 to a field,
    and never after its column pass, so a field is below (n+1) M^2 before
    that pass and below (n+1) M^2 (1 + (n-2) M) < (n+1)^2 M^3 < 2^w after.
    The recurrence packs P_m in w2-bit fields, below (n+2) M^2 < 2^w2.
    """
    n = len(A)
    if any(len(row) != n for row in A):
        raise DimensionMismatch(f"charpoly of a non-square {n}-row matrix")
    M = p ** r
    w = ((n + 1) ** 2 * M ** 3).bit_length()
    mask = (1 << w) - 1
    cols = [pack_row([row[j] % M for row in A], w) for j in range(n)]
    pos = list(range(n))
    for k in range(n - 2):
        col = unpack_row(cols[k], n, w, M)  # col[pos[i]] = h_ik
        e, piv = min(((vp(col[pos[i]], p), i) for i in range(k + 1, n)
                      if col[pos[i]]), default=(r, -1))
        if piv < 0:
            continue
        k1 = k + 1
        pos[k1], pos[piv] = pos[piv], pos[k1]
        cols[k1], cols[piv] = cols[piv], cols[k1]
        pe = p ** e
        uinv = pow(col[pos[k1]] // pe, -1, M)
        mults = [(i, col[pos[i]] // pe * uinv % M) for i in range(k + 2, n)
                 if col[pos[i]]]
        neg = sum((M - c) << (w * pos[i]) for i, c in mults)
        off = w * pos[k1]
        for j in range(k1, n):
            y = ((cols[j] >> off) & mask) % M
            if y:
                cols[j] += y * neg
        cols[k1] += sum(c * cols[i] for i, c in mults)
    H = [[(x >> w * s & mask) % M for s in pos] for x in cols]  # H[j][i] = h_ij
    w2 = ((n + 2) * M * M).bit_length()
    polys = [1 % M]
    for m in range(n):
        new = (polys[-1] << w2) + (-H[m][m] % M) * polys[-1]
        t = 1
        for i in range(m - 1, -1, -1):
            t = t * H[i][i + 1] % M
            if not t:
                break
            new += (-H[m][i] * t % M) * polys[i]
        polys.append(pack_row(unpack_row(new, m + 2, w2, M), w2))
    return unpack_row(polys[-1], n + 1, w2, M)
