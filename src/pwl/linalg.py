"""Linear algebra over Z/p^r: diagonalization, solving, charpoly.

smith_mod reduces a matrix to diag(p^e_1, ..., p^e_k) with e_1 <= e_2 <= ...
by invertible row and column transforms and returns U, V and U^-1, so
solving, changing to Smith coordinates and back, and cokernel presentations
all come out of one reduction.  Pivot k = p^e u is scaled to p^e and its
column cleared by row operations row_i -= f_i row_k; two invariants then
spare the rest.  Column k of B is now zero but in row k, so a column
operation col_j -= f col_k changes only row k, which nothing reads again:
it runs on V alone (held as columns), and B keeps only its trailing block.
Columns k.. of U^-1 are still unit vectors e_perm[c], as pivots before k
only swapped them, so column k of U^-1 is u at perm[k] and f_i at perm[i]:
it is read off the multipliers.  Matrices are lists of rows of plain ints.

charpoly_mod reduces a square matrix to Hessenberg form by similarities
and reads det(X I - A), ascending and monic, off the division-free
Hessenberg recurrence in O(n^2) interpreted steps on packed columns.
Both reductions take pivots from _pivot (least valuation, first in scan
order, the first unit ends the scan), so every multiplier x / p^e * u^-1
is integral: smith_mod scans its trailing block by rows, charpoly_mod its
column below the diagonal.

pack_row / unpack_row hold a row of nonnegative ints as the w-bit fields of
one int (entry j at bit w*j; Kronecker substitution).  A scalar times a
packed row scales every field, and a sum of packed rows adds them field by
field, so a dot product with the rows of a packed matrix is one C-level
sum(map(mul, ...)) as long as no field reaches 2^w.  The caller picks w from
a bound on the entries: cohomology.hecke_matrix, sympow.sym_matrix,
sympow._act_window, charpoly_mod and poly_mul do, and share unpack_row
(hecke_matrix for its block rows, and for its per-letter state when the
fields are wider than a word: it reduces a letter's k packed rows at once,
by one Montgomery step, and reads a 64-bit state back by one struct
unpack of its own).  poly_mul multiplies two packed polynomials as one
int: a field of the product sums at most min(len f, len g) products of
reduced coefficients, so it stays below w = bits(min(len f, len g) M^2).
64-bit fields move through struct in one C call, others by one whole-int
shift each (O(n^2 w)).  charpoly_mod and hecke_matrix round w up to 64 if
their bounds fit; the other short-row callers keep exact widths, where
wider fields cost more in products than shifts save.
mat_mul stays unpacked on purpose: it skips zero entries of its left operand
and zero rows of its right one, which pays on what cohomology's induced
operator gives it (the free rows of U are sparse, and the coboundary matrix
is zero on trivial coefficients, so the preservation check costs nothing).
"""

import struct
from itertools import chain

from .errors import DimensionMismatch
from .padic import vp


def identity_mat(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B, M):
    m = len(B[0]) if B else 0
    live = [(t, Bt) for t, Bt in enumerate(B) if any(Bt)]
    out = []
    for Ai in A:
        row = [0] * m
        for t, Bt in live:
            a = Ai[t]
            if a:
                for j in range(m):
                    row[j] = (row[j] + a * Bt[j]) % M
        out.append(row)
    return out


def pack_row(row, w):
    """The nonnegative entries of row, each below 2^w, as the w-bit fields
    of one int, entry j at bits w*j .. w*j + w - 1 (w = 64: one C call)."""
    if w == 64:
        return int.from_bytes(struct.pack(f"<{len(row)}Q", *row), "little")
    x = 0
    for v in reversed(row):
        x = (x << w) | v
    return x


def unpack_row(x, n, w, M):
    """The first n w-bit fields of x >= 0, mod M (w = 64: one C call)."""
    if w == 64:
        b = x.to_bytes(max(8 * n, (x.bit_length() + 7) // 8), "little")
        return [v % M for v in struct.unpack_from(f"<{n}Q", b)]
    mask = (1 << w) - 1
    return [((x >> (w * j)) & mask) % M for j in range(n)]


def poly_mul(f, g, M):
    """f g mod M, ascending coefficients, by one product of packed rows: a
    field of it sums min(len f, len g) products below M^2."""
    f, g = [x % M for x in f], [x % M for x in g]
    w = max(1, (min(len(f), len(g)) * M * M).bit_length())
    return unpack_row(pack_row(f, w) * pack_row(g, w), len(f) + len(g) - 1,
                      w, M)


def mat_vec(A, v, M):
    return [sum(a * x for a, x in zip(row, v)) % M for row in A]


class SmithForm:
    """U A V = diag(p^exps) mod p^r with U, V invertible; Uinv = U^-1.
    A column of Uinv with no pivot (exponent r, or past min(m, n)) is a
    unit vector, e_perm[c]: H1Presentation.induced_matrix selects by it."""

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


def _pivot(entries, p, r):
    """(e, t): entry t is the first in scan order of least valuation e, the
    first unit ending the scan; (r, 0) if every entry is 0 mod p^r."""
    e, t = r, 0
    for i, x in enumerate(entries):
        if x:
            v = vp(x, p)
            if v < e:
                e, t = v, i
                if not v:
                    break
    return e, t


def smith_mod(A, p, r):
    m = len(A)
    n = len(A[0]) if m else 0
    M = p ** r
    B = [[x % M for x in row] for row in A]  # rows and columns k.. at pivot k
    U = identity_mat(m)
    Vt = identity_mat(n)  # the columns of V
    Uinv = [[0] * m for _ in range(m)]  # column k is written at pivot k
    perm = list(range(m))  # column c >= k of U^-1 is e_perm[c] at pivot k
    exps = []
    for k in range(min(m, n)):
        e, t = _pivot(chain.from_iterable(B), p, r)
        if e == r:
            break
        i, j = divmod(t, n - k)
        B[0], B[i] = B[i], B[0]
        U[k], U[k + i] = U[k + i], U[k]
        perm[k], perm[k + i] = perm[k + i], perm[k]
        for row in B:
            row[0], row[j] = row[j], row[0]
        Vt[k], Vt[k + j] = Vt[k + j], Vt[k]
        pe = p ** e
        unit = B[0][0] // pe
        uinv = pow(unit, -1, M)
        piv = [x * uinv % M for x in B[0][1:]]
        U[k] = [x * uinv % M for x in U[k]]
        Uinv[perm[k]][k] = unit
        for i, row in enumerate(B[1:], k + 1):
            f = row[0] // pe
            if f:
                B[i - k] = [(x - f * y) % M for x, y in zip(row[1:], piv)]
                U[i] = [(x - f * y) % M for x, y in zip(U[i], U[k])]
                Uinv[perm[i]][k] = f
            else:
                B[i - k] = row[1:]
        del B[0]
        for j, x in enumerate(piv, k + 1):
            f = x // pe
            if f:
                Vt[j] = [(y - f * z) % M for y, z in zip(Vt[j], Vt[k])]
        exps.append(e)
    for c in range(len(exps), m):
        Uinv[perm[c]][c] = 1
    exps += [r] * (min(m, n) - len(exps))
    return SmithForm(p, r, m, n, exps, U, [list(row) for row in zip(*Vt)],
                     Uinv)


def _width(bound):
    """Field bits for values below bound: a 64-bit word if bound fits."""
    return max(64, bound.bit_length())


def charpoly_mod(A, p, r):
    """det(X I - A) mod p^r: ascending coefficients, monic.

    A is first brought to upper Hessenberg form H by similarities in
    GL_n(Z/p^r).  For column k the entry of rows k+1.. that _pivot picks,
    p^e * u, is swapped into row k+1; every lower entry x then has
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
    that pass and below (n+1) M^2 (1 + (n-2) M) < (n+1)^2 M^3 after.  The
    recurrence packs P_m in fields below (n+2) M^2; each width is _width of
    its bound.  The recurrence reads only h_im, i <= m, and h_{i+1,i}, so H
    keeps rows 0..k+1 of column k from pivot k's unpack, after its swap.
    They are final: later row passes touch only columns j >= k' + 1 > k,
    later column passes only column k' + 1, later swaps only rows >= k + 2.
    """
    n = len(A)
    if any(len(row) != n for row in A):
        raise DimensionMismatch(f"charpoly of a non-square {n}-row matrix")
    M = p ** r
    w = _width((n + 1) ** 2 * M ** 3)
    mask = (1 << w) - 1
    cols = [pack_row([x % M for x in col], w) for col in zip(*A)]
    pos = list(range(n))
    H = []  # H[k][i] = h_ik for i <= k + 1: the band the recurrence reads
    for k in range(n - 2):
        col = unpack_row(cols[k], n, w, M)  # col[pos[i]] = h_ik
        k1 = k + 1
        e, t = _pivot((col[s] for s in pos[k1:]), p, r)
        piv = k1 + t
        pos[k1], pos[piv] = pos[piv], pos[k1]
        cols[k1], cols[piv] = cols[piv], cols[k1]
        H.append([col[s] for s in pos[:k + 2]])
        if e == r:
            continue  # column k is zero below the sub-diagonal
        pe = p ** e
        uinv = pow(col[pos[k1]] // pe, -1, M)
        mults = [(i, col[pos[i]] // pe * uinv % M) for i in range(k + 2, n)
                 if col[pos[i]]]
        neg = [0] * n
        for i, c in mults:
            neg[pos[i]] = M - c
        neg = pack_row(neg, w)
        off = w * pos[k1]
        for j in range(k1, n):
            y = ((cols[j] >> off) & mask) % M
            if y:
                cols[j] += y * neg
        cols[k1] += sum(c * cols[i] for i, c in mults)
    H += [[col[s] for s in pos]  # the last two columns: no pivot unpacks them
          for col in [unpack_row(x, n, w, M) for x in cols[len(H):]]]
    w2 = _width((n + 2) * M * M)
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
