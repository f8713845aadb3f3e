"""Linear algebra over Z/p^r: diagonalization, solving, charpoly.

Matrices are lists of rows of plain ints; _poly_eval_matrix is the one
matrix-polynomial evaluator.  The elimination and mat_mul hold vectors as
the fields of one int, packed and read by pwl.packed (pack_row,
unpack_row, at a width from _width); a run that only multiplies packed
rows loads that module alone.

One elimination.  smith_mod and charpoly_mod hold their matrix as packed
columns, row i in field pos[i] (a row swap swaps two entries of pos), and
clear a pivot's column by one row pass row_i -= c_i row_s (_row_pass):
every column gains y * neg, y its field s read mod M = p^r and neg the
packed -c_i mod M, so a pass is O(n) big-int operations.  Pivots come
from _pivot (least valuation, first in scan order, the first unit ends
the scan), so each multiplier c_i = (x_i / p^e) u^-1 of a pivot p^e u is
integral.  The bound, proved once: y and every field of neg are below M,
so a pass adds less than M^2 to a field, and fields that start below M
stay below (q + 1) M^2 through q passes.

smith_mod reduces A to diag(p^e_1, ..., p^e_k), e_1 <= e_2 <= ..., by
invertible row and column transforms and returns U, V and the row order
pos, for solving, Smith coordinates and cokernel presentations.  Pivot k
is what _pivot picks in the trailing block of B read by rows (rows in
pos order, columns in list order).  It is swapped to (k, k), a column
swap being a list swap, and one row pass clears column k of B and
updates U, packed alike; field s = pos[k] of its neg, u^-1 - 1 mod M,
scales row k by u^-1 in the same pass.  Column k of B is now zero but in
row k, so a column operation col_j -= f_j col_k changes only row k,
which nothing reads again: it runs on V alone, as a row pass on V's
packed rows (column j in field vpos[j]).  Every vector takes at most one
pass per pivot, so w = _width((min(m, n) + 1) M^2).  For every c without
a pivot, column pos[c] of U is e_c, so U^-1 e_c = e_pos[c]: packed
column pos[c] of U starts with its only 1 in field pos[c], which is
never a pivot's field, so no row pass touches the column.  A column of U
still equal to the identity's is not unpacked.

mat_mul packs by the width of its right operand B.  Below _PACK_WIDTH
columns it multiplies entry by entry, skipping zero entries of A and
zero rows of B, as in the sparse free rows of U and the zero coboundary
matrix of trivial coefficients: there one packed row and one unpack per
row of A cost more than the few products they replace.  From
_PACK_WIDTH on, each nonzero entry of A is one multiply-add of a packed
row of B (its docstring proves the bound).  On the products the CLI
makes, 2 vCPU, Python 3.11: at Sym^16, level 5 (widths 17 and 51, A
dense) the packed path takes 0.5 ms where the loop takes 3.2; on the
level-53 blocks (width 11) it takes 0.81 ms against 0.54, and at width
22 with A the sparse free rows of U the two are about even.
"""

from itertools import chain

from .errors import DimensionMismatch
from .packed import _width, mat_vec, pack_row, unpack_row
from .padic import vp


# the least width of B that mat_mul multiplies by packed rows (measured)
_PACK_WIDTH = 16


def mat_mul(A, B, M):
    """A B mod M.  Below _PACK_WIDTH columns of B, entry by entry, skipping
    zero entries of A and zero rows of B.  From _PACK_WIDTH on, with A and
    B reduced mod M first, row i of the product is one int: the sum over
    nonzero a = A[i][t] of a times row t of B packed in w-bit fields, one
    multiply-add each, unpacked once.  A field sums at most len(B)
    products of two entries in [0, M), so it is at most len(B) (M - 1)^2,
    and w = _width of that bound keeps it below 2^w."""
    if any(len(Ai) != len(B) for Ai in A):
        raise DimensionMismatch(f"A has a row that is not {len(B)} long")
    m = len(B[0]) if B else 0
    if m >= _PACK_WIDTH:
        w = _width(len(B) * (M - 1) ** 2)
        rows = [pack_row([x % M for x in Bt], w) for Bt in B]
        out = []
        for Ai in A:
            x = 0
            for a, Bt in zip(Ai, rows):
                a %= M
                if a:
                    x += a * Bt
            out.append(unpack_row(x, m, w, M))
        return out
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


def _poly_eval_matrix(f, A, M):
    """f(A) mod M by Horner's rule, out = out A + c I, for f listed from
    its constant term up."""
    n = len(A)
    out = [[f[-1] % M if i == j else 0 for j in range(n)] for i in range(n)]
    for c in reversed(f[:-1]):
        out = mat_mul(out, A, M)
        for i in range(n):
            out[i][i] = (out[i][i] + c) % M
    return out


class SmithForm:
    """U A V = diag(p^exps) mod p^r with U, V invertible, pos the row order
    of the elimination: U^-1 e_c = e_pos[c] for each c with no pivot
    (exponent r, or past min(m, n)), the selection induced_matrix reads."""

    __slots__ = ("p", "r", "m", "n", "exps", "U", "V", "pos")

    def __init__(self, p, r, m, n, exps, U, V, pos):
        self.p, self.r = p, r
        self.m, self.n = m, n
        self.exps, self.U, self.V, self.pos = exps, U, V, pos

    def solve(self, b):
        """Particular solution of A x = b, or None."""
        if len(b) != self.m:  # mat_vec sees no column count when m = 0
            raise DimensionMismatch(f"b has {len(b)} entries, not {self.m}")
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
    e, t, pe = r, 0, p ** r
    for i, x in enumerate(entries):
        if x % pe:  # valuation below e
            e, t = vp(x, p), i
            if not e:
                break
            pe = p ** e
    return e, t


def _row_pass(vecs, start, s, negs, w, M):
    """row_i += negs[i] row_s on the matrix whose columns are the packed
    vecs[start:]: each column gains y * pack(negs), y its field s mod M."""
    neg, off, mask = pack_row(negs, w), w * s, (1 << w) - 1
    for j in range(start, len(vecs)):
        y = (vecs[j] >> off & mask) % M
        if y:
            vecs[j] += y * neg


def smith_mod(A, p, r):
    m = len(A)
    n = len(A[0]) if m else 0
    if any(len(row) != n for row in A):
        raise DimensionMismatch(f"Smith form of a ragged {m}-row matrix")
    M = p ** r
    w = _width((min(m, n) + 1) * M * M)
    mask = (1 << w) - 1
    cols = [pack_row([x % M for x in col], w) for col in zip(*A)]  # of B
    Ucols = [1 << w * c for c in range(m)]  # B's and U's row i: field pos[i]
    Vrows = [1 << w * c for c in range(n)]  # V's column j: field vpos[j]
    pos, vpos = list(range(m)), list(range(n))
    exps = []
    for k in range(min(m, n)):
        e, t = _pivot(chain.from_iterable(
            [(x >> w * s & mask) % M for x in cols[k:]] for s in pos[k:]),
            p, r)
        if e == r:
            break
        i, j = divmod(t, n - k)
        pos[k], pos[k + i] = pos[k + i], pos[k]
        cols[k], cols[k + j] = cols[k + j], cols[k]
        vpos[k], vpos[k + j] = vpos[k + j], vpos[k]
        col, pe, s = unpack_row(cols[k], m, w, M), p ** e, pos[k]
        uinv = pow(col[s] // pe, -1, M)
        vnegs = [0] * n  # f_j = (x_j u^-1 mod M) / p^e, x_j in pivot row k
        for j in range(k + 1, n):
            vnegs[vpos[j]] = -((cols[j] >> w * s & mask) % M * uinv % M
                               // pe) % M
        negs = [0] * m
        negs[s] = (uinv - 1) % M  # row_k *= u^-1 in the same pass
        for i in pos[k + 1:]:
            negs[i] = -(col[i] // pe) * uinv % M
        _row_pass(cols, k + 1, s, negs, w, M)
        _row_pass(Ucols, 0, s, negs, w, M)
        _row_pass(Vrows, 0, vpos[k], vnegs, w, M)
        exps.append(e)
    exps += [r] * (min(m, n) - len(exps))
    U = [[0] * s + [1] + [0] * (m - 1 - s) for s in pos]
    for c, x in enumerate(Ucols):
        if x != 1 << w * c:  # a row pass touched column c
            col = unpack_row(x, m, w, M)
            for i, s in enumerate(pos):
                U[i][c] = col[s]
    V = [[row[c] for c in vpos] for row in
         (unpack_row(x, n, w, M) for x in Vrows)]
    return SmithForm(p, r, m, n, exps, U, V, pos)


def charpoly_mod(A, p, r):
    """det(X I - A) mod p^r: ascending coefficients, monic.

    A is first brought to upper Hessenberg form H by similarities in
    GL_n(Z/p^r).  For column k the entry of rows k+1.. that _pivot picks,
    p^e * u, is swapped into row k+1; every lower entry x then has
    valuation >= e, so c = (x / p^e) * u^-1 satisfies c * p^e * u = x and
    row_i -= c row_{k+1}, col_{k+1} += c col_i clears it exactly.  The
    charpoly of H follows from the division-free recurrence
    P_m = (X - h_mm) P_{m-1} - sum_{i<m} h_im (h_{i+1,i} ... h_{m,m-1}) P_{i-1}
    on its leading blocks.  Pivot k is the row pass on columns j > k
    (column k skips it, as nothing reads what it clears) and the column
    pass col_{k+1} += sum c_i col_i.  The column bound, with a = M - 1:
    fields start at most a, and a row pass adds y (M - c) <= a^2 to each.
    Pivot k's row pass reaches columns k+1.., so at its column pass column
    k+1 and the n-k-2 columns it adds have had k+1 passes or fewer, fields
    at most a (1 + (k+1) a).  With every c_i <= a, column k+1 ends at most
    a (1 + (k+1) a) (1 + (n-k-2) a) = a (1 + (n-1) a + (k+1)(n-k-2) a^2)
    and takes no pass after; two integers that sum to n-1 multiply to at
    most (n-1)^2 // 4.  A column with no column pass ends at most a (1 +
    (n-2) a), less.  So the columns are packed below a (1 + (n-1) a +
    ((n-1)^2 // 4) a^2) + 1, about (n-1)^2 M^3 / 4, and the recurrence
    packs P_m in fields below (n+2) M^2; each width is _width of its bound.
    The recurrence reads only h_im, i <= m, and h_{i+1,i}, so H
    keeps rows 0..k+1 of column k from pivot k's unpack, after its swap.
    They are final: later row passes touch only columns j >= k' + 1 > k,
    later column passes only column k' + 1, later swaps only rows >= k + 2.
    """
    n = len(A)
    if any(len(row) != n for row in A):
        raise DimensionMismatch(f"charpoly of a non-square {n}-row matrix")
    M = p ** r
    a = M - 1
    w = _width(a * (1 + (n - 1) * a + (n - 1) ** 2 // 4 * a * a) + 1)
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
        negs = [0] * n
        for i, c in mults:
            negs[pos[i]] = M - c
        _row_pass(cols, k1, pos[k1], negs, w, M)
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
