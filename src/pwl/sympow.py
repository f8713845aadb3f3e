"""Symmetric-power actions and their interpolation in the weight.

SymVec holds the coordinates of a degree-n symmetric-power lattice element
in the binomial basis e_i = C(n, i) T1^i T2^(n-i); the matrix action is
induced by T1 -> a T1 + c T2, T2 -> b T1 + d T2.  sym_matrix computes row i
as the coefficients of (a X + b)^i (c X + d)^(n-i): with a, b, c, d reduced
mod p^r, it evaluates the product at X = 2^B, B = bits((2(p^r - 1))^n),
which bounds every coefficient, and reads the row off in B-bit fields
(linalg.unpack_row), so a row costs a few big-int products, not O(n^2)
modular powers.

SeqVec holds an infinite-coordinate analogue at a p-adic weight chi: a
finite window of coordinates over Z/p^r.  _act_window is the one
implementation of the interpolated action, on windows of truncated series
in the weight; act_universal runs it at the single weight chi and
iwasawa.act_family with the weight left as a variable.  It packs each
input coordinate, all its components and series degrees, into one int of
W-bit fields, so each output coordinate costs one big-int dot product per
live term L, and a Vandermonde split of the falling factorials keeps the
weight-dependent series out of the per-coordinate loop.  The live L are
those with c^L/L! != 0 mod p^r, read from padic._c_factors, the table
padic sums for exp.  act_universal and act_family both reject a matrix
outside the monoid (p | c, d a unit) with NotAdmissible.  Output i only
reads inputs j < i + tail_width(p, r), at weight chi and in the family
alike, so a window of length w certifies w - tail_width(p, r) outputs.
At integer weight n, dropping coordinates beyond n
(specialize) intertwines act_universal with act_sym exactly; between two
integer weights congruent mod p^(r-1)(p-1), truncation to the smaller
degree (congr_project) is equivariant mod p^r.

binom_identity evaluates both sides of the alternating-sum identity
  sum_m (-1)^(m-h) binom(n-m, i-m) C(j, m) C(m, h) = binom(n-j, i-h) C(j, h)
used to verify the action's composition law coefficientwise.
"""

import math
import operator

from .errors import (BadRange, BadWeight, CongruenceViolated,
                     DimensionMismatch, NotAdmissible, PrecisionMismatch,
                     WidthInsufficient)
from .linalg import pack_row, unpack_row
from .padic import (PrecInt, Weight, _c_factors, _check_modulus, binom,
                    eval_char, tail_width)


def _entries_mod(mat, p, r):
    M = p ** r
    return (mat.a % M, mat.b % M, mat.c % M, mat.d % M)


class SymVec:
    """Element of the degree-n symmetric power in the binomial basis."""

    __slots__ = ("p", "r", "n", "coords")

    def __init__(self, p, r, n, coords):
        _check_modulus(p, r)
        if n < 0:
            raise BadRange(f"symmetric power degree {n} is negative")
        if len(coords) != n + 1:
            raise DimensionMismatch(
                f"degree {n} needs {n + 1} coordinates, got {len(coords)}")
        self.p, self.r, self.n = p, r, n
        M = p ** r
        self.coords = [c % M for c in coords]

    def _compat(self, other):
        if self.p != other.p:
            raise PrecisionMismatch(f"primes differ: {self.p} vs {other.p}")
        if self.n != other.n:
            raise DimensionMismatch(f"degrees differ: {self.n} vs {other.n}")

    def __add__(self, other):
        self._compat(other)
        r = min(self.r, other.r)
        return SymVec(self.p, r, self.n,
                      [x + y for x, y in zip(self.coords, other.coords)])

    def __sub__(self, other):
        self._compat(other)
        r = min(self.r, other.r)
        return SymVec(self.p, r, self.n,
                      [x - y for x, y in zip(self.coords, other.coords)])

    def reduce(self, r2):
        if not 1 <= r2 <= self.r:
            raise BadRange(f"precision {r2} is outside 1..{self.r}")
        return SymVec(self.p, r2, self.n, self.coords)

    def __eq__(self, other):
        if not isinstance(other, SymVec):
            return NotImplemented
        if self.p != other.p or self.n != other.n:
            return False
        m = self.p ** min(self.r, other.r)
        return all((x - y) % m == 0 for x, y in zip(self.coords, other.coords))

    def __repr__(self):
        return f"SymVec(n={self.n}, mod {self.p}^{self.r}: {self.coords})"


def sym_matrix(n, mat, p, r):
    """Matrix of the degree-n action in the binomial basis, mod p^r.

    Entry (i, j) is sum_h C(i,h) C(n-i, j-h) a^h b^(i-h) c^(j-h) d^(n-i-j+h),
    the X^j coefficient of (a X + b)^i (c X + d)^(n-i).  With a, b, c, d
    reduced into [0, p^r) that coefficient is at most C(n, j) (p^r - 1)^n
    < 2^B, B = bits((2(p^r - 1))^n), so row i is the one integer
    (a 2^B + b)^i (c 2^B + d)^(n-i), read off in B-bit fields.
    """
    if n < 0:
        raise BadRange(f"symmetric power degree {n} is negative")
    a, b, c, d = _entries_mod(mat, p, r)
    M = p ** r
    B = ((2 * (M - 1)) ** n).bit_length()
    x = (a << B) + b
    y = (c << B) + d
    ypow = [1]
    for _ in range(n):
        ypow.append(ypow[-1] * y)
    rows = []
    xpow = 1
    for i in range(n + 1):
        rows.append(unpack_row(xpow * ypow[n - i], n + 1, B, M))
        xpow *= x
    return rows


def act_sym(mat, v):
    """Apply the degree-n symmetric-power action to a SymVec."""
    m = sym_matrix(v.n, mat, v.p, v.r)
    out = [sum(m[i][j] * v.coords[j] for j in range(v.n + 1))
           for i in range(v.n + 1)]
    return SymVec(v.p, v.r, v.n, out)


def _check_widths(x, y, width):
    """WidthInsufficient unless both windows hold `width` coordinates."""
    if min(len(x.coords), len(y.coords)) < width:
        raise WidthInsufficient(f"cannot compare {width} coordinates of "
                                f"windows of {len(x.coords)} and {len(y.coords)}")


class SeqVec:
    """Window of coordinates at weight chi over Z/p^r.

    Its certified width is its length; each action uses up tail_width(p, r)
    trailing coordinates and returns the rest.
    """

    __slots__ = ("p", "r", "chi", "coords")

    def __init__(self, chi, coords):
        if not isinstance(chi, Weight):
            raise BadWeight(f"{chi!r} is not a Weight")
        self.p, self.r = chi.p, chi.r
        self.chi = chi
        M = self.p ** self.r
        self.coords = [c % M for c in coords]

    def agrees(self, other, width):
        """Equality of the first `width` coordinates mod p^min(r, r');
        False across primes or weights."""
        _check_widths(self, other, width)
        if self.p != other.p or self.chi != other.chi:
            return False
        m = self.p ** min(self.r, other.r)
        return all((x - y) % m == 0
                   for x, y in zip(self.coords[:width], other.coords[:width]))

    def __repr__(self):
        return f"SeqVec(width={len(self.coords)}, mod {self.p}^{self.r})"


def _act_window(mat, p, r, coords, base, scale):
    """The weight action on windows of truncated series mod (p^r, X^dd).

    coords[j] is coordinate j: nz dd residues mod M = p^r, component-major,
    so coords[j][z dd + k] is the X^k coefficient of its series x_(j,z) on
    component z, at the weight kappa_z = base[z] + X (nz = len(base)).
    Output coordinate i on component z is
      g_z sum_L (kappa_z - i)_L (c^L/L!) d^-(i+L) D_L(i)_z,
      D_L(i) = sum_h row_i[h] x_(h+L),  row_i[h] = C(i,h) a^h b^(i-h),
    with g = scale(d) and (x)_L = x (x - 1) ... (x - L + 1).  The monoid
    (p | c, d a unit) is checked before scale takes a power of d.  Only
    the live L, c^L/L! != 0 mod p^r, are summed: each is below
    tail = tail_width(p, r) (the _c_factors cut), and a dead term is 0 mod
    (p^r, X^dd) (proof in the iwasawa docstring).  So output i reads x_j
    only for j = h + L < i + tail, and a window of width = len(coords)
    certifies its n = width - tail outputs; n < 1 raises WidthInsufficient.
    Returns each output coordinate as its list of nz series.

    Packed layout: F_j = pack_row(coords[j], W) holds coordinate j in
    W-bit fields.  A sum of packed ints adds field by field, so D_L(i), on
    every component and degree at once, is the one int
    sum(map(mul, row_i, F[L:])).  Only F_j with j < n + max(live L) <=
    width - 1 are packed, since D_L(i) reads F_(h+L) with h <= i <= n - 1.
    Row i + 1 comes from row i by Pascal's rule,
    row_(i+1)[h] = b row_i[h] + a row_i[h-1] mod M.  Each later stage runs
    over all i at once: one comprehension per live L, per (t, L) and per
    (t, z) below.

    Vandermonde regrouping about s = base[0]:
      (kappa - i)_L = sum_t C(L,t) (kappa - s)_t (s - i)_(L-t),
    so the output is sum_t G_(t,z) B_t(i) with the series
      G_(t,z) = g_z (base[z] - s + X)_t,
    built once per call, and the packed sums
      B_t(i) = sum_(live L >= t) e_(t,L)(i) D_L(i),
      e_(t,L)(i) = C(L,t) (c^L/L!) d^-L (s - i)_(L-t) d^-i mod M,
    whose integer coefficients do not depend on z.  Only the t < max(live
    L) + 1 with some G_(t,z) != 0 are kept; call their number T.  (With
    one component of constants, as in act_universal, G_(t,0) = 0 for
    t >= 1, so T = 1 and each L costs one coefficient per i.)  Per
    (i, z), each kept t costs one product of the W-bit fields z dd ..
    z dd + dd - 1 of B_t(i) (a block) with packed G_(t,z); the low dd
    fields of the sum over t are output i's series on component z.

    Field bound: nothing is reduced between packing and the last unpack,
    so W must hold every field exactly.  The coordinates (SeqVec and
    WeightFn keep them reduced), row_i, e_(t,L)(i) and G are residues in
    [0, M).  A field of D_L(i) sums at most i + 1 <= n products
    row_i[h] x, n the number of outputs, so it is at most
    n (M-1)^2; a field of B_t(i) sums at most |live L| of these times some
    e <= M - 1; field k of a block times G_(t,z) sums at most
    min(k + 1, 2 dd - 1 - k) <= dd products, and the output adds T of
    them.  So every field is at most
      T dd (M-1) |live L| (M-1) n (M-1)^2 < 2^W,
    no field carries into the next, and each block, product and unpack
    reads exact integers.
    """
    width, tail = len(coords), tail_width(p, r)
    n = width - tail
    if n < 1:
        raise WidthInsufficient(
            f"{width} coordinates leave no output past a tail of {tail}")
    a, b, c, d = _entries_mod(mat, p, r)
    if c % p or d % p == 0:
        raise NotAdmissible(
            f"({a} {b}; {c} {d}) mod {p}^{r} is outside the monoid: "
            f"need c = 0 and d a unit mod {p}")
    M = p ** r
    nz = len(base)
    dd = len(coords[0]) // nz
    dinv = pow(d, -1, M)
    cf = _c_factors(c, width - 1, p, r)
    live = [L for L in range(width) if cf[L]]
    s = base[0]
    g, kept = scale(d), []
    for t in range(live[-1] + 1):  # g[z] = g_z (base[z] - s + X)_t
        if t:
            g = [[((bz - s - t + 1) * x + y) % M for x, y in zip(gz, [0] + gz)]
                 for gz, bz in zip(g, base)]
        if not any(map(any, g)):
            break  # a zero G_t makes every later G_t zero
        kept.append((t, g))
    W = (len(kept) * dd * len(live) * n * (M - 1) ** 4).bit_length() or 1
    # B_t(i) = sum over (k, u, q) in e[t] of q (s - i)_u d^-i D_(live[k])
    e = [[(k, L - t, math.comb(L, t) * cf[L] * pow(dinv, L, M) % M)
          for k, L in enumerate(live) if L >= t] for t, _ in kept]
    G = [[pack_row(gz, W) for gz in gt] for _, gt in kept]
    F = [pack_row(x, W) for x in coords[:n + live[-1]]]
    rows = [[1]]  # row_i by Pascal's rule
    for _ in range(n - 1):
        row = rows[-1]
        rows.append([(b * x + a * y) % M
                     for x, y in zip(row + [0], [0] + row)])
    D = [[sum(map(operator.mul, row, FL)) for row in rows]
         for FL in [F[L:] for L in live]]
    fall = [[pow(dinv, i, M) for i in range(n)]]  # (s - i)_u d^-i
    for u in range(live[-1]):
        fall.append([f * (s - i - u) % M for i, f in enumerate(fall[-1])])
    B = []
    for et in e:
        Bt = [0] * n
        for k, u, q in et:
            Bt = [y + q * f % M * x for y, f, x in zip(Bt, fall[u], D[k])]
        B.append(Bt)
    blk = (1 << (W * dd)) - 1
    comps = []  # comps[z][i]: output i's series on component z
    for z, sh in enumerate(range(0, W * dd * nz, W * dd)):
        y = [0] * n
        for Bt, Gt in zip(B, G):
            gz = Gt[z]
            y = [v + (x >> sh & blk) * gz for v, x in zip(y, Bt)]
        comps.append([unpack_row(v, dd, W, M) for v in y])
    return list(map(list, zip(*comps)))


def act_universal(mat, seq):
    """Apply the weight-chi action; uses up tail_width(p, r) coordinates.

    _act_window on one component of constants (dd = 1) at the wild part w
    of chi, scaled by d^chi, so the falling factorials are (w - i)_L.
    Raises NotAdmissible outside the monoid, WidthInsufficient when short.
    """
    chi, p, r = seq.chi, seq.p, seq.r
    out = _act_window(mat, p, r, [[x] for x in seq.coords], [chi.wild.res],
                      lambda d: [[eval_char(chi, PrecInt(p, r, d)).res]])
    return SeqVec(chi, [x[0][0] for x in out])


def specialize(seq, n):
    """Truncate to coordinates 0..n, landing in the degree-n symmetric power.

    Requires chi to be the integer weight n at full precision; then the
    truncation intertwines act_universal with act_sym exactly.
    """
    p, r = seq.p, seq.r
    if seq.chi.tame != n % (p - 1) or seq.chi.wild != n:
        raise BadWeight(f"weight is not the integer weight {n}")
    if len(seq.coords) < n + 1:
        raise WidthInsufficient(
            f"need {n + 1} coordinates, have {len(seq.coords)}")
    return SymVec(p, r, n, seq.coords[:n + 1])


def congr_project(r, n1, n0, v):
    """Truncate degree n1 to degree n0 at precision r.

    Equivariant for the p-stabilized monoid when n1 - n0 is a multiple of
    p^(r-1)(p-1).
    """
    if n0 > n1:
        raise BadRange(f"target degree {n0} exceeds source degree {n1}")
    if v.n != n1:
        raise DimensionMismatch(f"vector has degree {v.n}, not {n1}")
    p = v.p
    if (n1 - n0) % (p ** (r - 1) * (p - 1)) != 0:
        raise CongruenceViolated(
            f"{n1} - {n0} is not a multiple of p^{r - 1}(p-1)")
    r2 = min(v.r, r)
    return SymVec(p, r2, n0, v.coords[:n0 + 1])


def binom_identity(n, i, j, h):
    """Both sides of the alternating-sum binomial identity, for comparison.

    Returns (lhs, rhs); exact integers for integer n, PrecInts otherwise.
    Raises BadRange when h > min(i, j).
    """
    if h > min(i, j):
        raise BadRange(f"h = {h} exceeds min(i, j) = {min(i, j)}")
    lhs = sum(binom(n - m, i - m) * ((-1) ** (m - h)
                                     * math.comb(j, m) * math.comb(m, h))
              for m in range(h, min(i, j) + 1))
    return lhs, binom(n - j, i - h) * math.comb(j, h)
