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
iwasawa.act_family with the weight left as a variable.  Both reject a
matrix outside the monoid (p | c, d a unit) with NotAdmissible.  At weight
chi, output coordinate i only depends on inputs j with
(j - i)(p - 2)/(p - 1) < r, so each application consumes tail_width(p, r)
stored coordinates.  At integer weight n, dropping coordinates beyond n
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
from .linalg import unpack_row
from .padic import (PrecInt, Weight, binom, eval_char, tail_width, vp,
                    vp_factorial)


def _entries_mod(mat, p, r):
    M = p ** r
    return (mat.a % M, mat.b % M, mat.c % M, mat.d % M)


class SymVec:
    """Element of the degree-n symmetric power in the binomial basis."""

    __slots__ = ("p", "r", "n", "coords")

    def __init__(self, p, r, n, coords):
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


class SeqVec:
    """Window of coordinates at weight chi over Z/p^r.

    coords may exceed out_width; the surplus is working room consumed by
    each action (tail_width coordinates per application).
    """

    __slots__ = ("p", "r", "chi", "out_width", "coords")

    def __init__(self, chi, out_width, coords):
        if not isinstance(chi, Weight):
            raise BadWeight(f"{chi!r} is not a Weight")
        if len(coords) < out_width:
            raise WidthInsufficient(
                f"{len(coords)} coordinates cannot certify width {out_width}")
        self.p, self.r = chi.p, chi.r
        self.chi = chi
        self.out_width = out_width
        M = self.p ** self.r
        self.coords = [c % M for c in coords]

    def agrees(self, other, width):
        """Equality of the first `width` coordinates mod p^min(r, r');
        False across primes or weights."""
        if self.p != other.p or self.chi != other.chi:
            return False
        m = self.p ** min(self.r, other.r)
        return all((x - y) % m == 0
                   for x, y in zip(self.coords[:width], other.coords[:width]))

    def __repr__(self):
        return (f"SeqVec(out={self.out_width}, stored={len(self.coords)}, "
                f"mod {self.p}^{self.r})")


def _c_factors(c, jmax, p, r):
    # cf[m] = c^m / m! mod p^r; c is divisible by p so the quotient is integral
    M = p ** r
    cf = [1]
    if jmax == 0:
        return cf
    if c % M == 0:
        return cf + [0] * jmax
    vc = vp(c % M, p)
    u = (c % M) // p ** vc
    for m in range(1, jmax + 1):
        vfac = vp_factorial(m, p)
        e = m * vc - vfac
        if e >= r:
            cf.append(0)
            continue
        unit = math.factorial(m) // p ** vfac
        cf.append(pow(u, m, M) * pow(p, e, M) % M * pow(unit, -1, M) % M)
    return cf


def _series_mul(a, b, M, d):
    out = [0] * d
    for i, ai in enumerate(a):
        if ai:
            for j in range(d - i):
                bj = b[j]
                if bj:
                    out[i + j] = (out[i + j] + ai * bj) % M
    return out


def _act_window(mat, p, r, cols, base, scale, tail, out_width):
    """The weight action on windows of truncated series mod (p^r, X^dd).

    Component z holds cols[z][k][j], the X^k coefficient of coordinate j,
    at the weight base[z] + X.  Output coordinate i on component z is
      g_z sum_L P_L(i) (c^L/L!) d^-(i+L) sum_h C(i,h) a^h b^(i-h) F_(h+L)
    with g = scale(d) and P_L(i) = prod_{m=i}^{i+L-1} (base[z] + X - m).
    The monoid (p | c, d a unit) is checked before scale takes a power of
    d.  As p | c, c^L/L! = 0 mod p^r once L v_p(c) - v_p(L!) >= r (for a
    level-subgroup matrix, v_p(c) >= v_p(N)); only the live L with
    c^L/L! != 0 are summed, each with one series product per component
    (none for L = 0).  The skipped terms are exactly zero, so tail stays
    the certified-width bound.  Returns each output coordinate's series.
    """
    width = len(cols[0][0])
    new_len = width - tail
    if new_len < out_width:
        raise WidthInsufficient(
            f"need {out_width + tail} stored coordinates, have {width}")
    a, b, c, d = _entries_mod(mat, p, r)
    if c % p or d % p == 0:
        raise NotAdmissible(
            f"({a} {b}; {c} {d}) mod {p}^{r} is outside the monoid: "
            f"need c = 0 and d a unit mod {p}")
    M = p ** r
    dd = len(cols[0])
    g = scale(d)
    dinv = pow(d, -1, M)
    dinvpow = [pow(dinv, s, M) for s in range(2 * width)]
    cf = _c_factors(c, width, p, r)
    live_L = [L for L in range(width) if cf[L]]
    apow = [pow(a, h, M) for h in range(width + 1)]
    bpow = [pow(b, h, M) for h in range(width + 1)]
    out = []
    for i in range(new_len):
        row = [math.comb(i, h) * apow[h] % M * bpow[i - h] % M
               for h in range(i + 1)]
        coord = []
        for cz, bz, gz in zip(cols, base, g):
            S = [0] * dd
            fall, m = [1] + [0] * (dd - 1), 0  # P_m(i) on component z
            for L in live_L:
                while m < L:  # times (base[z] + X - i - m)
                    e = bz - i - m
                    fall = [(e * fall[k] + (fall[k - 1] if k else 0)) % M
                            for k in range(dd)]
                    m += 1
                scal = cf[L] * dinvpow[i + L] % M
                W = [scal * sum(map(operator.mul, row, col[L:])) % M
                     for col in cz]
                if m:
                    W = _series_mul(fall, W, M, dd)
                for k, x in enumerate(W):
                    S[k] += x
            coord.append(_series_mul(gz, S, M, dd))
        out.append(coord)
    return out


def act_universal(mat, seq):
    """Apply the weight-chi action; consumes tail_width stored coordinates.

    _act_window on one component of constants (dd = 1) at the wild part w
    of chi, scaled by d^chi, so P_L(i) = prod_{m=i}^{i+L-1} (w - m).
    Raises NotAdmissible outside the monoid, WidthInsufficient when short.
    """
    chi, p, r = seq.chi, seq.p, seq.r
    out = _act_window(mat, p, r, [[seq.coords]], [chi.wild.res],
                      lambda d: [[eval_char(chi, PrecInt(p, r, d)).res]],
                      tail_width(p, r), seq.out_width)
    return SeqVec(chi, seq.out_width, [x[0][0] for x in out])


def specialize(seq, n):
    """Truncate to coordinates 0..n, landing in the degree-n symmetric power.

    Requires chi to be the integer weight n at full precision; then the
    truncation intertwines act_universal with act_sym exactly.
    """
    p, r = seq.p, seq.r
    if seq.chi.tame != n % (p - 1) or seq.chi.wild != n:
        raise BadWeight(f"weight is not the integer weight {n}")
    if seq.out_width < n + 1 or len(seq.coords) < n + 1:
        raise WidthInsufficient(
            f"need {n + 1} certified coordinates, have out_width {seq.out_width}")
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
