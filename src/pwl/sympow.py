"""Symmetric-power actions.

SymVec holds the coordinates of a degree-n symmetric-power lattice element
in the binomial basis e_i = C(n, i) T1^i T2^(n-i); the matrix action is
induced by T1 -> a T1 + c T2, T2 -> b T1 + d T2.  sym_matrix computes row i
as the coefficients of (a X + b)^i (c X + d)^(n-i): with a, b, c, d reduced
mod p^r, it evaluates the product at X = 2^B, B = bits((2(p^r - 1))^n),
which bounds every coefficient, and reads the row off in B-bit fields
(packed.unpack_row), so a row costs a few big-int products, not O(n^2)
modular powers.  act_sym applies it to a SymVec.  Its interpolation in
the weight (SeqVec, the window kernel _act_window, specialize and
congr_project) lives in pwl.iwasawa.
"""

from .errors import BadRange, DimensionMismatch
from .packed import mat_vec, unpack_row
from .padic import _check_modulus


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
    return SymVec(v.p, v.r, v.n, mat_vec(m, v.coords, v.p ** v.r))
