"""Reference helpers that more than one test module uses: c^m/m! by
exact rationals, the schoolbook polynomial product, and a matrix of the
monoid (p | c, d a unit) from given entries."""

import math
from fractions import Fraction

from pwl.matrices import IntMat


def ref_cf(c, m, p, r):
    """c^m/m! mod p^r by exact rational arithmetic (p | c)."""
    q = Fraction(c ** m, math.factorial(m))
    return q.numerator * pow(q.denominator, -1, p ** r) % p ** r


def schoolbook_mul(f, g, M):
    """f g mod M by one product per pair of coefficients: the reference
    for poly_mul."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % M
    return out


def monoid_mat(p, r, a, b, c, d):
    """The IntMat with the residues of (a b; c d) mod p^r, d a unit, and a
    raised by the least multiple of p^r that makes the determinant positive."""
    M = p ** r
    a, b, c, d = a % M, b % M, c % M, d % M
    return IntMat(a + M * max(0, (b * c - a * d) // (M * d) + 1), b, c, d)
