"""Truncated q-expansions and Hecke operators on their coefficients.

Coefficients live in whatever ring the caller supplies: Fractions for
Eisenstein constant terms, plain ints for cusp form fixtures, PrecInt
for p-adic data.  The operators only add and multiply coefficients, so
any of these work.  A Dirichlet character mod m is the tuple of its
values at 0, ..., m - 1 (0 at non-units), read at n % m, the one
representation pwl.shapiro and cohomology.SymCoeffs use too; the
trivial character is (1,).
"""

import math
from fractions import Fraction

from .errors import BadRange, BadWeight, TruncationTooShort
from .padic import is_prime


class QExp:
    """q-series a0 + a1 q + ... + aT q^T known through exponent T."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        if not coeffs:
            raise BadRange("a q-expansion needs its constant term")
        self.coeffs = list(coeffs)

    def truncation(self):
        return len(self.coeffs) - 1

    def a(self, h):
        if not 0 <= h <= self.truncation():
            raise TruncationTooShort(
                f"coefficient {h} beyond stored exponent {self.truncation()}")
        return self.coeffs[h]

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:6])
        return f"QExp([{head}{', ...' if len(self.coeffs) > 6 else ''}])"


def bernoulli(k):
    """B_k as a Fraction, from sum_{j<=m} C(m+1, j) B_j = 0 (B_1 = -1/2)."""
    B = [Fraction(1)]
    for m in range(1, k + 1):
        B.append(-sum(math.comb(m + 1, j) * B[j] for j in range(m)) / (m + 1))
    return B[k]


def divisor_sigma(n, s):
    """sigma_s(n) = sum of e^s over the positive divisors e of n."""
    total = 0
    for e in range(1, math.isqrt(n) + 1):
        if n % e == 0:
            total += e ** s
            if e * e != n:
                total += (n // e) ** s
    return total


def eisenstein(k, T):
    """Level-one Eisenstein series: -B_k/2k + sum sigma_(k-1)(h) q^h."""
    if k < 4 or k % 2 != 0:
        raise BadWeight(
            f"weight {k} has no holomorphic level-one Eisenstein series here")
    if T < 0:
        raise BadRange(f"truncation {T} is negative")
    a0 = -bernoulli(k) / (2 * k)
    return QExp([a0] + [divisor_sigma(h, k - 1) for h in range(1, T + 1)])


def hecke_t(ell, k, eps, f):
    """Classical T_ell: b_h = a(ell h) + eps(ell) ell^(k-1) a(h/ell), the
    second term only when ell | h.

    eps is a Dirichlet character mod m >= 1 as the tuple of its values
    at 0, ..., m - 1, read at ell % m; (1,) is the trivial character.
    The formula is T_ell only for a prime ell; any other ell, or an empty
    eps, is BadRange, and a weight k < 1 (ell^(k-1) not an integer) is
    BadWeight.  eps(ell) = 0 when ell divides m, which switches the
    second term off exactly when it should be.  The result is known
    through exponent T // ell.
    """
    if not is_prime(ell):
        raise BadRange(f"T_ell needs a prime ell, got {ell}")
    if not eps:
        raise BadRange("a character needs at least one value")
    if k < 1:
        raise BadWeight(f"weight {k} makes ell^(k-1) a fraction")
    T = f.truncation()
    newT = T // ell
    if newT < 1:
        raise TruncationTooShort(
            f"need at least {ell + 1} stored coefficients, have {T + 1}")
    out = []
    for h in range(newT + 1):
        b = f.a(ell * h)
        if h % ell == 0:
            b = b + eps[ell % len(eps)] * ell ** (k - 1) * f.a(h // ell)
        out.append(b)
    return QExp(out)
