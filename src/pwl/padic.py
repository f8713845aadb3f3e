"""Finite-precision p-adic integers and weight characters.

A PrecInt is a p-adic integer known modulo p^r: an odd prime p, a precision
r >= 1 and a canonical residue in [0, p^r).  Every operation records the
precision of its output; in particular division by m! consumes v_p(m!)
digits and raises PrecisionExhausted when none would remain.

A Weight is a character of the units, split as (tame, wild) with
tame in [0, p-2] and wild a PrecInt w.  eval_char evaluates it on a unit
d as d^tame exp((w - tame) log<d>), and is the one power of a p-adic unit:
<d> is eval_char at Weight.wild_only(1), and d^n for a one-unit d is
eval_char at Weight.wild_only(n).  _log_unit gives log<d> as
log(d^(p-1)) / (p-1), since log kills roots of unity, and exp is the sum
of the c^m/m! table _c_factors, which is cut at tail_width terms (the
same width one weight action consumes in sympow).
iwasawa.char_series and sympow._act_window read the same log and table.
"""

import math

from .errors import (
    BadRange,
    PrecisionExhausted,
    NotAUnit,
    PrecisionMismatch,
    BadWeight,
)

# the first 13 primes; Miller-Rabin on them is exact below psi_13
# (Sorenson and Webster, 2017)
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI13 = 3317044064679887385961981


def _is_odd_prime(p):
    """Deterministic Miller-Rabin; BadRange at or above psi_13."""
    if p >= _PSI13:
        raise BadRange(f"{p} is not below {_PSI13}, where the primality "
                       "test stops being exact")
    if p < 3 or p % 2 == 0:
        return False
    if p <= _BASES[-1]:
        return p in _BASES
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def is_prime(n):
    return n == 2 or _is_odd_prime(n)


def _check_modulus(p, r):
    """BadRange unless p is an odd prime and the precision r >= 1."""
    if not _is_odd_prime(p):
        raise BadRange(f"p must be an odd prime, got {p}")
    if r < 1:
        raise BadRange(f"precision must be >= 1, got {r}")


def vp(n, p):
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise BadRange("the valuation of 0 is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp_factorial(m, p):
    """v_p(m!) by the digit-sum formula."""
    if m < 0:
        raise BadRange(f"factorial of negative {m}")
    s, n = 0, m
    while n:
        s += n % p
        n //= p
    return (m - s) // (p - 1)


class PrecInt:
    """p-adic integer known mod p^r, canonical residue in [0, p^r)."""

    __slots__ = ("p", "r", "res")

    def __init__(self, p, r, value):
        _check_modulus(p, r)
        self.p = p
        self.r = r
        self.res = value % (p ** r)

    @property
    def modulus(self):
        return self.p ** self.r

    def _coerce(self, other):
        # returns (other residue, min precision); ints are exact
        if isinstance(other, PrecInt):
            if other.p != self.p:
                raise PrecisionMismatch(f"primes differ: {self.p} vs {other.p}")
            return other.res, min(self.r, other.r)
        if isinstance(other, int):
            return other, self.r
        return None, None

    def __add__(self, other):
        o, r = self._coerce(other)
        if o is None:
            return NotImplemented
        return PrecInt(self.p, r, self.res + o)

    __radd__ = __add__

    def __sub__(self, other):
        o, r = self._coerce(other)
        if o is None:
            return NotImplemented
        return PrecInt(self.p, r, self.res - o)

    def __mul__(self, other):
        o, r = self._coerce(other)
        if o is None:
            return NotImplemented
        return PrecInt(self.p, r, self.res * o)

    __rmul__ = __mul__

    def divexact(self, k):
        """Divide by a nonzero integer k, consuming v_p(k) digits."""
        if not isinstance(k, int) or k == 0:
            raise BadRange(f"divisor must be a nonzero integer, got {k}")
        sign = 1
        if k < 0:
            k, sign = -k, -1
        v = vp(k, self.p) if k % self.p == 0 else 0
        if self.r <= v:
            raise PrecisionExhausted(
                f"division by p^{v} * unit at precision {self.r}")
        if self.res % self.p ** v != 0:
            raise PrecisionExhausted(
                f"residue {self.res} not divisible by p^{v}")
        r2 = self.r - v
        unit = k // self.p ** v
        res = (self.res // self.p ** v) * pow(unit, -1, self.p ** r2) * sign
        return PrecInt(self.p, r2, res)

    def __eq__(self, other):
        # equality mod the smaller of the two precisions
        o, r = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self.res - o) % self.p ** r == 0

    def __hash__(self):
        raise TypeError("PrecInt compares mod min precision; not hashable")

    def __repr__(self):
        return f"PrecInt({self.res} mod {self.p}^{self.r})"


def binom_int(n, m):
    """Exact integer binomial for any integer n and natural m:
    C(n, m) = (-1)^m C(m - n - 1, m) when n < 0."""
    if m < 0:
        raise BadRange(f"binomial index {m} is negative")
    if n >= 0:
        return math.comb(n, m)
    return (-1) ** m * math.comb(m - n - 1, m)


def binom(n, m):
    """Extended binomial coefficient (1/m!) * prod_{h<m} (n - h).

    Integer n gives the exact integer value; a PrecInt n gives a PrecInt of
    precision r - v_p(m!), raising PrecisionExhausted when r <= v_p(m!).
    """
    if isinstance(n, int):
        return binom_int(n, m)
    p = n.p
    v = vp_factorial(m, p)
    if n.r <= v:
        raise PrecisionExhausted(
            f"binom(-, {m}) needs more than v_p({m}!) = {v} digits, have {n.r}")
    M = n.modulus
    prod = 1
    for h in range(m):
        prod = prod * ((n.res - h) % M) % M
    return PrecInt(p, n.r, prod).divexact(math.factorial(m))


def tail_width(p, r):
    """Smallest t with t(p-2)/(p-1) >= r: later terms vanish mod p^r."""
    return -((-r * (p - 1)) // (p - 2))


def _c_factors(c, jmax, p, r):
    """[c^m/m! mod p^r for m = 0..jmax] for c divisible by p (so each is
    integral).  m v_p(c) - v_p(m!) >= m - (m-1)/(p-1) > m (p-2)/(p-1) >= r
    once m >= tail_width(p, r), so only smaller m are computed."""
    M = p ** r
    cf = [1] + [0] * jmax
    c %= M
    if c == 0:
        return cf
    vc = vp(c, p)
    u = c // p ** vc
    um, unit, vfac = 1, 1, 0  # u^m, m!/p^vfac mod p^r, v_p(m!)
    for m in range(1, min(jmax + 1, tail_width(p, r))):
        k = m
        while k % p == 0:
            k, vfac = k // p, vfac + 1
        um, unit = um * u % M, unit * k % M
        e = m * vc - vfac
        if e < r:
            cf[m] = um * pow(p, e, M) % M * pow(unit, -1, M) % M
    return cf


def _log_unit(d, p, R):
    """log<d> mod p^R for an integer unit d, <d> its one-unit part:
    log(1 + x) / (p - 1) with 1 + x = d^(p-1), since log kills roots of
    unity, and log(1 + x) = sum_m (-1)^(m+1) x^m / m.  Term m has
    valuation >= m - v_p(m) >= m - lg(m), lg(m) = floor(log_p m).
    m - lg(m) never decreases as m grows, so the sum stops at the first m
    with m - lg(m) >= R."""
    if d % p == 0:
        raise NotAUnit(f"{d} is divisible by {p}")
    M = p ** R
    x = pow(d, p - 1, M) - 1
    acc, m, lg, pk = 0, 1, 0, p  # pk = p^(lg + 1)
    while m - lg < R:
        v = vp(m, p) if m % p == 0 else 0
        # x^m / p^v mod p^R needs x^m mod p^(R + v)
        term = pow(x, m, M * p ** v) // p ** v * pow(m // p ** v, -1, M)
        acc += term if m % 2 else -term
        m += 1
        if m == pk:
            lg, pk = lg + 1, pk * p
    return acc * pow(p - 1, -1, M) % M


class Weight:
    """Weight character split into tame (mod p-1) and wild (PrecInt) parts."""

    __slots__ = ("tame", "wild")

    def __init__(self, tame, wild):
        if not isinstance(wild, PrecInt):
            raise BadWeight(f"wild part {wild!r} is not a PrecInt")
        if not 0 <= tame <= wild.p - 2:
            raise BadWeight(f"tame part {tame} outside [0, {wild.p - 2}]")
        self.tame = tame
        self.wild = wild

    @property
    def p(self):
        return self.wild.p

    @property
    def r(self):
        return self.wild.r

    @classmethod
    def of_int(cls, n, p, r):
        """The character x -> x^n: tame n mod (p-1), wild n."""
        return cls(n % (p - 1), PrecInt(p, r, n))

    @classmethod
    def wild_only(cls, n, p, r):
        """The character trivial on roots of unity with wild part n."""
        return cls(0, PrecInt(p, r, n))

    def shift(self, m):
        """The weight lowered by the integer character x -> x^m."""
        return Weight((self.tame - m) % (self.p - 1), self.wild - m)

    def __eq__(self, other):
        if not isinstance(other, Weight):
            return NotImplemented
        return self.tame == other.tame and self.wild == other.wild

    def __repr__(self):
        return f"Weight(tame={self.tame}, wild={self.wild!r})"


def eval_char(chi, d):
    """Value of the weight character chi on a unit d: d^t <d>^(w - t) =
    d^t exp((w - t) log<d>), t = tame and w = wild, at precision
    min(r, precision(w) + 1)."""
    p, t, w = d.p, chi.tame, chi.wild
    r = min(d.r, w.r + 1)
    L = _log_unit(d.res, p, r)
    if w.p != p:
        raise PrecisionMismatch(f"primes differ: {p} vs {w.p}")
    exp = sum(_c_factors((w.res - t) * L, tail_width(p, r), p, r))
    return PrecInt(p, r, pow(d.res, t, p ** r) * exp)
