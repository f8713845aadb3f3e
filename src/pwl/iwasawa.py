"""Analytic functions on the p-adic weight space and the family action.

The weight space splits into p(p-1) branches indexed by the residue of the
weight modulo p(p-1); an analytic function is stored as one truncated power
series per branch, in the variable X centered at that residue, with
coefficients mod p^r and degree < d (joint precision ideal (p^r, X^d)).

char_series(u) interpolates k -> u^k for a unit u.  sp_k evaluates at an
integer weight k: branch k mod p(p-1), X = k minus the branch residue; the
substituted value has valuation >= 1, so the result carries precision
min(r, d).

A FamilyVec is a coordinate window whose entries are such functions;
act_family applies the weight-minus-2 family of symmetric-power actions,
running sympow._act_window (the same loop as act_universal) with one
component per branch.  Coordinate j influences output i only when
j - i < p(r + d), so each application consumes family_tail(p, r, d)
stored coordinates.
"""

from .errors import (BadRange, DimensionMismatch, NotAdmissible, NotAUnit,
                     NotOneUnit, PrecisionMismatch, WidthInsufficient)
from .padic import PrecInt, Weight, unit_project, vp
from .sympow import SeqVec, _act_window, _c_factors, _series_mul


def branch_count(p):
    return p * (p - 1)


def family_tail(p, r, d):
    """Stored coordinates consumed by one family action."""
    return p * (r + d)


class WeightFn:
    """Analytic function on the weight space mod (p^r, X^d)."""

    __slots__ = ("p", "r", "d", "comps")

    def __init__(self, p, r, d, comps):
        nb = branch_count(p)
        if len(comps) != nb or any(len(c) != d for c in comps):
            raise DimensionMismatch(
                f"need {nb} branches of {d} coefficients each")
        M = p ** r
        self.p, self.r, self.d = p, r, d
        self.comps = [[x % M for x in c] for c in comps]

    @classmethod
    def _raw(cls, p, r, d, comps):
        """Trusted constructor for comps already shaped (branch_count(p)
        lists of d) and reduced mod p^r: no check, no copy."""
        fn = object.__new__(cls)
        fn.p, fn.r, fn.d, fn.comps = p, r, d, comps
        return fn

    @classmethod
    def zero(cls, p, r, d):
        return cls(p, r, d, [[0] * d for _ in range(branch_count(p))])

    def __add__(self, other):
        self._compat(other)
        M = self.p ** self.r
        return WeightFn._raw(self.p, self.r, self.d,
                             [[(x + y) % M for x, y in zip(a, b)]
                              for a, b in zip(self.comps, other.comps)])

    def __sub__(self, other):
        self._compat(other)
        M = self.p ** self.r
        return WeightFn._raw(self.p, self.r, self.d,
                             [[(x - y) % M for x, y in zip(a, b)]
                              for a, b in zip(self.comps, other.comps)])

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._compat(other)
        M = self.p ** self.r
        return WeightFn._raw(self.p, self.r, self.d,
                             [_series_mul(a, b, M, self.d)
                              for a, b in zip(self.comps, other.comps)])

    __rmul__ = __mul__

    def scale(self, k):
        M = self.p ** self.r
        return WeightFn._raw(self.p, self.r, self.d,
                             [[x * k % M for x in c] for c in self.comps])

    def _compat(self, other):
        if (self.p, self.r, self.d) != (other.p, other.r, other.d):
            raise PrecisionMismatch(
                f"mod ({self.p}^{self.r}, X^{self.d}) vs "
                f"mod ({other.p}^{other.r}, X^{other.d})")

    def __eq__(self, other):
        if not isinstance(other, WeightFn):
            return NotImplemented
        if (self.p, self.d) != (other.p, other.d):
            return False
        m = self.p ** min(self.r, other.r)
        return all((x - y) % m == 0
                   for a, b in zip(self.comps, other.comps)
                   for x, y in zip(a, b))

    def __repr__(self):
        return f"WeightFn(p={self.p}, mod ({self.p}^{self.r}, X^{self.d}))"


def _log_one_unit(u, p, R):
    """log of a one-unit mod p^R via the alternating series."""
    if u % p != 1:
        raise NotOneUnit(f"{u} is not 1 mod {p}")
    # v_p(m) <= 7 in the loop below needs 3^8 > R + 8
    if 3 ** 8 <= R + 8:
        raise BadRange(f"precision {R} is too large for the log series")
    x = (u - 1) % p ** R
    acc = 0
    m = 1
    while m <= R + 8:
        v = vp(m, p) if m % p == 0 else 0
        if m - v < R:
            xm = pow(x, m, p ** (R + v))
            q = xm // p ** v
            term = q * pow(m // p ** v, -1, p ** R) % p ** R
            acc = (acc - term if m % 2 == 0 else acc + term) % p ** R
        m += 1
    return acc


def char_series(u, p, r, d):
    """The function k -> u^k for a unit u: branch zeta is u^zeta exp(X log<u>)."""
    u0 = u.res if isinstance(u, PrecInt) else u % p ** r
    if u0 % p == 0:
        raise NotAUnit(f"{u0} is divisible by {p}")
    # L^h / h! mod p^r depends only on L mod p^r, as p | L
    L = _log_one_unit(unit_project(PrecInt(p, r, u0)).res, p, r)
    coeffs = _c_factors(L, d - 1, p, r)
    M = p ** r
    comps = []
    for zeta in range(branch_count(p)):
        s = pow(u0, zeta, M)
        comps.append([s * c % M for c in coeffs])
    return WeightFn(p, r, d, comps)


def sp_k(k, fn):
    """Evaluate at an integer weight k; result precision min(r, d).

    Reads the branch of k mod p(p-1) at X = k minus the branch residue; the
    substituted value has valuation >= 1.
    """
    p, r, d = fn.p, fn.r, fn.d
    zeta = k % branch_count(p)
    M = p ** r
    x0 = (k - zeta) % M
    acc, xp = 0, 1
    for h in range(d):
        acc = (acc + fn.comps[zeta][h] * xp) % M
        xp = xp * x0 % M
    return PrecInt(p, min(r, d), acc)


class FamilyVec:
    """Coordinate window with WeightFn entries; surplus beyond out_width is
    working room consumed by act_family."""

    __slots__ = ("p", "r", "d", "out_width", "coords")

    def __init__(self, p, r, d, out_width, coords):
        if len(coords) < out_width:
            raise WidthInsufficient(
                f"{len(coords)} coordinates cannot certify width {out_width}")
        if not all(isinstance(c, WeightFn) for c in coords):
            raise NotAdmissible("family coordinates must be WeightFn")
        if any((c.p, c.r, c.d) != (p, r, d) for c in coords):
            raise PrecisionMismatch(f"coordinates not mod ({p}^{r}, X^{d})")
        self.p, self.r, self.d = p, r, d
        self.out_width = out_width
        self.coords = list(coords)

    @classmethod
    def zero(cls, p, r, d, out_width, width):
        return cls(p, r, d, out_width,
                   [WeightFn.zero(p, r, d) for _ in range(width)])

    def width(self):
        return len(self.coords)

    def __add__(self, other):
        n = min(len(self.coords), len(other.coords))
        return FamilyVec(self.p, self.r, self.d,
                         min(self.out_width, other.out_width),
                         [x + y for x, y in zip(self.coords[:n], other.coords[:n])])

    def __sub__(self, other):
        n = min(len(self.coords), len(other.coords))
        return FamilyVec(self.p, self.r, self.d,
                         min(self.out_width, other.out_width),
                         [x - y for x, y in zip(self.coords[:n], other.coords[:n])])

    def agrees(self, other, width):
        return all(x == y for x, y in
                   zip(self.coords[:width], other.coords[:width]))

    def __repr__(self):
        return (f"FamilyVec(out={self.out_width}, stored={len(self.coords)}, "
                f"mod ({self.p}^{self.r}, X^{self.d}))")


def act_family(mat, fam):
    """Apply the weight-minus-2 family action; consumes family_tail coords.

    _act_window with one component per branch zeta, at the weight
    zeta - 2 + X, scaled by char_series(d) d^-2: the factor d^(z - 2) in
    the tautological weight z.
    """
    p, r, dd = fam.p, fam.r, fam.d
    M = p ** r

    def scale(d):
        d2 = pow(d, -2, M)
        return [[x * d2 % M for x in g] for g in char_series(d, p, r, dd).comps]

    cols = [[[f.comps[zeta][k] for f in fam.coords] for k in range(dd)]
            for zeta in range(branch_count(p))]
    out = _act_window(mat, p, r, cols, range(-2, branch_count(p) - 2), scale,
                      family_tail(p, r, dd), fam.out_width)
    return FamilyVec(p, r, dd, fam.out_width,
                     [WeightFn._raw(p, r, dd, coord) for coord in out])


def sp_vector(k, fam):
    """Specialize every coordinate at weight k, landing at weight k - 2."""
    rr = min(fam.r, fam.d)
    chi = Weight.of_int(k - 2, fam.p, rr)
    return SeqVec(chi, fam.out_width, [sp_k(k, c).res for c in fam.coords])

