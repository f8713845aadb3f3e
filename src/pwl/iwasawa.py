"""Analytic functions on the p-adic weight space and the family action.

The weight space splits into p(p-1) branches indexed by the residue of the
weight modulo p(p-1); an analytic function is stored as one truncated power
series per branch, in the variable X centered at that residue, with
coefficients mod p^r and degree < d (joint precision ideal (p^r, X^d)).

char_series(u) interpolates k -> u^k for a unit u, as exp(X log<u>) on
each branch, from padic's log (_log_unit) and c^m/m! table (_c_factors).
sp_k evaluates at an integer weight k: branch k mod p(p-1), X = k minus
the branch residue; the substituted value has valuation >= 1, so the
result carries precision min(r, d).

A FamilyVec is a coordinate window whose entries are such functions, and
its length is its certified width; act_family applies the weight-minus-2
family of symmetric-power actions, running sympow._act_window (the same
kernel as act_universal) with one component per branch: the kernel packs
every branch and series coefficient of a coordinate into one int, so one
big-int dot product per live term covers all of them.

The family action uses up the universal tail, tail_width(p, r)
coordinates, for every series degree d.  Input j reaches output i only
through terms c^L/L! with L = j - h >= j - i (h <= i), and c^L/L! = 0 mod
p^r once L >= tail_width(p, r), as p | c.  Every other factor on such a
term is integral: (kappa - i)_L is a polynomial in X over Z, d^-1 is a
unit, the binomial rows C(i, h) a^h b^(i-h) are integers, and the branch
scale char_series(d) d^-2 has integral series.  So a dropped term is 0
mod (p^r, X^d), and output i reads only inputs j < i + tail_width(p, r).
The value path (cohomology.FamilyCoeffs.act) reads out_width +
tail_width(p, r) coordinates of a stored value and returns out_width.
"""

from .errors import DimensionMismatch, NotAdmissible, PrecisionMismatch
from .linalg import poly_mul
from .padic import PrecInt, Weight, _c_factors, _check_modulus, _log_unit
from .sympow import SeqVec, _act_window, _check_widths


def branch_count(p):
    return p * (p - 1)


def family_tail(p, r, d):
    """p(r + d), a window budget that no action reads: every action uses up
    tail_width(p, r) coordinates.  It stays only because
    perfbench/family_job.py sizes its pinned window with it."""
    return p * (r + d)


class WeightFn:
    """Analytic function on the weight space mod (p^r, X^d)."""

    __slots__ = ("p", "r", "d", "comps")

    def __init__(self, p, r, d, comps):
        _check_modulus(p, r)
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
        return cls._raw(p, r, d, [[0] * d for _ in range(branch_count(p))])

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
        self._compat(other)
        M = self.p ** self.r
        return WeightFn._raw(self.p, self.r, self.d,
                             [poly_mul(a, b, M)[:self.d]
                              for a, b in zip(self.comps, other.comps)])

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


def char_series(u, p, r, d):
    """The function k -> u^k for a unit u: branch zeta is u^zeta exp(X log<u>).

    u is an integer or a PrecInt of precision >= r, else PrecisionMismatch.
    """
    if isinstance(u, PrecInt):
        if u.p != p or u.r < r:
            raise PrecisionMismatch(f"{u!r} is not known mod {p}^{r}")
        u = u.res
    # L^h / h! mod p^r depends only on L mod p^r, as p | L
    coeffs = _c_factors(_log_unit(u, p, r), d - 1, p, r)
    M = p ** r
    comps = []
    for zeta in range(branch_count(p)):
        s = pow(u, zeta, M)
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
    """Coordinate window with WeightFn entries; its length is its certified
    width, and act_family uses up tail_width(p, r) of it."""

    __slots__ = ("p", "r", "d", "coords")

    def __init__(self, p, r, d, coords):
        if not all(isinstance(c, WeightFn) for c in coords):
            raise NotAdmissible("family coordinates must be WeightFn")
        if any((c.p, c.r, c.d) != (p, r, d) for c in coords):
            raise PrecisionMismatch(f"coordinates not mod ({p}^{r}, X^{d})")
        self.p, self.r, self.d = p, r, d
        self.coords = list(coords)

    @classmethod
    def zero(cls, p, r, d, width):
        return cls(p, r, d, [WeightFn.zero(p, r, d) for _ in range(width)])

    def __add__(self, other):
        return FamilyVec(self.p, self.r, self.d,
                         [x + y for x, y in self._pairs(other)])

    def __sub__(self, other):
        return FamilyVec(self.p, self.r, self.d,
                         [x - y for x, y in self._pairs(other)])

    def _pairs(self, other):
        """Coordinate pairs; DimensionMismatch unless the widths agree."""
        if len(self.coords) != len(other.coords):
            raise DimensionMismatch(f"windows of width {len(self.coords)} "
                                    f"and {len(other.coords)}")
        return zip(self.coords, other.coords)

    def agrees(self, other, width):
        _check_widths(self, other, width)
        return all(x == y for x, y in
                   zip(self.coords[:width], other.coords[:width]))

    def __repr__(self):
        return (f"FamilyVec(width={len(self.coords)}, "
                f"mod ({self.p}^{self.r}, X^{self.d}))")


def act_family(mat, fam):
    """Apply the weight-minus-2 family action; uses up tail_width(p, r)
    coordinates, whatever the series degree.

    _act_window with one component per branch zeta, at the weight
    zeta - 2 + X, scaled by char_series(d) d^-2: the factor d^(z - 2) in
    the tautological weight z.  Each coordinate goes in as its branch
    series laid end to end.
    """
    p, r, dd = fam.p, fam.r, fam.d
    M = p ** r

    def scale(d):
        d2 = pow(d, -2, M)
        return [[x * d2 % M for x in g] for g in char_series(d, p, r, dd).comps]

    out = _act_window(mat, p, r,
                      [[x for c in f.comps for x in c] for f in fam.coords],
                      range(-2, branch_count(p) - 2), scale)
    return FamilyVec(p, r, dd, [WeightFn._raw(p, r, dd, coord) for coord in out])


def sp_vector(k, fam):
    """Specialize every coordinate at weight k, landing at weight k - 2."""
    rr = min(fam.r, fam.d)
    chi = Weight.of_int(k - 2, fam.p, rr)
    return SeqVec(chi, [sp_k(k, c).res for c in fam.coords])

