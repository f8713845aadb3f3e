"""The p-adic weight space: precision integers, weight characters, the
interpolated symmetric-power action, and cocycles in weight families.

A PrecInt is a p-adic integer known modulo p^r: an odd prime p, a precision
r >= 1 and a canonical residue in [0, p^r).  Every operation records the
precision of its output; in particular binom's division by m! consumes
v_p(m!) digits and raises PrecisionExhausted when none would remain.

A Weight is a character of the units, split as (tame, wild) with
tame in [0, p-2] and wild a PrecInt w.  eval_char evaluates it on a unit
d as d^tame exp((w - tame) log<d>), and is the one power of a p-adic unit:
<d> is eval_char at Weight.wild_only(1), and d^n for a one-unit d is
eval_char at Weight.wild_only(n).  _log_unit gives log<d> as
log(d^(p-1)) / (p-1), since log kills roots of unity, and exp is the sum
of the c^m/m! table _c_factors, which is cut at tail_width terms (the
same width one weight action consumes).  char_series and _act_window
read the same log and table.

The weight space splits into p(p-1) branches indexed by the residue of the
weight modulo p(p-1); an analytic function is stored as one truncated power
series per branch, in the variable X centered at that residue, with
coefficients mod p^r and degree < d (joint precision ideal (p^r, X^d)).

char_series(u) interpolates k -> u^k for a unit u, as exp(X log<u>) on
each branch.  sp_k evaluates at an integer weight k: branch k mod p(p-1),
X = k minus the branch residue; the substituted value has valuation >= 1,
so the result carries precision min(r, d).

SeqVec holds an infinite-coordinate analogue of sympow.SymVec at a p-adic
weight chi: a finite window of coordinates over Z/p^r.  _act_window is
the one implementation of the interpolated action, on windows of
truncated series in the weight: it computes signed sums of actions,
sum sign g.x, one per batch of terms; act_universal runs one term at
the single weight chi and act_family one with the weight left as a
variable.  It packs each input coordinate, all its components and
series degrees, into one int of W-bit fields, so each output coordinate
costs one big-int dot product per live term L, and a Vandermonde split
of the falling factorials keeps the weight-dependent series out of the
per-coordinate loop.  The live L are those with c^L/L! != 0 mod p^r,
read from _c_factors, the table eval_char sums for exp.  act_universal and
act_family both reject a matrix outside the monoid (p | c, d a unit)
with NotAdmissible.  At integer weight n, dropping coordinates beyond n
(specialize) intertwines act_universal with sympow.act_sym exactly;
between two integer weights congruent mod p^(r-1)(p-1), truncation to
the smaller degree (congr_project) is equivariant mod p^r.
binom_identity evaluates both sides of the alternating-sum identity
  sum_m (-1)^(m-h) binom(n-m, i-m) C(j, m) C(m, h) = binom(n-j, i-h) C(j, h)
used to verify the action's composition law coefficientwise.

A FamilyVec is a coordinate window whose entries are weight-space
functions, and its length is its certified width; act_family applies the
weight-minus-2 family of symmetric-power actions, running _act_window
with one component per branch: the kernel packs every branch and series
coefficient of a coordinate into one int, so one big-int dot product per
live term covers all of them.

Every weight action uses up the universal tail, tail_width(p, r)
coordinates, for every series degree d.  Input j reaches output i only
through terms c^L/L! with L = j - h >= j - i (h <= i), and c^L/L! = 0 mod
p^r once L >= tail_width(p, r), as p | c.  Every other factor on such a
term is integral: (kappa - i)_L is a polynomial in X over Z, d^-1 is a
unit, the binomial rows C(i, h) a^h b^(i-h) are integers, and the branch
scale char_series(d) d^-2 has integral series.  So a dropped term is 0
mod (p^r, X^d), output i reads only inputs j < i + tail_width(p, r), and
a window of length w certifies w - tail_width(p, r) outputs.

The value path, which no CLI command runs: FamilyCoeffs has the duck
interface of cohomology.SymCoeffs (act_sums/rand) on windows of
weight-space functions; act_sums reads out_width + tail_width(p, r)
coordinates of each stored value and returns sums out_width wide.  A
Cocycle holds values on the free generators, in either system.
Cocycle._terms unrolls c(gh) = c(g) + g.c(h) along a word into signed
terms, each acting on a stored value, so no action is applied to the
result of another.  Cocycle.eval sums one word's terms, and hecke_images
one batch per generator of the words of cohomology._partner_words (which
hecke_matrix packs), all in one act_sums call.  specialize_cocycle
takes a family cocycle to Sym^(k-2) at weight k, evaluating only the
k - 1 coordinates it keeps; family_preimage lifts back.  FamilyCoeffs.rand
draws the residues randrange would, through getrandbits (_residues).
hecke_images and specialize_cocycle import cohomology when they run, and
the packed rows come from pwl.packed, so `pwl family` loads neither
cohomology nor linalg.
"""

import math
from operator import add, mul

from .errors import (BadRange, BadWeight, CongruenceViolated,
                     DimensionMismatch, InternalInconsistency, NotAdmissible,
                     NotAUnit, PrecisionExhausted, PrecisionMismatch,
                     WidthInsufficient)
from .matrices import IntMat
from .packed import pack_row, poly_mul, unpack_row
from .padic import _check_modulus, vp, vp_factorial
from .sympow import SymVec, _entries_mod


class PrecInt:
    """p-adic integer known mod p^r, canonical residue in [0, p^r)."""

    __slots__ = ("p", "r", "res")

    def __init__(self, p, r, value):
        _check_modulus(p, r)
        self.p = p
        self.r = r
        self.res = value % (p ** r)

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

    def __eq__(self, other):
        # equality mod the smaller of the two precisions
        o, r = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self.res - o) % self.p ** r == 0

    def __repr__(self):
        return f"PrecInt({self.res} mod {self.p}^{self.r})"


def binom(n, m):
    """Extended binomial coefficient (1/m!) * prod_{h<m} (n - h).

    The product of m consecutive integers is divisible by m!, so an
    integer n gives the exact integer.  A PrecInt n gives a PrecInt of
    precision r - v, v = v_p(m!), raising PrecisionExhausted when r <= v:
    n = res mod p^r makes the products for n and res agree mod p^r, so
    their quotients by m! agree mod p^(r-v).
    """
    if m < 0:
        raise BadRange(f"binomial index {m} is negative")
    if isinstance(n, int):
        return math.prod(range(n, n - m, -1)) // math.factorial(m)
    v = vp_factorial(m, n.p)
    if n.r <= v:
        raise PrecisionExhausted(
            f"binom(-, {m}) needs more than v_p({m}!) = {v} digits, have {n.r}")
    return PrecInt(n.p, n.r - v, binom(n.res, m))


def tail_width(p, r):
    """Smallest t with t(p-2)/(p-1) >= r: later terms vanish mod p^r.
    There is none at p = 2: BadRange below 3."""
    if p < 3:
        raise BadRange(f"no tail at p = {p}: the weight action needs p >= 3")
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
        if d < 1:
            raise BadRange(f"series degree {d} is below 1")
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

    def __mul__(self, other):
        if (self.p, self.r, self.d) != (other.p, other.r, other.d):
            raise PrecisionMismatch(
                f"mod ({self.p}^{self.r}, X^{self.d}) vs "
                f"mod ({other.p}^{other.r}, X^{other.d})")
        M = self.p ** self.r
        return WeightFn._raw(self.p, self.r, self.d,
                             [poly_mul(a, b, M)[:self.d]
                              for a, b in zip(self.comps, other.comps)])

    def scale(self, k):
        M = self.p ** self.r
        return WeightFn._raw(self.p, self.r, self.d,
                             [[x * k % M for x in c] for c in self.comps])

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
    """The function k -> u^k for an integer unit u: branch zeta is
    u^zeta exp(X log<u>)."""
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
        False across primes or weights; WidthInsufficient unless both
        windows hold `width` coordinates."""
        if min(len(self.coords), len(other.coords)) < width:
            raise WidthInsufficient(
                f"cannot compare {width} coordinates of windows of "
                f"{len(self.coords)} and {len(other.coords)}")
        if self.p != other.p or self.chi != other.chi:
            return False
        m = self.p ** min(self.r, other.r)
        return all((x - y) % m == 0
                   for x, y in zip(self.coords[:width], other.coords[:width]))

    def __repr__(self):
        return f"SeqVec(width={len(self.coords)}, mod {self.p}^{self.r})"


def _act_window(batches, windows, p, r, base, scale):
    """Signed sums of the weight action on windows of truncated series
    mod (p^r, X^dd): batch k, a list of terms (g, j, sign) with sign
    +1 or -1, gives the window sum sign g.x_j, x_j = windows[j].

    windows[j][m] is coordinate m of x_j: nz dd residues mod M = p^r,
    component-major, so windows[j][m][z dd + k] is the X^k coefficient of
    its series x_(m,z) on component z, at the weight kappa_z = base[z] + X
    (nz = len(base)); the windows share one width.  Output coordinate i
    of g.x on component z is
      g_z sum_L (kappa_z - i)_L (c^L/L!) d^-(i+L) D_L(i)_z,
      D_L(i) = sum_h row_i[h] x_(h+L),  row_i[h] = C(i,h) a^h b^(i-h),
    with g = scale(d) and (x)_L = x (x - 1) ... (x - L + 1).  The monoid
    (p | c, d a unit) is checked before scale takes a power of d.  Only
    the live L, c^L/L! != 0 mod p^r, are summed: each is below
    tail = tail_width(p, r) (the _c_factors cut), and a dead term is 0 mod
    (p^r, X^dd) (proof in the module docstring).  So output i reads x_m
    only for m = h + L < i + tail, and a window of width w certifies its
    n = w - tail outputs; n < 1 raises WidthInsufficient before any
    matrix is checked.  Returns per batch its n output coordinates, each
    as its list of nz series.

    Packed layout: F_m = pack_row(x_m, W) holds coordinate m in W-bit
    fields.  A sum of packed ints adds field by field, so D_L(i), on
    every component and degree at once, is the one int
    sum(map(mul, row_i, F[L:])).  Only F_m with m < n + max(live L) <=
    w - 1 are packed, since D_L(i) reads F_(h+L) with h <= i <= n - 1.
    Row i + 1 comes from row i by Pascal's rule,
    row_(i+1)[h] = b row_i[h] + a row_i[h-1] mod M.  Each later stage runs
    over all i at once: one comprehension per live L, per (t, L) and per
    (t, z) below.

    Vandermonde regrouping about s = base[0]:
      (kappa - i)_L = sum_t C(L,t) (kappa - s)_t (s - i)_(L-t),
    so g.x is sum_t G_(t,z) B_t(i) with the series
      G_(t,z) = g_z (base[z] - s + X)_t
    and the packed sums
      B_t(i) = sum_(live L >= t) e_(t,L)(i) D_L(i),
      e_(t,L)(i) = C(L,t) (c^L/L!) d^-L (s - i)_(L-t) d^-i mod M,
    whose integer coefficients do not depend on z.  Only the t < max(live
    L) + 1 with some G_(t,z) != 0 are kept; call their number T.  (With
    one component of constants, as in act_universal, G_(t,0) = 0 for
    t >= 1, so T = 1 and each L costs one coefficient per i.)  Per
    (i, z), each kept t costs one product of the W-bit fields z dd ..
    z dd + dd - 1 of B_t(i) (a block) with packed G_(t,z); the low dd
    fields of the sum over t, y_z(i), are output i of g.x on component z.

    Sharing: the work of a term reads g only through its entries mod M
    and x only through j.  So the monoid check, _c_factors, the live L,
    e_(t,L), the Pascal rows and the falling factorials are made once
    per distinct g mod M; scale(d) and the packed G_(t,z), which depend
    only on d and max(live L), once per such pair; F once per window;
    and D_L, B_t and the y_z(i) once per distinct (g mod M, j).  Each
    y_z(i) is added, unreduced and whole, to the accumulators of every
    term that uses it: per batch one accumulator sums its +1 terms and
    one its -1 terms, a term listed m times adding m times.  Each
    accumulator is unpacked once per (i, z), and the output is the
    difference of the two, mod M.

    Field bound: nothing is reduced between packing and the last unpack,
    so W must hold every field exactly.  The coordinates (SeqVec and
    WeightFn keep them reduced), row_i, e_(t,L)(i) and G are residues in
    [0, M).  A field of D_L(i) sums at most i + 1 <= n products
    row_i[h] x, n the number of outputs, so it is at most
    n (M-1)^2; a field of B_t(i) sums at most |live L| of these times some
    e <= M - 1; field k of a block times G_(t,z) sums at most
    min(k + 1, 2 dd - 1 - k) <= dd products, and y_z(i) adds T of them,
    on all of its 2 dd - 1 fields.  An accumulator adds at most `most`
    of these, most the largest number of terms in one batch.  So, with T
    and |live L| the largest over the call's matrices, every field is at
    most
      most T dd (M-1) |live L| (M-1) n (M-1)^2 < 2^W,
    no field carries into the next, and each block, product and unpack
    reads exact integers.
    """
    width, tail = len(windows[0]), tail_width(p, r)
    n = width - tail
    if n < 1:
        raise WidthInsufficient(
            f"{width} coordinates leave no output past a tail of {tail}")
    M = p ** r
    nz = len(base)
    dd = len(windows[0][0]) // nz
    s = base[0]
    uses = {}  # (g mod M, j) -> (batch, is -1) per term
    for k, batch in enumerate(batches):
        for mat, j, sign in batch:
            uses.setdefault((_entries_mod(mat, p, r), j), []).append(
                (k, sign < 0))
    plans, kept = {}, {}  # per g mod M; per (d, max live L) the kept G_t
    for key, _ in uses:
        if key in plans:
            continue
        a, b, c, d = key
        if c % p or d % p == 0:
            raise NotAdmissible(
                f"({a} {b}; {c} {d}) mod {p}^{r} is outside the monoid: "
                f"need c = 0 and d a unit mod {p}")
        dinv = pow(d, -1, M)
        cf = _c_factors(c, width - 1, p, r)
        live = [L for L in range(width) if cf[L]]
        dt = (d, live[-1])
        if dt not in kept:
            g, kept[dt] = scale(d), []
            for t in range(live[-1] + 1):  # g[z] = g_z (base[z] - s + X)_t
                if t:
                    g = [[((bz - s - t + 1) * x + y) % M
                          for x, y in zip(gz, [0] + gz)]
                         for gz, bz in zip(g, base)]
                if not any(map(any, g)):
                    break  # a zero G_t makes every later G_t zero
                kept[dt].append(g)
        # B_t(i) = sum over (k, u, q) in e[t] of q (s - i)_u d^-i D_(live[k])
        e = [[(k, L - t, math.comb(L, t) * cf[L] * pow(dinv, L, M) % M)
              for k, L in enumerate(live) if L >= t]
             for t in range(len(kept[dt]))]
        rows = [[1]]  # row_i by Pascal's rule
        for _ in range(n - 1):
            row = rows[-1]
            rows.append([(b * x + a * y) % M
                         for x, y in zip(row + [0], [0] + row)])
        fall = [[pow(dinv, i, M) for i in range(n)]]  # (s - i)_u d^-i
        for u in range(live[-1]):
            fall.append([f * (s - i - u) % M for i, f in enumerate(fall[-1])])
        plans[key] = (live, e, rows, fall, dt)
    most = max(map(len, batches), default=0)
    T = max(map(len, kept.values()), default=0)
    nL = max((len(plan[0]) for plan in plans.values()), default=0)
    W = (most * T * dd * nL * n * (M - 1) ** 4).bit_length() or 1
    G = {dt: [[pack_row(gz, W) for gz in gt] for gt in gs]
         for dt, gs in kept.items()}
    top = max((L for _, L in kept), default=0)
    F = [[pack_row(x, W) for x in win[:n + top]] for win in windows]
    acc = [[[[0] * n for _ in base] for _ in "+-"] for _ in batches]
    blk = (1 << (W * dd)) - 1
    for (key, j), where in uses.items():
        live, e, rows, fall, dt = plans[key]
        D = [[sum(map(mul, row, FL)) for row in rows]
             for FL in [F[j][L:] for L in live]]
        B = []
        for et in e:
            Bt = [0] * n
            for k, u, q in et:
                Bt = [y + q * f % M * x for y, f, x in zip(Bt, fall[u], D[k])]
            B.append(Bt)
        for z, sh in enumerate(range(0, W * dd * nz, W * dd)):
            y = [0] * n
            for Bt, Gt in zip(B, G[dt]):
                gz = Gt[z]
                y = [v + (x >> sh & blk) * gz for v, x in zip(y, Bt)]
            for k, neg in where:
                sums = acc[k][neg]
                sums[z] = list(map(add, sums[z], y))
    out = []
    for pos, neg in acc:  # comps[z][i]: output i's series on component z
        comps = [[[(u - v) % M for u, v in zip(unpack_row(x, dd, W, M),
                                                unpack_row(y, dd, W, M))]
                  for x, y in zip(xs, ys)] for xs, ys in zip(pos, neg)]
        out.append(list(map(list, zip(*comps))))
    return out


def act_universal(mat, seq):
    """Apply the weight-chi action; uses up tail_width(p, r) coordinates.

    One term of _act_window, on one component of constants (dd = 1) at
    the wild part w of chi, scaled by d^chi, so the falling factorials
    are (w - i)_L.
    Raises NotAdmissible outside the monoid, WidthInsufficient when short.
    """
    chi, p, r = seq.chi, seq.p, seq.r
    out = _act_window([[(mat, 0, 1)]], [[[x] for x in seq.coords]], p, r,
                      [chi.wild.res],
                      lambda d: [[eval_char(chi, PrecInt(p, r, d)).res]])[0]
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

    def __repr__(self):
        return (f"FamilyVec(width={len(self.coords)}, "
                f"mod ({self.p}^{self.r}, X^{self.d}))")


def _family_sums(batches, values):
    """_act_window on FamilyVecs of one (p, r, d), one component per
    branch zeta, at the weight zeta - 2 + X, scaled by char_series(d)
    d^-2: the factor d^(z - 2) in the tautological weight z.  Each
    coordinate goes in as its branch series laid end to end."""
    p, r, dd = values[0].p, values[0].r, values[0].d
    M = p ** r

    def scale(d):
        d2 = pow(d, -2, M)
        return [[x * d2 % M for x in g] for g in char_series(d, p, r, dd).comps]

    windows = [[[x for c in f.comps for x in c] for f in v.coords]
               for v in values]
    out = _act_window(batches, windows, p, r, range(-2, branch_count(p) - 2),
                      scale)
    return [FamilyVec(p, r, dd, [WeightFn._raw(p, r, dd, c) for c in win])
            for win in out]


def act_family(mat, fam):
    """Apply the weight-minus-2 family action; uses up tail_width(p, r)
    coordinates, whatever the series degree: one term of _family_sums."""
    return _family_sums([[(mat, 0, 1)]], [fam])[0]


def sp_vector(k, fam):
    """Specialize every coordinate at weight k, landing at weight k - 2."""
    rr = min(fam.r, fam.d)
    chi = Weight.of_int(k - 2, fam.p, rr)
    return SeqVec(chi, [sp_k(k, c).res for c in fam.coords])


def _residues(rng, M, count):
    """count draws of rng.randrange(M), in order, leaving rng as they do:
    getrandbits(M.bit_length()), drawn again while it is >= M, is what
    randrange(M) runs on Python 3.10 to 3.13 (_randbelow_with_getrandbits),
    here without its two Python frames per draw."""
    k = M.bit_length()
    getrandbits = rng.getrandbits
    out = []
    for _ in range(count):
        x = getrandbits(k)
        while x >= M:
            x = getrandbits(k)
        out.append(x)
    return out


class FamilyCoeffs:
    """Windows of weight-space functions with the family action.

    The one place that names an output width: act_sums reads the first
    out_width + tail_width(p, r) coordinates of every value (fewer raise
    WidthInsufficient, before any matrix is checked) and returns sums
    out_width wide.  Cocycle.eval and hecke_images act on stored values,
    so their results are out_width wide: a second action raises.
    """

    def __init__(self, p, r, d, out_width, stored_width):
        _check_modulus(p, r)
        if d < 1:
            raise BadRange(f"series degree {d} is below 1")
        if out_width < 1:
            raise BadRange(f"out width {out_width} is below 1")
        if stored_width < out_width:
            raise WidthInsufficient(
                f"stored width {stored_width} is below out width {out_width}")
        self.p, self.r, self.d = p, r, d
        self.out_width = out_width
        self.stored_width = stored_width

    def act_sums(self, batches, values):
        """Per batch of terms (g, j, sign), the sum of sign g.values[j]:
        one kernel call for all the batches."""
        if not values:
            raise DimensionMismatch("no stored values to act on")
        if any(not 0 <= j < len(values) for b in batches for _, j, _ in b):
            raise DimensionMismatch(
                f"a term reads a value outside the {len(values)} stored")
        w = self.out_width + tail_width(self.p, self.r)
        short = min(len(x.coords) for x in values)
        if short < w:
            raise WidthInsufficient(
                f"a stored value needs {w} coordinates, has {short}")
        # FamilyVec checks that each coordinate is mod (p^r, X^d)
        return _family_sums(batches, [FamilyVec(self.p, self.r, self.d,
                                                x.coords[:w]) for x in values])

    def rand(self, rng):
        """stored_width coordinates of branch_count(p) series of d
        residues each, drawn in that order."""
        p, r, d = self.p, self.r, self.d
        nb = branch_count(p)
        xs = _residues(rng, p ** r, self.stored_width * nb * d)
        comps = [xs[i:i + d] for i in range(0, len(xs), d)]
        coords = [WeightFn._raw(p, r, d, comps[i:i + nb])
                  for i in range(0, len(comps), nb)]
        return FamilyVec(p, r, d, coords)


class Cocycle:
    """1-cocycle on the free generators of the level subgroup."""

    __slots__ = ("coeffs", "basis", "values")

    def __init__(self, coeffs, basis, values):
        if len(values) != basis.rank():
            raise DimensionMismatch(
                f"{len(values)} values for {basis.rank()} generators")
        self.coeffs = coeffs
        self.basis = basis
        self.values = list(values)

    @classmethod
    def random(cls, coeffs, basis, rng):
        return cls(coeffs, basis, [coeffs.rand(rng) for _ in range(basis.rank())])

    def eval(self, target):
        """Value on a group element (IntMat): one sum over the letters of
        its rewritten word, from the identity."""
        terms = self._terms(self.basis.express(target), IntMat.identity())
        return self.coeffs.act_sums([terms], self.values)[0]

    def _terms(self, word, cur):
        """cur.c(w) for the group element w that `word` spells, as terms
        (prefix matrix, value index, sign) of c(gh) = c(g) + g.c(h), the
        prefix starting at cur: g_j adds +prefix.c(g_j), and g_j^-1 adds
        -(prefix g_j^-1).c(g_j)."""
        terms = []
        for k in word:
            g = self.basis.gens[abs(k) - 1]
            if k > 0:
                terms.append((cur, k - 1, 1))
                cur = cur * g
            else:
                cur = cur * g.inverse()
                terms.append((cur, -k - 1, -1))
        return terms

    def stacked_coords(self):
        out = []
        for v in self.values:
            out.extend(v.coords)
        return out


def hecke_images(cocycle, reps):
    """Value-level double-coset operator: new cocycle on the generators,
    one batch of terms per generator, from every rep's partner word, and
    one act_sums call for them all."""
    from .cohomology import _partner_words
    adjs, words = _partner_words(cocycle.basis, reps)
    batches = [[t for adj, word in zip(adjs, gen_words)
                for t in cocycle._terms(word, adj)] for gen_words in words]
    return Cocycle(cocycle.coeffs, cocycle.basis,
                   cocycle.coeffs.act_sums(batches, cocycle.values))


def specialize_cocycle(k, cocycle):
    """Family-coefficient cocycle evaluated at integer weight k, as a
    symmetric-power cocycle of degree k - 2; raises WidthInsufficient
    below k - 1 certified coordinates.  Only the k - 1 coordinates that
    specialize keeps are evaluated."""
    from .cohomology import SymCoeffs
    coeffs = cocycle.coeffs
    out_coeffs = SymCoeffs(coeffs.p, min(coeffs.r, coeffs.d), k - 2)
    values = [specialize(sp_vector(k, FamilyVec(F.p, F.r, F.d,
                                                F.coords[:k - 1])), k - 2)
              for F in cocycle.values]
    return Cocycle(out_coeffs, cocycle.basis, values)


def family_preimage(cocycle, d):
    """Interpolate a symmetric-power cocycle into family coefficients.

    The weight k = n + 2 lies on the branch zeta = k mod p(p-1), where the
    series (s_0, ..., s_(d-1)) takes the value sum_j s_j (k - zeta)^j.  Its
    first term has coefficient 1, so each coordinate v lifts to the
    constant series (v, 0, ..., 0) on branch zeta and to zero on every
    other branch.  The k - 1 lifted coordinates are followed by
    tail_width(p, r) zero ones, the tail one action reads, so the lift can
    be evaluated and operated on, not only specialized back.
    """
    sym = cocycle.coeffs
    p, r = sym.p, sym.r
    k = sym.n + 2
    out_width = k - 1
    tail = tail_width(p, r)
    fam_coeffs = FamilyCoeffs(p, r, d, out_width, out_width + tail)
    zeta = k % branch_count(p)
    values = []
    for v in cocycle.values:
        coords = []
        for x in v.coords:
            comps = [[0] * d for _ in range(branch_count(p))]
            comps[zeta][0] = x
            coords.append(WeightFn(p, r, d, comps))
        coords += [WeightFn.zero(p, r, d) for _ in range(tail)]
        values.append(FamilyVec(p, r, d, coords))
    out = Cocycle(fam_coeffs, cocycle.basis, values)
    if specialize_cocycle(k, out).values != cocycle.values:
        raise InternalInconsistency("family preimage fails to specialize")
    return out
