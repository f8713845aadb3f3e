"""Finite-slope machinery: Newton polygons, slope factors, scaled inverses.

Working over Z/p^r, a coefficient congruent to 0 only reveals valuation
>= r, so polygon points carry a censored flag and anything whose hull
touches a censored point is reported as ambiguous rather than asserted.

slope_factor splits a monic polynomial into the part with root valuation
< s and the rest.  For s = 1, P = X^w B0 mod p with B0(0) a unit.  The
Newton step v (2 - v B) mod A squares the error 1 - v B of v as an
inverse of B modulo A.  Run modulo X^k over F_p, k doubling, it inverts
B0 modulo X^w.  Quadratic Hensel lifting then refines only the low
factor A, monic with A = X^w mod p: each pass doubles its precision by
A += v (P mod A) mod A, after one more Newton step keeps v inverse to
B = P div A.  One lift serves every w, 0 and deg P too.  Hensel
uniqueness fixes A, the unit-root factor is the exact quotient P div A,
and no precision is lost.  Deeper cuts substitute X -> pX, divide by
the forced power of p (losing that much precision, tracked), and recurse.

ps_tp_inv restricts a matrix A to its slope < s part and returns p^s *
(block inverse), the scaled inverse whose powers contract.  With
(Q, R, loss) the split of the charpoly of A and prec = r - loss, K = R(A)
(linalg._poly_eval_matrix) is zero on the R part and injective on the Q
part, so its image has rank deg Q inside the slope < s lattice.  A Smith
form U K V = diag(p^e) with divisor 0 deg Q times and prec elsewhere says
that this image is a direct summand, so the whole lattice, spanned by the
first deg Q columns of K V; any other divisors raise AmbiguousAtPrecision.
K is a polynomial in A, so U A U^-1 is block upper triangular with the
block M0 of A on the image in its top left corner; a nonzero entry below
it is a bug trap.  A second Smith form U0 M0 V0 = diag(p^e_i) gives W = V0
diag(p^(s - e_i)) U0, so that M0 W = p^s I.  e_max = max e_i above s
raises NotInvertible: p^s M0^-1 is not integral, which is certified even
when e_max reads as prec, since the true exponent is then >= prec.
e_max = prec <= s raises PrecisionExhausted: M0 reads as singular because
its digits ran out.  W is reported mod p^(prec - e_max) and no further: if
M0 W' = p^s I as well, then diag(p^e) V0^-1 (W - W') = 0 mod p^prec, so
row i of V0^-1 (W - W') vanishes only mod p^(prec - e_i).
"""

import math

from .errors import (AmbiguousAtPrecision, BadRange, InternalInconsistency,
                     NotInvertible, PrecisionExhausted)
from .linalg import (_poly_eval_matrix, charpoly_mod, mat_mul, poly_mul,
                     smith_mod)
from .padic import vp


class NewtonPolygon:
    """Lower hull of the coefficient valuations of a monic polynomial;
    segments holds each hull segment as its integer (rise, run)."""

    __slots__ = ("censored", "vertices", "segments", "ambiguous")

    def __init__(self, censored, vertices, segments, ambiguous):
        self.censored = censored
        self.vertices = vertices
        self.segments = segments
        self.ambiguous = ambiguous

    def root_valuations(self):
        """(valuation, multiplicity) pairs, one per segment, the valuation
        -rise/run in lowest terms as a string: "0", "1", "1/2"."""
        out = []
        for rise, run in self.segments:
            g = math.gcd(rise, run)
            num, den = -rise // g, run // g
            out.append((str(num) if den == 1 else f"{num}/{den}", run))
        return out


def newton_polygon(coeffs, p, r):
    if not coeffs:
        raise BadRange("Newton polygon of an empty coefficient list")
    M = p ** r
    points = []
    censored = []
    for i, c in enumerate(coeffs):
        if c % M == 0:
            points.append((i, r))
            censored.append(True)
        else:
            points.append((i, vp(c, p)))  # below r, as c % p^r != 0
            censored.append(False)
    hull = [points[0]]
    for pt in points[1:]:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # pop unless the slope strictly increases through the middle
            if (y2 - y1) * (pt[0] - x2) >= (pt[1] - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    segments = [(y2 - y1, x2 - x1)
                for (x1, y1), (x2, y2) in zip(hull, hull[1:])]
    on_hull = set()
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        for i in range(x1, x2 + 1):
            if (points[i][1] - y1) * (x2 - x1) == (y2 - y1) * (i - x1):
                on_hull.add(i)
    ambiguous = sorted(i for i in on_hull if censored[i])
    return NewtonPolygon(censored, hull, segments, ambiguous)


def _poly_trim(f, M):
    f = [c % M for c in f]
    while len(f) > 1 and f[-1] == 0:
        f.pop()
    return f


def _poly_add(f, g, M):
    n = max(len(f), len(g))
    return [((f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0)) % M
            for i in range(n)]


def _poly_divmod(f, g, M):
    """Division by a monic polynomial."""
    f = list(f)
    dg = len(g) - 1
    q = [0] * max(1, len(f) - dg)
    for i in range(len(f) - 1, dg - 1, -1):
        c = f[i] % M
        if c:
            q[i - dg] = c
            for j in range(dg + 1):
                f[i - dg + j] = (f[i - dg + j] - c * g[j]) % M
    return _poly_trim(q, M), _poly_trim(f[:dg] if dg else [0], M)


def _newton_step(v, B, A, M):
    """v (2 - v B) mod A: squares the error 1 - v B of v as B^-1 mod A."""
    vB = _poly_divmod(poly_mul(v, B, M), A, M)[1]
    return _poly_divmod(poly_mul(v, _poly_add([2], [-x for x in vB], M), M),
                        A, M)[1]


def _lift_low_factor(P, A, v, p, r):
    """Lift the monic factor A of P from mod p to mod p^r.

    v inverts the cofactor P div A modulo (A, p).  Each pass doubles the
    precision m of A: with B, e = divmod(P, A), e = 0 mod p^m, so
    A + (v e mod A) divides P mod p^2m once v inverts B mod (A, p^m),
    which one Newton step restores.
    """
    m = 1
    while m < r:
        m = min(2 * m, r)
        Mm = p ** m
        B, e = _poly_divmod(P, A, Mm)
        v = _newton_step(v, B, A, Mm)
        A = _poly_add(A, _poly_divmod(poly_mul(v, e, Mm), A, Mm)[1], Mm)
    return A


def _unit_root_split(P, p, r):
    """P = low * unitpart mod p^r with low monic collecting roots of
    positive valuation (reduction X^w) and unitpart the coprime rest.  The
    lift covers w = 0 (e = P mod [1] = 0, so low = [1]) and w = deg P (B = 1,
    so each pass sets A = P mod p^m, and low = P, unitpart = [1])."""
    M = p ** r
    P = [c % M for c in P]
    w = 0
    while w < len(P) - 1 and P[w] % p == 0:
        w += 1
    # B0 = P div X^w mod p has a unit constant term, so Newton steps
    # modulo X^k, k doubling, invert it modulo X^w
    B0 = [c % p for c in P[w:]]
    v, k = [pow(B0[0], -1, p)], 1
    while k < w:
        k = min(2 * k, w)
        v = _newton_step(v, B0, [0] * k + [1], p)
    A = _lift_low_factor(P, [0] * w + [1], v, p, r)
    if len(A) != w + 1 or A[-1] != 1:
        raise InternalInconsistency(
            f"Hensel lift {A} is not monic of degree {w}")
    B, rem = _poly_divmod(P, A, M)
    if rem != [0]:
        raise InternalInconsistency(f"Hensel lift leaves remainder {rem}")
    return A, B


def _roots_over_p(f, p, r):
    """f(pX) / p^deg f mod p^(r - deg f), the roots of f divided by p;
    AmbiguousAtPrecision if a root of f has valuation below 1."""
    d = len(f) - 1
    out = []
    for i, c in enumerate(f):
        num = c % p ** r * p ** i
        if num % p ** d != 0:
            raise AmbiguousAtPrecision(
                "positive-valuation block has slopes below 1; "
                "integer cuts cannot separate it")
        out.append(num // p ** d % p ** max(r - d, 0))
    return out


def slope_factor(P, s, p, r):
    """(Q, R, loss): P = Q R mod p^(r - loss), Q holding root vals < s.

    Both factors are monic; s must be a positive integer and P monic
    mod p^r, else BadRange.  For s = 1, Q is the unit-root factor and R
    takes every root of positive valuation, fractional ones included.
    For s >= 2 a root of non-integral valuation below s raises
    AmbiguousAtPrecision.
    """
    if not isinstance(s, int) or s < 1:
        raise BadRange(f"slope cut {s!r} is not an integer >= 1")
    if r < 1:
        raise PrecisionExhausted("no working digits left for a slope split")
    if not P or P[-1] % p ** r != 1:
        raise BadRange(f"a {len(P)}-coefficient P is not monic mod {p}^{r}")
    low, unitpart = _unit_root_split(P, p, r)
    if s == 1:
        return unitpart, low, 0
    # n1 = 0: the recursion on [1] gives ([1], [1], 0), Q = unitpart, R = [1]
    n1 = len(low) - 1
    if r - n1 < 1:
        raise PrecisionExhausted(
            f"scaling by p^{n1} exhausts precision {r}")
    Qs, Rs, loss2 = slope_factor(_roots_over_p(low, p, r), s - 1, p, r - n1)
    if s == 2:
        # the s = 1 split files roots of valuation in (0, 1) under Rs;
        # here they lie in (s - 1, s), where an integer cut cannot go
        _roots_over_p(Rs, p, r - n1)
    loss = n1 + loss2
    Mq = p ** (r - loss)
    Q1 = [c * p ** (len(Qs) - 1 - i) % Mq for i, c in enumerate(Qs)]
    R1 = [c * p ** (len(Rs) - 1 - i) % Mq for i, c in enumerate(Rs)]
    Q = poly_mul(unitpart, Q1, Mq)
    return _poly_trim(Q, Mq), R1, loss


def ps_tp_inv(A, s, p, r):
    """(W, basis, prec): W = p^s * inverse of A on its slope < s part.

    basis (n x deg Q) spans that part and W is the matrix of p^s A^-1 on
    it in that basis: A basis W = p^s basis mod p^prec.  basis is K V's
    first deg Q columns: U K V = D, D_jj = 1 for j < deg Q, so K V = U^-1 D.
    """
    Q, R, loss = slope_factor(charpoly_mod(A, p, r), s, p, r)
    rank, prec = len(Q) - 1, r - loss
    if rank == 0:
        raise NotInvertible("no finite-slope part below the requested cut")
    M = p ** prec
    K = _poly_eval_matrix(R, A, M)
    sf = smith_mod(K, p, prec)
    if sf.exps != [0] * rank + [prec] * (len(A) - rank):
        raise AmbiguousAtPrecision(
            f"R(A) has divisors {sf.exps}, expected {rank} units")
    basis = mat_mul(K, [row[:rank] for row in sf.V], M)
    UAB = mat_mul(sf.U, mat_mul(A, basis, M), M)
    if any(any(row) for row in UAB[rank:]):
        # R(A) is a polynomial in A, so A maps its image into itself
        raise InternalInconsistency("A moves the image of R(A)")
    blk = smith_mod(UAB[:rank], p, prec)
    e_max = blk.exps[-1]
    if e_max > s:  # an exponent read as prec is >= prec in truth
        raise NotInvertible("scaled inverse is not integral at this slope")
    if e_max == prec:
        raise PrecisionExhausted(
            f"slope block reads as singular mod {p}^{prec}")
    # U0 M0 V0 = diag(p^e), so M0 V0 diag(p^(s - e)) U0 = p^s I
    scaled = [[x * p ** (s - e) for x in row]
              for row, e in zip(blk.U, blk.exps)]
    return mat_mul(blk.V, scaled, p ** (prec - e_max)), basis, prec - e_max
