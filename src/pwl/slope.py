"""Finite-slope machinery: Newton polygons, slope factors, projectors.

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
B = P div A.  Hensel uniqueness fixes A, the unit-root factor is the
exact quotient P div A, and no precision is lost.  Deeper cuts
substitute X -> pX, divide by the forced power of p (losing that much
precision, which is tracked), and recurse.

slope_projector turns the split into an idempotent pi = (v R)(M) from a
Bezout identity u Q + v R = 1 solved as a linear system; for s = 1 the
factors are coprime mod p and the system is always solvable, while for
deeper cuts an unsolvable system raises AmbiguousAtPrecision instead of
guessing.  ps_tp_inv restricts M to the image of pi and returns
p^s * (block inverse), the scaled inverse whose powers contract.  One
Smith form U pi V = diag(p^e) gives the block.  pi is idempotent, so
its divisors are 0 (rank times) and the precision, and the first rank
columns of U^-1 span its image.  As M keeps that image, U M U^-1 is
block upper triangular, with the block of M on the image in its top left
corner; a nonzero entry below that block is a bug trap.  The inverse
uses the division-free adjugate, so only the determinant's unit part is
ever inverted.
"""

from fractions import Fraction

from .errors import (AmbiguousAtPrecision, BadRange, InternalInconsistency,
                     NotInvertible, PrecisionExhausted)
from .linalg import charpoly_mod, identity_mat, mat_mul, smith_mod
from .padic import vp


class NewtonPolygon:
    """Lower hull of the coefficient valuations of a monic polynomial."""

    __slots__ = ("p", "r", "points", "censored", "vertices", "segments",
                 "ambiguous")

    def __init__(self, p, r, points, censored, vertices, segments, ambiguous):
        self.p, self.r = p, r
        self.points = points
        self.censored = censored
        self.vertices = vertices
        self.segments = segments
        self.ambiguous = ambiguous

    def root_valuations(self):
        """(valuation, multiplicity) pairs, one per segment."""
        return [(-s, length) for s, length in self.segments]

    def slope_multiplicity(self, val):
        for v, length in self.root_valuations():
            if v == val:
                return length
        return 0


def newton_polygon(coeffs, p, r):
    n = len(coeffs) - 1
    M = p ** r
    points = []
    censored = []
    for i, c in enumerate(coeffs):
        if c % M == 0:
            points.append((i, r))
            censored.append(True)
        else:
            points.append((i, min(vp(c, p), r)))
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
    segments = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        segments.append((Fraction(y2 - y1, x2 - x1), x2 - x1))
    on_hull = set()
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        for i in range(x1, x2 + 1):
            if (points[i][1] - y1) * (x2 - x1) == (y2 - y1) * (i - x1):
                on_hull.add(i)
    ambiguous = sorted(i for i in on_hull if censored[i])
    return NewtonPolygon(p, r, points, censored, hull, segments, ambiguous)


def _poly_trim(f, M):
    f = [c % M for c in f]
    while len(f) > 1 and f[-1] == 0:
        f.pop()
    return f


def _poly_mul(f, g, M):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] = (out[i + j] + a * b) % M
    return out


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
    vB = _poly_divmod(_poly_mul(v, B, M), A, M)[1]
    return _poly_divmod(_poly_mul(v, _poly_add([2], [-x for x in vB], M), M),
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
        A = _poly_add(A, _poly_divmod(_poly_mul(v, e, Mm), A, Mm)[1], Mm)
    return A


def _unit_root_split(P, p, r):
    """P = low * unitpart mod p^r with low monic collecting roots of
    positive valuation (reduction X^w) and unitpart the coprime rest."""
    M = p ** r
    P = [c % M for c in P]
    w = 0
    while w < len(P) - 1 and P[w] % p == 0:
        w += 1
    if w == 0:
        return [1], P
    if w == len(P) - 1:
        return P, [1]
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


def slope_factor(P, s, p, r):
    """(Q, R, loss): P = Q R mod p^(r - loss), Q holding root vals < s.

    Both factors are monic; s must be a positive integer and P monic
    mod p^r, else BadRange.
    """
    if s < 1:
        raise BadRange(f"slope cut {s} is below 1")
    if r < 1:
        raise PrecisionExhausted("no working digits left for a slope split")
    if P[-1] % p ** r != 1:
        raise BadRange(f"leading coefficient {P[-1]} is not 1 mod {p}^{r}")
    low, unitpart = _unit_root_split(P, p, r)
    if s == 1:
        return unitpart, low, 0
    n1 = len(low) - 1
    if n1 == 0:
        return unitpart, [1], 0
    if r - n1 < 1:
        raise PrecisionExhausted(
            f"scaling by p^{n1} exhausts precision {r}")
    M2 = p ** (r - n1)
    scaled = []
    for i, c in enumerate(low):
        num = c % p ** r * p ** i
        if num % p ** n1 != 0:
            raise AmbiguousAtPrecision(
                "positive-valuation block has slopes below 1; "
                "integer cuts cannot separate it")
        scaled.append(num // p ** n1 % M2)
    Qs, Rs, loss2 = slope_factor(scaled, s - 1, p, r - n1)
    loss = n1 + loss2
    Mq = p ** (r - loss)
    Q1 = [c * p ** (len(Qs) - 1 - i) % Mq for i, c in enumerate(Qs)]
    R1 = [c * p ** (len(Rs) - 1 - i) % Mq for i, c in enumerate(Rs)]
    Q = _poly_mul(unitpart, Q1, Mq)
    return _poly_trim(Q, Mq), R1, loss


def _bezout_pair(Q, R, p, r):
    """u, v with u Q + v R = 1 mod p^r via the resultant-style system."""
    n = (len(Q) - 1) + (len(R) - 1)
    if n == 0:
        return [1], [0]
    cols = []
    for i in range(len(R) - 1):          # u X^i Q
        col = [0] * n
        for j, c in enumerate(Q):
            if i + j < n:
                col[i + j] = c
        cols.append(col)
    for i in range(len(Q) - 1):          # v X^i R
        col = [0] * n
        for j, c in enumerate(R):
            if i + j < n:
                col[i + j] = c
        cols.append(col)
    mat = [[cols[j][i] for j in range(n)] for i in range(n)]
    rhs = [1] + [0] * (n - 1)
    sol = smith_mod(mat, p, r).solve(rhs)
    if sol is None:
        raise AmbiguousAtPrecision(
            "slope factors are not coprime at this precision")
    u = sol[:len(R) - 1] or [0]
    v = sol[len(R) - 1:] or [0]
    return u, v


def _poly_eval_matrix(f, A, M):
    n = len(A)
    out = [[0] * n for _ in range(n)]
    power = identity_mat(n)
    for c in f:
        if c:
            for i in range(n):
                for j in range(n):
                    out[i][j] = (out[i][j] + c * power[i][j]) % M
        power = mat_mul(power, A, M)
    return out


def slope_projector(A, s, p, r):
    """(pi, rank, prec): idempotent onto the root-valuation < s part of A."""
    P = charpoly_mod(A, p, r)
    Q, R, loss = slope_factor(P, s, p, r)
    prec = r - loss
    u, v = _bezout_pair(Q, R, p, prec)
    M = p ** prec
    pi = _poly_eval_matrix(_poly_mul(v, R, M), A, M)
    pi2 = mat_mul(pi, pi, M)
    if pi2 != pi:
        raise AmbiguousAtPrecision("projector fails to be idempotent")
    return pi, len(Q) - 1, prec


def ps_tp_inv(A, s, p, r):
    """(W, basis, prec): W = p^s * inverse of A on its slope < s part.

    basis columns span the image of the slope projector; W is the matrix
    of p^s A^{-1} on that image in the given basis.
    """
    pi, rank, prec = slope_projector(A, s, p, r)
    if rank == 0:
        raise NotInvertible("no finite-slope part below the requested cut")
    M = p ** prec
    sf = smith_mod(pi, p, prec)
    if sf.exps.count(0) != rank:
        raise AmbiguousAtPrecision(
            f"projector image has divisors {sf.exps}, expected rank {rank}")
    # exps ascend, so the first rank Smith coordinates span the image of pi
    basis = [row[:rank] for row in sf.Uinv]  # n x rank
    UAB = mat_mul(sf.U, mat_mul(A, basis, M), M)
    if any(any(row) for row in UAB[rank:]):
        # pi is a polynomial in A, so A maps the image of pi into itself
        raise InternalInconsistency("A moves the projector image")
    M0 = UAB[:rank]
    coeffs = charpoly_mod(M0, p, prec)
    det = (-1) ** rank * coeffs[0] % M
    if det == 0:
        raise NotInvertible("slope block determinant vanishes at this precision")
    vdet = vp(det, p)
    # adjugate via Cayley-Hamilton, no divisions
    adj = _poly_eval_matrix(coeffs[1:], M0, M)
    sign = (-1) ** (rank - 1) % M
    adj = [[x * sign % M for x in row] for row in adj]
    if mat_mul(M0, adj, M) != [[det if a == b else 0 for b in range(rank)]
                               for a in range(rank)]:
        raise InternalInconsistency("block times adjugate is not det * I")
    unit_inv = pow(det // p ** vdet, -1, M)
    out_prec = prec - max(0, vdet - s)
    if out_prec < 1:
        raise PrecisionExhausted("scaled inverse has no certified digits")
    Mo = p ** out_prec
    W = [[0] * rank for _ in range(rank)]
    for a in range(rank):
        for b in range(rank):
            num = adj[a][b] * unit_inv % M * p ** s
            if vdet > s:
                if num % p ** (vdet - s) != 0:
                    raise NotInvertible(
                        "scaled inverse is not integral at this slope")
                num //= p ** (vdet - s)
            W[a][b] = num % Mo
    return W, basis, out_prec

