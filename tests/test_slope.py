"""Newton polygons, slope splits and scaled inverses."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pwl import slope
from pwl.errors import (AmbiguousAtPrecision, BadRange, DimensionMismatch,
                        InternalInconsistency, NotInvertible,
                        PrecisionExhausted)
from pwl.linalg import charpoly_mod, mat_mul, smith_mod
from pwl.slope import newton_polygon, ps_tp_inv, slope_factor
from reference import schoolbook_mul


def from_roots(roots, M):
    P = [1]
    for rt in roots:
        P = schoolbook_mul(P, [(-rt) % M, 1], M)
    return P


def ref_trim(f, M):
    f = [c % M for c in f]
    while len(f) > 1 and f[-1] == 0:
        f.pop()
    return f


def ref_add(f, g, M):
    n = max(len(f), len(g))
    return [((f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0)) % M
            for i in range(n)]


def ref_sub(f, g, M):
    return ref_add(f, [-c for c in g], M)


def ref_divmod(f, g, M):
    """Division by a polynomial with unit leading coefficient."""
    f = list(f)
    dg = len(g) - 1
    lead_inv = pow(g[-1], -1, M)
    q = [0] * max(1, len(f) - dg)
    for i in range(len(f) - 1, dg - 1, -1):
        c = f[i] * lead_inv % M
        q[i - dg] = c
        for j in range(dg + 1):
            f[i - dg + j] = (f[i - dg + j] - c * g[j]) % M
    return ref_trim(q, M), ref_trim(f[:dg] if dg else [0], M)


def ref_gcd_bezout_modp(f, g, p):
    """(gcd, u, v) with u f + v g = gcd over the prime field, by Euclid."""
    r0, r1 = ref_trim(f, p), ref_trim(g, p)
    u0, u1 = [1], [0]
    v0, v1 = [0], [1]
    while r1 != [0]:
        q, rem = ref_divmod(r0, r1, p)
        r0, r1 = r1, rem
        u0, u1 = u1, ref_trim(ref_sub(u0, schoolbook_mul(q, u1, p), p), p)
        v0, v1 = v1, ref_trim(ref_sub(v0, schoolbook_mul(q, v1, p), p), p)
    return r0, u0, v0


def ref_hensel_pair(P, A, B, u, v, p, r):
    """Lift P = A B with u A + v B = 1 from mod p to mod p^r, all four
    polynomials at once."""
    m = 1
    while m < r:
        m = min(2 * m, r)
        Mm = p ** m
        e = ref_sub(P, schoolbook_mul(A, B, Mm), Mm)
        qa, ra = ref_divmod(schoolbook_mul(v, e, Mm), A, Mm)
        A = ref_trim(ref_add(A, ra, Mm), Mm)
        B = ref_trim(ref_add(B, ref_add(schoolbook_mul(u, e, Mm),
                                        schoolbook_mul(qa, B, Mm), Mm), Mm),
                     Mm)
        g = ref_sub(ref_add(schoolbook_mul(u, A, Mm),
                            schoolbook_mul(v, B, Mm), Mm), [1], Mm)
        u = ref_trim(ref_sub(u, schoolbook_mul(u, g, Mm), Mm), Mm)
        v = ref_trim(ref_sub(v, schoolbook_mul(v, g, Mm), Mm), Mm)
    return A, B


def ref_unit_root_split(P, p, r):
    """(low, unitpart) of a monic P: Euclid mod p, then the four-polynomial
    Hensel lift, then one division for the cofactor."""
    M = p ** r
    P = [c % M for c in P]
    w = 0
    while w < len(P) - 1 and P[w] % p == 0:
        w += 1
    if w == 0:
        return [1], P
    if w == len(P) - 1:
        return P, [1]
    A0, B0 = [0] * w + [1], [c % p for c in P[w:]]
    g0, u0, v0 = ref_gcd_bezout_modp(A0, B0, p)
    assert g0 != [0] and len(g0) == 1
    scal = pow(g0[0], -1, p)
    A, _ = ref_hensel_pair(P, A0, B0, [c * scal % p for c in u0],
                           [c * scal % p for c in v0], p, r)
    B, rem = ref_divmod(P, A, M)
    assert rem == [0]
    return A, B


def test_polygon_two_segments():
    p, r = 3, 6
    # constant has valuation 3, middle 1, leading 0
    poly = newton_polygon([27 * 2, -3, 1], p, r)
    assert poly.vertices == [(0, 3), (1, 1), (2, 0)]
    assert poly.root_valuations() == [("2", 1), ("1", 1)]
    assert poly.ambiguous == []


def test_polygon_from_linear_factors():
    # keep r above any possible total valuation so no vertex is censored
    p, r = 3, 13
    M = p ** r
    rng = random.Random(5)
    for _ in range(10):
        vals = sorted(rng.choice([0, 0, 1, 2, 3]) for _ in range(4))
        roots = []
        for v in vals:
            u = rng.randrange(1, M)
            while u % p == 0:
                u = rng.randrange(1, M)
            roots.append(u * p ** v % M)
        poly = newton_polygon(from_roots(roots, M), p, r)
        got = sorted((v, m) for v, m in poly.root_valuations())
        want = sorted((str(v), vals.count(v)) for v in set(vals))
        assert got == want


@pytest.mark.parametrize("coeffs, want", [
    ([-3, 0, 1], [("1/2", 2)]),        # X^2 - 3
    ([9, 0, 0, 0, 1], [("1/2", 4)]),   # rise -2 over run 4, in lowest terms
    ([9, 0, 0, 1], [("2/3", 3)]),      # X^3 - 9
    ([5, 1, 1], [("0", 2)]),           # unit roots only
])
def test_root_valuation_strings(coeffs, want):
    # each valuation is the string Fraction(-rise, run) prints
    poly = newton_polygon(coeffs, 3, 6)
    oracle = [(str(Fraction(y1 - y2, x2 - x1)), x2 - x1) for (x1, y1), (x2, y2)
              in zip(poly.vertices, poly.vertices[1:])]
    assert poly.root_valuations() == oracle == want


def test_polygon_censored_vertex_flagged():
    p, r = 3, 4
    poly = newton_polygon([0, 0, 1], p, r)
    assert poly.censored[0] and poly.censored[1]
    assert 0 in poly.ambiguous
    clean = newton_polygon([3, 1, 1], p, r)
    assert clean.ambiguous == []


def test_polygon_interior_point_on_hull_flagged():
    p, r = 3, 2
    # exact zero in the middle sits on the hull at height r
    poly = newton_polygon([81, 0, 1], p, r)
    assert poly.vertices == [(0, 2), (2, 0)]
    assert 0 in poly.ambiguous


def test_unit_root_split_random_products():
    p, r = 3, 6
    M = p ** r
    rng = random.Random(11)
    for _ in range(20):
        units = [rng.randrange(1, M) for _ in range(2)]
        units = [u + 1 if u % p == 0 else u for u in units]
        smalls = [p * rng.randrange(1, M // p) for _ in range(2)]
        Q = from_roots(units, M)
        R = from_roots(smalls, M)
        P = schoolbook_mul(Q, R, M)
        Qg, Rg, loss = slope_factor(P, 1, p, r)
        assert loss == 0
        assert Qg == Q and Rg == R


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((3, 23, 43)), st.integers(1, 24), st.integers(1, 40),
       st.integers(0, 40), st.randoms(use_true_random=False))
@example(3, 5, 7, 0, random.Random(1))
@example(23, 24, 40, 40, random.Random(2))
@example(43, 1, 9, 4, random.Random(3))
def test_unit_root_split_matches_euclid_hensel(p, r, deg, w, rng):
    # P mod p is X^w times a polynomial with a unit constant term
    M = p ** r
    w = min(w, deg)
    P = [rng.randrange(M) for _ in range(deg)] + [1]
    for i in range(w):
        P[i] = P[i] * p % M
    if w < deg and P[w] % p == 0:
        P[w] += 1
    low, unitpart = ref_unit_root_split(P, p, r)
    assert len(low) - 1 == w
    assert slope_factor(P, 1, p, r) == (unitpart, low, 0)
    assert schoolbook_mul(low, unitpart, M) == P


def test_unit_root_split_traps(monkeypatch):
    # unreachable with a correct Hensel lift: inject wrong ones
    P = [3, 77, 1]                       # (X - 3)(X - 1) mod 3^4
    for lift, msg in (([0, 2], "monic"), ([0, 1], "remainder")):
        monkeypatch.setattr(slope, "_lift_low_factor",
                            lambda P, A, v, p, r, lift=lift: lift)
        with pytest.raises(InternalInconsistency, match=msg):
            slope_factor(P, 1, 3, 4)
    monkeypatch.undo()
    assert slope_factor(P, 1, 3, 4) == ([80, 1], [78, 1], 0)


def test_slope_factor_trivial_sides():
    p, r = 3, 6
    M = p ** r
    Q = from_roots([2, 5], M)
    Qg, Rg, loss = slope_factor(Q, 1, p, r)
    assert (Qg, Rg, loss) == (Q, [1], 0)
    R = from_roots([3, 9], M)
    Qg, Rg, loss = slope_factor(R, 1, p, r)
    assert (Qg, Rg, loss) == ([1], R, 0)


@pytest.mark.parametrize("P, s, unit_only", [
    ([-1, 5, 7 * 81, 82], 1, True),      # a unit constant term: w = 0
    ([-1, 5, 7 * 81, 82], 2, True),      # only unit roots, cut at 2
    ([5, 82], 3, True),
    ([82], 1, True),                      # deg P = 0: w = 0 = deg P
    ([-3, 6 * 81 + 9, 3, 82], 1, False),  # P = X^3 mod 3: w = deg P
    ([3 + 81, 82], 1, False),
])
def test_slope_factor_one_sided_splits(P, s, unit_only):
    # the lift from X^w serves w = 0 and w = deg P: P comes back mod 3^4
    # on its own side, [1] on the other, with no loss
    red = [c % 81 for c in P]
    want = (red, [1], 0) if unit_only else ([1], red, 0)
    assert slope_factor(P, s, 3, 4) == want


def test_slope_factor_depth_two():
    p, r = 3, 8
    M = p ** r
    rng = random.Random(23)
    for _ in range(10):
        u = 3 * rng.randrange(1, M // 3) + 1
        w = 3 * rng.randrange(1, M // 3) + 2
        t = rng.randrange(1, M)
        if t % p == 0:
            t += 1
        roots = [u, 3 * w % M, 9 * t % M]
        P = from_roots(roots, M)
        Qg, Rg, loss = slope_factor(P, 2, p, r)
        assert loss == 2
        Mq = p ** (r - loss)
        assert Qg == [c % Mq for c in from_roots([u, 3 * w % M], Mq)]
        assert Rg == [c % Mq for c in from_roots([9 * t % M], Mq)]
        assert schoolbook_mul(Qg, Rg, Mq) == [c % Mq for c in P]


def test_slope_factor_depth_three_loss():
    p, r = 3, 9
    M = p ** r
    roots = [2, 3 * 2, 9 * 5, 27 * 4]
    P = from_roots(roots, M)
    Qg, Rg, loss = slope_factor(P, 3, p, r)
    assert loss == 5
    Mq = p ** (r - loss)
    assert Qg == [c % Mq for c in from_roots(roots[:3], Mq)]
    assert Rg == [c % Mq for c in from_roots(roots[3:], Mq)]


def test_slope_factor_refuses_fractional_slopes():
    p, r = 3, 6
    P = [(-3) % 3 ** r, 0, 1]
    Qg, Rg, loss = slope_factor(P, 1, p, r)
    assert Qg == [1] and Rg == P
    with pytest.raises(AmbiguousAtPrecision):
        slope_factor(P, 2, p, r)
    # roots of valuation 3/2 below the cut 2, and 5/2 below the cut 3
    for c, s in ((27, 2), (3 ** 5, 3)):
        with pytest.raises(AmbiguousAtPrecision):
            slope_factor([(-c) % 3 ** 8, 0, 1], s, p, 8)


def test_slope_factor_rejects_non_monic():
    with pytest.raises(BadRange):
        slope_factor([3, 1, 2], 1, 5, 3)


def test_empty_polynomials_raise_bad_range():
    with pytest.raises(BadRange):
        newton_polygon([], 3, 2)
    with pytest.raises(BadRange):
        slope_factor([], 1, 3, 2)


def test_ps_tp_inv_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        ps_tp_inv([[1, 2]], 1, 3, 2)


def test_slope_factor_rejects_cut_below_one():
    with pytest.raises(BadRange):
        slope_factor([25, 5, 1], 0, 5, 3)


def conjugated_block(p, r, rng, unit_diag, small_diag):
    """Random invertible conjugate of an upper triangular two-block matrix."""
    M = p ** r
    n = len(unit_diag) + len(small_diag)
    D = [[0] * n for _ in range(n)]
    for i, x in enumerate(unit_diag + small_diag):
        D[i][i] = x % M
        if i + 1 < n:
            D[i][i + 1] = rng.randrange(M)
    # separate the blocks so the coupling entry stays inside one of them
    if 0 < len(unit_diag) < n:
        D[len(unit_diag) - 1][len(unit_diag)] = 0
    while True:
        S = [[rng.randrange(M) for _ in range(n)] for _ in range(n)]
        sf = smith_mod(S, p, r)
        if sf.exps == [0] * n:
            break
    # U S V = I, so S^-1 = V U
    return mat_mul(mat_mul(S, D, M), mat_mul(sf.V, sf.U, M), M), S


def test_scaled_inverse_properties():
    p, r = 3, 7
    rng = random.Random(19)
    A, S = conjugated_block(p, r, rng, [4, 7], [3, 12])
    W, basis, prec = ps_tp_inv(A, 1, p, r)
    assert prec == r
    M = p ** prec
    n, k = 4, 2
    # A * basis * W = p * basis, column by column
    BW = [[sum(basis[i][t] * W[t][j] for t in range(k)) % M
           for j in range(k)] for i in range(n)]
    ABW = mat_mul(A, BW, M)
    for i in range(n):
        for j in range(k):
            assert ABW[i][j] == p * basis[i][j] % M


def assert_nilpotent(W, p):
    """W^(k m) = 0 mod p^m for m = 1, 2, 3, k = len(W): the scaled
    inverse contracts."""
    k = len(W)
    for m in (1, 2, 3):
        Mm = p ** m
        power = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
        for _ in range(k * m):
            power = mat_mul(power, W, Mm)
        assert all(x == 0 for row in power for x in row)


def test_scaled_inverse_nilpotence():
    p, r = 3, 7
    rng = random.Random(31)
    A, S = conjugated_block(p, r, rng, [2, 8], [3, 15])
    W, basis, prec = ps_tp_inv(A, 1, p, r)
    assert_nilpotent(W, p)


def test_no_unit_part_raises():
    p, r = 3, 6
    A = [[3, 1], [0, 9]]
    with pytest.raises(NotInvertible):
        ps_tp_inv(A, 1, p, r)


def test_scaled_inverse_traps_non_invariant_image(monkeypatch):
    # A = [[2, 1], [3, 3]] has one unit root; span(e1), injected as the
    # image of R(A), is not A-stable, as the image of a polynomial in A is
    monkeypatch.setattr(slope, "_poly_eval_matrix",
                        lambda f, A, M: [[1, 0], [0, 0]])
    with pytest.raises(InternalInconsistency):
        ps_tp_inv([[2, 1], [3, 3]], 1, 3, 4)


@pytest.mark.parametrize("call, args, error, match", [
    (slope_factor, ([0, 1], 1, 3, 0), PrecisionExhausted, "no working"),
    (slope_factor, ([0, 0, 1], 2, 3, 2), PrecisionExhausted, "exhausts"),
    # (X - 3)(X - 9) at s = 2: R(A) = A - 9 has divisor 3 on the block
    (ps_tp_inv, ([[3, 0], [0, 9]], 2, 3, 9), AmbiguousAtPrecision,
     "divisors"),
    # a Jordan block of 3: 9 A^-1 has the entry 1/3
    (ps_tp_inv, ([[3, 1, 0], [0, 3, 1], [0, 0, 3]], 2, 3, 9), NotInvertible,
     "not integral"),
    # the same block at r = 6 keeps 3 digits, where its exponent 3 reads
    # as prec: still above s, so certified
    (ps_tp_inv, ([[3, 1, 0], [0, 3, 1], [0, 0, 3]], 2, 3, 6), NotInvertible,
     "not integral"),
    # X - 3 at s = 2 leaves one digit, where the block reads as 0
    (ps_tp_inv, ([[3]], 2, 3, 2), PrecisionExhausted, "singular"),
    # a cut must be an int: a float would come back as a float matrix
    (slope_factor, ([1, 0, 1], 1.5, 3, 4), BadRange, "not an integer"),
    (ps_tp_inv, ([[2, 0], [0, 4]], 1.5, 3, 4), BadRange, "not an integer"),
    (ps_tp_inv, ([[2, 0], [0, 4]], 2.0, 3, 4), BadRange, "not an integer"),
], ids=["no-digits", "scaling-exhausts", "R(A)-divisors", "non-integral",
        "non-integral-at-prec", "singular", "float-cut", "float-cut-ps",
        "integral-float-cut-ps"])
def test_slope_errors(call, args, error, match):
    with pytest.raises(error, match=match):
        call(*args)


def unit(rng, M, p):
    u = rng.randrange(1, M)
    return u if u % p else u + 1


@pytest.mark.parametrize("s", (1, 2, 3))
def test_scaled_inverse_oracle(s):
    """A = S D S^-1 with D upper triangular, its diagonal of prescribed
    valuations in ascending order, so the slope < s lattice is spanned by
    the first k columns of S.  Whenever ps_tp_inv answers, its basis spans
    that lattice and A B W = p^s B at the precision it claims."""
    p, r = 3, 9
    rng = random.Random(40 + s)
    answered = 0
    for _ in range(40):
        n = rng.randint(1, 5)
        vals = sorted(rng.choice((0, 1, 2, 3)) for _ in range(n))
        diag = [unit(rng, p ** r, p) * p ** v for v in vals]
        k = sum(v < s for v in vals)
        A, S = conjugated_block(p, r, rng, diag[:k], diag[k:])
        try:
            W, B, prec = ps_tp_inv(A, s, p, r)
        except (AmbiguousAtPrecision, NotInvertible, PrecisionExhausted):
            continue
        answered += 1
        M = p ** prec
        Q = slope_factor(charpoly_mod(A, p, r), s, p, r)[0]
        assert len(B[0]) == len(Q) - 1 == k
        ABW = mat_mul(A, mat_mul(B, W, M), M)
        assert ABW == [[p ** s * x % M for x in row] for row in B]
        span = smith_mod(B, p, prec)
        AB = mat_mul(A, B, M)
        assert all(span.solve([row[j] for row in AB]) is not None
                   for j in range(k))
        sf = smith_mod(S, p, r)
        C = mat_mul(mat_mul(sf.V, sf.U, M), B, M)    # S^-1 B
        assert all(x == 0 for row in C[k:] for x in row)
        assert smith_mod(C[:k], p, prec).exps == [0] * k
    assert answered >= 10


def test_scaled_inverse_non_unit_determinant():
    # both roots 6 and 5 lie below the cut 2; det A = 30 is not a unit
    A = [[6, 1], [0, 5]]
    W, B, prec = ps_tp_inv(A, 2, 3, 9)
    assert B == [[1, 0], [0, 1]] and prec == 7
    assert mat_mul(A, W, 3 ** prec) == [[9, 0], [0, 9]]

