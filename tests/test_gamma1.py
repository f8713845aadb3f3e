"""Cosets, free generating sets, and word rewriting."""

import functools
import hashlib
import math
import random
from fractions import Fraction

import pytest

from pwl import gamma1
from pwl.cohomology import _gamma1_quotient, _partner_words, t_ell_reps
from pwl.errors import BadLevel, InternalInconsistency, NotCoprime, NotInGroup
from pwl.gamma1 import (ROT, SIX, _free_reduce, _proj_canon, _st_decompose,
                        free_basis, in_gamma1)
from pwl.matrices import IntMat

T_MAT = IntMat(1, 1, 0, 1)


@functools.lru_cache
def cosets(N):
    """The projective cosets at level N as free_basis indexes them (sorted
    canonical bottom rows) and the permutation u = s t makes of them."""
    rows = sorted({_proj_canon(c, d, N, (1, -1)) for c in range(N)
                   for d in range(N) if math.gcd(c, d, N) == 1})
    index = {row: i for i, row in enumerate(rows)}
    return rows, [index[_proj_canon(d, d - c, N, (1, -1))] for c, d in rows]


def coset_of(basis, mat):
    """Index of the projective coset of mat's bottom row, by a scan."""
    row = _proj_canon(mat.c, mat.d, basis.N, (1, -1))
    return cosets(basis.N)[0].index(row)


def tree_lifts(basis):
    """A lift of every coset, up to sign, read off the rewriting table: an
    edge x -> y by the step g whose word is empty has lift_y = +-lift_x g,
    and these edges include the spanning tree, rooted at the identity."""
    perm_u = cosets(basis.N)[1]
    edges = {}
    for (x, g), word in basis.expr.items():
        if not word:
            y, step = ((basis.perm_s[x], ROT) if g == "s"
                       else (perm_u[x], SIX))
            edges.setdefault(x, []).append((y, step))
            edges.setdefault(y, []).append((x, step.inverse()))
    lifts = {basis.root: IntMat.identity()}
    order = [basis.root]
    for x in order:  # order grows while it is walked
        for y, step in edges.get(x, ()):
            if y not in lifts:
                lifts[y] = lifts[x] * step
                order.append(y)
    return [lifts[x] for x in range(basis.mu)]


def floor_st_decompose(mat):
    """mat as ('s',) and ('t', e) tokens up to sign, by Euclid with floor
    quotients (t^0 tokens kept)."""
    a, b, c, d = mat.entries()
    ops = []
    while c != 0:
        k = -(a // c)
        a, b = a + k * c, b + k * d
        ops.append(k)
        a, b, c, d = -c, -d, a, b
    word = []
    for k in ops:
        word.append(("t", -k))
        word.append(("s",))
    if a * b != 0:
        word.append(("t", a * b))
    return word


def ref_express(basis, mat):
    """The rewriting walk one s or u step at a time over the floor tokens,
    with t^e walked as (s u)^e and t^-e as (u^-1 s)^e."""
    perm_u = cosets(basis.N)[1]
    perm_u_inv = [0] * basis.mu
    for i, j in enumerate(perm_u):
        perm_u_inv[j] = i
    out = []
    cur = basis.root
    for tok in floor_st_decompose(mat):
        if tok[0] == "s":
            moves = ["s"]
        else:
            moves = ["s", "u"] * tok[1] if tok[1] > 0 else ["u-", "s"] * -tok[1]
        for g in moves:
            if g == "s":
                out.extend(basis.expr[(cur, "s")])
                cur = basis.perm_s[cur]
            elif g == "u":
                out.extend(basis.expr[(cur, "u")])
                cur = perm_u[cur]
            else:
                cur = perm_u_inv[cur]
                out.extend(-x for x in reversed(basis.expr[(cur, "u")]))
    assert cur == basis.root
    return tuple(_free_reduce(out))


def sl2_index(N):
    """[SL_2(Z) : Gamma_1(N)] = N^2 prod_{l | N} (1 - l^-2), in closed form."""
    index = Fraction(N * N)
    for ell in range(2, N + 1):
        if N % ell == 0 and all(ell % q for q in range(2, ell)):
            index *= 1 - Fraction(1, ell * ell)
    return index


def word_matrix(basis, word):
    m = IntMat.identity()
    for k in word:
        g = basis.gens[abs(k) - 1]
        m = m * (g if k > 0 else g.inverse())
    return m


# sha256 over N, the entries of every generator in order and the sorted
# rewriting table, for N = 4..40, 43 and 53: any change to the basis, its
# order or a rewriting entry fails here (a charpoly would not see it)
PINNED_BASES = "7fb2fbdc5cc633bd1a0ebf9dbee38049ec2a315490c600b86ddb5aea265ad974"


def test_free_basis_is_pinned():
    h = hashlib.sha256()
    for N in [*range(4, 41), 43, 53]:
        fb = free_basis(N)
        h.update(repr((N, [g.entries() for g in fb.gens],
                       sorted(fb.expr.items()))).encode())
    assert h.hexdigest() == PINNED_BASES


def test_coset_counts():
    # each projective coset is a pair of bottom rows +-(c, d)
    for N, count in [(5, 24), (7, 48), (9, 72), (11, 120)]:
        assert sl2_index(N) == count
        assert 2 * free_basis(N).mu == count


def test_coset_counts_match_index_formula():
    for N in range(5, 31):
        fb = free_basis(N)
        assert 2 * fb.mu == sl2_index(N)
        assert fb.rank() == 1 + fb.mu // 6


def test_coset_permutation_relations():
    for N in (5, 7, 9, 11):
        fb = free_basis(N)
        perm_u = cosets(N)[1]
        n = fb.mu
        assert sorted(fb.perm_s) == list(range(n))
        assert sorted(perm_u) == list(range(n))
        # s^2 = u^3 = 1 in PSL_2(Z); the level subgroup is torsion-free,
        # so neither s nor u fixes a coset; t = s^-1 u acts as s then u
        for i in range(n):
            assert fb.perm_s[i] != i and fb.perm_s[fb.perm_s[i]] == i
            assert perm_u[i] != i
            assert perm_u[perm_u[perm_u[i]]] == i
            assert fb.perm_t[i] == perm_u[fb.perm_s[i]]


def test_coset_of_matches_action():
    fb = free_basis(7)
    m = ROT * T_MAT * ROT * T_MAT * T_MAT
    perm_u = cosets(7)[1]
    i = coset_of(fb, m)
    assert fb.perm_s[i] == coset_of(fb, m * ROT)
    assert perm_u[i] == coset_of(fb, m * SIX)
    # t = s^-1 u, and s^-1 = -s acts on cosets as s does
    assert perm_u[fb.perm_s[i]] == coset_of(fb, m * T_MAT)
    assert fb.perm_t[i] == coset_of(fb, m * T_MAT)


def test_t_orbits():
    # the t-orbit of a coset has width w_x dividing N, and the loop word of
    # t^w_x replays to lift t^w_x lift^-1 up to sign
    for N in (4, 6, 12, 13):
        fb = free_basis(N)
        lifts = tree_lifts(fb)
        for x in range(fb.mu):
            w = fb.width[x]
            assert N % w == 0
            y = x
            for k in range(w):
                assert k == 0 or y != x
                y = fb.perm_t[y]
            assert y == x
            lift = lifts[x]
            m = lift * IntMat(1, w, 0, 1) * lift.inverse()
            minus_m = IntMat(*(-e for e in m.entries()))
            assert word_matrix(fb, fb.loop[x]) in (m, minus_m)


def test_free_ranks():
    for N, rank in [(5, 3), (7, 5), (9, 7), (11, 11)]:
        fb = free_basis(N)
        assert fb.rank() == rank
        assert 2 * fb.mu == sl2_index(N)
        assert fb.rank() == 1 + fb.mu // 6


def test_generators_in_group():
    for N in (5, 9, 11):
        fb = free_basis(N)
        assert len(set(g.entries() for g in fb.gens)) == fb.rank()
        for g in fb.gens:
            assert in_gamma1(g, N)
            assert g != IntMat.identity()


def test_transversal_properties():
    for N in (5, 9):
        fb = free_basis(N)
        for t, lift in enumerate(tree_lifts(fb)):
            assert coset_of(fb, lift) == t


def test_express_single_letters():
    fb = free_basis(7)
    for i, g in enumerate(fb.gens):
        assert fb.express(g) == (i + 1,)
        assert fb.express(g.inverse()) == (-(i + 1),)
    assert fb.express(IntMat.identity()) == ()


def test_express_round_trip():
    for N in (5, 9, 11):
        fb = free_basis(N)
        rng = random.Random(100 + N)
        for _ in range(40):
            word = [rng.choice([1, -1]) * rng.randrange(1, fb.rank() + 1)
                    for _ in range(rng.randrange(0, 9))]
            m = word_matrix(fb, word)
            assert fb.express(m) == tuple(_free_reduce(word))


def test_express_translation_powers():
    # every power of the unit translation lies in the subgroup
    fb = free_basis(5)
    for e in (1, 2, 5, -3):
        m = IntMat(1, e, 0, 1)
        assert in_gamma1(m, 5)
        assert word_matrix(fb, fb.express(m)) == m


EXPRESS_LEVELS = (4, 5, 6, 8, 12, 23, 37)


@pytest.mark.parametrize("N", EXPRESS_LEVELS)
def test_express_matches_unit_step_walk(N):
    # random words of 0..40 letters: the nearest-integer walk with whole
    # t-power jumps, the per-unit s/u walk and the reduced word all agree;
    # the nearest-integer decomposition never takes more s letters than the
    # floor one, and fewer tokens (s letters and nonzero t-powers) over the
    # sample
    fb = free_basis(N)
    rng = random.Random(300 + N)
    near = floor = 0
    for _ in range(60):
        word = [rng.choice([1, -1]) * rng.randrange(1, fb.rank() + 1)
                for _ in range(rng.randrange(0, 41))]
        m = word_matrix(fb, word)
        assert fb.express(m) == ref_express(fb, m) == tuple(_free_reduce(word))
        exps = _st_decompose(m)
        toks = floor_st_decompose(m)
        assert len(exps) - 1 <= toks.count(("s",))
        near += len(exps) - 1 + sum(1 for e in exps if e)
        floor += sum(1 for tok in toks if tok[0] == "s" or tok[1])
    assert near < floor


@pytest.mark.parametrize("N", EXPRESS_LEVELS)
def test_express_t_powers(N):
    # lift_x t^e lift_y^-1 for the coset y = x t^e, with e beyond the orbit
    # width w, negative, and a multiple of it; up to sign in the subgroup
    fb = free_basis(N)
    rng = random.Random(400 + N)
    cosets = range(fb.mu) if fb.mu <= 48 else rng.sample(range(fb.mu), 40)
    lifts = tree_lifts(fb)
    for x in cosets:
        w = fb.width[x]
        for e in (w + 1, -(w + 1), 3 * w + w // 2, -2 * w, 7 * w, -1):
            y = x
            for _ in range(e % w):
                y = fb.perm_t[y]
            m = lifts[x] * IntMat(1, e, 0, 1) * lifts[y].inverse()
            if not in_gamma1(m, N):
                m = IntMat(*(-v for v in m.entries()))
            assert in_gamma1(m, N)
            red = fb.express(m)
            assert red == ref_express(fb, m)
            assert word_matrix(fb, red) == m


@pytest.mark.parametrize("N", (11, 23))
def test_express_on_hecke_translates(N):
    # every word the T_ell operators of a small prime and of N rewrite
    fb = free_basis(N)
    for ell in (2, 3, N):
        reps = t_ell_reps(ell, fb)
        _, words = _partner_words(fb, reps)
        for g, row in zip(fb.gens, words):
            for A, word in zip(reps, row):
                # the partner by a scan over every rep
                scan = [_gamma1_quotient(A * g, B, N, (1,)) for B in reps]
                G = next(G for G in scan if G is not None)
                assert word == ref_express(fb, G)


def test_express_rejects_outsiders():
    fb = free_basis(5)
    with pytest.raises(NotInGroup):
        fb.express(ROT)
    with pytest.raises(NotInGroup):
        fb.express(IntMat(2, 1, 1, 1))
    with pytest.raises(NotInGroup):
        fb.express(IntMat(1, 0, 5, 6))


def test_level_guard():
    with pytest.raises(BadLevel):
        free_basis(3)
    with pytest.raises(BadLevel):
        free_basis(0)


def test_basis_lift_check_raises(monkeypatch):
    # a wrong u-step lifts every coset onto its parent's bottom row
    monkeypatch.setattr(gamma1, "SIX", IntMat.identity())
    with pytest.raises(InternalInconsistency, match="lift of coset"):
        free_basis(7)


def test_express_replay_check_raises():
    # a wrong loop word still closes the walk; the exact replay catches it
    fb = free_basis(7)
    assert fb.width[fb.root] == 1
    fb.loop[fb.root] = ()
    with pytest.raises(InternalInconsistency, match="replayed word"):
        fb.express(IntMat(1, 5, 0, 1))


def _legendre(a, N):
    return 0 if a % N == 0 else (1 if pow(a, (N - 1) // 2, N) == 1 else -1)


# prime N, a primitive root g mod N, and the generator count of Gamma_0(N)
GAMMA0_CASES = [(5, 2, 3), (7, 3, 3), (11, 2, 3), (13, 2, 5), (23, 5, 5),
                (37, 2, 9), (43, 3, 9), (53, 2, 11)]


@pytest.mark.parametrize("N, g, rank", GAMMA0_CASES)
def test_gamma0_presentation(N, g, rank):
    # H = <g> = (Z/N)^*: N + 1 cosets, e_2 = 1 + (-1/N) fixed points of s
    # and e_3 = 1 + (-3/N) of u (Shimura, ch. 1), each an elliptic
    # generator t of that order: t^m = -+1 and no lower power is
    fb = free_basis(N, (g,))
    assert len(fb.H) == N - 1 and fb.mu == N + 1 and fb.rank() == rank
    orders = sorted(m for _, m in fb.elliptic)
    assert orders == ([2] * (1 + _legendre(-1, N))
                      + [3] * (1 + _legendre(-3, N)))
    minus = IntMat(-1, 0, 0, -1)
    for k, m in fb.elliptic:
        powers = [fb.gens[k]]
        for _ in range(m - 1):
            powers.append(powers[-1] * fb.gens[k])
        assert powers[-1] in (IntMat.identity(), minus)
        assert all(x not in (IntMat.identity(), minus) for x in powers[:-1])
    assert all(in_gamma1(x, N, fb.H) for x in fb.gens)
    assert fb.classes == list(range(1, (N + 1) // 2))
    assert all(fb.class_of[d] == (min(d, N - d) - 1, d > N - d)
               for d in range(1, N))


@pytest.mark.parametrize("N, g", [(13, 2), (43, 3), (11, 2)])
def test_gamma0_express_up_to_sign(N, g):
    # -1 lies in Gamma_0(N): a word spells its element up to sign, and the
    # walk, being deterministic, gives +-m one word
    fb = free_basis(N, (g,))
    rng = random.Random(500 + N)
    minus = IntMat(-1, 0, 0, -1)
    for _ in range(40):
        word = [rng.choice([1, -1]) * rng.randrange(1, fb.rank() + 1)
                for _ in range(rng.randrange(0, 20))]
        m = word_matrix(fb, word)
        red = fb.express(m)
        assert word_matrix(fb, red) in (m, minus * m)
        assert fb.express(minus * m) == red
    assert fb.express(IntMat(1, 0, N, 1)) == fb.express(IntMat(-1, 0, -N, -1))
    with pytest.raises(NotInGroup):
        fb.express(ROT)


def test_gamma_h_between():
    # H = <4> mod 13 has order 6 and holds -1 = 4^3: 2 * 84 / 6 = 28
    # cosets, a sixth of Gamma_1(13)'s, and H = {1} is Gamma_1 itself
    fb = free_basis(13, (4,))
    assert sorted(fb.H) == [1, 3, 4, 9, 10, 12] and fb.mu == 28
    assert free_basis(13, (1,)).gens == free_basis(13).gens
    assert free_basis(13, (12,)).mu == free_basis(13).mu
    with pytest.raises(NotCoprime):
        free_basis(12, (2,))
