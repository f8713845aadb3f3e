"""Cosets, free generating sets, and word rewriting."""

import random
from fractions import Fraction

import pytest

from pwl import gamma1
from pwl.errors import BadLevel, InternalInconsistency, NotInGroup
from pwl.gamma1 import ROT, SIX, _free_reduce, free_basis, in_gamma1
from pwl.matrices import IntMat

T_MAT = IntMat(1, 1, 0, 1)


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
        n = fb.mu
        assert sorted(fb.perm_s) == list(range(n))
        assert sorted(fb.perm_u) == list(range(n))
        # s^2 = u^3 = 1 in PSL_2(Z); the level subgroup is torsion-free,
        # so neither s nor u fixes a coset
        for i in range(n):
            assert fb.perm_s[i] != i and fb.perm_s[fb.perm_s[i]] == i
            assert fb.perm_u[i] != i
            assert fb.perm_u[fb.perm_u[fb.perm_u[i]]] == i


def test_coset_of_matches_action():
    fb = free_basis(7)
    m = ROT * T_MAT * ROT * T_MAT * T_MAT
    i = fb.coset_of(m)
    assert fb.perm_s[i] == fb.coset_of(m * ROT)
    assert fb.perm_u[i] == fb.coset_of(m * SIX)
    # t = s^-1 u, and s^-1 = -s acts on cosets as s does
    assert fb.perm_u[fb.perm_s[i]] == fb.coset_of(m * T_MAT)


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
        word_set = set(fb.lift_words)
        for t, (lift, word) in enumerate(zip(fb.lifts, fb.lift_words)):
            # prefix closed and consistent with the coset it represents
            for cut in range(len(word)):
                assert word[:cut] in word_set
            assert fb.coset_of(lift) == t
            prod = IntMat.identity()
            for g, e in word:
                if g == "s":
                    prod = prod * ROT
                else:
                    prod = prod * (SIX if e == 1 else SIX.inverse())
            assert prod == lift


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
