"""The character split of hecke and slopes: its preconditions, its
characters and its fallback to Gamma_1(N)."""

import math

import pytest

from pwl import shapiro, verify
from pwl.errors import BadLevel, ContractViolated, NotFreeModule
from pwl.shapiro import _root_of_unity, _split, _unit_powers, hecke_charpoly


def test_unit_powers_find_a_generator_exactly_when_cyclic():
    for N in range(-2, 120):
        units = [d for d in range(1, N) if math.gcd(d, N) == 1]
        orders = [next(k for k in range(1, N) if pow(d, k, N) == 1)
                  for d in units]
        powers = _unit_powers(N)
        if N < 4 or max(orders, default=0) != len(units):
            assert powers is None, N
        else:
            assert sorted(powers) == units and powers[0] == 1, N
            assert all(powers[k] * powers[1] % N == powers[(k + 1) % len(units)]
                       for k in range(len(units)))


@pytest.mark.parametrize("e, p, r", [(1, 3, 2), (2, 5, 3), (4, 13, 3),
                                     (6, 13, 4), (11, 23, 24), (18, 37, 5)])
def test_root_of_unity_has_order_e(e, p, r):
    w = _root_of_unity(e, p, r)
    M = p ** r
    assert pow(w, e, M) == 1
    assert all(pow(w, k, M) != 1 for k in range(1, e))


@pytest.mark.parametrize("N, p, r, n, count", [
    (13, 13, 3, 0, 6), (13, 13, 3, 1, 6), (7, 13, 4, 3, 3), (11, 11, 2, 0, 5),
    (43, 43, 3, 0, 21), (23, 23, 24, 0, 11)])
def test_split_characters(N, p, r, n, count):
    # the characters of (Z/N)^* with chi(-1) = (-1)^n, distinct and
    # multiplicative mod p^r, one per block
    basis, chars = _split(N, p, r, n)
    M = p ** r
    assert len(chars) == count and len({tuple(c) for c in chars}) == count
    assert len(basis.H) == N - 1
    for chi in chars:
        assert chi[N - 1] == (-1) ** n % M
        assert all(chi[a * b % N] == chi[a] * chi[b] % M
                   for a in range(1, N) for b in range(1, N))


@pytest.mark.parametrize("N, p, r, n", [
    (5, 31, 4, 16),   # Gamma_0(5) has as many generators as Gamma_1(5)
    (9, 3, 3, 0),     # 3 divides |(Z/9)^*| = 6
    (23, 5, 3, 0),    # characters of order 11 need 11 | p - 1
    (13, 5, 2, 1),    # n odd needs characters of order 12
    (7, 3, 4, 0),     # Gamma_0(7) has order-3 elliptic generators
    (15, 7, 2, 0),    # (Z/15)^* is not cyclic
    (8, 3, 2, 0),     # nor is (Z/8)^*
])
def test_split_falls_back_to_gamma1(N, p, r, n):
    basis, chars = _split(N, p, r, n)
    assert chars == [(1,)] and len(basis.H) == 1


def test_torsion_block_falls_back_to_gamma1():
    # Sym^2 at level 11 mod 11^3 has torsion; the error lists the moduli of
    # H^1(Gamma_1(11)), 11 generators times 3 coordinates
    with pytest.raises(NotFreeModule) as exc:
        hecke_charpoly(11, 11, 3, 2, 2)
    assert str(exc.value).count(",") == 32


@pytest.mark.parametrize("N", [3, 2, 1, 0, -5])
def test_small_levels_raise_bad_level(N):
    with pytest.raises(BadLevel, match="need N >= 4"):
        hecke_charpoly(N, 3, 2, 2, 0)


def test_shapiro_suite():
    assert verify.run_suite("shapiro")["checks"] == 4 * 2 + 6 + 3 + 6


def test_shapiro_suite_catches_a_lost_block(monkeypatch):
    blocks = shapiro.blocks

    def drop_one(*args):
        reps, parts = blocks(*args)
        return reps, parts[1:]

    monkeypatch.setattr(verify, "blocks", drop_one)
    with pytest.raises(ContractViolated, match="ranks"):
        verify.run_suite("shapiro")
