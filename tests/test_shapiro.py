"""The character split of hecke and slopes: its preconditions, its
characters, its fallback to Gamma_1(N) when one fails, and its blocks
as H^1(Gamma_1(N)) as a module, torsion raised from a block."""

import math

import pytest

from pwl import shapiro, verify
from pwl.cohomology import SymCoeffs, h1
from pwl.errors import BadLevel, BadRange, ContractViolated, NotFreeModule
from pwl.gamma1 import free_basis
from pwl.shapiro import _split, hecke_charpoly


def _group_condition_prime(N, n):
    """The least odd prime p < 60 with p prime to phi(N) and the exponent
    of (Z/N)^* (n odd) or of (Z/N)^*/+-1 (n even) dividing p - 1, by
    brute-force orders; None when there is none."""
    units = [d for d in range(1, N) if math.gcd(d, N) == 1]
    if not units:
        return None
    lam = math.lcm(*(next(k for k in range(1, N + 1) if pow(d, k, N) == 1
                          or (n % 2 == 0 and pow(d, k, N) == N - 1))
                     for d in units))
    return next((p for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41,
                             43, 47, 53, 59)
                 if len(units) % p and (p - 1) % lam == 0), None)


@pytest.mark.parametrize("n", [0, 1])
def test_split_builds_every_character_or_falls_back(n, monkeypatch):
    # where the group condition holds and Gamma_0(N) passes the generator
    # and elliptic rules, the tables are the phi/2 characters with
    # chi(-1) = (-1)^n, distinct, multiplicative on the units and 0 at
    # the non-units; everywhere else _split falls back to Gamma_1(N),
    # here a marker in place of the costly basis
    monkeypatch.setattr(shapiro, "free_basis", lambda N, H=(1,): (
        "Gamma_1" if H == (1,) else free_basis(N, H)))
    for N in range(-2, 121):
        p = _group_condition_prime(N, n)
        if p is None:
            assert _split(N, 3, 2, n) == ("Gamma_1", [(1,)]), N
            continue
        units = [d for d in range(1, N) if math.gcd(d, N) == 1]
        if N < 4:
            with pytest.raises(BadLevel):
                _split(N, p, 2, n)
            continue
        gamma0 = free_basis(N, units)
        basis, chars = _split(N, p, 2, n)
        if (gamma0.rank() >= 1 + gamma0.mu * len(units) // 12
                or any(m % p == 0 for _, m in gamma0.elliptic)):
            assert (basis, chars) == ("Gamma_1", [(1,)]), (N, p)
            continue
        M = p ** 2
        assert basis.H == gamma0.H and basis.gens == gamma0.gens, N
        assert len(set(chars)) == len(chars) == len(units) // 2, (N, p)
        for chi in chars:
            assert len(chi) == N and chi[1] == 1
            assert chi[N - 1] == (-1) ** n % M
            assert all(chi[d] == 0 for d in range(N) if d not in units)
            assert all(chi[a * b % N] == chi[a] * chi[b] % M
                       for a in units for b in units), (N, p, chi)


@pytest.mark.parametrize("N, p, r, n, count", [
    (13, 13, 3, 0, 6), (13, 13, 3, 1, 6), (7, 13, 4, 3, 3), (11, 11, 2, 0, 5),
    (43, 43, 3, 0, 21), (23, 23, 24, 0, 11),
    # (Z/N)^* not cyclic: (Z/8)^*/+-1 has exponent 2, dividing p - 1 = 2
    (8, 3, 3, 0, 2), (8, 3, 2, 0, 2), (15, 13, 3, 0, 4), (21, 13, 3, 1, 6)])
def test_split_characters(N, p, r, n, count):
    # the characters of (Z/N)^* with chi(-1) = (-1)^n, distinct and
    # multiplicative mod p^r, one per block
    basis, chars = _split(N, p, r, n)
    M = p ** r
    assert len(chars) == count and len({tuple(c) for c in chars}) == count
    assert len(basis.H) == sum(math.gcd(d, N) == 1 for d in range(1, N))
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
    (15, 7, 2, 0),    # (Z/15)^*/+-1 has exponent 4, not dividing 6
])
def test_split_falls_back_to_gamma1(N, p, r, n):
    basis, chars = _split(N, p, r, n)
    assert chars == [(1,)] and len(basis.H) == 1


@pytest.mark.parametrize("N, p, r, ell, n", [
    (15, 13, 3, 2, 0), (21, 13, 3, 2, 1), (39, 13, 3, 2, 0), (8, 3, 3, 3, 0)])
def test_shapiro_oracle_at_levels_with_a_unit_group_not_cyclic(
        N, p, r, ell, n, monkeypatch):
    # suite_shapiro's checks where (Z/N)^* is not cyclic: the block ranks
    # sum to the free rank on Gamma_1(N), the blocks multiply to its
    # charpoly, and for ell prime to N each P_(chi^-1) is the twist of P_chi
    monkeypatch.setattr(verify, "SHAPIRO_CASES", ((N, p, r, ell, n),))
    blocks = len(_split(N, p, r, n)[1])
    assert verify.run_suite("shapiro")["checks"] == 2 + blocks * (N % ell > 0)


@pytest.mark.parametrize("N, p, r", [(11, 11, 0), (23, 23, -1), (9, 3, 0)])
def test_precision_below_1_is_bad_range_split_or_not(N, p, r):
    # levels 11 and 23 split and level 9 falls back: the same BadRange
    with pytest.raises(BadRange, match=f"precision must be >= 1, got {r}$"):
        hecke_charpoly(N, p, r, 2, 0)


@pytest.mark.parametrize("N, p, r, ell, n, count", [
    (11, 11, 3, 2, 2, 9),    # Gamma_0(11): 3 generators x 3 coordinates
    (23, 23, 3, 2, 1, 10),   # Gamma_0(23): 5 generators x 2 coordinates
    (9, 7, 3, 2, 12, 39)])   # p prime to N, 3 blocks; Gamma_0(9): 3 x 13
def test_torsion_block_raises_from_the_split(N, p, r, ell, n, count,
                                             monkeypatch):
    # a block with torsion raises NotFreeModule with its own moduli, on
    # Gamma_0(N)'s generators, and no Gamma_1(N) basis is built
    def gamma_h(N, H=(1,)):
        assert H != (1,), "Gamma_1 built"
        return free_basis(N, H)

    monkeypatch.setattr(shapiro, "free_basis", gamma_h)
    with pytest.raises(NotFreeModule) as exc:
        hecke_charpoly(N, p, r, ell, n)
    assert str(exc.value).count(",") == count - 1


@pytest.mark.parametrize("N, p, r, n, has_torsion", [
    (11, 11, 3, 1, True), (11, 11, 3, 2, True), (13, 13, 3, 2, True),
    (23, 23, 3, 1, True), (9, 7, 3, 12, True),
    (7, 13, 3, 3, False), (13, 37, 3, 4, False), (15, 13, 3, 2, False),
    (21, 13, 3, 1, False)])
def test_blocks_are_gamma1_as_a_module(N, p, r, n, has_torsion):
    # Shapiro as Z/p^r-modules: the blocks' torsion moduli are those of
    # H^1(Gamma_1(N)) and their free ranks sum to its free rank, so the
    # split raises NotFreeModule exactly when Gamma_1(N) has torsion
    basis, chars = _split(N, p, r, n)
    assert len(chars) > 1 and len(basis.H) > 1
    pres = [h1(SymCoeffs(p, r, n, chi), basis) for chi in chars]
    whole = h1(SymCoeffs(p, r, n), free_basis(N))
    torsion = sorted(e for x in pres for e in x.moduli if 0 < e < r)
    assert torsion == sorted(e for e in whole.moduli if 0 < e < r)
    assert bool(torsion) == has_torsion
    assert sum(x.free_rank() for x in pres) == whole.free_rank()
    if torsion:
        with pytest.raises(NotFreeModule):
            hecke_charpoly(N, p, r, 2, n)
    else:
        hecke_charpoly(N, p, r, 2, n)


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
