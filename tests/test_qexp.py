"""Eisenstein series and coefficient Hecke operators."""

from fractions import Fraction

import pytest

from pwl.errors import BadRange, BadWeight, TruncationTooShort
from pwl.iwasawa import PrecInt
from pwl.qexp import (QExp, bernoulli, divisor_sigma, eisenstein, hecke_t,
                      pairing)

# the trivial character mod 11, as its values at 0, ..., 10
TRIVIAL_11 = (0,) + (1,) * 10

ETA_PREFIX = [1, -2, -1, 2, 1, 2, -2, 0, -2, -2, 1, -2, 4]


def eta_level11(T):
    """q times the square of the eta products for 1 and 11, truncated."""
    poly = [0] * (T + 1)
    poly[0] = 1
    for n in range(1, T + 1):
        for m in (n, n, 11 * n, 11 * n):
            if m > T:
                continue
            for i in range(T, m - 1, -1):
                poly[i] -= poly[i - m]
    return QExp([0] + poly[:T])


def sigma_brute(h, e):
    return sum(d ** e for d in range(1, h + 1) if h % d == 0)


def test_bernoulli_known_values():
    known = {0: Fraction(1), 1: Fraction(-1, 2), 2: Fraction(1, 6),
             3: Fraction(0), 4: Fraction(-1, 30), 6: Fraction(1, 42),
             8: Fraction(-1, 30), 10: Fraction(5, 66),
             12: Fraction(-691, 2730), 14: Fraction(7, 6)}
    for k, b in known.items():
        assert bernoulli(k) == b
    assert all(bernoulli(k) == 0 for k in range(3, 30, 2))


def test_divisor_sigma_matches_brute_force():
    for h in range(1, 200):
        for e in (0, 1, 3, 11):
            assert divisor_sigma(h, e) == sigma_brute(h, e)


def test_eisenstein_constant_terms():
    assert eisenstein(4, 3).a(0) == Fraction(1, 240)
    assert eisenstein(6, 3).a(0) == Fraction(-1, 504)
    assert eisenstein(8, 3).a(0) == Fraction(1, 480)


def test_eisenstein_divisor_sums():
    for k in (4, 6, 8):
        f = eisenstein(k, 50)
        assert f.truncation() == 50
        for h in range(1, 51):
            assert f.a(h) == sigma_brute(h, k - 1)
    assert eisenstein(4, 6).a(6) == 252


def test_eisenstein_bad_weights():
    for k in (2, 3, 5, 0, -4):
        with pytest.raises(BadWeight):
            eisenstein(k, 5)


def test_classical_hecke_eigenvalues_on_eisenstein():
    chi = (1,)
    for ell, k in ((2, 4), (3, 4), (2, 6), (5, 4)):
        f = eisenstein(k, 30)
        g = hecke_t(ell, k, chi, f)
        lam = 1 + ell ** (k - 1)
        assert g.truncation() == 30 // ell
        for h in range(g.truncation() + 1):
            assert g.a(h) == lam * f.a(h)
    assert pairing(hecke_t(2, 4, chi, eisenstein(4, 10))) == 9


def test_precint_coefficients():
    # E_4 to q^20 mod 7^3: a_0 = 1/240 is 7-integral, and T_2 only adds
    # and multiplies, so it gives the residues of the rational T_2 E_4
    M = 7 ** 3

    def residue(c):
        c = Fraction(c)
        return c.numerator * pow(c.denominator, -1, M) % M

    f = eisenstein(4, 20)
    g = hecke_t(2, 4, (1,), QExp([PrecInt(7, 3, residue(c)) for c in f.coeffs]))
    assert [(c.r, c.res) for c in g.coeffs] == [
        (3, residue(c)) for c in hecke_t(2, 4, (1,), f).coeffs]
    assert len(g.coeffs) == 11 and pairing(g) == 9


def test_character_values_and_twisted_operator():
    # the character mod 5 with chi(2) = chi(3) = -1, and the one with
    # chi(3) = -1 alone (not multiplicative; hecke_t reads one value)
    chi = (0, 1, -1, -1, 1)
    f = QExp([1, 1, 2, 3, 4, 5, 6, 7, 8])
    assert hecke_t(3, 4, (0, 1, 1, -1, 1), f).coeffs == [1 - 27, 3, 6]
    assert hecke_t(7, 4, chi, f).coeffs == [1 - 7 ** 3, 7]
    assert hecke_t(5, 4, chi, f).coeffs == [1, 5]


def test_eta_prefix_is_frozen():
    f = eta_level11(60)
    assert [f.a(h) for h in range(1, 14)] == ETA_PREFIX


def test_eta_is_eigenform_at_two_and_three():
    chi = TRIVIAL_11
    f = eta_level11(60)
    g2 = hecke_t(2, 2, chi, f)
    for h in range(1, g2.truncation() + 1):
        assert g2.a(h) == -2 * f.a(h)
    g3 = hecke_t(3, 2, chi, f)
    for h in range(1, g3.truncation() + 1):
        assert g3.a(h) == -1 * f.a(h)


def test_eta_dividing_level_operator():
    chi = TRIVIAL_11
    f = eta_level11(60)
    assert chi[11 % len(chi)] == 0
    g = hecke_t(11, 2, chi, f)
    # the second summand is switched off, and the eigenvalue is 1
    for h in range(1, g.truncation() + 1):
        assert g.a(h) == f.a(h)


def test_truncation_guards():
    f = QExp([1, 2, 3])
    # T_ell needs a_0..a_ell, ell + 1 stored coefficients
    with pytest.raises(TruncationTooShort,
                       match="need at least 8 stored coefficients, have 3"):
        hecke_t(7, 4, (1,), f)
    with pytest.raises(TruncationTooShort,
                       match="need at least 3 stored coefficients, have 2"):
        hecke_t(2, 4, (1,), eisenstein(4, 1))
    with pytest.raises(TruncationTooShort):
        f.a(5)
    with pytest.raises(TruncationTooShort):
        f.a(-1)


def test_qexp_rejects_empty_coefficients():
    with pytest.raises(BadRange):
        QExp([])


def test_rejects_non_prime_index_and_negative_truncation():
    # the formula is T_ell only at a prime ell: at 4 its a_0 is 13/48,
    # while T_4 E_4 = 73 E_4 has a_0 = 73/240
    f = eisenstein(4, 20)
    for ell in (4, 6, 1, 0, -2):
        with pytest.raises(BadRange):
            hecke_t(ell, 4, (1,), f)
    with pytest.raises(BadRange):
        eisenstein(4, -1)
    assert eisenstein(4, 0).coeffs == [Fraction(1, 240)]
