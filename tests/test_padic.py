import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from pwl import iwasawa, padic
from pwl.errors import (
    BadRange,
    PrecisionExhausted,
    NotAUnit,
    PrecisionMismatch,
    BadWeight,
)
from pwl.iwasawa import (
    PrecInt,
    Weight,
    binom,
    binom_int,
    char_series,
    eval_char,
)
from pwl.padic import vp, vp_factorial


class TestPrecInt:
    def test_canonical_residue(self):
        x = PrecInt(3, 2, -1)
        assert x.res == 8 and x.modulus == 9

    def test_arith_min_precision(self):
        x = PrecInt(3, 4, 5)
        y = PrecInt(3, 2, 7)
        assert (x + y).r == 2
        assert (x * y).r == 2
        assert (x - y).r == 2
        assert x + y == 12

    def test_int_operands_exact(self):
        x = PrecInt(5, 3, 7)
        assert (x + 100).r == 3
        assert (3 * x).res == 21

    def test_prime_mismatch(self):
        with pytest.raises(PrecisionMismatch):
            PrecInt(3, 2, 1) + PrecInt(5, 2, 1)

    def test_divexact(self):
        x = PrecInt(3, 3, 18)
        y = x.divexact(9)
        assert y.r == 1 and y.res == 2
        with pytest.raises(PrecisionExhausted):
            PrecInt(3, 2, 9).divexact(9)

    def test_divexact_negative_divisor(self):
        # 38 * -2 = -76 = 5 mod 81: the sign is kept, no digit is used
        y = PrecInt(3, 4, 5).divexact(-2)
        assert y.r == 4 and y.res == 38
        y = PrecInt(3, 4, 18).divexact(-9)
        assert y.r == 2 and y.res == 7

    def test_divexact_residue_not_divisible(self):
        # p^v | k but p^v does not divide the residue: no exact quotient
        with pytest.raises(PrecisionExhausted, match="not divisible"):
            PrecInt(3, 4, 5).divexact(3)
        with pytest.raises(PrecisionExhausted, match="not divisible"):
            PrecInt(5, 3, 30).divexact(-25)

    def test_eq_mod_min_precision(self):
        assert PrecInt(3, 3, 10) == PrecInt(3, 1, 1)
        assert PrecInt(3, 3, 10) != PrecInt(3, 2, 4)

    def test_rejects_bad_prime_and_precision(self):
        for p, r in ((4, 2), (2, 2), (9, 1), (3, 0), (5, -1)):
            with pytest.raises(BadRange):
                PrecInt(p, r, 5)

    def test_rejects_bad_exponent_and_divisor(self):
        # PrecInt has no power; the divisor of divexact is still checked
        x = PrecInt(3, 2, 4)
        for k in (0, 3.0):
            with pytest.raises(BadRange):
                x.divexact(k)


def test_is_odd_prime_matches_trial_division():
    def trial(n):
        return n >= 3 and n % 2 == 1 and all(
            n % f for f in range(3, math.isqrt(n) + 1, 2))
    assert all(padic._is_odd_prime(n) == trial(n) for n in range(-3, 3000))
    assert padic.is_prime(2) and not padic.is_prime(1)


def test_strong_pseudoprimes_are_rejected():
    # a Carmichael number; a strong pseudoprime to bases 2, 3, 5 and 7;
    # psi_12, a strong pseudoprime to bases 2 to 37 that base 41 rejects
    for n in (561, 3215031751, 318665857834031151167461):
        assert not padic._is_odd_prime(n)
    assert padic._is_odd_prime(2 ** 61 - 1)


def test_primality_stops_at_psi13():
    assert padic._is_odd_prime(3317044064679887385961979) is False
    for n in (3317044064679887385961981, 2 ** 127 - 1):
        with pytest.raises(BadRange):
            padic._is_odd_prime(n)


def test_vp_of_zero_raises():
    with pytest.raises(BadRange):
        vp(0, 3)
    # optimized, a stripped check would loop forever dividing 0 by p
    res = subprocess.run(
        [sys.executable, "-O", "-c", "from pwl.padic import vp; vp(0, 3)"],
        capture_output=True, text=True, timeout=30)
    assert res.returncode == 1 and "BadRange" in res.stderr


def test_vp_factorial_of_negative_raises():
    # without the check the digit loop never ends, so the timed-out
    # optimized subprocess runs before the in-process call
    res = subprocess.run(
        [sys.executable, "-O", "-c",
         "from pwl.padic import vp_factorial; vp_factorial(-3, 3)"],
        capture_output=True, text=True, timeout=30)
    assert res.returncode == 1 and "BadRange" in res.stderr
    with pytest.raises(BadRange):
        vp_factorial(-3, 3)
    assert vp_factorial(9, 3) == 4


class TestBinom:
    def test_small_integer(self):
        assert binom(5, 2) == 10

    def test_negative_integer(self):
        assert binom(-1, 3) == -1

    def test_integer_vanishing(self):
        assert binom(4, 7) == 0

    def test_precint_matches_integer(self):
        for p, r in [(3, 6), (5, 4)]:
            for n in range(0, 15):
                for m in range(0, 6):
                    got = binom(PrecInt(p, r, n), m)
                    assert got == binom_int(n, m) % p ** got.r

    def test_precision_ledger(self):
        # v_3(9!) = 4, so binom(-, 9) costs 4 digits at p = 3
        x = binom(PrecInt(3, 6, 7), 9)
        assert x.r == 6 - vp_factorial(9, 3) == 2

    def test_precision_exhausted(self):
        with pytest.raises(PrecisionExhausted):
            binom(PrecInt(3, 1, 5), 3)  # v_3(3!) = 1 = r

    def test_negative_index(self):
        for n in (5, PrecInt(3, 4, 5)):
            with pytest.raises(BadRange):
                binom(n, -1)
        with pytest.raises(BadRange):
            binom_int(5, -2)

    def test_integer_matches_falling_factorial(self):
        for n in range(-30, 31):
            prod = 1
            for m in range(13):
                assert binom_int(n, m) == Fraction(prod, math.factorial(m))
                prod *= n - m

    def test_pascal_rule(self):
        rng = random.Random(7)
        for _ in range(50):
            p = rng.choice([3, 5, 7])
            n = PrecInt(p, 6, rng.randrange(p ** 6))
            m = rng.randrange(1, 8)
            lhs = binom(n, m)
            rhs = binom(n - 1, m) + binom(n - 1, m - 1)
            assert lhs == rhs


def bracket(d):
    """<d>, the one-unit part of d: eval_char at the weight wild_only(1)."""
    return eval_char(Weight.wild_only(1, d.p, d.r), d)


class TestUnitProject:
    def test_frozen_values(self):
        assert bracket(PrecInt(5, 2, 2)) == 11
        assert bracket(PrecInt(3, 2, 2)) == 7

    def test_teichmuller_is_root_of_unity(self):
        # d / <d> is the Teichmuller lift of d: a (p-1)-st root of unity
        # congruent to d mod p
        for p, r in [(3, 5), (5, 4), (7, 3)]:
            M = p ** r
            for d0 in range(1, M):
                if d0 % p == 0:
                    continue
                u = bracket(PrecInt(p, r, d0))
                assert u.r == r
                w = d0 * pow(u.res, -1, M) % M
                assert pow(w, p - 1, M) == 1
                assert w % p == d0 % p

    def test_identity_on_one_units(self):
        for p, r in [(3, 4), (5, 3)]:
            for k in range(p ** (r - 1)):
                d = PrecInt(p, r, 1 + p * k)
                assert bracket(d) == d

    def test_multiplicative(self):
        rng = random.Random(11)
        for _ in range(40):
            p = rng.choice([3, 5])
            r = rng.randrange(2, 6)
            a = PrecInt(p, r, rng.randrange(1, p ** r))
            b = PrecInt(p, r, rng.randrange(1, p ** r))
            if a.res % p == 0 or b.res % p == 0:
                continue
            assert bracket(a * b) == bracket(a) * bracket(b)

    def test_binomial_series_agrees(self):
        # (.)^(p-1) then binomial series with exponent 1/(p-1), at padded precision
        for p, r in [(3, 3), (5, 3)]:
            pad = r + vp_factorial(4 * r, p)
            beta = PrecInt(p, pad, pow(p - 1, -1, p ** pad))
            for d0 in range(1, p ** r):
                if d0 % p == 0:
                    continue
                x = PrecInt(p, pad, d0 ** (p - 1) - 1)
                acc = PrecInt(p, r, 0)
                xpow = PrecInt(p, pad, 1)
                for h in range(4 * r):
                    # binom(beta, h) keeps pad - v_p(h!) >= r digits
                    acc = acc + binom(beta, h) * xpow
                    xpow = xpow * x
                assert acc.r == r
                assert acc == bracket(PrecInt(p, r, d0))

    def test_not_a_unit(self):
        with pytest.raises(NotAUnit):
            bracket(PrecInt(3, 2, 3))


def power(d, n):
    """d^n for a one-unit d: eval_char at the weight wild_only(n), or at
    the wild part n when n is a PrecInt."""
    if isinstance(n, PrecInt):
        return eval_char(Weight(0, n), d)
    return eval_char(Weight.wild_only(n, d.p, d.r), d)


class TestPowUnit:
    def test_frozen_values(self):
        assert power(PrecInt(3, 3, 4), 3) == 10  # 64 mod 27
        inv = power(PrecInt(3, 3, 4), -1)
        assert inv == 1 - 3 + 9  # geometric series mod 27

    def test_matches_modular_exponentiation(self):
        rng = random.Random(3)
        for _ in range(60):
            p = rng.choice([3, 5, 7])
            r = rng.randrange(1, 6)
            d = PrecInt(p, r, 1 + p * rng.randrange(p ** (r - 1) if r > 1 else 1))
            n = rng.randrange(0, 500)
            got = power(d, n)
            assert got.r == r and got == pow(d.res, n, p ** r)

    def test_precint_exponent(self):
        # p | log d, so an exponent known to precision s gives d^n to
        # precision min(r, s + 1)
        d = PrecInt(5, 3, 6)
        for s, r in ((3, 3), (2, 3), (1, 2)):
            got = power(d, PrecInt(5, s, 44))
            assert got.r == r and got == pow(6, 44, 125)

    def test_homomorphism_in_exponent(self):
        rng = random.Random(9)
        for _ in range(30):
            p = rng.choice([3, 5])
            r = 4
            d = PrecInt(p, r, 1 + p * rng.randrange(p ** (r - 1)))
            m, n = rng.randrange(-100, 100), rng.randrange(-100, 100)
            assert power(d, m) * power(d, n) == power(d, m + n)


class TestEvalChar:
    def test_frozen_value(self):
        chi = Weight.wild_only(2, 5, 2)
        assert eval_char(chi, PrecInt(5, 2, 2)) == 21

    def test_integer_weight_is_power(self):
        for p in (3, 5):
            r = 4
            for n in range(0, 10):
                chi = Weight.of_int(n, p, r)
                for d0 in (2, p + 1, p ** r - 1):
                    d = PrecInt(p, r, d0)
                    assert eval_char(chi, d) == pow(d0, n, p ** r)

    def test_multiplicative_in_d(self):
        rng = random.Random(17)
        for _ in range(30):
            p = rng.choice([3, 5])
            chi = Weight(rng.randrange(p - 1), PrecInt(p, 4, rng.randrange(p ** 4)))
            a = PrecInt(p, 4, rng.randrange(1, p ** 4))
            b = PrecInt(p, 4, rng.randrange(1, p ** 4))
            if a.res % p == 0 or b.res % p == 0:
                continue
            assert eval_char(chi, a * b) == eval_char(chi, a) * eval_char(chi, b)

    def test_additive_in_weight(self):
        p, r = 5, 3
        chi1 = Weight.of_int(3, p, r)
        chi2 = Weight.wild_only(7, p, r)
        d = PrecInt(p, r, 12)
        chi12 = Weight(3, PrecInt(p, r, 10))  # tame 3 + 0, wild 3 + 7
        assert eval_char(chi12, d) == eval_char(chi1, d) * eval_char(chi2, d)

    def test_tame_representative_independence(self):
        # adding (p-1) to the integer weight shifts tame by 0 and wild by p-1
        p, r = 3, 4
        d = PrecInt(p, r, 5)
        for n in range(6):
            v1 = eval_char(Weight.of_int(n, p, r), d)
            v2 = eval_char(Weight.of_int(n, p, r).shift(0), d)
            assert v1 == v2

    def test_not_a_unit(self):
        with pytest.raises(NotAUnit):
            eval_char(Weight.of_int(2, 3, 2), PrecInt(3, 2, 3))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_c_factors_match_exact_fractions(p):
    # the table carries u^m, the unit part of m! and v_p(m!) from m to
    # m + 1; the oracle is c^m/m! in lowest terms, and jmax runs past
    # tail_width so the zero tail is checked too
    rng = random.Random(70 + p)
    for r in range(1, 13):
        M = p ** r
        jmax = iwasawa.tail_width(p, r) + 3
        for vc in (1, 2, 3):
            for _ in range(3):
                c = p ** vc * (p * rng.randrange(M) + rng.randrange(1, p))
                want = []
                for m in range(jmax + 1):
                    q = Fraction(c ** m, math.factorial(m))
                    want.append(q.numerator * pow(q.denominator, -1, M) % M)
                assert iwasawa._c_factors(c, jmax, p, r) == want


@pytest.mark.parametrize("p", [3, 5, 7])
def test_exp_log_round_trip(p):
    # <u> = exp(log<u>) = u on a one-unit u, at the exact stopping rule:
    # the last m summed has m - lg(m) = R - 1, so x = u^(p-1) - 1 of
    # valuation 1 makes its term nonzero whenever v_p(m) = lg(m)
    rng = random.Random(p)
    for R in range(1, 41):
        for u in (1 + p, 1 - p, 1 + p * rng.randrange(p ** R), 1 + p ** 2):
            assert bracket(PrecInt(p, R, u)) == u


def test_log_matches_exact_series():
    # log<d> = log(d^(p-1)) / (p-1), the series summed in exact fractions
    # well past the stopping rule; the sum is p-integral
    rng = random.Random(29)
    for p in (3, 5, 7):
        for R in range(1, 13):
            M = p ** R
            for d in (2, p - 1, p + 1, rng.randrange(1, M) * p + 1,
                      rng.randrange(M) * p + rng.randrange(1, p)):
                x = d ** (p - 1) - 1
                s = sum(Fraction((-1) ** (m + 1) * x ** m, m)
                        for m in range(1, 3 * R + 3)) / (p - 1)
                want = s.numerator * pow(s.denominator, -1, M) % M
                assert iwasawa._log_unit(d, p, R) == want


def test_log_is_additive():
    rng = random.Random(23)
    for p in (3, 5, 7):
        for R in range(1, 41):
            M = p ** R
            u, v = (p * rng.randrange(M) + rng.randrange(1, p)
                    for _ in range(2))
            lhs = iwasawa._log_unit(u * v, p, R)
            rhs = iwasawa._log_unit(u, p, R) + iwasawa._log_unit(v, p, R)
            assert lhs == rhs % M


@pytest.mark.parametrize("call, args, error", [
    (eval_char, (Weight.of_int(2, 5, 3), PrecInt(3, 3, 2)), PrecisionMismatch),
    (eval_char, (Weight.wild_only(2, 3, 3), PrecInt(5, 3, 2)), PrecisionMismatch),
    (eval_char, (Weight.of_int(2, 3, 3), PrecInt(3, 3, 3)), NotAUnit),
    (iwasawa._log_unit, (6, 3, 2), NotAUnit),
    (char_series, (6, 3, 3, 2), NotAUnit),
])
def test_unit_power_errors(call, args, error):
    with pytest.raises(error):
        call(*args)


class TestReduceWeight:
    def test_weight_validation(self):
        with pytest.raises(BadWeight):
            Weight(5, PrecInt(5, 2, 0))
        with pytest.raises(BadWeight):
            Weight(0, 7)

    def test_shift(self):
        chi = Weight.of_int(7, 5, 3)
        sh = chi.shift(3)
        assert sh.tame == 0 and sh.wild == 4
