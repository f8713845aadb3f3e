import random

import pytest

from pwl.errors import NotAdmissible, NotInvertible, PrecisionMismatch
from pwl.matrices import IntMat, PadicMat


def rand_padic(rng, p, r, unit_a=False):
    # unit_a=True stays in the sub-monoid where cofactor is defined
    M = p ** r
    while True:
        d = rng.randrange(M)
        if d % p:
            break
    while True:
        a = rng.randrange(M)
        if not unit_a or a % p:
            break
    return PadicMat(p, r, a, rng.randrange(M),
                    p * rng.randrange(M // p), d)


class TestIntMat:
    def test_determinant_sign(self):
        with pytest.raises(NotAdmissible):
            IntMat(0, 1, 1, 0)

    def test_mul_and_inverse(self):
        s = IntMat(0, -1, 1, 0)
        t = IntMat(1, 1, 0, 1)
        assert (s * s.inverse()) == IntMat.identity()
        assert (s * t).det() == 1

    def test_inverse_needs_determinant_one(self):
        with pytest.raises(NotInvertible):
            IntMat(2, 0, 0, 1).inverse()

    def test_cofactor_antihomomorphism(self):
        rng = random.Random(5)
        for _ in range(30):
            a = IntMat(1, rng.randrange(-9, 9), 0, rng.randrange(1, 5))
            b = IntMat(1, 0, rng.randrange(-9, 9) * 2, 1) if rng.random() < 0.5 \
                else IntMat(rng.randrange(1, 5), rng.randrange(-9, 9), 0, 1)
            assert (a * b).cofactor() == b.cofactor() * a.cofactor()

    def test_cofactor_preserves_det(self):
        m = IntMat(1, 3, 0, 5)
        assert m.cofactor().det() == m.det()

    def test_stabilizer_seed_cofactor(self):
        # (1 theta; 0 p) has cofactor (p -theta; 0 1)
        m = IntMat(1, 2, 0, 3)
        assert m.cofactor() == IntMat(3, -2, 0, 1)


class TestPadicMat:
    def test_membership(self):
        PadicMat(3, 2, 1, 5, 3, 2)
        with pytest.raises(NotAdmissible):
            PadicMat(3, 2, 1, 5, 1, 2)  # c not divisible by p
        with pytest.raises(NotAdmissible):
            PadicMat(3, 2, 1, 5, 3, 6)  # d not a unit

    def test_closure_under_mul(self):
        rng = random.Random(1)
        for _ in range(50):
            p = rng.choice([3, 5])
            a = rand_padic(rng, p, 3)
            b = rand_padic(rng, p, 3)
            ab = a * b  # constructor re-checks membership
            assert ab.c % p == 0 and ab.d % p != 0

    def test_prime_mismatch(self):
        with pytest.raises(PrecisionMismatch):
            PadicMat.identity(3, 2) * PadicMat.identity(5, 2)

    def test_min_precision(self):
        a = PadicMat.identity(3, 4)
        b = PadicMat(3, 2, 1, 1, 0, 1)
        assert (a * b).r == 2

    def test_cofactor_identity(self):
        rng = random.Random(2)
        for _ in range(30):
            m = rand_padic(rng, 5, 3, unit_a=True)
            cc = m.cofactor().cofactor()
            assert cc == m

    def test_cofactor_antihomomorphism(self):
        rng = random.Random(3)
        for _ in range(30):
            a = rand_padic(rng, 3, 4, unit_a=True)
            b = rand_padic(rng, 3, 4, unit_a=True)
            assert (a * b).cofactor() == b.cofactor() * a.cofactor()

    def test_cofactor_leaving_monoid_raises(self):
        with pytest.raises(NotAdmissible):
            PadicMat(3, 2, 3, 1, 3, 1).cofactor()


def test_mixed_operands_raise_typed_errors():
    # typed errors, not asserts, so these hold under python -O too
    with pytest.raises(NotAdmissible):
        IntMat(2, 1, 1, 1) * PadicMat(3, 2, 1, 0, 3, 1)
    with pytest.raises(NotAdmissible):
        PadicMat(3, 2, 1, 0, 3, 1) * IntMat(2, 1, 1, 1)
