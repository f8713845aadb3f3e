import random

import pytest

from pwl.errors import NotAdmissible, NotInvertible
from pwl.matrices import IntMat


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


def test_mixed_operands_raise_typed_errors():
    # typed errors, not asserts, so these hold under python -O too
    with pytest.raises(NotAdmissible):
        IntMat(2, 1, 1, 1) * (1, 0, 3, 1)
    with pytest.raises(NotAdmissible):
        IntMat(2, 1, 1, 1) * 3
