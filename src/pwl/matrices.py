"""Exact 2x2 integer matrices.

IntMat is the one matrix type: elements of Gamma_1(N), double-coset seeds
and members of the p-stabilized monoid (p | c, d a unit).  A matrix is
exact; the vectors it acts on carry the precision, and each kernel reduces
the entries mod p^r itself (iwasawa._act_window also checks the monoid).

cofactor sends (a b; c d) to (d -b; -c a); it is an antihomomorphism
((A*B).cofactor() = B.cofactor() * A.cofactor()) and preserves the
determinant.
"""

from .errors import NotAdmissible, NotInvertible


class IntMat:
    """Exact 2x2 integer matrix with positive determinant."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        det = a * d - b * c
        if det <= 0:
            raise NotAdmissible(f"determinant must be positive, got {det}")
        self.a, self.b, self.c, self.d = a, b, c, d

    @classmethod
    def identity(cls):
        return cls(1, 0, 0, 1)

    def det(self):
        return self.a * self.d - self.b * self.c

    def __mul__(self, other):
        if not isinstance(other, IntMat):
            raise NotAdmissible(f"IntMat times {type(other).__name__}")
        return IntMat(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def cofactor(self):
        return IntMat(self.d, -self.b, -self.c, self.a)

    def inverse(self):
        """Exact inverse; only determinant-1 matrices have one over Z."""
        if self.det() != 1:
            raise NotInvertible(f"{self} has determinant {self.det()}")
        return self.cofactor()

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __eq__(self, other):
        if not isinstance(other, IntMat):
            return NotImplemented
        return self.entries() == other.entries()

    def __hash__(self):
        return hash(self.entries())

    def __repr__(self):
        return f"IntMat({self.a}, {self.b}, {self.c}, {self.d})"

