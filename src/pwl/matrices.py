"""2x2 matrices: exact integer matrices and the p-stabilized monoid.

IntMat is an exact integer matrix with positive determinant, used for group
elements of Gamma_1(N) and for double-coset seeds.  PadicMat is a matrix
over Z/p^r whose lower-left entry is divisible by p and whose lower-right
entry is a unit; this monoid is closed under multiplication.

Both kinds have a cofactor method sending (a b; c d) to (d -b; -c a); it is
an antihomomorphism ((A*B).cofactor() = B.cofactor() * A.cofactor()) and
preserves the determinant.
"""

from .errors import NotAdmissible, NotInvertible, PrecisionMismatch


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


class PadicMat:
    """Matrix over Z/p^r with c = 0 mod p and d a unit."""

    __slots__ = ("p", "r", "a", "b", "c", "d")

    def __init__(self, p, r, a, b, c, d):
        M = p ** r
        self.p, self.r = p, r
        self.a, self.b, self.c, self.d = a % M, b % M, c % M, d % M
        if self.c % p != 0:
            raise NotAdmissible(f"lower-left entry {self.c} not divisible by {p}")
        if self.d % p == 0:
            raise NotAdmissible(f"lower-right entry {self.d} not a unit mod {p}")

    @classmethod
    def identity(cls, p, r):
        return cls(p, r, 1, 0, 0, 1)

    @property
    def modulus(self):
        return self.p ** self.r

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __mul__(self, other):
        if not isinstance(other, PadicMat):
            raise NotAdmissible(f"PadicMat times {type(other).__name__}")
        if self.p != other.p:
            raise PrecisionMismatch(f"primes differ: {self.p} vs {other.p}")
        r = min(self.r, other.r)
        return PadicMat(
            self.p, r,
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def cofactor(self):
        return PadicMat(self.p, self.r, self.d, -self.b, -self.c, self.a)

    def __eq__(self, other):
        if not isinstance(other, PadicMat):
            return NotImplemented
        if self.p != other.p:
            return False
        m = self.p ** min(self.r, other.r)
        return all((x - y) % m == 0
                   for x, y in zip(self.entries(), other.entries()))

    def __repr__(self):
        return (f"PadicMat[{self.p}^{self.r}]"
                f"({self.a}, {self.b}, {self.c}, {self.d})")
