"""Shared exception taxonomy.

Every documented failure mode raises a subclass of PwlError, so callers and
the CLI can report contract violations uniformly.  Errors carry a short
message and, where useful, a `payload` dict with the offending data.
"""


class PwlError(Exception):
    def __init__(self, msg="", payload=None):
        super().__init__(msg)
        self.payload = payload or {}


class PrecisionExhausted(PwlError):
    """An operation would consume more p-adic digits than are available."""


class NotAUnit(PwlError):
    """Inversion or unit projection of an element divisible by p."""


class PrecisionMismatch(PwlError):
    """Operands disagree on the prime (or an op demands equal precision)."""


class DimensionMismatch(PwlError):
    """Vector or matrix shapes are incompatible."""


class WidthInsufficient(PwlError):
    """A coordinate sequence is too short for the requested output width."""


class CongruenceViolated(PwlError):
    """A weight congruence precondition fails."""


class BadRange(PwlError):
    """An index is outside its documented range."""


class BadLevel(PwlError):
    """The level N violates a precondition: N >= 4 (free_basis), or p | N
    (verify_truncate_lemma)."""


class NotInGroup(PwlError):
    """A matrix fails the Gamma_1(N) membership test."""


class NotAdmissible(PwlError):
    """A matrix is not an admissible double-coset seed / monoid member."""


class NotInvertible(PwlError):
    """A matrix or block is singular at the working precision."""


class AmbiguousAtPrecision(PwlError):
    """A Newton-polygon split cannot be certified at the working precision."""


class TruncationTooShort(PwlError):
    """A q-expansion does not hold enough terms for the requested operation."""


class NotCoprime(PwlError):
    """An index must be coprime to the level and is not."""


class BadWeight(PwlError):
    """A weight fails a precondition (parity, range, or mismatch)."""


class NotFreeModule(PwlError):
    """An operation needs a free presentation but elementary divisors are mixed."""


class ContractViolated(PwlError):
    """A verification routine found a counterexample (payload has the data)."""


class InternalInconsistency(PwlError):
    """A cross-check that should be unconditionally true failed (bug trap)."""
