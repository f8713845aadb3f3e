"""Primes and p-adic valuations.

_is_odd_prime is a deterministic Miller-Rabin test, exact below psi_13;
is_prime adds 2, and _check_modulus validates a modulus p^r.  vp is the
valuation of a nonzero integer and vp_factorial that of m!, by the digit
sum.  Every command loads this module, the CLI to parse --prime and
--ell; the p-adic integers with precision (PrecInt) and the weight
characters (Weight, eval_char) live in pwl.iwasawa, with the weight
space that needs them.
"""

from .errors import BadRange

# the first 13 primes; Miller-Rabin on them is exact below psi_13
# (Sorenson and Webster, 2017)
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI13 = 3317044064679887385961981


def _is_odd_prime(p):
    """Deterministic Miller-Rabin; BadRange at or above psi_13."""
    if p >= _PSI13:
        raise BadRange(f"{p} is not below {_PSI13}, where the primality "
                       "test stops being exact")
    if p < 3 or p % 2 == 0:
        return False
    if p <= _BASES[-1]:
        return p in _BASES
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def is_prime(n):
    return n == 2 or _is_odd_prime(n)


def _check_modulus(p, r):
    """BadRange unless p is an odd prime and the precision r >= 1."""
    if not _is_odd_prime(p):
        raise BadRange(f"p must be an odd prime, got {p}")
    if r < 1:
        raise BadRange(f"precision must be >= 1, got {r}")


def vp(n, p):
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise BadRange("the valuation of 0 is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp_factorial(m, p):
    """v_p(m!) by the digit-sum formula."""
    if m < 0:
        raise BadRange(f"factorial of negative {m}")
    s, n = 0, m
    while n:
        s += n % p
        n //= p
    return (m - s) // (p - 1)
