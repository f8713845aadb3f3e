"""Packed rows over Z/p^r: a vector as the fields of one int.

pack_row / unpack_row hold a vector of nonnegative ints as the w-bit
fields of one int (entry j at bit w*j): a scalar times a packed vector
scales every field and a sum adds them field by field, exactly while no
field reaches 2^w.  Each caller picks w from a bound on its fields.
hecke_matrix, mat_mul and the two reductions of pwl.linalg round it
through _width, up to a word if it fits, as 64-bit fields move through
struct in one C call, others by one whole-int shift each; sym_matrix,
_act_window and poly_mul keep their exact widths.

These helpers and mat_vec, identity_mat live apart from the elimination
in pwl.linalg so that a run that eliminates nothing (the family value
path of pwl.iwasawa, `pwl family`) does not load it: a process compiles
each module it imports when no bytecode is cached.
"""

import struct

from .errors import DimensionMismatch


def identity_mat(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _width(bound):
    """Field bits for values below bound: a 64-bit word if bound fits."""
    return max(64, bound.bit_length())


def pack_row(row, w):
    """The nonnegative entries of row, each below 2^w, as the w-bit fields
    of one int, entry j at bits w*j .. w*j + w - 1 (w = 64: one C call)."""
    if w == 64:
        return int.from_bytes(struct.pack(f"<{len(row)}Q", *row), "little")
    x = 0
    for v in reversed(row):
        x = (x << w) | v
    return x


def unpack_row(x, n, w, M):
    """The first n w-bit fields of x >= 0, mod M (w = 64: one C call)."""
    if w == 64:
        b = x.to_bytes(max(8 * n, (x.bit_length() + 7) // 8), "little")
        return [v % M for v in struct.unpack_from(f"<{n}Q", b)]
    mask = (1 << w) - 1
    return [((x >> (w * j)) & mask) % M for j in range(n)]


def poly_mul(f, g, M):
    """f g mod M, ascending coefficients, by one product of packed rows: a
    field of it sums min(len f, len g) products below M^2."""
    f, g = [x % M for x in f], [x % M for x in g]
    w = max(1, (min(len(f), len(g)) * M * M).bit_length())
    return unpack_row(pack_row(f, w) * pack_row(g, w), len(f) + len(g) - 1,
                      w, M)


def mat_vec(A, v, M):
    if any(len(row) != len(v) for row in A):
        raise DimensionMismatch(f"A has a row that is not {len(v)} long")
    return [sum(a * x for a, x in zip(row, v)) % M for row in A]
