"""Hecke charpolys on the nebentypus blocks of H^1(Gamma_1(N), Sym^n).

Shapiro's lemma (K. Brown, Cohomology of Groups, GTM 87, ch. III) gives
H^1(Gamma_1(N), V) = H^1(Gamma_0(N), V (x) Z_p[H]) for H = (Z/N)^*
acting on Z_p[H] through d.  When H is cyclic of order phi, p does not
divide phi, and every character chi of H with chi(-1) = (-1)^n has order
dividing p - 1, Z_p[H] is the sum of the lines Z_p(chi), with the chi
taken as Teichmueller powers mod p^r (each the tuple of its values at
0, ..., N - 1, as cohomology.SymCoeffs reads it), and

    H^1(Gamma_1(N), Sym^n) = sum over those chi of H^1(Gamma_0(N), Sym^n(chi)),

where g acts on Sym^n(chi) by chi(d_g) Sym^n(g).  The other characters
give 0: -1 is central, acts by -1, and 2 is a unit.  The Hecke
operators respect the split (W. Stein, Modular Forms, a Computational
Approach, GSM 79, on modular symbols with character), so the charpoly
of T_ell on the free quotient is the product of the block charpolys,
the same polynomial mod p^r.  One walk of cohomology.hecke_matrix over
Gamma_0(N)'s words gives the class sums, and block chi's operator is
the sum over classes c of chi(c) times class c's sum.  Gamma_0(N) has
elliptic generators; h1 presents their relations when each order is a
unit mod p (p >= 5 when one has order 3).

hecke_charpoly splits when every precondition holds: (Z/N)^* is cyclic,
p does not divide phi, the characters above have order dividing p - 1,
every elliptic order is a unit mod p, and Gamma_0(N) has fewer
generators than Gamma_1(N), the one fixed rule for where the split
saves work (it saves express calls and charpoly rows; at level 5 both
groups have 3 generators, and the split only adds work).  Otherwise,
and when a block is not free, it runs H = {1}: Gamma_1(N) with the one
block of the trivial character (1,), whose operator is the walk's one
class sum, through the same code, so that a level below 4 still
raises BadLevel from free_basis and a torsion module raises
NotFreeModule with the moduli of H^1(Gamma_1(N)).
"""

import math

from .cohomology import SymCoeffs, h1, hecke_matrix, t_ell_reps
from .gamma1 import free_basis
from .linalg import charpoly_mod
from .packed import poly_mul


def _prime_factors(m):
    out, q = [], 2
    while q * q <= m:
        if m % q == 0:
            out.append(q)
            while m % q == 0:
                m //= q
        q += 1
    return out + [m] * (m > 1)


def _unit_powers(N):
    """[g^0, ..., g^(phi-1)] mod N for a generator g of (Z/N)^*, or None
    when (Z/N)^* is not cyclic: N is not 4, q^k or 2 q^k, q an odd prime."""
    odd = N // 2 if N % 4 == 2 else N
    if N < 4 or (N != 4 and (odd % 2 == 0 or len(_prime_factors(odd)) != 1)):
        return None
    phi = sum(math.gcd(d, N) == 1 for d in range(1, N))
    qs = _prime_factors(phi)
    g = next(g for g in range(2, N) if math.gcd(g, N) == 1
             and all(pow(g, phi // q, N) != 1 for q in qs))
    powers = [1]
    for _ in range(phi - 1):
        powers.append(powers[-1] * g % N)
    return powers


def _root_of_unity(e, p, r):
    """A root of unity of order exactly e mod p^r, e | p - 1: the
    Teichmueller lift z^(p^(r-1)) of an element z of order e mod p."""
    qs = _prime_factors(e)
    for y in range(2, p + 1):
        z = pow(y, (p - 1) // e, p)
        if all(pow(z, e // q, p) != 1 for q in qs):
            return pow(z, p ** (r - 1), p ** r)


def _split(N, p, r, n):
    """(basis, characters): Gamma_0(N) and the tables of its characters
    chi(-1) = (-1)^n (values mod p^r at 0..N-1) when every precondition
    holds, else Gamma_1(N) and the trivial character [(1,)]."""
    powers = _unit_powers(N)
    if powers is not None:
        phi = len(powers)
        e = phi if n % 2 else phi // 2  # the order of chi_1, or of chi_2
        if phi % p and (p - 1) % e == 0:
            basis = free_basis(N, (powers[1],))
            if (basis.rank() < 1 + basis.mu * phi // 12
                    and all(m % p for _, m in basis.elliptic)):
                w, M = _root_of_unity(e, p, r), p ** r
                chars = []
                # n odd: chi_i(g^k) = w^(i k) for odd i; n even: all i < e
                for i in range(n % 2, e, 1 + n % 2):
                    chi = [0] * N
                    for k, d in enumerate(powers):
                        chi[d] = pow(w, i * k, M)
                    chars.append(tuple(chi))
                return basis, chars
    return free_basis(N), [(1,)]


def blocks(N, p, r, ell, n):
    """(reps of T_ell, [(chi, presentation, charpoly)] per block): one
    hecke_matrix walk W, then T_chi = sum over classes c of chi(c) times
    class c's block column, read off W's nonzero entries (W is sparse);
    on Gamma_1(N), one class, T = W."""
    basis, chars = _split(N, p, r, n)
    pres = [h1(SymCoeffs(p, r, n, chi), basis) for chi in chars]
    if len(basis.classes) > 1 and not all(x.is_free() for x in pres):
        basis, chars = free_basis(N), [(1,)]
        pres = [h1(SymCoeffs(p, r, n), basis)]
    reps = t_ell_reps(ell, basis)
    W = hecke_matrix(SymCoeffs(p, r, n), basis, reps)
    Ts = [W]  # Gamma_1(N): one class
    if len(basis.classes) > 1:
        RD, M = len(W), p ** r
        # per row of W, its nonzero entries as (column j, class c, value)
        nz = [[(k % RD, basis.classes[k // RD], x)
               for k, x in enumerate(row) if x] for row in W]
        Ts = []
        for chi in chars:
            T = []
            for entries in nz:
                row = [0] * RD
                for j, c, x in entries:
                    row[j] += chi[c] * x
                T.append([y % M for y in row])
            Ts.append(T)
    return reps, [(chi, x, charpoly_mod(x.induced_matrix(T), p, r))
                  for chi, x, T in zip(chars, pres, Ts)]


def hecke_charpoly(N, p, r, ell, n):
    """(reps, charpoly of T_ell on free H^1(Gamma_1(N), Sym^n) mod p^r),
    as the product of the block charpolys."""
    reps, parts = blocks(N, p, r, ell, n)
    P = [1]
    for _, _, Q in parts:
        P = poly_mul(P, Q, p ** r)
    return reps, P
