"""Hecke charpolys on the nebentypus blocks of H^1(Gamma_1(N), Sym^n).

Shapiro's lemma (K. Brown, Cohomology of Groups, GTM 87, ch. III) gives
H^1(Gamma_1(N), V) = H^1(Gamma_0(N), V (x) Z/p^r[H]) as Z/p^r-modules,
H = (Z/N)^* acting on Z/p^r[H] through d.  Let lambda be the exponent
of H for odd n, of H/+-1 for even n.  When p does not divide phi = |H|
and lambda divides p - 1, Z/p^r[H] is the sum of the lines Z/p^r(chi),
every chi with values in the Teichmueller lifts of mu_lambda mod p^r
(each chi the tuple of its values at 0, ..., N - 1, as
cohomology.SymCoeffs reads it), and, over the chi with chi(-1) = (-1)^n,

    H^1(Gamma_1(N), Sym^n) = sum over those chi of H^1(Gamma_0(N), Sym^n(chi)),

where g acts on Sym^n(chi) by chi(d_g) Sym^n(g).  The other characters
give 0: -1 is central, acts by -1, and 2 is a unit.  The Hecke
operators respect the split (W. Stein, Modular Forms, a Computational
Approach, GSM 79, on modular symbols with character), so the charpoly
of T_ell on the free quotient is the product of the block charpolys,
the same polynomial mod p^r.  One walk of cohomology.hecke_matrix over
Gamma_0(N)'s words gives the class sums, and block chi's operator is
the sum over classes c of chi(c) times class c's sum.

One loop over the units builds the characters, for any H.  Each is an
exponent table k, chi(d) = w^k(d), w = z^(p^(r-1)) the Teichmueller
lift of the first z = y^((p-1)/lambda), y = 2, 3, ..., of order lambda
mod p.  The tables start on S = {+-1} with k(-1) = lambda/2 for odd n,
0 for even n.  A unit g outside S has a least o with x = g^o in S; each
table extends in o ways, k(s g^i) = k(s) + i t mod lambda for s in S,
i < o, and the roots t = k(x)/o + j lambda/o, j < o, of o t = k(x) mod
lambda; S grows to <S, g>.  o divides k(x): chi on S (on S/+-1 for even
n) extends to H (to H/+-1), a group of exponent lambda, so with values
in mu_lambda, and k(x) = o u mod lambda when the extension has
chi(g) = w^u; o divides the order of g there, so o divides lambda too.
The loop ends with prod o = phi/2 distinct tables, all the chi with
chi(-1) = (-1)^n; free_basis on -1 and the g's is Gamma_0(N).

hecke_charpoly splits when, beyond those two conditions, every elliptic
order of Gamma_0(N) is a unit mod p (h1 presents their relations then)
and Gamma_0(N) has fewer generators than Gamma_1(N), the one fixed rule
for where the split saves work (at level 5 both have 3 generators, and
the split only adds work).  Otherwise it runs H = {1}: Gamma_1(N) with
the one block of the trivial character (1,), whose operator is the
walk's one class sum, through the same code, so that a level below 4
still raises BadLevel from free_basis.  A modulus p^r that is not an
odd prime power with r >= 1 raises BadRange before either path.  The
displayed sum is one of Z/p^r-modules, so H^1(Gamma_1(N)) is free
exactly when every block is, its torsion the union of theirs: a block
that is not free raises NotFreeModule from its own induced_matrix.
"""

import math

from .cohomology import SymCoeffs, h1, hecke_matrix, t_ell_reps
from .gamma1 import free_basis
from .linalg import charpoly_mod
from .packed import poly_mul
from .padic import _check_modulus


def _order(g, S, m):
    """The least o >= 1 with g^o mod m in the set S (1 in S, g a unit)."""
    o, x = 1, g % m
    while x not in S:
        o, x = o + 1, x * g % m
    return o


def _split(N, p, r, n):
    """(basis, characters): Gamma_0(N) and the tables of its characters
    chi(-1) = (-1)^n (values mod p^r at 0..N-1) when every precondition
    holds, else Gamma_1(N) and the trivial character [(1,)]."""
    _check_modulus(p, r)
    units = [d for d in range(1, N) if math.gcd(d, N) == 1]
    lam = math.lcm(*(_order(d, {1} if n % 2 else {1, N - 1}, N)
                     for d in units))
    if len(units) % p and (p - 1) % lam == 0:
        # exponent tables k, chi = w^k, on the subgroup S of their keys
        tables, gens = [{1: 0, N - 1: lam // 2 * (n % 2)}], [N - 1]
        for g in units:
            if g not in tables[0]:
                o = _order(g, tables[0], N)
                x, powers = pow(g, o, N), [pow(g, i, N) for i in range(o)]
                tables = [{s * h % N: (k[s] + i * t) % lam for s in k
                           for i, h in enumerate(powers)} for k in tables
                          for t in range(k[x] // o, lam, lam // o)]
                gens.append(g)
        basis = free_basis(N, gens)
        if (basis.rank() < 1 + basis.mu * len(units) // 12
                and all(m % p for _, m in basis.elliptic)):
            # w = z^(p^(r-1)) mod p^r depends on z = y^((p-1)/lam) mod p only
            y = next(y for y in range(2, p)
                     if _order(pow(y, (p - 1) // lam, p), {1}, p) == lam)
            w = [pow(y, (p - 1) // lam * p ** (r - 1) * i, p ** r)
                 for i in range(lam)]
            return basis, [tuple(w[k[d]] if d in k else 0 for d in range(N))
                           for k in tables]
    return free_basis(N), [(1,)]


def blocks(N, p, r, ell, n):
    """(reps of T_ell, [(chi, presentation, charpoly)] per block): one
    hecke_matrix walk W, then T_chi = sum over classes c of chi(c) times
    class c's block column, read off W's nonzero entries (W is sparse);
    on Gamma_1(N), one class, T = W."""
    basis, chars = _split(N, p, r, n)
    pres = [h1(SymCoeffs(p, r, n, chi), basis) for chi in chars]
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
