"""First cohomology of the level subgroups and its double-coset operators.

Gamma_1(N) is free (rank 1 + mu/6), so a 1-cocycle is determined by
arbitrary values on the free generators and H^1 is the quotient of the
value space by coboundaries.  Gamma_0(N) (gamma1.free_basis with H =
(Z/N)^*) also has elliptic generators t of order m = 2 or 3, and a
cocycle has N_t c(t) = 0, N_t = 1 + t + ... + t^(m-1); for m a unit mod
p, h1 adds the columns of N_t to the coboundaries, and the operator is
read through Pi_t = 1 - N_t / m on t's block, the projection onto the
cocycle values.  The coefficients are SymCoeffs, Sym^n(chi):
symmetric-power vectors on which g acts by chi(d_g) times its weight-n
matrix, chi a Dirichlet character as its tuple of values (default (1,),
the trivial one); n = 0 with (1,) is Z/p^r with the trivial action.
Its dim/act_matrix serve the matrix paths here, and its act_sums/rand/eq
the value path in pwl.iwasawa (cocycles, hecke_images).

Double-coset operators: T_ell for a prime ell has the closed-form reps
(1 j; 0 ell), 0 <= j < ell, plus sigma_ell (ell 0; 0 1) when ell does not
divide N, with sigma_ell = diamond_rep(ell, N) (Diamond-Shurman, A First
Course in Modular Forms, Prop. 5.2.1).  Each translate A gamma is matched
to the rep that absorbs it in O(1): the left coset Gamma_H(N) B is keyed
by the Hermite form E of B's row lattice (an invariant of SL_2(Z) B) and
the least over x in H of the bottom rows mod N of x B E^-1, one dict
holds the key of every rep, and one exact coset test _gamma1_quotient
confirms the match.  A translate with no rep, or two reps of one coset,
raises.  The operator value (A c)(g) = sum_theta adj(A_theta).c(gamma_theta)
uses the main involution (adjugate) on the left.  One walk, _partner_words,
rewrites each partner word gamma_theta, which iwasawa.hecke_images sums
and hecke_matrix packs into the operator's matrix on stacked generator
values in one pass.  It writes each rep's start act_matrix(adj A) as L Y0
through its k nonzero columns or rows, k <= min(r, n + 1) for every T_p
rep (Sym^n contracts mod p^r under adj A), and carries along a word only
the k x D state Y0 P, as k packed rows (linalg.pack_row, 64-bit fields
wherever the bounds fit): a letter is k C-level dot products, one
Montgomery step and one struct unpack, O(k D) int products where the
full D x D prefix takes O(D^2).  Reps with one start (Y0 and the d of
adj A) share a walk: the words of every generator from that start are
walked in sorted order, and each word reuses the states of the prefix it
shares with the word before it.  The unreduced states are summed per
block and per L, reps with one L share the sums, and each L is folded
once per generator over all its blocks; a letter that acts as the
identity (every letter on Sym^0) skips its product and costs one packed
add.  The sums are also kept apart by the class of the prefix's d in
(Z/N)^*/+-1 (one class on Gamma_1(N)), so that one walk of Gamma_0(N)'s
words serves every character chi: the operator on Sym^n(chi) is the sum
over classes c of chi(c) times class c's sum (pwl.shapiro assembles it);
on Sym^0 the sums are letter counts.  h1 stacks act_matrix(g) - I over the
generators into the coboundary matrix, with the N_t columns beside it,
and presents the quotient by its diagonalization, giving class
coordinates, orders, and induced operator matrices on free
presentations.  The induced operator multiplies
only the free rows of U, which are sparse, into the operator, and
selects columns of that product: U^-1 maps each free coordinate f to
the unit vector e_pos[f].
"""

import math
import struct
from itertools import compress, count
from operator import itemgetter, mul, ne

from .errors import (BadRange, DimensionMismatch, InternalInconsistency,
                     NotAUnit, NotCoprime, NotFreeModule, PrecisionMismatch)
from .gamma1 import in_gamma1
from .linalg import (_poly_eval_matrix, _width, identity_mat, mat_mul,
                     mat_vec, pack_row, smith_mod, unpack_row)
from .matrices import IntMat
from .padic import _check_modulus, is_prime
from .sympow import SymVec, sym_matrix

# The value path moved to pwl.iwasawa; perfbench/family_job.py still
# imports these names from here.  The aliases go with ROADMAP item 10/11's
# benchmark change, which may edit perfbench/.
_MOVED = ("Cocycle", "FamilyCoeffs", "hecke_images", "specialize_cocycle")


def __getattr__(name):  # PEP 562: a moved name, read from pwl.iwasawa
    if name in _MOVED:
        from . import iwasawa
        return getattr(iwasawa, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class SymCoeffs:
    """Degree-n symmetric-power vectors mod p^r twisted by a Dirichlet
    character chi, the tuple of its values mod p^r at 0, ..., m - 1,
    read at d % m: g acts by chi(d_g) times its Sym^n matrix.  The
    default chi = (1,) is the trivial character, Sym^n itself."""

    def __init__(self, p, r, n, chi=(1,)):
        _check_modulus(p, r)
        if not chi:
            raise BadRange("a character needs at least one value")
        self.p, self.r, self.n, self.chi = p, r, n, chi

    def dim(self):
        return self.n + 1

    def act_sums(self, batches, values):
        """Per batch of terms (g, j, sign), sum sign g.values[j]."""
        if any(v.n != self.n for v in values):
            raise DimensionMismatch(f"a value is not of degree {self.n}")
        if any((v.p, v.r) != (self.p, self.r) for v in values):
            raise PrecisionMismatch(f"a value is not mod {self.p}^{self.r}")
        S = {g: self.act_matrix(g) for g in {t[0] for b in batches for t in b}}
        return [SymVec(self.p, self.r, self.n, [
            sum(sign * sum(map(mul, S[g][i], values[j].coords))
                for g, j, sign in batch) for i in range(self.n + 1)])
            for batch in batches]

    def act_matrix(self, mat):
        S = sym_matrix(self.n, mat, self.p, self.r)
        s, M = self.chi[mat.d % len(self.chi)], self.p ** self.r
        return S if s == 1 else [[s * x % M for x in row] for row in S]

    def eq(self, x, y):
        return x == y

    def rand(self, rng):
        M = self.p ** self.r
        return SymVec(self.p, self.r, self.n,
                      [rng.randrange(M) for _ in range(self.n + 1)])


def _gamma1_quotient(B, A, N, H):
    """B adj(A) / det A if it is an integer matrix in Gamma_H(N), else None:
    B and A lie in the same left coset exactly when it is not None."""
    det = A.det()
    C = B * A.cofactor()
    if any(e % det for e in C.entries()):
        return None
    G = IntMat(*(e // det for e in C.entries()))
    return G if in_gamma1(G, N, H) else None


def diamond_rep(n, N):
    """Determinant-1 matrix congruent to (n^-1, 0; 0, n) mod N."""
    if math.gcd(n, N) != 1:
        raise NotCoprime(f"{n} shares a factor with the level {N}")
    d = n % N
    a = pow(d, -1, N)
    b = (a * d - 1) // N
    return IntMat(a, b, N, d)


def t_ell_reps(ell, basis):
    """Reps A of the cosets Gamma_1(N) A that make up the double coset
    Gamma_1(N) diag(1, ell) Gamma_1(N), for a prime ell (Diamond-Shurman,
    Prop. 5.2.1); the same for Gamma_0(N), as sigma_ell lies in it.  Each
    adj A has d = 1 mod N."""
    if not is_prime(ell):
        raise BadRange(f"T_ell needs a prime ell, got {ell}")
    N = basis.N
    reps = [IntMat(1, j, 0, ell) for j in range(ell)]
    if N % ell:
        reps.append(diamond_rep(ell, N) * IntMat(ell, 0, 0, 1))
    return reps


def _coset_key(B, N, H):
    """Key of the left coset Gamma_H(N) B = Gamma_H(N) U E: the Hermite
    form E = (g, b; 0, h) of B's row lattice, 0 <= b < h, and the least
    of the bottom rows mod N of x U, x in H, U = B E^-1 in SL_2(Z): they
    fix Gamma_H(N) U."""
    a, b, c, d = B.entries()
    # extended Euclid: x a + y c = g = gcd(a, c) > 0
    g, g1, x, x1, y, y1 = a, c, 1, 0, 0, 1
    while g1:
        q = g // g1
        g, g1 = g1, g - q * g1
        x, x1 = x1, x - q * x1
        y, y1 = y1, y - q * y1
    if g < 0:
        g, x, y = -g, -x, -y
    h = (a * d - b * c) // g
    top = (x * b + y * d) % h
    u = c // g
    v = (d - u * top) // h
    return g, top, h, min(((e * u) % N, (e * v) % N) for e in H)


def _partner_words(basis, reps):
    """adj A for each rep A, and per generator gamma the words of the
    partners of A gamma in rep order: the walk both operators fold or
    pack, each translate's rep keyed by _coset_key and checked by
    _gamma1_quotient; a repeated or missing coset raises."""
    N, H = basis.N, basis.H
    index = {}
    for A in reps:
        key = _coset_key(A, N, H)
        if key in index:
            raise InternalInconsistency(f"{index[key]} and {A} share a coset")
        index[key] = A
    words = [[] for _ in basis.gens]
    for gam, row in zip(basis.gens, words):
        for A in reps:
            B = A * gam
            rep = index.get(_coset_key(B, N, H))
            G = None if rep is None else _gamma1_quotient(B, rep, N, H)
            if G is None:
                raise InternalInconsistency(
                    "no representative absorbs the translate")
            row.append(basis.express(G))
    return [A.cofactor() for A in reps], words


def _factor_start(S):
    """((R0, k, L), Y0) with S = L Y0 exactly, k the rows of Y0: by the
    nonzero columns C of S (Y0 = I[C, :], L = S[:, C]) when they are fewer
    than the span R = R0.. of its nonzero rows, else by R (Y0 = S[R, :],
    L the injection of R, written ()).  A column plan keeps rows R0.. of
    S[:, C]; the rows outside R are zero."""
    D = len(S)
    cols = [t for t, col in enumerate(zip(*S)) if any(col)]
    rows = [i for i, row in enumerate(S) if any(row)] or [0]
    span = S[rows[0]:rows[-1] + 1]
    if len(cols) < len(span):
        L = tuple(tuple(row[t] for t in cols) for row in span)
        return ((rows[0], len(cols), L),
                [[int(t == c) for t in range(D)] for c in cols])
    return (rows[0], len(span), ()), span


def _reader(n, w):
    """x -> its first n w-bit fields, unreduced (one struct call at w =
    64): the one call hecke_matrix's walk makes per state product."""
    if w == 64:
        unpack = struct.Struct(f"<{n}Q").unpack
        return lambda x: unpack(x.to_bytes(8 * n, "little"))
    return lambda x: unpack_row(x, n, w, 1 << w)


def hecke_matrix(coeffs, basis, reps):
    """Class sums of the operator on stacked generator values, assembled
    in one pass over the rewritten words: R D rows and C R D columns, C
    the basis's classes, so for Gamma_1(N) (C = 1) the operator's matrix.

    Block (h, c R + q) of T sums +S P over the letters q and -S P G_q^-1
    over the letters -q of the words of generator h whose prefix lies in
    class c, S = act_matrix(adj A) for the word's rep A and P the action
    of the letters before.  The prefix of a letter q is adj(A) times the
    letters before it, and that of a letter -q includes G_q^-1: its
    bottom row is (0, d) mod N, and the walk carries d mod N along,
    multiplying by d of each letter.  A state whose d is minus its
    class's rep enters the sum negated when n = D - 1 is odd, as the
    blocks have chi(-1) = (-1)^n.  The operator on Sym^n(chi) is then
    the sum over classes c of chi(c) times block column c: chi(d) S P
    is what the letter adds there (h1's coefficients act so).  Five
    facts make the walk exact at O(k D) int products per letter, not
    O(D^2), and at one product per distinct prefix of a start's words:

    1. The factorization is exact.  _factor_start writes S = L Y0 with
       k = min(|C|, |R|) rows in Y0: S e_t = 0 for t outside C, so
       S = S[:, C] I[C, :], and e_i^T S = 0 for i outside R, so
       S = I[:, R] S[R, :].  Then S P = L (Y0 P), so the walk carries
       only the k x D state Y = Y0 P, each block is the sum over plans
       (R0, k, L) of L times the signed sum of its reps' states, and reps
       with one plan share those sums: Sym^0 (S = (1)) and the
       sigma-type starts below have the injection plan, whose fold only
       places rows.
    2. Every T_p rep has k <= min(r, n + 1).  Row i of sym_matrix is
       (a X + b)^i (c X + d)^(n-i).  For A = (1 j; 0 p), adj A =
       (p, -j; 0, 1) and row i is (p X - j)^i, whose X^t coefficient is
       divisible by p^t: columns t >= r vanish mod p^r.  For sigma_p =
       (a b; N d) (p 0; 0 1), adj = (d, -b; -pN, pa) and row i is
       (d X - b)^i p^(n-i) (a - N X)^(n-i): rows i <= n - r vanish.
    3. The Montgomery row bound.  Y is one int of k rows of D W-bit
       fields (linalg.pack_row), row c at bit c D W, every field in
       [0, 2M), M = p^r; Y0's are in [0, M).  A letter's action is stored
       once as packed rows of G' = G 2^kap mod M, so row c of the next
       state is x = sum_t Y[c][t] G'_t, one C-level dot product, and the
       k rows are reduced at once by one Montgomery step (Montgomery,
       Math. Comp. 44 (1985)): with LOW the low kap bits of every field
       and Mp = -M^-1 mod 2^kap (M is odd),

           m = ((x & LOW) Mp) & LOW;  x' = (x + m M) >> kap.

       Take kap = bits(2 D M), so 2 D M < 2^kap, and W >= 2 kap.  Field
       by field x_i <= D (2M - 1)(M - 1) < 2 D M^2 < 2^kap M, so m_i <
       2^kap, x_i + m_i M < 2^(kap+1) M < 2^(2 kap) <= 2^W and it is
       0 mod 2^kap: the shift divides every field without a mask, and
       x'_i = (x_i + m_i M) / 2^kap < 2M, x'_i = x_i 2^-kap mod M.  The
       next letter reads the fields back as scalars: one struct unpack
       when W = 64 (_width rounds W up to 64 where the bounds fit), else
       unpack_row's shifts, mod 2^W so that they stay the fields.
    4. The fold bound.  Each letter adds the state to its plan's sum for
       (h, c R + q), or Z - Y for a negative letter or a negated state
       (not both), where every field of Z is 2M = 0 mod M: every field
       added is in [0, 2M].  Generator h's words
       have at most `most` letters in all, so the fields of a sum, and
       the sums over plans of their fields, are at most 2 M most.  Row i
       of block (h, q) is the sum over plans of row i of L times the
       plan's sum, so its fields are at most lam 2 M most, lam >= 1 the
       largest row sum of any L (1 for an injection), and W >=
       bits(2 M most lam) keeps them apart.  Each (h, plan) is folded
       once: row t of every block sum of the plan goes at its block's
       offset, bit (c R + q) D W, into one int per t, and one dot
       product of row i of L with those k ints gives row i of every
       block at once.  Field by field that is the same sum, so no field
       reaches the next.  Row i of T's block row h, the sum over plans,
       holds block c R + q at that offset and is unpacked once, mod M.
    5. Sharing is exact.  A state and its d mod N depend only on the
       start (Y0 and the d of adj A) and the letters before it, and what
       a letter adds depends only on those: a word that shares its first
       s letters with an earlier word of the same start reuses their
       states and adds the same values, to its own generator's and
       plan's sums.  So reps with one start share one walk over every
       generator's words, and all generators' sums are live at once.
       The words are walked in sorted order, keeping the path of the
       last word, so a word reuses the prefix it shares with the word
       just before it, and that is the longest it shares with any
       earlier word: for u <= v <= w, a prefix P of both u and w is one
       of v, as v cannot leave P below u or above w, nor stop inside P
       (it would sort before u).  The sums are those of separate walks,
       term for term, so fact 4's bound holds.  At Sym^16, level 5, T_31
       the state products fall from 938 to 645 (772 if only the words
       of one generator shared).
    """
    D = coeffs.dim()
    R = basis.rank()
    M = coeffs.p ** coeffs.r
    adjs, words = _partner_words(basis, reps)
    factors = [_factor_start(S) for S in map(coeffs.act_matrix, adjs)]
    lam = max([1] + [sum(Li) for (_, _, L), _ in factors for Li in L])
    kap = (2 * D * M).bit_length()
    most = max(sum(map(len, gen_words)) for gen_words in words)
    W = max(2 * kap, _width(2 * M * most * lam))
    DW = D * W
    LOW = pack_row([(1 << kap) - 1] * D
                   * max((k for (_, k, _), _ in factors), default=0), W)
    Mp = -pow(M, -1, 1 << kap) % (1 << kap)
    ROW = (1 << DW) - 1
    eye = identity_mat(D)

    def scaled_rows(mat):
        # an identity letter leaves the state as it is: None skips it
        if mat == eye:
            return None
        return [pack_row([(x << kap) % M for x in row], W) for row in mat]

    gen_rows = [scaled_rows(coeffs.act_matrix(g)) for g in basis.gens]
    inv_rows = [scaled_rows(coeffs.act_matrix(g.inverse()))
                for g in basis.gens]
    # the d mod N of each letter's action, and per unit d the block offset
    # c R of its class c and whether its state enters the class negated
    N = basis.N
    gen_d = [g.d % N for g in basis.gens]
    inv_d = [g.a % N for g in basis.gens]
    odd = (D - 1) % 2
    cls = {d: (c * R, neg and odd) for d, (c, neg) in basis.class_of.items()}
    plans = {}
    plan_of = [plans.setdefault(plan, len(plans)) for plan, _ in factors]
    sums = [[{} for _ in plans] for _ in words]  # c R + q -> summed states
    # per walk start, keyed by Y0 packed, its k D fields' count and the d
    # mod N of adj A: Y0 as scalars, the offsets of its rows, Z, its field
    # reader, and the (word, sum) pairs of every generator and rep that
    # start there
    walks = {}
    for i, ((_, Y0), adj, g) in enumerate(zip(factors, adjs, plan_of)):
        flat = [x for row in Y0 for x in row]
        n = len(flat)
        key = (pack_row(flat, W), n, adj.d % N)
        if key not in walks:
            walks[key] = (flat, range(0, n, D), pack_row([2 * M] * n, W),
                          _reader(n, W), [])
        walks[key][-1].extend((gen_words[i], gen_sums[g])
                              for gen_words, gen_sums in zip(words, sums))
    for (x0, _, dd0), (e0, offs, Z, read, todo) in walks.items():
        todo.sort(key=itemgetter(0))
        path = []  # per letter of the last word: (x, e, dd) after it, and
        last = ()  # what it added where
        for word, acc in todo:
            s = next(compress(count(), map(ne, word, last)),
                     min(len(word), len(last)))
            del path[s:]
            for _, _, _, cq, y in path:
                acc[cq] = acc.get(cq, 0) + y
            x, e, dd = path[-1][:3] if path else (x0, e0, dd0)
            for a in word[s:]:
                if a > 0:
                    q = a - 1
                    c, neg = cls[dd]
                    cq, y = c + q, (Z - x if neg else x)
                    G = gen_rows[q]
                    dd = dd * gen_d[q] % N
                else:
                    q = -a - 1
                    G = inv_rows[q]
                    dd = dd * inv_d[q] % N
                if G is not None:
                    x = sum([sum(map(mul, e[o:o + D], G)) << (o * W)
                             for o in offs])
                    x = (x + (((x & LOW) * Mp) & LOW) * M) >> kap
                    e = read(x)
                if a < 0:
                    c, neg = cls[dd]
                    cq, y = c + q, (x if neg else Z - x)
                acc[cq] = acc.get(cq, 0) + y
                path.append((x, e, dd, cq, y))
            last = word
    T = []
    width = len(basis.classes) * R * D
    for gen_sums in sums:
        Th = [0] * D  # row i of block row h
        for (R0, k, L), acc in zip(plans, gen_sums):
            # row t of every block of the plan's sum, at the block's offset
            rows = [sum([((y >> t) & ROW) << (cq * DW)
                         for cq, y in acc.items()])
                    for t in range(0, k * DW, DW)]
            if L:
                rows = [sum(map(mul, Li, rows)) for Li in L]
            for i, v in enumerate(rows, R0):
                Th[i] += v
        T += [unpack_row(y, width, W, M) for y in Th]
    return T


class H1Presentation:
    """Quotient of stacked generator values by the coboundary image and
    the images of N_t; proj holds (t, Pi_t) per elliptic generator t."""

    __slots__ = ("coeffs", "beta", "sf", "moduli", "proj")

    def __init__(self, coeffs, beta, sf, proj):
        self.coeffs, self.beta, self.sf, self.proj = coeffs, beta, sf, proj
        self.moduli = list(sf.exps) + [coeffs.r] * (len(beta) - len(sf.exps))

    def free_rank(self):
        return sum(1 for e in self.moduli if e == self.coeffs.r)

    def is_free(self):
        return all(e in (0, self.coeffs.r) for e in self.moduli)

    def class_coords(self, cocycle):
        """Class of a cocycle (whose length Cocycle checks), one entry mod
        p^e per divisor: the class map the H^1 tests check against."""
        p = self.coeffs.p
        w = mat_vec(self.sf.U, cocycle.stacked_coords(), p ** self.coeffs.r)
        return tuple(x % p ** e for x, e in zip(w, self.moduli))

    def induced_matrix(self, T):
        """Matrix of T Pi on the free quotient coordinates: rows and columns
        F of U T Pi U^-1, F the free indices.  Pi is Pi_t on the block of
        each elliptic generator t and I elsewhere, so T Pi is defined on
        every value vector.  On a free presentation T Pi preserves the
        relations exactly when Q T Pi beta = 0, Q the rows F of U (sparse:
        mat_mul skips their zeros); that is checked first.  A free f has no
        pivot, so U^-1 e_f = e_pos[f] (SmithForm): column f of the result
        is column pos[f] of Q T Pi, a selection, not a product."""
        n = len(self.moduli)
        if len(T) != n or any(len(row) != n for row in T):
            raise DimensionMismatch(f"operator is not {n} x {n}")
        if not self.is_free():
            raise NotFreeModule(f"mixed elementary divisors {self.moduli}")
        M = self.coeffs.p ** self.coeffs.r
        D = self.coeffs.dim()
        for t, Pi in self.proj:
            block = mat_mul([row[t * D:t * D + D] for row in T], Pi, M)
            T = [row[:t * D] + new + row[t * D + D:]
                 for row, new in zip(T, block)]
        F = [i for i, e in enumerate(self.moduli) if e == self.coeffs.r]
        QT = mat_mul([self.sf.U[f] for f in F], T, M)
        if any(any(row) for row in mat_mul(QT, self.beta, M)):
            raise InternalInconsistency(
                "operator does not preserve coboundaries")
        S = [self.sf.pos[f] for f in F]
        for f, s in zip(F, S):
            col = [row[s] for row in self.sf.U]
            if col[f] != 1 or col.count(0) != len(col) - 1:
                raise InternalInconsistency(
                    f"column {s} of U is not the unit vector e_{f}")
        return [[row[s] for s in S] for row in QT]


def h1(coeffs, basis):
    """Presentation of H^1: beta stacks act_matrix(g) - I over the
    generators g, so its column t is the coboundary of the t-th unit
    vector, and one Smith form of beta gives the quotient.

    An elliptic generator t of order m adds the columns of
    N_t = 1 + t + ... + t^(m-1) (linalg._poly_eval_matrix) on t's block:
    a cocycle has N_t c(t) = 0.  As t^m acts as 1, t N_t = N_t and
    N_t^2 = m N_t; when m is a unit mod p (else NotAUnit),
    Pi_t = 1 - N_t / m is the projection onto ker N_t along im N_t, the
    cocycles are V^gens / sum_t im N_t, and
    H^1 = V^gens / (coboundaries + sum_t im N_t)."""
    M = coeffs.p ** coeffs.r
    D = coeffs.dim()
    rel = len(basis.elliptic) * D
    beta = []
    for g in basis.gens:
        for i, row in enumerate(coeffs.act_matrix(g)):
            beta.append([(x - (i == t)) % M for t, x in enumerate(row)]
                        + [0] * rel)
    proj = []
    for j, (t, m) in enumerate(basis.elliptic):
        if m % coeffs.p == 0:
            raise NotAUnit(
                f"an elliptic generator of order {m} at p = {coeffs.p}")
        Nt = _poly_eval_matrix([1] * m, coeffs.act_matrix(basis.gens[t]), M)
        for i in range(D):
            beta[t * D + i][D + j * D:D + j * D + D] = Nt[i]
        inv = pow(m, -1, M)
        proj.append((t, [[((i == k) - x * inv) % M for k, x in enumerate(row)]
                         for i, row in enumerate(Nt)]))
    sf = smith_mod(beta, coeffs.p, coeffs.r)
    return H1Presentation(coeffs, beta, sf, proj)
