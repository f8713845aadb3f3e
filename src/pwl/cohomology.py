"""First cohomology of the level subgroups and its double-coset operators.

The level subgroup is free (rank 1 + mu/6), so a 1-cocycle is determined
by arbitrary values on the free generators and H^1 is the quotient of the
value space by coboundaries.  Coefficient systems share a small duck
interface (zero/act/rand; SymCoeffs adds dim/act_matrix for the matrix
paths, and eq), and their values combine with + and -:

  SymCoeffs      symmetric-power vectors acted on through the weight-n
                 matrix action; n = 0 is Z/p^r with the trivial action;
  FamilyCoeffs   coordinate windows of weight-space functions acted on
                 through the interpolated family action (each action
                 reads out_width + tail_width(p, r) coordinates and
                 returns out_width).

Cocycle.eval folds the defining identity c(gh) = c(g) + g.c(h) along the
rewriting of a group element, applying exactly one coefficient action per
letter, each to a stored value, so no action is applied to the result of
another.

Double-coset operators: T_ell for a prime ell has the closed-form reps
(1 j; 0 ell), 0 <= j < ell, plus sigma_ell (ell 0; 0 1) when ell does not
divide N, with sigma_ell = diamond_rep(ell, N) (Diamond-Shurman, A First
Course in Modular Forms, Prop. 5.2.1).  Each translate A gamma is matched
to the rep that absorbs it in O(1): the left coset Gamma_1(N) B is keyed
by the Hermite form H of B's row lattice (an invariant of SL_2(Z) B) and
the bottom row mod N of B H^-1, one dict holds the key of every rep, and
one exact coset test _gamma1_quotient confirms the match.  A translate
with no rep, or two reps of one coset, raises.  The operator value
(A c)(g) = sum_theta adj(A_theta).c(gamma_theta) uses the main involution
(adjugate) on the left.  One walk, _partner_words, rewrites each partner
word gamma_theta; hecke_images folds it from adj(A_theta) and
hecke_matrix packs it, one coefficient action per letter on a stored
value (a family image is out_width wide).  hecke_matrix assembles the
operator as a matrix on stacked generator values in one pass over the
rewritten words.  It writes each rep's start act_matrix(adj A) as L Y0
through its k nonzero columns or rows, k <= min(r, n + 1) for every T_p
rep (Sym^n contracts mod p^r under adj A), and carries along a word only
the k x D state Y0 P, as k packed rows (linalg.pack_row, 64-bit fields
wherever the bounds fit): a letter is k C-level dot products, one
Montgomery step and one struct unpack, O(k D) int products where the
full D x D prefix takes O(D^2).  The unreduced states are summed per
block and per L, reps with one L share the sums, and each L is folded
into each sum once; a letter that acts as the identity (every letter on
Sym^0) skips its product and costs one packed add.  h1
stacks act_matrix(g) - I over the generators into the coboundary matrix
and presents the quotient by its diagonalization, giving class
coordinates, orders, and induced operator matrices (with charpoly
available on free presentations).  The induced operator multiplies
only the free rows of U, which are sparse, into the operator, and
selects columns of that product: U^-1 maps each free coordinate f to
the unit vector e_pos[f].
"""

import math
import struct
from operator import mul

from .errors import (BadRange, DimensionMismatch, InternalInconsistency,
                     NotCoprime, NotFreeModule, WidthInsufficient)
from .gamma1 import in_gamma1
from .iwasawa import FamilyVec, WeightFn, act_family, branch_count, sp_vector
from .linalg import (_width, charpoly_mod, identity_mat, mat_mul, mat_vec,
                     pack_row, smith_mod, unpack_row)
from .matrices import IntMat
from .padic import _check_modulus, is_prime, tail_width
from .sympow import SymVec, act_sym, specialize, sym_matrix


class SymCoeffs:
    """Degree-n symmetric-power vectors mod p^r."""

    def __init__(self, p, r, n):
        _check_modulus(p, r)
        self.p, self.r, self.n = p, r, n

    def dim(self):
        return self.n + 1

    def zero(self):
        return SymVec(self.p, self.r, self.n, [0] * (self.n + 1))

    def act(self, mat, x):
        return act_sym(mat, x)

    def act_matrix(self, mat):
        return sym_matrix(self.n, mat, self.p, self.r)

    def eq(self, x, y):
        return x == y

    def rand(self, rng):
        M = self.p ** self.r
        return SymVec(self.p, self.r, self.n,
                      [rng.randrange(M) for _ in range(self.n + 1)])


class FamilyCoeffs:
    """Windows of weight-space functions with the family action.

    The one place that names an output width: act reads the first
    out_width + tail_width(p, r) coordinates of a stored value (fewer
    raise WidthInsufficient) and returns out_width.  Cocycle._fold and
    hecke_images act once on each stored value, and zero() is out_width
    wide, so their results are out_width wide: a second action raises.
    """

    def __init__(self, p, r, d, out_width, stored_width):
        _check_modulus(p, r)
        if stored_width < out_width:
            raise WidthInsufficient(
                f"stored width {stored_width} is below out width {out_width}")
        self.p, self.r, self.d = p, r, d
        self.out_width = out_width
        self.stored_width = stored_width

    def zero(self):
        return FamilyVec.zero(self.p, self.r, self.d, self.out_width)

    def act(self, mat, x):
        w = self.out_width + tail_width(self.p, self.r)
        if len(x.coords) < w:
            raise WidthInsufficient(
                f"a stored value needs {w} coordinates, has {len(x.coords)}")
        return act_family(mat, FamilyVec(self.p, self.r, self.d, x.coords[:w]))

    def rand(self, rng):
        M = self.p ** self.r
        nb = branch_count(self.p)
        coords = [WeightFn._raw(self.p, self.r, self.d,
                                [[rng.randrange(M) for _ in range(self.d)]
                                 for _ in range(nb)])
                  for _ in range(self.stored_width)]
        return FamilyVec(self.p, self.r, self.d, coords)


class Cocycle:
    """1-cocycle on the free generators of the level subgroup."""

    __slots__ = ("coeffs", "basis", "values")

    def __init__(self, coeffs, basis, values):
        if len(values) != basis.rank():
            raise DimensionMismatch(
                f"{len(values)} values for {basis.rank()} generators")
        self.coeffs = coeffs
        self.basis = basis
        self.values = list(values)

    @classmethod
    def random(cls, coeffs, basis, rng):
        return cls(coeffs, basis, [coeffs.rand(rng) for _ in range(basis.rank())])

    def __add__(self, other):
        return Cocycle(self.coeffs, self.basis,
                       [x + y for x, y in zip(self.values, other.values)])

    def __sub__(self, other):
        return Cocycle(self.coeffs, self.basis,
                       [x - y for x, y in zip(self.values, other.values)])

    def eval(self, target):
        """Value on a group element (IntMat): its rewritten word folded
        from the identity."""
        return self._fold(self.basis.express(target), IntMat.identity())

    def _fold(self, word, cur):
        """cur.c(w) for the group element w that `word` spells, folding
        c(gh) = c(g) + g.c(h) letter by letter with the prefix matrix
        starting at cur: one coefficient action per letter."""
        val = self.coeffs.zero()
        for k in word:
            if k > 0:
                g = self.basis.gens[k - 1]
                val += self.coeffs.act(cur, self.values[k - 1])
                cur = cur * g
            else:
                g = self.basis.gens[-k - 1]
                cur = cur * g.inverse()
                val -= self.coeffs.act(cur, self.values[-k - 1])
        return val

    def stacked_coords(self):
        out = []
        for v in self.values:
            out.extend(v.coords)
        return out


def _gamma1_quotient(B, A, N):
    """B adj(A) / det A if it is an integer matrix in Gamma_1(N), else None:
    B and A lie in the same left coset exactly when it is not None."""
    det = A.det()
    C = B * A.cofactor()
    if any(e % det for e in C.entries()):
        return None
    G = IntMat(*(e // det for e in C.entries()))
    return G if in_gamma1(G, N) else None


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
    Prop. 5.2.1)."""
    if not is_prime(ell):
        raise BadRange(f"T_ell needs a prime ell, got {ell}")
    N = basis.N
    reps = [IntMat(1, j, 0, ell) for j in range(ell)]
    if N % ell:
        reps.append(diamond_rep(ell, N) * IntMat(ell, 0, 0, 1))
    return reps


def _coset_key(B, N):
    """Key of the left coset Gamma_1(N) B = Gamma_1(N) U H: the Hermite
    form H = (g, b; 0, h) of B's row lattice, 0 <= b < h, and the bottom
    row mod N of U = B H^-1 in SL_2(Z), which fixes Gamma_1(N) U."""
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
    return g, top, h, u % N, (d - u * top) // h % N


def _coset_index(reps, N):
    """Coset key -> rep; raises if two reps share a coset."""
    index = {}
    for A in reps:
        key = _coset_key(A, N)
        if key in index:
            raise InternalInconsistency(f"{index[key]} and {A} share a coset")
        index[key] = A
    return index


def _coset_partner(B, index, N):
    """B A^-1 in Gamma_1(N) for the rep A of B's coset (exactly checked)."""
    A = index.get(_coset_key(B, N))
    G = None if A is None else _gamma1_quotient(B, A, N)
    if G is None:
        raise InternalInconsistency("no representative absorbs the translate")
    return G


def _partner_words(basis, reps):
    """adj A for each rep A, and per generator gamma the words of the
    partners of A gamma in rep order: the walk both operators fold or
    pack."""
    index = _coset_index(reps, basis.N)
    words = [[basis.express(_coset_partner(A * gam, index, basis.N))
              for A in reps] for gam in basis.gens]
    return [A.cofactor() for A in reps], words


def hecke_images(cocycle, reps):
    """Value-level double-coset operator: new cocycle on the generators."""
    coeffs = cocycle.coeffs
    adjs, words = _partner_words(cocycle.basis, reps)
    out = []
    for gen_words in words:
        val = coeffs.zero()
        for adj, word in zip(adjs, gen_words):
            val += cocycle._fold(word, adj)
        out.append(val)
    return Cocycle(coeffs, cocycle.basis, out)


def _factor_start(S):
    """((R0, k, L), Y0) with S = L Y0 exactly, k the rows of Y0: by the
    nonzero columns C of S (Y0 = I[C, :], L = S[:, C]) when they are fewer
    than the span R = R0.. of its nonzero rows, else by R (Y0 = S[R, :],
    L the injection of R, written ()).  A column plan keeps rows R0.. of
    S[:, C]; the rows outside R are zero."""
    D = len(S)
    cols = [t for t in range(D) if any(row[t] for row in S)]
    rows = [i for i, row in enumerate(S) if any(row)] or [0]
    span = S[rows[0]:rows[-1] + 1]
    if len(cols) < len(span):
        L = tuple(tuple(row[t] for t in cols) for row in span)
        return ((rows[0], len(cols), L),
                [[int(t == c) for t in range(D)] for c in cols])
    return (rows[0], len(span), ()), span


def hecke_matrix(coeffs, basis, reps):
    """Matrix of the operator on stacked generator values, assembled in
    one pass over the rewritten words.

    Block (h, q) of T sums +S P over the letters q and -S P G_q^-1 over
    the letters -q of the words of generator h, S = act_matrix(adj A) for
    the word's rep A and P the action of the letters before.  Four facts
    make the walk exact at O(k D) int products per letter, not O(D^2):

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
       (h, q), or Z - Y for a negative letter, where every field of Z is
       2M = 0 mod M: every field added is in [0, 2M].  Generator h's words
       have at most `most` letters in all, so the fields of a sum, and
       the sums over plans of their fields, are at most 2 M most.  Row i
       of block (h, q) is the sum over plans of row i of L times the
       plan's sum, one dot product with the sum's packed rows, so its
       fields are at most lam 2 M most, lam >= 1 the largest row sum of
       any L (1 for an injection), and W >= bits(2 M most lam) keeps them
       apart.  Row i of T's block row h holds block q at bit q D W and is
       unpacked once, mod M.
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
    plans = {}
    # per rep: its plan's index, Y0 packed and as scalars (rebound per
    # letter, never mutated, so every generator's walk starts from them),
    # the offsets of its rows, Z, and its k D fields' count and unpacker
    starts = []
    for plan, Y0 in factors:
        n = plan[1] * D
        flat = [x for row in Y0 for x in row]
        starts.append((plans.setdefault(plan, len(plans)), pack_row(flat, W),
                       flat, range(0, n, D),
                       pack_row([2 * M] * n, W), n,
                       struct.Struct(f"<{n}Q").unpack))
    T = []
    for gen_words in words:
        sums = [{} for _ in plans]  # per plan: q -> summed packed states
        for (g, x, e, offs, Z, n, unpack), word in zip(starts, gen_words):
            acc = sums[g]
            for a in word:
                if a > 0:
                    q = a - 1
                    acc[q] = acc.get(q, 0) + x
                    G = gen_rows[q]
                else:
                    q = -a - 1
                    G = inv_rows[q]
                if G is not None:
                    x = sum([sum(map(mul, e[s:s + D], G)) << (s * W)
                             for s in offs])
                    x = (x + (((x & LOW) * Mp) & LOW) * M) >> kap
                    e = (unpack(x.to_bytes(8 * n, "little")) if W == 64
                         else unpack_row(x, n, W, 1 << W))
                if a < 0:
                    acc[q] = acc.get(q, 0) + Z - x
        Th = [0] * D  # row i of block row h, block q at bit q D W
        for (R0, k, L), acc in zip(plans, sums):
            for q, y in acc.items():
                rows = [(y >> s) & ROW for s in range(0, k * DW, DW)]
                if L:
                    rows = [sum(map(mul, Li, rows)) for Li in L]
                for i, v in enumerate(rows, R0):
                    Th[i] += v << (q * DW)
        T += [unpack_row(y, R * D, W, M) for y in Th]
    return T


class H1Presentation:
    """Quotient of stacked generator values by the coboundary image."""

    __slots__ = ("coeffs", "beta", "sf", "moduli")

    def __init__(self, coeffs, beta, sf):
        self.coeffs, self.beta, self.sf = coeffs, beta, sf
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
        """Matrix of T on the free quotient coordinates: rows and columns F
        of U T U^-1, F the free indices.  On a free presentation T
        preserves the coboundaries exactly when Q T beta = 0, Q the rows F
        of U (sparse: mat_mul skips their zeros); that is checked first.
        A free f has no pivot, so U^-1 e_f = e_pos[f] (SmithForm): column f
        of the result is column pos[f] of Q T, a selection, not a product."""
        n = len(self.moduli)
        if len(T) != n or any(len(row) != n for row in T):
            raise DimensionMismatch(f"operator is not {n} x {n}")
        if not self.is_free():
            raise NotFreeModule(f"mixed elementary divisors {self.moduli}")
        M = self.coeffs.p ** self.coeffs.r
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

    def charpoly(self, T):
        return charpoly_mod(self.induced_matrix(T), self.coeffs.p, self.coeffs.r)


def h1(coeffs, basis):
    """Presentation of H^1: beta stacks act_matrix(g) - I over the
    generators g, so its column t is the coboundary of the t-th unit
    vector, and one Smith form of beta gives the quotient."""
    M = coeffs.p ** coeffs.r
    beta = []
    for g in basis.gens:
        for i, row in enumerate(coeffs.act_matrix(g)):
            beta.append([(x - (i == t)) % M for t, x in enumerate(row)])
    sf = smith_mod(beta, coeffs.p, coeffs.r)
    return H1Presentation(coeffs, beta, sf)


def specialize_cocycle(k, cocycle):
    """Family-coefficient cocycle evaluated at integer weight k, as a
    symmetric-power cocycle of degree k - 2; raises WidthInsufficient
    below k - 1 certified coordinates."""
    coeffs = cocycle.coeffs
    out_coeffs = SymCoeffs(coeffs.p, min(coeffs.r, coeffs.d), k - 2)
    values = [specialize(sp_vector(k, F), k - 2) for F in cocycle.values]
    return Cocycle(out_coeffs, cocycle.basis, values)


def family_preimage(cocycle, d):
    """Interpolate a symmetric-power cocycle into family coefficients.

    The weight k = n + 2 lies on the branch zeta = k mod p(p-1), where the
    series (s_0, ..., s_(d-1)) takes the value sum_j s_j (k - zeta)^j.  Its
    first term has coefficient 1, so each coordinate v lifts to the
    constant series (v, 0, ..., 0) on branch zeta and to zero on every
    other branch.  The k - 1 lifted coordinates are followed by
    tail_width(p, r) zero ones, the tail one action reads, so the lift can
    be evaluated and operated on, not only specialized back.
    """
    sym = cocycle.coeffs
    p, r = sym.p, sym.r
    k = sym.n + 2
    out_width = k - 1
    tail = tail_width(p, r)
    fam_coeffs = FamilyCoeffs(p, r, d, out_width, out_width + tail)
    zeta = k % branch_count(p)
    values = []
    for v in cocycle.values:
        coords = []
        for x in v.coords:
            comps = [[0] * d for _ in range(branch_count(p))]
            comps[zeta][0] = x
            coords.append(WeightFn(p, r, d, comps))
        coords += [WeightFn.zero(p, r, d) for _ in range(tail)]
        values.append(FamilyVec(p, r, d, coords))
    out = Cocycle(fam_coeffs, cocycle.basis, values)
    if specialize_cocycle(k, out).values != cocycle.values:
        raise InternalInconsistency("family preimage fails to specialize")
    return out
