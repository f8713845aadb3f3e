"""First cohomology of the level subgroups and its double-coset operators.

The level subgroup is free (rank 1 + mu/6), so a 1-cocycle is determined
by arbitrary values on the free generators and H^1 is the quotient of the
value space by coboundaries.  Coefficient systems share a small duck
interface (zero/act/eq/rand; SymCoeffs adds dim/act_matrix for the matrix
paths), and their values combine with + and -:

  SymCoeffs      symmetric-power vectors acted on through the weight-n
                 matrix action; n = 0 is Z/p^r with the trivial action;
  FamilyCoeffs   coordinate windows of weight-space functions acted on
                 through the interpolated family action (each action
                 reads out_width + one tail and returns out_width).

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
rewritten words, on packed rows (linalg.pack_row, W-bit fields with W
worked out from the longest generator's letter count): a letter
multiplies the D prefix rows by a generator action as D sums of int
products, O(D^2) interpreted steps where a D x D mat_mul takes O(D^3),
and the unreduced rows are summed per block before one reduction; a
letter that acts as the identity (every letter on Sym^0) skips its
product.  h1 stacks act_matrix(g) - I over the generators into the
coboundary matrix and presents the quotient by its diagonalization,
giving class coordinates, orders, and induced operator matrices (with
charpoly available on free presentations).  The induced operator
multiplies only the free rows of U, which are sparse, into the operator,
and reads the free columns of U^-1 as sparse columns.
"""

import math
from operator import add, mul

from .errors import (BadRange, DimensionMismatch, InternalInconsistency,
                     NotCoprime, NotFreeModule, WidthInsufficient)
from .gamma1 import in_gamma1
from .iwasawa import (FamilyVec, WeightFn, act_family, branch_count,
                      family_tail, sp_vector)
from .linalg import (charpoly_mod, identity_mat, mat_mul, mat_vec, pack_row,
                     smith_mod, unpack_row)
from .matrices import IntMat
from .padic import _check_modulus, is_prime
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

    act reads the first out_width + family_tail coordinates of a stored
    value and returns out_width, so stored_width must budget one tail.
    Cocycle._fold and hecke_images act once on each stored value, and
    zero() is out_width wide, so their results are out_width wide: a
    second action on them raises WidthInsufficient.
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
        return FamilyVec.zero(self.p, self.r, self.d, self.out_width,
                              self.out_width)

    def act(self, mat, x):
        tail = family_tail(self.p, self.r, self.d)
        return act_family(mat, FamilyVec(self.p, self.r, self.d, self.out_width,
                                         x.coords[:self.out_width + tail]))

    def eq(self, x, y):
        return x.agrees(y, min(self.out_width, x.width(), y.width()))

    def rand(self, rng):
        M = self.p ** self.r
        nb = branch_count(self.p)
        coords = [WeightFn._raw(self.p, self.r, self.d,
                                [[rng.randrange(M) for _ in range(self.d)]
                                 for _ in range(nb)])
                  for _ in range(self.stored_width)]
        return FamilyVec(self.p, self.r, self.d, self.out_width, coords)


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
    if B.det() != det:
        return None
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


def hecke_matrix(coeffs, basis, reps):
    """Matrix of the operator on stacked generator values, assembled in
    one pass over the rewritten words.

    Along a word the prefix matrix S (entries in [0, M), M = p^r) is
    multiplied by one generator action per letter.  The generator actions
    are packed once, row by row, into W-bit fields, so row i of S G is the
    single int sum_t S[i][t] G[t] and unpacking it gives the reduced S for
    the next letter.  Each letter adds the packed prefix rows P to its
    block (h, q), or Z - P for a negative letter, where every field of Z
    is z = D M (M - 1): every field of P is at most D (M - 1)^2 <= z, so
    every field added is in [0, z], and z = 0 mod M, so Z - P = -P field
    by field mod M.  With L the most letters over the words of one
    generator, W = bits(L z) gives L z < 2^W: the block sums never carry
    between fields and each block is unpacked once when its generator's
    words are done.
    """
    D = coeffs.dim()
    R = basis.rank()
    M = coeffs.p ** coeffs.r
    adjs, words = _partner_words(basis, reps)
    z = D * M * (M - 1)
    L = max(sum(map(len, gen_words)) for gen_words in words)
    W = (L * z).bit_length()
    T = [[0] * (R * D) for _ in range(R * D)]

    def packed(mat):
        return [pack_row(row, W) for row in mat]

    eye = packed(identity_mat(D))
    gen_mats = [packed(coeffs.act_matrix(g)) for g in basis.gens]
    inv_mats = [packed(coeffs.act_matrix(g.inverse())) for g in basis.gens]
    Z = pack_row([z] * D, W)
    no_rows = [0] * D
    # each rep's adj(A) action, built once: S and P are rebound per
    # letter, never mutated, so every generator's walk can start from it
    starts = [(S, packed(S)) for S in map(coeffs.act_matrix, adjs)]
    for h, gen_words in enumerate(words):
        blocks = {}  # letter index q -> summed packed rows of block (h, q)
        for (S, P), word in zip(starts, gen_words):
            for k in word:
                q = abs(k) - 1
                if k > 0:
                    blocks[q] = list(map(add, blocks.get(q, no_rows), P))
                Gp = gen_mats[q] if k > 0 else inv_mats[q]
                if Gp != eye:  # an identity letter leaves S and P as they are
                    P = [sum(map(mul, Si, Gp)) for Si in S]
                    S = [unpack_row(x, D, W, M) for x in P]
                if k < 0:
                    blocks[q] = [b + Z - x
                                 for b, x in zip(blocks.get(q, no_rows), P)]
        for q, rows in blocks.items():
            for i in range(D):
                T[h * D + i][q * D:(q + 1) * D] = unpack_row(rows[i], D, W, M)
    return T


class H1Presentation:
    """Quotient of stacked generator values by the coboundary image."""

    __slots__ = ("coeffs", "basis", "beta", "sf", "moduli")

    def __init__(self, coeffs, basis, beta, sf):
        self.coeffs = coeffs
        self.basis = basis
        self.beta = beta
        self.sf = sf
        total = basis.rank() * coeffs.dim()
        self.moduli = list(sf.exps) + [coeffs.r] * (total - len(sf.exps))

    def free_rank(self):
        return sum(1 for e in self.moduli if e == self.coeffs.r)

    def is_free(self):
        return all(e in (0, self.coeffs.r) for e in self.moduli)

    def class_coords(self, cocycle_or_stack):
        """Class of a cocycle (or of its stacked coordinates), one entry
        mod p^e per divisor: the class map the H^1 tests check against."""
        stack = (cocycle_or_stack.stacked_coords()
                 if isinstance(cocycle_or_stack, Cocycle) else cocycle_or_stack)
        p = self.coeffs.p
        w = mat_vec(self.sf.U, stack, p ** self.coeffs.r)
        return tuple(x % p ** e for x, e in zip(w, self.moduli))

    def induced_matrix(self, T):
        """Matrix of T on the free quotient coordinates: rows and columns F
        of U T U^-1, F the free indices.  On a free presentation T
        preserves the coboundaries exactly when Q T beta = 0, Q the rows F
        of U (sparse: mat_mul skips their zeros); that is checked first,
        then Q T is read against the columns F of U^-1 as sparse columns."""
        if not self.is_free():
            raise NotFreeModule(f"mixed elementary divisors {self.moduli}")
        M = self.coeffs.p ** self.coeffs.r
        F = [i for i, e in enumerate(self.moduli) if e == self.coeffs.r]
        QT = mat_mul([self.sf.U[f] for f in F], T, M)
        if any(any(row) for row in mat_mul(QT, self.beta, M)):
            raise InternalInconsistency(
                "operator does not preserve coboundaries")
        cols = [[(i, row[f]) for i, row in enumerate(self.sf.Uinv) if row[f]]
                for f in F]
        return [[sum(row[i] * x for i, x in col) % M for col in cols]
                for row in QT]

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
    return H1Presentation(coeffs, basis, beta, sf)


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
    other branch.
    """
    sym = cocycle.coeffs
    p, r = sym.p, sym.r
    k = sym.n + 2
    out_width = k - 1
    fam_coeffs = FamilyCoeffs(p, r, d, out_width, out_width)
    zeta = k % branch_count(p)
    values = []
    for v in cocycle.values:
        coords = []
        for x in v.coords:
            comps = [[0] * d for _ in range(branch_count(p))]
            comps[zeta][0] = x
            coords.append(WeightFn(p, r, d, comps))
        F = FamilyVec(p, r, d, out_width, coords)
        if specialize(sp_vector(k, F), k - 2) != v:
            raise InternalInconsistency("family preimage fails to specialize")
        values.append(F)
    return Cocycle(fam_coeffs, cocycle.basis, values)
