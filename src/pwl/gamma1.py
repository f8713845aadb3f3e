"""Cosets and free generating sets for level subgroups of SL_2(Z).

Right cosets of the level-N subgroup (lower-left entry divisible by N,
diagonal 1 mod N) inside SL_2(Z) correspond to unimodular bottom rows
(c, d) mod N.  For N >= 4 the subgroup is torsion-free and injects into
PSL_2(Z), which is freely generated modulo s^2 = u^3 = 1 by the rotation
s = (0 -1; 1 0) and u = s * t with t the unit translation.  A breadth
first Schreier transversal over the projective cosets (rows up to global
sign) and one Reidemeister-Schreier rule over the cycles of s and of u
(tree edges read (), each other edge but the last of a cycle is a new
generator, the last reads the inverse of their product) give a free
generating set of rank 1 + mu/6, where mu is the projective index, and a
table writing every directed coset edge in it.  FreeBasisData keeps the
permutations perm_s and perm_t of the projective cosets (indexed in the
sorted order of their canonical bottom rows) and, per coset x, the
reduced word of one t-step, the width w_x of x's t-orbit (its cusp
width, a divisor of N) and the loop word of t^w_x from x.

express() writes a group element as +-t^e_0 s t^e_1 ... s t^e_n by the
nearest-integer continued fraction of its left column (each step at
least halves the lower-left entry c, so n <= 1 + log_2 |c|), then walks
the cosets: an s costs one table entry, and t^e with e = q w_x + k,
|k| <= w_x / 2, costs q copies of the loop word and one memoized word of
k t-steps.  Reduced words in a free group are unique, so the reduced
result is the same whatever the walk; express replays it against the
input as an exact check.

free_basis builds the basis afresh on every call and replays every
rewriting entry against the matrix of its directed edge before returning.
"""

import math

from .errors import BadLevel, InternalInconsistency, NotInGroup
from .matrices import IntMat

ROT = IntMat(0, -1, 1, 0)
SIX = IntMat(0, -1, 1, 1)        # rot * translation, order 3 in PSL_2(Z)
SIX_INV = IntMat(1, 1, -1, 0)


def in_gamma1(mat, N):
    """Membership test: determinant 1, c = 0 and a = d = 1 mod N."""
    return (mat.det() == 1 and mat.c % N == 0
            and mat.a % N == 1 and mat.d % N == 1)


def _proj_canon(c, d, N):
    x = (c % N, d % N)
    y = ((-c) % N, (-d) % N)
    return min(x, y)


def _normalize_sign(m, N):
    # exactly one of +-m has diagonal 1 mod N once N >= 3
    for w in (m, IntMat(-m.a, -m.b, -m.c, -m.d)):
        if in_gamma1(w, N):
            return w
    raise InternalInconsistency(f"{m} is not in the level-{N} subgroup up to sign")


class FreeBasisData:
    """Free generators of the level subgroup plus the rewriting table."""

    __slots__ = ("N", "mu", "perm_s", "root", "gens", "expr", "perm_t",
                 "t_word", "width", "loop", "steps")

    def __init__(self, N, mu, perm_s, root, gens, expr, perm_t, t_word,
                 width, loop):
        self.N = N
        self.mu = mu
        self.perm_s = perm_s
        self.root = root
        self.gens = gens
        self.expr = expr
        self.perm_t = perm_t
        self.t_word = t_word
        self.width = width
        self.loop = loop
        self.steps = {}  # (coset, k) -> (word of t^k from it, end coset)

    def rank(self):
        return len(self.gens)

    def _t_steps(self, x, k):
        """Reduced word of t^k from coset x, 0 < |k| < width, and its end."""
        step = self.steps.get((x, k))
        if step is None:
            word = [] if k > 0 else _inverse(self.loop[x])
            y = x
            for _ in range(k % self.width[x]):
                word.extend(self.t_word[y])
                y = self.perm_t[y]
            step = self.steps[(x, k)] = (tuple(_free_reduce(word)), y)
        return step

    def express(self, mat):
        """Word in the free generators equal to mat, as signed 1-based indices."""
        if not in_gamma1(mat, self.N):
            raise NotInGroup(f"{mat} is not in the level-{self.N} subgroup")
        out = []
        cur = self.root
        for i, e in enumerate(_st_decompose(mat)):
            if i:
                out.extend(self.expr[(cur, "s")])
                cur = self.perm_s[cur]
            # t^e = (t^w)^q t^k with |k| <= w/2: q loops, then k steps
            w = self.width[cur]
            q, k = divmod(e + w // 2, w)
            k -= w // 2
            if q > 0:
                out.extend(self.loop[cur] * q)
            elif q < 0:
                out.extend(_inverse(self.loop[cur]) * -q)
            if k:
                word, cur = self._t_steps(cur, k)
                out.extend(word)
        if cur != self.root:
            raise InternalInconsistency("rewriting walk did not close up")
        red = _free_reduce(out)
        if _word_matrix(self.gens, red) != mat:
            raise InternalInconsistency("replayed word disagrees with input")
        return tuple(red)


def _word_matrix(gens, word):
    """Product of a word of signed 1-based indices into gens (all of
    determinant 1, so a negative index takes the adjugate)."""
    a, b, c, d = 1, 0, 0, 1
    for k in word:
        m = gens[abs(k) - 1]
        e, f, g, h = (m.a, m.b, m.c, m.d) if k > 0 else (m.d, -m.b, -m.c, m.a)
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    return IntMat(a, b, c, d)


def _inverse(word):
    return [-k for k in reversed(word)]


def _free_reduce(word):
    out = []
    for k in word:
        if out and out[-1] == -k:
            out.pop()
        else:
            out.append(k)
    return out


def _st_decompose(mat):
    """Exponents e_0, ..., e_n with mat = +-t^e_0 s t^e_1 s ... s t^e_n.

    Euclid on the left column with nearest-integer quotients: each step
    left-multiplies by s t^k, with k chosen so the new lower-left entry is
    at most half the old one in absolute value."""
    a, b, c, d = mat.entries()
    exps = []
    while c != 0:
        k = -((2 * a + c) // (2 * c))
        a, b = a + k * c, b + k * d
        exps.append(-k)
        a, b, c, d = -c, -d, a, b
    # now +-(1, b'; 0, 1) with the sign in a
    exps.append(a * b)
    return exps


def free_basis(N):
    """Free generators and rewriting data for level N, every rewriting
    entry checked against its edge matrix."""
    if N < 4:
        raise BadLevel(f"level {N} has torsion; need N >= 4")
    rows = sorted({_proj_canon(c, d, N) for c in range(N) for d in range(N)
                   if math.gcd(math.gcd(c, d), N) == 1})
    index = {row: i for i, row in enumerate(rows)}
    mu = len(rows)
    if mu % 6:
        raise InternalInconsistency(f"{mu} projective cosets, not a multiple of 6")

    def canon_i(c, d):
        return index[_proj_canon(c, d, N)]

    perm_s = [canon_i(d, -c) for (c, d) in rows]
    perm_u = [canon_i(d, d - c) for (c, d) in rows]

    # breadth-first Schreier transversal by the steps s, u and u^-1 = u^2:
    # (next coset, step, tree list, the two cosets it marks).  An s-step puts
    # both ways of its pair in the tree, u^-1 the u-edge that ends at cur
    root = canon_i(0, 1)
    order = [root]
    lifts = [None] * mu
    lifts[root] = IntMat.identity()
    tree_s, tree_u = [False] * mu, [False] * mu
    for cur in order:  # order grows while it is walked
        ns, nu = perm_s[cur], perm_u[cur]
        nv = perm_u[nu]
        for nxt, step, tree, x, y in ((ns, ROT, tree_s, cur, ns),
                                      (nu, SIX, tree_u, cur, cur),
                                      (nv, SIX_INV, tree_u, nv, nv)):
            if lifts[nxt] is None:
                lifts[nxt] = lifts[cur] * step
                order.append(nxt)
                tree[x] = tree[y] = True
    if len(order) != mu:
        raise InternalInconsistency(f"walk reached {len(order)} of {mu} cosets")
    for t in order:
        if canon_i(lifts[t].c, lifts[t].d) != t:
            raise InternalInconsistency(f"lift of coset {t} lies in another coset")

    def edge_matrix(t, g):
        tgt = perm_s[t] if g == "s" else perm_u[t]
        m = lifts[t] * (ROT if g == "s" else SIX) * lifts[tgt].inverse()
        return _normalize_sign(m, N)

    # the rule of the module docstring over s-pairs, then u-triangles, each
    # read from its first coset in walk order
    one = IntMat.identity()
    gens = []
    expr = {}
    for g, perm, tree, n in (("s", perm_s, tree_s, 2), ("u", perm_u, tree_u, 3)):
        seen = [False] * mu
        for t in order:
            if seen[t]:
                continue
            cyc = [t, perm[t], perm[perm[t]]][:n]
            if len(set(cyc)) != n:
                raise InternalInconsistency(f"{g} has a short cycle through coset {t}")
            free = []
            for c in cyc:
                seen[c] = True
                if tree[c]:
                    expr[(c, g)] = ()
                else:
                    free.append(c)
            # an s-pair in the tree is one edge walked both ways; a triangle
            # is a cycle, which no tree holds
            if not free and n == 3:
                raise InternalInconsistency(f"u-triangle at coset {t} is all tree")
            if len(free) == 1 and edge_matrix(free[0], g) != one:
                raise InternalInconsistency(f"relator {g}^{n} fails at coset {t}")
            word = ()
            for c in free[:-1]:
                m = edge_matrix(c, g)
                if m == one:
                    raise InternalInconsistency("trivial letter on a non-tree edge")
                gens.append(m)
                expr[(c, g)] = (len(gens),)
                word = (-len(gens),) + word
            if free:
                expr[(free[-1], g)] = word
    if len(gens) != 1 + mu // 6:
        raise InternalInconsistency(
            f"basis has {len(gens)} letters, expected {1 + mu // 6}")

    # t = s^-1 u acts on cosets as s then u; each t-orbit is a cusp of
    # width w, and t^w loops back to the coset it starts from
    perm_t = [perm_u[perm_s[t]] for t in range(mu)]
    t_word = [tuple(_free_reduce(expr[(t, "s")] + expr[(perm_s[t], "u")]))
              for t in range(mu)]
    width, loop = [], []
    for t in range(mu):
        word, y, w = list(t_word[t]), perm_t[t], 1
        while y != t:
            word.extend(t_word[y])
            y, w = perm_t[y], w + 1
        width.append(w)
        loop.append(tuple(_free_reduce(word)))
    data = FreeBasisData(N, mu, perm_s, root, gens, expr, perm_t, t_word,
                         width, loop)
    _verify_edges(data, edge_matrix)
    return data


def _verify_edges(data, edge_matrix):
    # every rewriting entry must replay to the matrix of its directed edge
    for (t, g), word in data.expr.items():
        if _word_matrix(data.gens, word) != edge_matrix(t, g):
            raise InternalInconsistency(f"edge ({t}, {g}) fails to replay")
