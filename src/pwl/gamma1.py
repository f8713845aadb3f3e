"""Cosets and generating sets for the level subgroups Gamma_H(N) of SL_2(Z).

For a subgroup H of (Z/N)^* let Gamma_H(N) be the matrices of SL_2(Z)
with lower-left entry divisible by N and d mod N in H: H = {1} is
Gamma_1(N), H = (Z/N)^* is Gamma_0(N).  free_basis(N, H) builds every
one of them by one Reidemeister-Schreier routine; free_basis(N) is
Gamma_1(N).  Its right cosets in PSL_2(Z) correspond to unimodular bottom
rows (c, d) mod N up to multiplication by +-H.  PSL_2(Z) is the free
product of <s | s^2> and <u | u^3>, s = (0 -1; 1 0) the rotation and
u = s t with t the unit translation.  A breadth first Schreier
transversal over the cosets and one rule over the cycles of s and of u
(tree edges read (), each other edge but the last of a cycle is a new
generator, the last reads the inverse of their product) give the
generators and a table writing every directed coset edge in them.  A
coset that s or u fixes is a cycle of one edge: it becomes an elliptic
generator g of order m = 2 or 3 in PSL_2(Z), with the relation g^m = 1,
and `elliptic` lists each with its order.  With e_2 and e_3 of them and
mu cosets there are 1 + (mu + 3 e_2 + 2 e_3)/6 generators, and the group
is free on the others.  For N >= 4, Gamma_1(N) is torsion-free (no
elliptic generator) and injects into PSL_2(Z), so it is free of rank
1 + mu/6; when -1 lies in H, Gamma_H(N) contains -1, and its words
and generators are read in PSL_2(Z), up to sign.  FreeBasisData keeps
the permutations perm_s and perm_t of the cosets (indexed in the sorted
order of their canonical bottom rows) and, per coset x, the reduced word
of one t-step, the width w_x of x's t-orbit (its cusp width, a divisor
of N) and the loop word of t^w_x from x.

The classes of a basis key cohomology.hecke_matrix's sums by the d of a
word's prefix: Gamma_1(N) has one class, and any larger H has one class
per unit d mod N up to sign, so that a character chi of (Z/N)^* with
chi(-1) = (-1)^n weighs each class once.

express() writes a group element as +-t^e_0 s t^e_1 ... s t^e_n by the
nearest-integer continued fraction of its left column (each step at
least halves the lower-left entry c, so n <= 1 + log_2 |c|), then walks
the cosets: an s costs one table entry, and t^e with e = q w_x + k,
|k| <= w_x / 2, costs q copies of the loop word and one memoized word of
k t-steps.  The walk is deterministic, so an element has one word;
express replays it against the input as an exact check, up to sign when
-1 lies in H.

free_basis builds the basis afresh on every call and replays every
rewriting entry against the matrix of its directed edge before returning.
"""

import math

from .errors import BadLevel, InternalInconsistency, NotCoprime, NotInGroup
from .matrices import IntMat

ROT = IntMat(0, -1, 1, 0)
SIX = IntMat(0, -1, 1, 1)        # rot * translation, order 3 in PSL_2(Z)
SIX_INV = IntMat(1, 1, -1, 0)


def in_gamma1(mat, N, H=(1,)):
    """Membership in Gamma_H(N): determinant 1, c = 0 and d in H mod N
    (then a = d^-1 mod N); the default H = {1} is Gamma_1(N)."""
    return mat.det() == 1 and mat.c % N == 0 and mat.d % N in H


def _proj_canon(c, d, N, units):
    """Least of the rows h (c, d) mod N over h in units (+-H)."""
    return min(((h * c) % N, (h * d) % N) for h in units)


def _negate(m):
    return IntMat(-m.a, -m.b, -m.c, -m.d)


def _normalize_sign(m, N, H):
    # the one of +-m in Gamma_H(N); when -1 is in H, the one with d mod N
    # below N/2 (d is a unit, so N/2 is not d mod N for N >= 3)
    for w in (m, _negate(m)):
        if in_gamma1(w, N, H) and (N - 1 not in H or 2 * (w.d % N) < N):
            return w
    raise InternalInconsistency(f"{m} is not in the level-{N} subgroup up to sign")


class FreeBasisData:
    """Generators of the level subgroup plus the rewriting table."""

    __slots__ = ("N", "H", "mu", "perm_s", "root", "gens", "elliptic",
                 "classes", "class_of", "expr", "perm_t", "t_word", "width",
                 "loop", "steps")

    def __init__(self, N, H, mu, perm_s, root, gens, elliptic, expr, perm_t,
                 t_word, width, loop):
        self.N = N
        self.H = H
        self.mu = mu
        self.perm_s = perm_s
        self.root = root
        self.gens = gens
        self.elliptic = elliptic  # (generator index, order) per elliptic one
        self.expr = expr
        self.perm_t = perm_t
        self.t_word = t_word
        self.width = width
        self.loop = loop
        self.steps = {}  # (coset, k) -> (word of t^k from it, end coset)
        # class reps, 1 alone for Gamma_1(N), else the units up to sign,
        # and per unit d mod N its class and whether d is minus the rep
        units = [d for d in range(N) if math.gcd(d, N) == 1]
        if len(H) == 1:
            self.classes = [1]
            self.class_of = dict.fromkeys(units, (0, False))
        else:
            self.classes = sorted({min(d, N - d) for d in units})
            pos = {c: i for i, c in enumerate(self.classes)}
            self.class_of = {d: (pos[min(d, N - d)], d > N - d) for d in units}

    def rank(self):
        return len(self.gens)

    def _replays(self, word, mat):
        """The word spells mat, up to sign when -1 lies in H."""
        m = _word_matrix(self.gens, word)
        return m == mat or (self.N - 1 in self.H and m == _negate(mat))

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
        """Word in the generators equal to mat, as signed 1-based indices."""
        if not in_gamma1(mat, self.N, self.H):
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
        if not self._replays(red, mat):
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


def _subgroup(gens, N):
    """The subgroup of (Z/N)^* that the units gens generate."""
    H = {1}
    todo = [1]
    for x in todo:  # todo grows while it is walked
        for g in gens:
            y = x * g % N
            if y not in H:
                H.add(y)
                todo.append(y)
    return frozenset(H)


def free_basis(N, H=(1,)):
    """Generators and rewriting data of Gamma_H(N), H generated by the
    units H mod N (the default is Gamma_1(N)), every rewriting entry
    checked against its edge matrix."""
    if N < 4:
        raise BadLevel(f"level {N} has torsion; need N >= 4")
    if any(math.gcd(h, N) != 1 for h in H):
        raise NotCoprime(f"a generator of H is not a unit mod {N}")
    H = _subgroup(H, N)
    pm = sorted(H | {-h % N for h in H})
    # each unimodular row mod N, keyed to the least row of its +-H orbit
    least = {}
    for c in range(N):
        for d in range(N):
            if (c, d) not in least and math.gcd(math.gcd(c, d), N) == 1:
                low = _proj_canon(c, d, N, pm)
                for h in pm:
                    least[(h * c) % N, (h * d) % N] = low
    rows = sorted(set(least.values()))
    index = {row: i for i, row in enumerate(rows)}
    mu = len(rows)

    def canon_i(c, d):
        return index[least[(c % N, d % N)]]

    perm_s = [canon_i(d, -c) for (c, d) in rows]
    perm_u = [canon_i(d, d - c) for (c, d) in rows]
    e2 = sum(x == y for x, y in enumerate(perm_s))
    e3 = sum(x == y for x, y in enumerate(perm_u))
    if (mu + 3 * e2 + 2 * e3) % 6:
        raise InternalInconsistency(
            f"{mu} cosets with {e2} and {e3} fixed points: no multiple of 6")

    # breadth-first Schreier transversal by the steps s, u and u^-1 = u^2:
    # (next coset, step, tree list, the two cosets it marks).  An s-step puts
    # both ways of its pair in the tree, u^-1 the u-edge that ends at cur
    root = canon_i(0, 1)
    order = [root]
    lifts = {root: IntMat.identity()}
    tree_s, tree_u = [False] * mu, [False] * mu
    for cur in order:  # order grows while it is walked
        ns, nu = perm_s[cur], perm_u[cur]
        nv = perm_u[nu]
        for nxt, step, tree, x, y in ((ns, ROT, tree_s, cur, ns),
                                      (nu, SIX, tree_u, cur, cur),
                                      (nv, SIX_INV, tree_u, nv, nv)):
            if nxt not in lifts:
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
        return _normalize_sign(m, N, H)

    # the rule of the module docstring over s-pairs, then u-triangles, each
    # read from its first coset in walk order; a fixed point is no tree edge
    one = IntMat.identity()
    gens, elliptic = [], []
    expr = {}
    for g, perm, tree, n in (("s", perm_s, tree_s, 2), ("u", perm_u, tree_u, 3)):
        seen = [False] * mu
        for t in order:
            if seen[t]:
                continue
            if perm[t] == t:  # an elliptic generator of order n
                seen[t] = True
                gens.append(edge_matrix(t, g))
                expr[(t, g)] = (len(gens),)
                elliptic.append((len(gens) - 1, n))
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
    expected = 1 + (mu + 3 * e2 + 2 * e3) // 6
    if len(gens) != expected:
        raise InternalInconsistency(
            f"basis has {len(gens)} letters, expected {expected}")

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
    data = FreeBasisData(N, H, mu, perm_s, root, gens, elliptic, expr,
                         perm_t, t_word, width, loop)
    # every rewriting entry must replay to the matrix of its directed edge
    for (t, g), word in expr.items():
        if not data._replays(word, edge_matrix(t, g)):
            raise InternalInconsistency(f"edge ({t}, {g}) fails to replay")
    return data
