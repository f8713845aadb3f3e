"""Cosets and free generating sets for level subgroups of SL_2(Z).

Right cosets of the level-N subgroup (lower-left entry divisible by N,
diagonal 1 mod N) inside SL_2(Z) correspond to unimodular bottom rows
(c, d) mod N.  For N >= 4 the subgroup is torsion-free and injects into
PSL_2(Z), which is freely generated modulo s^2 = u^3 = 1 by the rotation
s = (0 -1; 1 0) and u = s * t with t the unit translation.  A breadth
first Schreier transversal over the projective cosets (rows up to global
sign) therefore yields a free generating set of rank 1 + mu/6, where mu
is the projective index, plus a rewriting table expressing every directed
coset edge as a word in the kept generators.  FreeBasisData keeps the
projective cosets themselves (rows and the permutations perm_s, perm_u
and perm_t) and, per coset x, the reduced word of one t-step, the width
w_x of x's t-orbit (its cusp width, a divisor of N) and the loop word of
t^w_x from x.

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

    __slots__ = ("N", "mu", "rows", "perm_s", "perm_u", "root", "lifts",
                 "gens", "expr", "perm_t", "t_word", "width", "loop", "steps")

    def __init__(self, N, mu, rows, perm_s, perm_u, root, lifts, gens, expr,
                 perm_t, t_word, width, loop):
        self.N = N
        self.mu = mu
        self.rows = rows
        self.perm_s = perm_s
        self.perm_u = perm_u
        self.root = root
        self.lifts = lifts
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
    perm_u_inv = [0] * mu
    for i, j in enumerate(perm_u):
        perm_u_inv[j] = i

    root = canon_i(0, 1)
    order = [root]
    pos = {root: 0}
    lifts = {root: IntMat.identity()}
    tree = set()
    qi = 0
    while qi < len(order):
        cur = order[qi]
        qi += 1
        for g, e in (("s", 1), ("u", 1), ("u", -1)):
            if g == "s":
                nxt = perm_s[cur]
            else:
                nxt = perm_u[cur] if e == 1 else perm_u_inv[cur]
            if nxt in pos:
                continue
            pos[nxt] = len(order)
            order.append(nxt)
            step = ROT if g == "s" else (SIX if e == 1 else SIX_INV)
            lifts[nxt] = lifts[cur] * step
            if g == "s":
                tree.add((cur, "s"))
                tree.add((nxt, "s"))
            elif e == 1:
                tree.add((cur, "u"))
            else:
                tree.add((nxt, "u"))
    if len(order) != mu:
        raise InternalInconsistency(f"walk reached {len(order)} of {mu} cosets")
    for t in order:
        if canon_i(lifts[t].c, lifts[t].d) != t:
            raise InternalInconsistency(f"lift of coset {t} lies in another coset")

    def edge_matrix(t, g):
        tgt = perm_s[t] if g == "s" else perm_u[t]
        m = lifts[t] * (ROT if g == "s" else SIX) * lifts[tgt].inverse()
        return _normalize_sign(m, N)

    gens = []
    expr = {}
    for t in order:
        t2 = perm_s[t]
        if t2 == t:
            raise InternalInconsistency(f"s fixes coset {t}")
        if pos[t2] < pos[t]:
            continue
        if (t, "s") in tree:
            expr[(t, "s")] = ()
            expr[(t2, "s")] = ()
        else:
            m = edge_matrix(t, "s")
            if m == IntMat.identity():
                raise InternalInconsistency("trivial letter on a non-tree edge")
            gens.append(m)
            k = len(gens)
            expr[(t, "s")] = (k,)
            expr[(t2, "s")] = (-k,)
    seen = set()
    for t in order:
        if t in seen:
            continue
        cyc = [t, perm_u[t], perm_u[perm_u[t]]]
        if len(set(cyc)) != 3:
            raise InternalInconsistency(f"u has a short cycle through coset {t}")
        seen.update(cyc)
        stat = [(c, "u") in tree for c in cyc]
        nontree = [i for i in range(3) if not stat[i]]
        if not nontree:
            raise InternalInconsistency(f"u-triangle at coset {t} is all tree")
        for i in range(3):
            if stat[i]:
                expr[(cyc[i], "u")] = ()
        if len(nontree) == 1:
            # both neighbors are tree edges, so the triangle relation makes
            # the remaining letter trivial
            if edge_matrix(cyc[nontree[0]], "u") != IntMat.identity():
                raise InternalInconsistency("triangle relation violated")
            expr[(cyc[nontree[0]], "u")] = ()
        elif len(nontree) == 2:
            j = stat.index(True)
            i1, i2 = (j + 1) % 3, (j + 2) % 3
            gens.append(edge_matrix(cyc[i1], "u"))
            k = len(gens)
            expr[(cyc[i1], "u")] = (k,)
            expr[(cyc[i2], "u")] = (-k,)
        else:
            gens.append(edge_matrix(cyc[0], "u"))
            k1 = len(gens)
            gens.append(edge_matrix(cyc[1], "u"))
            k2 = len(gens)
            expr[(cyc[0], "u")] = (k1,)
            expr[(cyc[1], "u")] = (k2,)
            expr[(cyc[2], "u")] = (-k2, -k1)
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
    data = FreeBasisData(N, mu, rows, perm_s, perm_u, root,
                         [lifts[t] for t in range(mu)], gens, expr, perm_t,
                         t_word, width, loop)
    _verify_edges(data, edge_matrix)
    return data


def _verify_edges(data, edge_matrix):
    # every rewriting entry must replay to the matrix of its directed edge
    for (t, g), word in data.expr.items():
        if _word_matrix(data.gens, word) != edge_matrix(t, g):
            raise InternalInconsistency(f"edge ({t}, {g}) fails to replay")
