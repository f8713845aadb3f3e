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
projective cosets themselves (rows, the permutations perm_s and perm_u,
coset_of); express() decomposes an arbitrary group element into the basis
and replays the product as an exact check.

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
    if m.c % N == 0 and m.a % N == 1 and m.d % N == 1:
        return m
    w = IntMat(-m.a, -m.b, -m.c, -m.d)
    if w.c % N == 0 and w.a % N == 1 and w.d % N == 1:
        return w
    raise InternalInconsistency(f"{m} is not in the level-{N} subgroup up to sign")


class FreeBasisData:
    """Free generators of the level subgroup plus the rewriting table."""

    __slots__ = ("N", "mu", "rows", "perm_s", "perm_u", "perm_u_inv", "root",
                 "lifts", "lift_words", "gens", "expr")

    def __init__(self, N, mu, rows, perm_s, perm_u, perm_u_inv, root, lifts,
                 lift_words, gens, expr):
        self.N = N
        self.mu = mu
        self.rows = rows
        self.perm_s = perm_s
        self.perm_u = perm_u
        self.perm_u_inv = perm_u_inv
        self.root = root
        self.lifts = lifts
        self.lift_words = lift_words
        self.gens = gens
        self.expr = expr

    def rank(self):
        return len(self.gens)

    def coset_of(self, mat):
        return self.rows.index(_proj_canon(mat.c, mat.d, self.N))

    def express(self, mat):
        """Word in the free generators equal to mat, as signed 1-based indices."""
        if not in_gamma1(mat, self.N):
            raise NotInGroup(f"{mat} is not in the level-{self.N} subgroup")
        out = []
        cur = self.root
        for g, e in _su_word(mat):
            if g == "s":
                out.extend(self.expr[(cur, "s")])
                cur = self.perm_s[cur]
            elif e == 1:
                out.extend(self.expr[(cur, "u")])
                cur = self.perm_u[cur]
            else:
                cur = self.perm_u_inv[cur]
                out.extend(-x for x in reversed(self.expr[(cur, "u")]))
        if cur != self.root:
            raise InternalInconsistency("rewriting walk did not close up")
        red = _free_reduce(out)
        if _word_matrix(self.gens, red) != mat:
            raise InternalInconsistency("replayed word disagrees with input")
        return tuple(red)


def _word_matrix(gens, word):
    """Product of a word of signed 1-based indices into gens."""
    prod = IntMat.identity()
    for k in word:
        g = gens[abs(k) - 1]
        prod = prod * (g if k > 0 else g.inverse())
    return prod


def _free_reduce(word):
    out = []
    for k in word:
        if out and out[-1] == -k:
            out.pop()
        else:
            out.append(k)
    return out


def _st_decompose(mat):
    """mat as a left-to-right word of ('s',) and ('t', e) tokens, up to sign."""
    a, b, c, d = mat.entries()
    ops = []
    while c != 0:
        k = -(a // c)
        a, b = a + k * c, b + k * d
        ops.append(k)
        a, b, c, d = -c, -d, a, b
    # now +-(1, b'; 0, 1) with the sign in a; undo the ops left to right
    word = []
    for k in ops:
        word.append(("t", -k))
        word.append(("s",))
    if a * b != 0:
        word.append(("t", a * b))
    return word


def _su_word(mat):
    """mat as a word in s and u (t = s u in the projective group)."""
    out = []
    for tok in _st_decompose(mat):
        if tok[0] == "s":
            out.append(("s", 1))
        else:
            e = tok[1]
            if e > 0:
                out.extend([("s", 1), ("u", 1)] * e)
            else:
                out.extend([("u", -1), ("s", 1)] * (-e))
    return out


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
    words = {root: ()}
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
            words[nxt] = words[cur] + ((g, e),)
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

    data = FreeBasisData(N, mu, rows, perm_s, perm_u, perm_u_inv, root,
                         [lifts[t] for t in range(mu)],
                         [words[t] for t in range(mu)], gens, expr)
    _verify_edges(data, edge_matrix)
    return data


def _verify_edges(data, edge_matrix):
    # every rewriting entry must replay to the matrix of its directed edge
    for (t, g), word in data.expr.items():
        if _word_matrix(data.gens, word) != edge_matrix(t, g):
            raise InternalInconsistency(f"edge ({t}, {g}) fails to replay")
