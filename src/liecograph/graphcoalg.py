"""Cofree graph coalgebra elements and the Lie-coalgebra quotient: graded
cobracket (cut each edge, tensor both sides both ways with Koszul signs),
iterated cobracket, the word-problem decision procedure, graphification of
bar words, and generators for the relation suites (arrow-reversing, Arnold,
shuffles, reverse-all, cyclic).

The quotient has a basis known in advance: the super-Lyndon words of each
content (`super_lyndon_words`, also the shuffle oracle's basis).  Their
standard bracketings pair with them in a unitriangular block
(`bar_quotient`), and both sides of the duality solve in it through
linalg.Echelon: a word's bar coordinates by back substitution in the
block's rows, so build_E never builds a graph and `to_bar_basis` reads a
graph's fully iterated cobracket through the same solve, and liealg's
normal form by forward substitution in its columns.  `_tree_column` is the
one recursion pairing long graphs with trees, for both sides.  Every cache
here is a memo of the generator table it was computed over, and no memo
value refers back to its table, so a dropped table is freed without the
cycle collector.  The one exception is `_witt_dimension`, whose values
depend on multiplicities and parities alone: one 1024-entry LRU memo serves
every table (`pi --window 2..11 xyz.alg` fills 319 entries).
"""

import weakref
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import factorial, gcd, prod

from .errors import CapExceeded
from .shapes import (SGraph, _adjacency, cut_edge, enumerate_graphs,
                     long_graph, tree_leaves)
from .elements import (GraphElement, TensorElement, canonical_term,
                       koszul_sign)
from .linalg import Echelon, add_into

__all__ = [
    "cobracket",
    "iterated_cobracket",
    "is_zero_in_E",
    "to_bar_basis",
    "bar_quotient",
    "super_lyndon_words",
    "graphify",
    "relation_generators",
]


def cobracket(g):
    """Graded cobracket G -> G (x) G.  For each edge e pointing from side G1
    to side G2: +koszul(unshuffle to G1-labels then G2-labels) G1 (x) G2
    minus koszul(unshuffle the other way) G2 (x) G1, the first sign times
    (-1)^(|G1| |G2|)."""
    table = g.table
    out = {}
    for ((n, edges), labels), coeff in g.terms.items():
        G = SGraph(n, edges, _checked=True)
        odd = [0, *(table.degree[x] % 2 for x in labels)]
        for e in range(len(edges)):
            G1, G2, (s1, s2) = cut_edge(G, e)
            l1 = tuple(labels[v - 1] for v in s1)
            l2 = tuple(labels[v - 1] for v in s2)
            k12, k21 = _cut_signs(odd, s1)
            key1, c1 = canonical_term(table, G1.n, G1.edges, l1)
            key2, c2 = canonical_term(table, G2.n, G2.edges, l2)
            if c1 and c2:
                add_into(out, (key1, key2), coeff * c1 * c2 * k12)
                add_into(out, (key2, key1), -coeff * c1 * c2 * k21)
    return TensorElement(table, out)


def _cut_signs(odd, s1):
    """The signs (k12, k21) of a cut with source side s1, on a graph whose
    vertex v has a label of parity odd[v] (odd[0] unused).  k12, the Koszul
    sign of the unshuffle to s1 then the rest s2, counts the odd pairs
    u in s1, v in s2 with v < u in one ascending pass over the vertices;
    k21 = k12 (-1)^(|G1| |G2|)."""
    side1 = set(s1)
    pairs = odd1 = odd2 = 0
    for v in range(1, len(odd)):
        if odd[v]:
            if v in side1:
                pairs += odd2
                odd1 += 1
            else:
                odd2 += 1
    k12 = -1 if pairs % 2 else 1
    return k12, -k12 if odd1 * odd2 % 2 else k12


def _iterated_term(table, key, k):
    """Iterated cobracket of a single canonical term, memoized on the table
    (pairing._term_pair reads the single cobrackets); a plain terms dict.
    Each key's cobracket is taken once, at k = 1, and read from the memo
    at every larger k."""
    memo = table.memo("iterated_cobracket")
    hit = memo.get((key, k))
    if hit is not None:
        return hit
    if k == 0:
        res = {(key,): 1}
    elif k == 1:
        res = cobracket(GraphElement(table, {key: 1})).terms
    else:
        res = {}
        for (k1, k2), c in _iterated_term(table, key, 1).items():
            for keys, cc in _iterated_term(table, k1, k - 1).items():
                add_into(res, keys + (k2,), c * cc)
    memo[(key, k)] = res
    return res


def iterated_cobracket(g, k):
    """Left-iterated cobracket ]g[^k in G^(x)(k+1): cut an edge, iterate on
    the first tensor factor, keep the second as the last factor."""
    out = {}
    for key, c in g.terms.items():
        for keys, cc in _iterated_term(g.table, key, k).items():
            add_into(out, keys, c * cc)
    return TensorElement(g.table, out)


def is_zero_in_E(g):
    """(flag, witness): whether g vanishes in the Lie-coalgebra quotient, and
    if not a nonzero term of an iterated cobracket.  A term with more leaf-
    peeling orders than the ZERO_CAP-letter long graph's is refused first."""
    bound = 1 << ZERO_CAP - 1
    for n, edges in {key[0] for key in g.terms}:
        # 2^(n - 1) <= orders <= 2 (n - 1)!: 2 to m - 1 leaves of m vertices
        if n > ZERO_CAP or (2 * factorial(n - 1) > bound
                            and _peeling_orders(n, edges) > bound):
            raise CapExceeded(f"zero test capped at {bound} leaf-peeling "
                              f"orders a term; a weight-{n} term has more")
    for n in g.weights():
        t = iterated_cobracket(g.component(n), n - 1).terms
        if t:
            key = min(t, key=str)
            return False, (key, t[key])
    return True, None


def _peeling_orders(n, edges):
    """Leaf-peeling orders, the terms of the fully iterated cobracket on
    distinct letters: over the last vertex r, sum n! / prod subtree sizes."""
    adj, total = _adjacency(n, edges), 0
    for r in range(1, n + 1):
        down, parent, size = [r], [0] * (n + 1), [1] * (n + 1)
        for v in down:  # breadth first from r, extended while it is read
            for u in adj[v]:
                if u != parent[v]:
                    parent[u] = v
                    down.append(u)
        for v in reversed(down):
            size[parent[v]] += size[v]
        total += factorial(n) // prod(size[1:])
    return total


def graphify(word, table, coeff=1):
    """Bar word (tuple of generator names) -> long-graph element."""
    return GraphElement.from_term(
        table, long_graph(range(1, len(word) + 1)), word, coeff)


# ---------------------------------------------------------------------------
# bar-basis normal form

# to_bar_basis on the long graph of n distinct letters (2 vCPUs): 0.1 s and
# 24 MB at n = 7, 1.1 s and 158 MB at n = 8
BAR_CAP = 7
# element_pair: at most 4 ms a 12-letter term pair, ~n^3 past it (2 vCPUs);
# is_zero_in_E admits the 2^(ZERO_CAP - 1) leaf-peeling orders of the long
# graph on ZERO_CAP letters, 0.05 s on distinct letters, ~2x a letter
ZERO_CAP = 12


def _iterated_vector(g):
    """Injective linear coordinates of g's Lie-coalgebra class: the fully
    iterated cobracket as a map into tensors of single slots."""
    out = {}
    for n in g.weights():
        t = iterated_cobracket(g.component(n), n - 1)
        for keys, c in t.terms.items():
            add_into(out, tuple(k[1][0] for k in keys), c)
    return out


@lru_cache(maxsize=1024)
def _witt_dimension(mults, odd):
    """Dimension of the free Lie superalgebra in multidegree mults over
    letters of these parities (Petrogradsky 2000), by Moebius inversion of
    sum_{k | mults} c_k dim L(mults/k) / k = multinomial(mults) / n, with
    n = |mults| and c_k = (-1)^((k+1) * the odd letters of mults/k), in
    integers: n L(mults) = multinomial - sum_{k > 1} c_k (n/k) L(mults/k)."""
    n, g = sum(mults), gcd(*mults)
    total = factorial(n) // prod(map(factorial, mults))
    for k in (k for k in range(2, g + 1) if g % k == 0):
        sub = tuple(m // k for m in mults)
        c = (-1) ** ((k + 1) * sum(m * o for m, o in zip(sub, odd)))
        total -= c * (n // k) * _witt_dimension(sub, odd)
    dim, rest = divmod(total, n)
    assert not rest, f"n L = {total} at {mults}"
    return dim


def _lie_dimension(table, content):
    """Dimension of a content's part of the free Lie superalgebra (odd
    letters: odd table degree), counted without listing a word."""
    letters = sorted(set(content), key=table.sort_key)
    return _witt_dimension(tuple(map(content.count, letters)),
                           tuple(table.degree[x] % 2 for x in letters))


def _certify_dimension(table, content, dim, what):
    """AssertionError naming the content unless dim is the dimension of its
    part of the free Lie superalgebra."""
    want = _lie_dimension(table, content)
    if dim != want:
        raise AssertionError(f"{what} of content {content} has dimension "
                             f"{dim}, the free Lie superalgebra {want}")


# ---------------------------------------------------------------------------
# super-Lyndon words and the triangular pairing block

def _lyndon_words(letters, mults):
    """The Lyndon words with mults[i] copies of letters[i], in lexicographic
    order of letter positions, by the fixed-content prenecklace recursion
    (Sawada 2003): a[:t] is a prenecklace whose longest Lyndon prefix has
    length p, and a letter equal to a[t - p] keeps p, a larger one makes
    all of a[:t + 1] Lyndon.  A full word is Lyndon when p is its length."""
    n, num, out = sum(mults), list(mults), []
    if not n:
        return out
    k, a = len(letters), [0] * n
    num[0] -= 1  # a Lyndon word starts with its least letter
    # depth first without recursion: at depth t, a[:t] is the prefix, p[t]
    # its p and nxt[t] the next letter to try at a[t]
    p, nxt = [0] * (n + 1), [0] * (n + 1)
    t, p[1] = 1, 1
    while t:
        j = nxt[t]
        if t == n:
            if p[t] == n:
                out.append(tuple(letters[i] for i in a))
            j = k
        while j < k and not num[j]:
            j += 1
        if j == k:  # depth t is done: back to t - 1 and undo its letter
            t -= 1
            num[a[t]] += 1
            continue
        a[t], nxt[t] = j, j + 1
        num[j] -= 1
        p[t + 1] = p[t] if j == a[t - p[t]] else t + 1
        t += 1
        nxt[t] = a[t - p[t]]
    return out


def super_lyndon_words(table, content, key):
    """The super-Lyndon words of a content, ascending in the lexicographic
    order of its letters by key: its Lyndon words, and l.l for each Lyndon
    word l of odd total degree.  They are a basis of the content's part of
    the Lie coalgebra (Radford 1979; Reutenauer, Free Lie Algebras, 1993,
    Thm 6.1).  Generated directly; no arrangement of the content is listed."""
    letters = sorted(set(content), key=key)
    mults = [content.count(x) for x in letters]
    words = _lyndon_words(letters, mults)
    if not any(m % 2 for m in mults):
        half = _lyndon_words(letters, [m // 2 for m in mults])
        words += [l + l for l in half if sum(table.degrees_of(l)) % 2]
    rank = {x: i for i, x in enumerate(letters)}
    return sorted(words, key=lambda w: [rank[x] for x in w])


def _standard_bracketing(table, word):
    """The standard bracketing P of a super-Lyndon word in sort_key order, as
    a tree term: P(x) = x, P(w) = (P(w[:i]), P(w[i:])) with w[i:] the
    longest proper Lyndon suffix of w, which is its least proper suffix
    (Chen, Fox and Lyndon 1958), and P(l.l) = (P(l), P(l)) on an odd
    square.  Memoized on the table per subword."""
    if len(word) == 1:
        return word[0]
    memo = table.memo("standard_bracketing")
    hit = memo.get(word)
    if hit is None:
        i = h = len(word) // 2
        if word[:h] != word[h:]:
            ranks = [table.sort_key(x) for x in word]
            i = min(range(1, len(word)), key=lambda i: ranks[i:])
        hit = memo[word] = (_standard_bracketing(table, word[:i]),
                            _standard_bracketing(table, word[i:]))
    return hit


def _tree_column(table, t):
    """{u: <long graph on u, t>} over the words u pairing nontrivially with
    the tree term t, the one recursion for the pairing of words with trees:
    a leaf x pairs to 1 with (x,) only, and as the bracket is dual to the
    cobracket (signed deconcatenation of the word), the column of
    t = (t1, t2) gives u.v the coefficient c1 c2 and v.u the coefficient
    -s c1 c2, for c1, c2 the entries of u and v in the columns of t1 and t2
    and s = (-1)^(|t1| |t2|).  Integer entries, each word interned per
    table (one tuple however many columns hold it); memoized on the table
    for proper subtrees only, so t's own column goes to the caller alone."""
    if isinstance(t, str):
        return {(t,): 1}
    memo = table.memo("tree_column")
    if t in memo:
        return memo[t]
    c1, c2 = cs = [_tree_column(table, x) for x in t]
    memo.update((x, c) for x, c in zip(t, cs) if not isinstance(x, str))
    s = -(-1) ** (sum(table.degrees_of(tree_leaves(t[0])))
                  * sum(table.degrees_of(tree_leaves(t[1]))))
    word = table.memo("word").setdefault
    column = {word(w := u + v, w): a * b for u, a in c1.items()
              for v, b in c2.items()}
    # u.v determines u and v, so only the v.u terms can meet a word
    for u, a in c1.items():
        for v, b in c2.items():
            add_into(column, word(w := v + u, w), s * a * b)
    return column


class BarQuotient:
    """One content's pairing block, with its bar basis B = l_0 < l_1 < ...:
    the content's super-Lyndon words in sort_key order.  With P the standard
    bracketing, M[i][j] = <l_i, P(l_j)> is lower triangular with diagonal 1,
    or 2 on an odd square (checked).  Each side solves in M through a
    linalg.Echelon seeded with the block, read from the columns of the
    P(l_j), which _tree_column keeps only as subtrees of larger trees.  `rows`,
    built on first use, maps each word u that pairs nontrivially with some
    P(l_j) to {n - 1 - j: <u, P(l_j)>}, n = |B|, so that each rows[l_i] has
    its diagonal as its least key; the class of u is sum_j x_j l_j with
    x M = rows[u], a back substitution in the rows[l_i] (`solve`).  The
    free-Lie class sum_j y_j P(l_j) pairs to M y with the l_i, a forward
    substitution in the columns of the P(l_j) (`solve_tree`), with no rows.
    The table is held weakly: its memo holds this block, so no cycle."""

    def __init__(self, table, content):
        self.content = content
        self.basis = super_lyndon_words(table, content, table.sort_key)
        _certify_dimension(table, content, len(self.basis), "bar basis")
        self._table = weakref.ref(table)

    def _check_diagonal(self, l, row, c):
        if min(row, default=c) != c \
                or row.get(c) != 1 + (l[:len(l) // 2] == l[len(l) // 2:]):
            raise AssertionError(f"pairing block of content {self.content} "
                                 f"is not unitriangular at {l}")
        return row

    @cached_property
    def rows(self):
        table, rows = self._table(), {}
        for c, l in enumerate(reversed(self.basis)):  # c = n - 1 - j
            column = _tree_column(table, _standard_bracketing(table, l))
            for u, v in column.items():
                rows.setdefault(u, {})[c] = v
        return rows

    @cached_property
    def _row_echelon(self):
        return Echelon({c: self._check_diagonal(l, self.rows.get(l, {}), c)
                        for c, l in enumerate(reversed(self.basis))})

    def solve(self, r):
        """{l_j: x_j} for the x with x M = r, r = {n - 1 - j: rational}."""
        x, _ = self._row_echelon.decompose(r)
        return {self.basis[-1 - c]: v for c, v in x.items()}

    @cached_property
    def _basis_words(self):
        return frozenset(self.basis)

    def coordinates(self, word):
        """{l_j: x_j}, a word's class: a basis word is itself, with no rows."""
        if word in self._basis_words:
            return {word: 1}
        return self.solve(self.rows.get(word, {}))

    @cached_property
    def _column_echelon(self):
        """(ids, Echelon): ids numbers the words of the columns, the basis
        first, and row j is the column of P(l_j) keyed by ids."""
        table, ids = self._table(), {l: j for j, l in enumerate(self.basis)}
        rows = {}
        for j, l in enumerate(self.basis):
            column = _tree_column(table, _standard_bracketing(table, l))
            rows[j] = self._check_diagonal(l, {ids.setdefault(u, len(ids)): v
                                               for u, v in column.items()}, j)
        return ids, Echelon(rows)

    def solve_tree(self, b):
        """{l_j: y_j} for the y with M y = b, b = {word: rational} the
        pairings of a free-Lie class with the words (_tree_column); a
        residual left is an AssertionError naming the content."""
        ids, ech = self._column_echelon
        y, r = ech.decompose({ids.setdefault(u, len(ids)): v
                              for u, v in b.items()})
        if r:
            raise AssertionError(f"pairing block of content {self.content} "
                                 f"leaves a residual at "
                                 f"{min(u for u, k in ids.items() if k in r)}")
        return {self.basis[j]: v for j, v in y.items()}

    def release(self):
        """Un-intern the words of the rows, once this block left the memo."""
        word = self._table().memo("word")
        for u in vars(self).get("rows", ()):
            word.pop(u, None)


def bar_quotient(table, content):
    """The BarQuotient of a sorted content, one memo entry per content."""
    memo = table.memo("bar_quotient")
    if content not in memo:
        memo[content] = BarQuotient(table, content)
    return memo[content]


def _word_coordinates(table, word):
    """Bar coordinates of a word's class in its content's pairing block."""
    return bar_quotient(table, tuple(sorted(word, key=table.sort_key))
                        ).coordinates(word)


def to_bar_basis(g):
    """Coordinates of g's Lie-coalgebra class over the super-Lyndon words of
    its contents; the class is zero iff all coordinates vanish.  Weights up
    to BAR_CAP.  The graph iterated cobracket pairs g with the left combs;
    by Dynkin-Specht-Wever the comb on each word u, summed with weight
    <u, P(l_j)> / n, is P(l_j), so g pairs with P(l_j) to
    b_j = (1/n) sum_u <u, P(l_j)> vec[u], solved in the content's block."""
    if any(n > BAR_CAP for n in g.weights()):
        raise CapExceeded(f"bar basis capped at weight <= {BAR_CAP}")
    parts, out = {}, {}
    for u, c in _iterated_vector(g).items():
        parts.setdefault(tuple(sorted(u, key=g.table.sort_key)), {})[u] = c
    for content, vec in parts.items():
        q, r = bar_quotient(g.table, content), {}
        for u, c in vec.items():
            for j, v in q.rows.get(u, {}).items():
                add_into(r, j, c * v)
        out.update(q.solve({j: Fraction(s, len(content))
                            for j, s in r.items()}))
    return out


# ---------------------------------------------------------------------------
# relation generators

def relation_generators(kind, table, labels):
    """Explicit generating relation elements at the weight and label tuple of
    `labels`; every output is zero in the Lie-coalgebra quotient.

    kind: arrow_reversing | arnold | harrison_shuffle | reverse_all | cyclic;
    the first two run over every S-graph of the weight."""
    labels = tuple(labels)
    n = len(labels)
    degs = [table.degree[x] for x in labels]
    out = []
    if kind == "arrow_reversing":
        for G in enumerate_graphs(n):
            for e, (a, b) in enumerate(G.edges):
                rev = SGraph(n, G.edges[:e] + ((b, a),) + G.edges[e + 1:],
                             _checked=True)
                out.append(GraphElement.from_term(table, G, labels).add(
                    GraphElement.from_term(table, rev, labels)))
    elif kind == "arnold":
        for G in enumerate_graphs(n):
            for i, (a, b) in enumerate(G.edges):
                for j, (b2, c) in enumerate(G.edges):
                    if j == i or b2 != b or c == a:
                        continue
                    rest = [G.edges[k] for k in range(len(G.edges))
                            if k not in (i, j)]
                    el = GraphElement.zero(table)
                    for pair in ([(a, b), (b, c)], [(b, c), (c, a)],
                                 [(a, b), (c, a)]):
                        el = el.add(GraphElement.from_term(table, SGraph(
                            n, rest + pair, _checked=True), labels))
                    out.append(el)
    elif kind == "harrison_shuffle":
        parities = tuple(d % 2 for d in degs)
        for k in range(1, n):
            el = GraphElement.zero(table)
            for s, sgn in _signed_shuffles(table, k, parities):
                el = el.add(graphify(tuple(labels[i] for i in s), table, sgn))
            out.append(el)
    elif kind == "reverse_all":
        rev = list(range(n - 1, -1, -1))
        sgn = (-1) ** (n - 1) * koszul_sign(degs, rev)
        el = graphify(labels, table).add(
            graphify(labels[::-1], table, -sgn))
        out.append(el)
    elif kind == "cyclic":
        el = GraphElement.zero(table)
        for k in range(n):
            rot = [(i + k) % n for i in range(n)]
            word = tuple(labels[i] for i in rot)
            el = el.add(graphify(word, table, koszul_sign(degs, rot)))
        out.append(el)
    else:
        raise ValueError(f"unknown relation kind {kind!r}")
    return [e for e in out if not e.is_zero()] or out[:1]


def _shuffles(k, m):
    """All interleavings of positions (0..k-1) with (k..k+m-1), preserving
    relative orders, in lexicographic order of the first word's slots."""
    out = []
    for slots in combinations(range(k + m), k):
        first, second = iter(range(k)), iter(range(k, k + m))
        out.append(tuple(next(first if p in slots else second)
                         for p in range(k + m)))
    return out


def _signed_shuffles(table, k, parities):
    """[(src, Koszul sign)] of the (k, n-k) shuffles of a word whose letters
    have these degree parities, memoized on the table."""
    memo = table.memo("signed_shuffles")
    hit = memo.get((k, parities))
    if hit is None:
        hit = memo[(k, parities)] = [
            (src, koszul_sign(parities, src))
            for src in _shuffles(k, len(parities) - k)]
    return hit
