"""Cofree graph coalgebra elements and the Lie-coalgebra quotient: graded
cobracket (cut each edge, tensor both sides both ways with Koszul signs),
iterated cobracket, the word-problem decision procedure, graphification of
bar words, and generators for the relation suites (arrow-reversing, Arnold,
shuffles, reverse-all, cyclic).

The quotient has a basis known in advance: the super-Lyndon words of each
content (`super_lyndon_words`, also the shuffle oracle's basis).  Their
standard bracketings pair with them in a unitriangular block, so a word's
bar coordinates are one back substitution in its content's block
(`bar_quotient`, which liealg reads for the comb side); build_E never builds
a graph, and `to_bar_basis` reads a graph's fully iterated cobracket
through the same solve.  Every cache here is a memo of the generator table
it was computed over.
"""

from fractions import Fraction
from functools import cache, cached_property
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import factorial, gcd, lcm, prod

from .errors import CapExceeded
from .shapes import SGraph, cut_edge, enumerate_graphs, long_graph
from .elements import GraphElement, TensorElement, koszul_sign
from .linalg import Echelon, _exact_inverse, add_into

__all__ = [
    "cobracket",
    "iterated_cobracket",
    "is_zero_in_E",
    "to_bar_basis",
    "bar_quotient",
    "designated_words",
    "super_lyndon_words",
    "graphify",
    "relation_generators",
]


def cobracket(g):
    """Graded cobracket G -> G (x) G.  For each edge e pointing from side G1
    to side G2: +koszul(unshuffle to G1-labels then G2-labels) G1 (x) G2
    minus koszul(unshuffle the other way) G2 (x) G1."""
    table = g.table
    out = {}
    for ((n, edges), labels), coeff in g.terms.items():
        G = SGraph(n, edges, _checked=True)
        degs = [table.degree[x] for x in labels]
        for e in range(len(edges)):
            G1, G2, (s1, s2) = cut_edge(G, e)
            l1 = tuple(labels[v - 1] for v in s1)
            l2 = tuple(labels[v - 1] for v in s2)
            src12 = [v - 1 for v in s1 + s2]
            src21 = [v - 1 for v in s2 + s1]
            k12 = koszul_sign(degs, src12)
            k21 = koszul_sign(degs, src21)
            f1 = GraphElement.from_term(table, G1, l1)
            f2 = GraphElement.from_term(table, G2, l2)
            for key1, c1 in f1.terms.items():
                for key2, c2 in f2.terms.items():
                    for pair, sgn in (((key1, key2), k12), ((key2, key1), -k21)):
                        add_into(out, pair, coeff * c1 * c2 * sgn)
    return TensorElement(table, out)


def _iterated_term(table, key, k):
    """Iterated cobracket of a single canonical term, memoized on the table;
    returns a plain terms dict."""
    memo = table.memo("iterated_cobracket")
    hit = memo.get((key, k))
    if hit is not None:
        return hit
    if k == 0:
        res = {(key,): 1}
    else:
        res = {}
        c2 = cobracket(GraphElement(table, {key: 1}))
        for (k1, k2), c in c2.terms.items():
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
    """Decide whether g vanishes in the Lie-coalgebra quotient, one weight
    <= ZERO_CAP at a time.  Returns (flag, witness): witness is None when
    zero, else a nonzero elementary-tensor term of some iterated cobracket."""
    if any(n > ZERO_CAP for n in g.weights()):
        raise CapExceeded(f"zero test capped at weight <= {ZERO_CAP}")
    for n in g.weights():
        comp = g.component(n)
        t = iterated_cobracket(comp, n - 1)
        if not t.is_zero():
            key = min(t.terms, key=str)
            return False, (key, t.terms[key])
    return True, None


def graphify(word, table, coeff=1):
    """Bar word (tuple of generator names) -> long-graph element."""
    word = tuple(word)
    return GraphElement.from_term(table, long_graph(tuple(range(1, len(word) + 1))),
                                  word, coeff)


# ---------------------------------------------------------------------------
# bar-basis normal form

BAR_CAP = 6
ZERO_CAP = 12  # is_zero_in_E: 0.1 s on a 12-letter word, 1.4x more a letter


def _distinct_arrangements(ms):
    """The distinct orders of a multiset, in sorted order (that of
    sorted(set(permutations(ms))), without building all n! of them): each
    the next greater permutation of the last (Narayana Pandita), no
    recursion."""
    a = sorted(ms)
    out, n = [tuple(a)], len(a)
    while True:
        i = n - 2  # the last ascent a[i] < a[i + 1]
        while i >= 0 and not a[i] < a[i + 1]:
            i -= 1
        if i < 0:
            return out
        j = n - 1  # the last entry past a[i] that is greater
        while not a[i] < a[j]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = a[:i:-1]
        out.append(tuple(a))


def designated_words(table, content):
    """The words of a content whose leading slot carries its designated
    (minimal) generator: one per distinct order of the other letters."""
    g0 = min(content, key=table.sort_key)
    rest = list(content)
    rest.remove(g0)
    return [(g0,) + tail for tail in _distinct_arrangements(tuple(rest))]


def _iterated_vector(g):
    """Injective linear coordinates of g's Lie-coalgebra class: the fully
    iterated cobracket as a map into tensors of single slots."""
    out = {}
    for n in g.weights():
        t = iterated_cobracket(g.component(n), n - 1)
        for keys, c in t.terms.items():
            add_into(out, tuple(k[1][0] for k in keys), c)
    return out


def _word_vector(table, word):
    """_iterated_vector of the long graph on a bar word, read off the word:
    cutting an edge of w1->...->wn leaves the prefix and the suffix, so only
    the two end cuts split off one vertex, and
        v(a) = (a),  v(w) = v(w1..w(n-1)).(wn) - k(w) v(w2..wn).(w1)
    with ".(x)" appending the slot x and k(w) the Koszul sign of moving w1
    past the rest.  v(w) at u is the pairing of w with the left comb on u.
    Integer entries; memoized on the table."""
    memo, stack = table.memo("word_vector"), [word]
    while stack:  # depth first on an explicit stack: no recursion limit
        w = stack[-1]
        if w in memo:
            stack.pop()
            continue
        n = len(w)
        if n == 1:
            memo[w] = {w: 1}
            continue
        head, tail = w[:-1], w[1:]
        missing = [u for u in (head, tail) if u not in memo]
        if missing:
            stack += missing
            continue
        kappa = koszul_sign(table.degrees_of(w), [*range(1, n), 0])
        hit = {keys + w[-1:]: c for keys, c in memo[head].items()}
        for keys, c in memo[tail].items():
            key = keys + w[:1]
            s = hit.get(key, 0) - kappa * c
            if s:
                hit[key] = s
            else:
                del hit[key]
        memo[w] = hit
    return memo[word]


@cache
def _witt_dimension(mults, odd):
    """Dimension of the free Lie superalgebra in multidegree mults over
    letters of these parities (Petrogradsky 2000), by Moebius inversion of
    sum_{k | mults} c_k dim L(mults/k) / k = multinomial(mults) / |mults|,
    with c_k = (-1)^((k+1) * the number of odd letters of mults/k)."""
    n, g = sum(mults), gcd(*mults)
    total = Fraction(factorial(n) // prod(map(factorial, mults)), n)
    for k in (k for k in range(2, g + 1) if g % k == 0):
        sub = tuple(m // k for m in mults)
        c = (-1) ** ((k + 1) * sum(m * o for m, o in zip(sub, odd)))
        total -= Fraction(c * _witt_dimension(sub, odd), k)
    return int(total)


def _certify_dimension(table, content, dim, what):
    """AssertionError naming the content unless dim is the dimension of its
    part of the free Lie superalgebra (odd letters: odd table degree)."""
    letters = sorted(set(content), key=table.sort_key)
    want = _witt_dimension(tuple(map(content.count, letters)),
                           tuple(table.degree[x] % 2 for x in letters))
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


def _standard_split(table, word):
    """Where the standard bracketing P of a super-Lyndon word in sort_key
    order splits it: P(w) = [P(w[:i]), P(w[i:])] with w[i:] the longest
    proper Lyndon suffix of w, which is its least proper suffix (Chen, Fox
    and Lyndon 1958), and P(l.l) = [P(l), P(l)] on an odd square."""
    h = len(word) // 2
    if word[:h] == word[h:]:
        return h
    ranks = [table.sort_key(x) for x in word]
    return min(range(1, len(word)), key=lambda i: ranks[i:])


def _lie_column(table, word):
    """{u: <long graph on u, P(word)>} over the words u pairing nontrivially
    with the standard bracketing of a super-Lyndon word, by the recursion of
    liealg._word_pair read column-wise: a letter pairs to 1 with itself
    only, and with P(w) = [P(w1), P(w2)] the column of w gives u.v the
    coefficient c1 c2 and v.u the coefficient -s c1 c2, for c1, c2 the
    entries of u and v in the columns of w1 and w2 and s = (-1)^(|w1| |w2|).
    Integer entries; memoized on the table per subword."""
    if len(word) == 1:
        return {word: 1}
    memo = table.memo("lie_column")
    hit = memo.get(word)
    if hit is None:
        i = _standard_split(table, word)
        c1, c2 = _lie_column(table, word[:i]), _lie_column(table, word[i:])
        s = -(-1) ** (sum(table.degrees_of(word[:i]))
                      * sum(table.degrees_of(word[i:])))
        # u.v determines u and v, so only the v.u terms can meet a word
        hit = memo[word] = {u + v: a * b for u, a in c1.items()
                            for v, b in c2.items()}
        for u, a in c1.items():
            for v, b in c2.items():
                c = hit.get(v + u, 0) + s * a * b
                if c:
                    hit[v + u] = c
                else:
                    del hit[v + u]
    return hit


class BarQuotient:
    """One content's pairing block, with its bar basis B = l_0 < l_1 < ...:
    the content's super-Lyndon words in sort_key order.  Each half is built
    on first use.

    The bar half: with P the standard bracketing, M[i][j] = <l_i, P(l_j)> is
    lower triangular with diagonal 1, or 2 on an odd square (checked).
    `rows` maps each word u of the content that pairs nontrivially with some
    P(l_j) to {j: <u, P(l_j)>}; the class of u is sum_j x_j l_j with
    x M = rows[u], solved by one back substitution (`solve`).

    The comb half: the combs C are the greedy independent columns of
    <long graphs on B, combs on the designated words>, from the last word to
    the first, and S^-1 = adj / delta for S = <B, C>.  Comb coordinates of a
    free-Lie class pairing to q with the long graphs on B are S^-1 q."""

    def __init__(self, table, content):
        self.table, self.content = table, content
        self.basis = super_lyndon_words(table, content, table.sort_key)
        _certify_dimension(table, content, len(self.basis), "bar basis")

    @cached_property
    def rows(self):
        rows = {}
        for j, l in enumerate(self.basis):
            for u, v in _lie_column(self.table, l).items():
                rows.setdefault(u, {})[j] = v
        for i, l in enumerate(self.basis):
            row, h = rows.get(l, {}), len(l) // 2
            if row.get(i) != 1 + (l[:h] == l[h:]) or max(row) != i:
                raise AssertionError(f"pairing block of content "
                                     f"{self.content} is not unitriangular "
                                     f"at {l}")
        return rows

    def solve(self, r):
        """{l_j: x_j} for the x with x M = r, r = {j: rational}: x_j is fixed
        from the last j down, then cleared from the lower entries of row j.
        The work is in integers over one denominator, doubled on an odd
        square's diagonal 2 when needed."""
        den = lcm(*(v.denominator for v in r.values()))
        r = {j: v.numerator * (den // v.denominator) for j, v in r.items()}
        x, heap = {}, [-j for j in r]
        heapify(heap)
        while heap:
            j = -heappop(heap)
            v = r.pop(j, 0)
            if not v:
                continue
            row = self.rows[self.basis[j]]
            if row[j] == 2:
                if v % 2:
                    den, v = 2 * den, 2 * v
                    r = {i: 2 * s for i, s in r.items()}
                    x = {w: 2 * s for w, s in x.items()}
                v //= 2
            x[self.basis[j]] = v
            for i, m in row.items():
                if i != j:
                    s = r.get(i)
                    if s is None:
                        heappush(heap, -i)
                        r[i] = -v * m
                    else:
                        r[i] = s - v * m
        return {w: Fraction(v, den) for w, v in x.items()}

    @cached_property
    def _comb_half(self):
        words = designated_words(self.table, self.content)
        index = {w: j for j, w in enumerate(words)}
        rows = [{j: v for u, v in _word_vector(self.table, l).items()
                 if (j := index.get(u)) is not None} for l in self.basis]
        ech, picked = Echelon(), []
        for j in reversed(range(len(words))):
            col = {i: r[j] for i, r in enumerate(rows) if j in r}
            if len(picked) < len(rows) and ech.insert(col) is not None:
                picked.insert(0, j)
        adj, delta = _exact_inverse([[r.get(j, 0) for j in picked]
                                     for r in rows])
        return [words[j] for j in picked], adj, delta

    @property
    def combs(self):
        return self._comb_half[0]

    def comb_coordinates(self, q):
        combs, adj, delta = self._comb_half
        q = [(b, x) for b, x in enumerate(q) if x]
        return {w: Fraction(s, delta) for w, row in zip(combs, adj)
                if (s := sum(row[b] * x for b, x in q))}


def bar_quotient(table, content, cap=None):
    """The BarQuotient of a sorted content, one memo entry for both sides;
    more designated words than a cap given is a CapExceeded."""
    if cap is not None:
        n = factorial(len(content) - 1) // prod(factorial(
            content.count(x) - (x == content[0])) for x in set(content))
        if n > cap:
            raise CapExceeded(f"content {content} has {n} candidate words "
                              f"(cap {cap})")
    memo = table.memo("bar_quotient")
    if content not in memo:
        memo[content] = BarQuotient(table, content)
    return memo[content]


def _word_coordinates(table, word):
    """Bar coordinates of a word's class: its pairings with the standard
    bracketings, solved in its content's pairing block."""
    q = bar_quotient(table, tuple(sorted(word, key=table.sort_key)))
    return q.solve(q.rows.get(word, {}))


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
            for e in range(len(G.edges)):
                el = GraphElement.from_term(table, G, labels).add(
                    GraphElement.from_term(table, G.reverse_edge(e), labels))
                out.append(el)
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
