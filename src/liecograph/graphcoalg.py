"""Cofree graph coalgebra elements and the Lie-coalgebra quotient: graded
cobracket (cut each edge, tensor both sides both ways with Koszul signs),
iterated cobracket, the word-problem decision procedure, graphification of
bar words, and generators for the relation suites (arrow-reversing, Arnold,
shuffles, reverse-all, cyclic).

The fully iterated cobracket is injective on the quotient, so it solves for
bar-basis coordinates in one pairing block per content (`bar_quotient`,
which liealg reads too).  On a long graph it is a signed deconcatenation
(`_word_vector`), so build_E never builds a graph; the graph cobracket is
its oracle and serves `is_zero_in_E` and `to_bar_basis`.  Every cache here
is a memo of the generator table it was computed over.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations
from math import factorial, gcd, prod

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
    sorted(set(permutations(ms))), without building all n! of them)."""
    if not ms:
        return [()]
    out = []
    for x in sorted(set(ms)):
        i = ms.index(x)
        rest = _distinct_arrangements(ms[:i] + ms[i + 1:])
        out += [(x,) + tail for tail in rest]
    return out


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
    past the rest.  Integer entries; memoized on the table."""
    memo = table.memo("word_vector")
    hit = memo.get(word)
    if hit is None:
        n = len(word)
        if n == 1:
            hit = {word: 1}
        else:
            kappa = koszul_sign(table.degrees_of(word), [*range(1, n), 0])
            hit = {keys + word[-1:]: c
                   for keys, c in _word_vector(table, word[:-1]).items()}
            for keys, c in _word_vector(table, word[1:]).items():
                key = keys + word[:1]
                s = hit.get(key, 0) - kappa * c
                if s:
                    hit[key] = s
                else:
                    del hit[key]
        memo[word] = hit
    return hit


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


class BarQuotient:
    """One content's pairing block.  With D its designated words and
    P[i][j] = <long graph on D[i], comb on D[j]> (_word_vector(D[i]) at
    D[j]), `basis` B is the greedy independent rows of P in D order, `combs`
    C the greedy independent columns of P[B, :] from the last word to the
    first, and S^-1 = adj / delta for S = P[B, C].  Bar coordinates of an
    iterated-cobracket vector p are p|C S^-1; comb coordinates of a free-Lie
    class pairing to q with the long graphs on B are S^-1 q."""

    def __init__(self, table, content):
        words = designated_words(table, content)
        index = {w: j for j, w in enumerate(words)}
        ech, self.basis, rows = Echelon(), [], []
        for w in words:
            row = {j: v for u, v in _word_vector(table, w).items()
                   if (j := index.get(u)) is not None}
            if ech.insert(row) is not None:
                self.basis.append(w)
                rows.append(row)
        _certify_dimension(table, content, len(rows), "bar basis")
        ech, picked = Echelon(), []
        for j in reversed(range(len(words))):
            col = {i: r[j] for i, r in enumerate(rows) if j in r}
            if len(picked) < len(rows) and ech.insert(col) is not None:
                picked.insert(0, j)
        self.combs = [words[j] for j in picked]
        self._comb_index = {w: c for c, w in enumerate(self.combs)}
        self.adj, self.delta = _exact_inverse(
            [[r.get(j, 0) for j in picked] for r in rows])

    def bar_coordinates(self, vec):
        acc = [0] * len(self.basis)
        for u, p in vec.items():
            if (c := self._comb_index.get(u)) is not None:
                acc = [a + p * x for a, x in zip(acc, self.adj[c])]
        return {w: Fraction(s, self.delta)
                for w, s in zip(self.basis, acc) if s}

    def comb_coordinates(self, q):
        q = [(b, x) for b, x in enumerate(q) if x]
        return {w: Fraction(s, self.delta)
                for w, row in zip(self.combs, self.adj)
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
    """Bar coordinates of a word's class, read on the word recursion."""
    return bar_quotient(table, tuple(sorted(word, key=table.sort_key))
                        ).bar_coordinates(_word_vector(table, word))


def to_bar_basis(g):
    """Coordinates of g's Lie-coalgebra class over bar words whose leading
    slot carries the designated (minimal) generator of their component; the
    class is zero iff all coordinates vanish.  Weights up to BAR_CAP; the
    graph iterated cobracket is read per content in its bar_quotient."""
    if any(n > BAR_CAP for n in g.weights()):
        raise CapExceeded(f"bar basis capped at weight <= {BAR_CAP}")
    parts, out = {}, {}
    for u, c in _iterated_vector(g).items():
        parts.setdefault(tuple(sorted(u, key=g.table.sort_key)), {})[u] = c
    for content, vec in parts.items():
        out.update(bar_quotient(g.table, content).bar_coordinates(vec))
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
