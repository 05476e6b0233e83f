"""Cofree graph coalgebra elements and the Lie-coalgebra quotient: graded
cobracket (cut each edge, tensor both sides both ways with Koszul signs),
iterated cobracket, the word-problem decision procedure, graphification of
bar words, and generators for the relation suites (arrow-reversing, Arnold,
shuffles, reverse-all, cyclic).

The fully iterated cobracket is injective on the quotient, so it is also the
one solver for bar-basis coordinates: `bar_quotient` keeps, per content, the
designated-leading words whose iterated-cobracket vectors are independent
and their tracked echelon.  Bar words are solved as words: on a long graph
the iterated cobracket is a signed deconcatenation (`_word_vector`, the dual
of the left-normed bracket expansion), so `bar_quotient` and build_E never
build a graph.  The graph cobracket is its oracle; `is_zero_in_E` and
`to_bar_basis` keep it, the latter reducing graph vectors against the echelon
of word vectors.  Every cache here is a memo of the generator table it was
computed over.
"""

from .errors import CapExceeded
from .shapes import SGraph, cut_edge, enumerate_graphs, long_graph
from .elements import GraphElement, TensorElement, koszul_sign
from .linalg import Echelon, add_into

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


def _component_split(g):
    """Split into (weight, sorted-label-multiset) components."""
    comps = {}
    for key, c in g.terms.items():
        (n, _), labels = key
        sig = (n, tuple(sorted(labels, key=g.table.sort_key)))
        comps.setdefault(sig, {})[key] = c
    return comps


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


def bar_quotient(table, content):
    """(basis, tracked Echelon) of a content's Lie-coalgebra quotient: the
    designated words whose iterated-cobracket vectors (the word recursion
    _word_vector) are independent of the earlier ones, and the echelon of
    those vectors tagged by word.  Memoized on the table."""
    memo = table.memo("bar_quotient")
    hit = memo.get(content)
    if hit is None:
        basis, ech = [], Echelon(track=True)
        for w in designated_words(table, content):
            if ech.insert(_word_vector(table, w), w) is not None:
                basis.append(w)
        hit = memo[content] = (basis, ech)
    return hit


def _reduce_to_basis(table, content, vec, weight):
    residual, coords = bar_quotient(table, content)[1].reduce(vec)
    if residual:
        raise AssertionError(
            f"bar words failed to span component {content} at weight {weight}")
    return coords


def _word_coordinates(table, word):
    """Coordinates of a bar word's class over the bar_quotient basis of its
    content, solved on the word recursion alone (no graph)."""
    return _reduce_to_basis(table, tuple(sorted(word, key=table.sort_key)),
                            _word_vector(table, word), len(word))


def _bar_coordinates(g):
    """Coordinates of g's class over the bar_quotient bases of its
    components (disjoint word sets, one per content): the graph iterated
    cobracket reduced against the echelon of word vectors."""
    out = {}
    for (n, content), terms in _component_split(g).items():
        out.update(_reduce_to_basis(
            g.table, content,
            _iterated_vector(GraphElement(g.table, terms)), n))
    return out


def to_bar_basis(g):
    """Coordinates of g's Lie-coalgebra class over bar words whose leading
    slot carries the designated (minimal) generator of their component; the
    class is zero iff all coordinates vanish.  Classes are read through the
    iterated cobracket (bar_quotient), weights up to BAR_CAP."""
    if any(n > BAR_CAP for n in g.weights()):
        raise CapExceeded(f"bar basis capped at weight <= {BAR_CAP}")
    return _bar_coordinates(g)


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
                    g1 = GraphElement.from_term(
                        table, SGraph(n, rest + [(a, b), (b, c)], _checked=True),
                        labels)
                    g2 = GraphElement.from_term(
                        table, SGraph(n, rest + [(b, c), (c, a)], _checked=True),
                        labels)
                    g3 = GraphElement.from_term(
                        table, SGraph(n, rest + [(a, b), (c, a)], _checked=True),
                        labels)
                    out.append(g1.add(g2).add(g3))
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
    relative orders."""
    n = k + m
    out = []

    def rec(i, j, acc):
        if i == k and j == m:
            out.append(tuple(acc))
            return
        if i < k:
            rec(i + 1, j, acc + [i])
        if j < m:
            rec(i, j + 1, acc + [k + j])
    rec(0, 0, [])
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
