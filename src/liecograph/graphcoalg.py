"""Cofree graph coalgebra elements and the Lie-coalgebra quotient: graded
cobracket (cut each edge, tensor both sides both ways with Koszul signs),
iterated cobracket, the word-problem decision procedure, bar-basis normal
forms, graphification of bar words, and generators for the relation suites
(arrow-reversing, Arnold, shuffles, reverse-all, cyclic).
"""

from fractions import Fraction
from itertools import permutations

from .errors import CapExceeded
from .shapes import (
    SGraph,
    cut_edge,
    enumerate_graphs,
    long_graph,
    tall_tree,
)
from .elements import (
    GraphElement,
    TensorElement,
    TreeElement,
    koszul_sign,
)
from .linalg import Echelon, add_into
from .pairing import element_pair

__all__ = [
    "cobracket",
    "iterated_cobracket",
    "is_zero_in_E",
    "to_bar_basis",
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


_iter_cache = {}


def _table_sig(table):
    return tuple(zip(table.names, (table.degree[n] for n in table.names)))


def _iterated_term(table, key, k):
    """Iterated cobracket of a single canonical term, memoized per table
    signature; returns a plain terms dict."""
    sig = (_table_sig(table), key, k)
    hit = _iter_cache.get(sig)
    if hit is not None:
        return hit
    if k == 0:
        res = {(key,): Fraction(1)}
    else:
        res = {}
        c2 = cobracket(GraphElement(table, {key: 1}))
        for (k1, k2), c in c2.terms.items():
            for keys, cc in _iterated_term(table, k1, k - 1).items():
                add_into(res, keys + (k2,), c * cc)
    _iter_cache[sig] = res
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
    """Decide whether g vanishes in the Lie-coalgebra quotient, component by
    component in weight.  Returns (flag, witness): witness is None when zero,
    else a nonzero elementary-tensor term of some iterated cobracket."""
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


def _distinct_arrangements(ms):
    return sorted(set(permutations(ms)))


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


def to_bar_basis(g):
    """Coordinates of g's Lie-coalgebra class over bar words whose leading
    slot carries the designated (minimal) generator of their component.

    Coordinates are extracted by pairing against tall trees over the dual
    label arrangements and solving the resulting exact linear system; the
    class is zero iff all coordinates vanish."""
    table = g.table
    out = {}
    for (n, ms), terms in _component_split(g).items():
        if n > BAR_CAP:
            raise CapExceeded(f"bar basis capped at weight <= {BAR_CAP}")
        comp = GraphElement(table, terms)
        words = designated_words(table, ms)
        trees = [TreeElement.from_term(table, tall_tree(arr))
                 for arr in _distinct_arrangements(ms)]
        ech = Echelon(track=True)
        for w in words:
            ech.insert(_pairings(graphify(w, table), trees), w)
        residual, coeffs = ech.reduce(_pairings(comp, trees))
        if residual:
            raise AssertionError(
                f"bar words failed to span component {ms} at weight {n}")
        for w in words:
            c = coeffs.get(w)
            if c:
                out[w] = out.get(w, Fraction(0)) + c
    return {w: c for w, c in out.items() if c}


def _pairings(g, trees):
    """Sparse vector {tree index: <g, tree>}."""
    return {j: v for j, t in enumerate(trees) if (v := element_pair(g, t))}


# ---------------------------------------------------------------------------
# relation generators

def relation_generators(kind, table, labels, graphs=None):
    """Explicit generating relation elements at the weight and label tuple of
    `labels`; every output is zero in the Lie-coalgebra quotient.

    kind: arrow_reversing | arnold | harrison_shuffle | reverse_all | cyclic.
    `graphs` optionally restricts the graph shapes used by the first two kinds
    (default: every S-graph of that weight)."""
    labels = tuple(labels)
    n = len(labels)
    degs = [table.degree[x] for x in labels]
    out = []
    if kind == "arrow_reversing":
        for G in graphs or enumerate_graphs(n):
            for e in range(len(G.edges)):
                el = GraphElement.from_term(table, G, labels).add(
                    GraphElement.from_term(table, G.reverse_edge(e), labels))
                out.append(el)
    elif kind == "arnold":
        for G in graphs or enumerate_graphs(n):
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
        for k in range(1, n):
            el = GraphElement.zero(table)
            for s in _shuffles(k, n - k):
                word = tuple(labels[i] for i in s)
                el = el.add(graphify(word, table, koszul_sign(degs, s)))
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
