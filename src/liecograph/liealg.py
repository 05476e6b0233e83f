"""The dual, algebra side: free binary non-associative algebra on a generator
table (tree grafting), free Lie algebra normal forms over left combs with a
designated leading slot, and expansion into the tensor algebra.

Classes are read through the configuration pairing with long graphs, under
which the bracket is dual to the cobracket (signed deconcatenation of the
word): graphcoalg._tree_column gives a tree's pairings with every word.
Each content's comb basis is this side's own (`comb_basis`): the
designated-leading combs independent against the long graphs on the
super-Lyndon bar basis of graphcoalg.bar_quotient, whose rows serve build_E
only.  A term's pairings with those long graphs are solved for comb
coordinates.  `tensor_expand` is an oracle the normal form never calls.

A bracket literal [[a,b],c] and the product (a*b)*c share the same term keys:
nested tuples of generator names.
"""

from fractions import Fraction
from math import factorial, prod

from .errors import CapExceeded
from .elements import TreeElement, _Element
from .graphcoalg import _distinct_arrangements, _tree_column, bar_quotient
from .linalg import Echelon, _exact_inverse, add_into
from .shapes import tall_tree, tree_leaves

__all__ = ["product", "bracket", "lie_normal_form", "comb_basis",
           "tensor_expand", "LieElement"]

LIE_CAP = 9
ARRANGEMENT_CAP = 1000


def product(t1, t2):
    """Graft every pair of terms at a new root (t1 left, t2 right).  Tensors
    of labels concatenate, so no Koszul sign appears."""
    assert t1.table is t2.table
    out = {}
    for k1, c1 in t1.terms.items():
        for k2, c2 in t2.terms.items():
            add_into(out, (k1, k2), c1 * c2)
    return TreeElement(t1.table, out)


bracket = product  # the Lie bracket of classes is induced by the tree product


class LieElement(_Element):
    """Class in the free Lie algebra: coordinates over the basis left-comb
    words of each content, whose leading slot carries the designated
    (minimal) generator of the content."""

    def as_tree_element(self):
        return TreeElement(self.table,
                           {tall_tree(w): c for w, c in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for w, c in sorted(self.terms.items()):
            expr = w[0]
            for x in w[1:]:
                expr = f"[{expr},{x}]"
            bits.append(f"{c} * {expr}")
        return " + ".join(bits)


def _designated_words(table, content):
    """The words of a content whose leading slot carries its designated
    (minimal) generator: one per distinct order of the other letters."""
    g0 = min(content, key=table.sort_key)
    rest = list(content)
    rest.remove(g0)
    return [(g0,) + tail for tail in _distinct_arrangements(tuple(rest))]


def comb_basis(table, content):
    """(combs, adj, delta) of a sorted content, one memo entry per content.
    The combs are the greedy independent columns of <long graphs on the bar
    basis B, left combs on the designated words>, from the last word to the
    first, and S^-1 = adj / delta for S = <B, combs>: comb coordinates of a
    free-Lie class pairing to q with the long graphs on B are S^-1 q.  A
    content of more than ARRANGEMENT_CAP designated words is a CapExceeded,
    counted before any is listed."""
    memo = table.memo("comb_basis")
    hit = memo.get(content)
    if hit is None:
        n = factorial(len(content) - 1) // prod(factorial(
            content.count(x) - (x == content[0])) for x in set(content))
        if n > ARRANGEMENT_CAP:
            raise CapExceeded(f"content {content} has {n} candidate words "
                              f"(cap {ARRANGEMENT_CAP})")
        index = {l: i for i, l in enumerate(bar_quotient(table, content).basis)}
        words, picked, ech = _designated_words(table, content), [], Echelon()
        for d in reversed(words):
            if len(picked) == len(index):
                break
            col = {i: v for u, v in _tree_column(table, tall_tree(d)).items()
                   if (i := index.get(u)) is not None}
            if ech.insert(col) is not None:
                picked.append((d, col))
        picked.reverse()
        adj, delta = _exact_inverse([[col.get(i, 0) for _, col in picked]
                                     for i in range(len(index))])
        hit = memo[content] = [d for d, _ in picked], adj, delta
    return hit


def lie_normal_form(t):
    """Normal form of a TreeElement over the basis combs: per content, the
    pairings of its terms with the long graphs on the bar basis words, one
    column of each term, solved in the content's comb basis."""
    table = t.table
    by_content = {}
    for key, coeff in t.terms.items():
        leaves = tree_leaves(key)
        if len(leaves) > LIE_CAP:
            raise CapExceeded(f"Lie normal form capped at weight <= {LIE_CAP}")
        content = tuple(sorted(leaves, key=table.sort_key))
        by_content.setdefault(content, []).append((key, coeff))
    out = {}
    for content, terms in by_content.items():
        combs, adj, delta = comb_basis(table, content)
        columns = [(c, _tree_column(table, key)) for key, c in terms]
        q = [(b, x) for b, l in enumerate(bar_quotient(table, content).basis)
             if (x := sum(c * column.get(l, 0) for c, column in columns))]
        out.update({w: Fraction(s, delta) for w, row in zip(combs, adj)
                    if (s := sum(row[b] * x for b, x in q))})
    return LieElement(table, out)


def tensor_expand(x):
    """Expand into the tensor algebra: [u, v] -> uv - (-1)^{|u||v|} vu,
    concatenation for the product.  Accepts a LieElement or TreeElement;
    returns {word tuple: coefficient}, ints on int input.  Injective on
    free-Lie classes."""
    if isinstance(x, LieElement):
        x = x.as_tree_element()
    table = x.table
    out = {}
    for key, coeff in x.terms.items():
        for w, c in _expand_term(table, key).items():
            add_into(out, w, coeff * c)
    return out


def _expand_term(table, key):
    if isinstance(key, str):
        return {(key,): 1}
    L = _expand_term(table, key[0])
    R = _expand_term(table, key[1])
    dl = sum(table.degree[x] for x in tree_leaves(key[0]))
    dr = sum(table.degree[x] for x in tree_leaves(key[1]))
    sgn = (-1) ** (dl * dr)
    out = {}
    for u, cu in L.items():
        for v, cv in R.items():
            add_into(out, u + v, cu * cv)
            add_into(out, v + u, -sgn * cu * cv)
    return out
