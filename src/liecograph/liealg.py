"""The dual, algebra side: free binary non-associative algebra on a generator
table (tree grafting), free Lie algebra normal forms over left combs with a
designated leading slot, and expansion into the tensor algebra.

Classes are read through the configuration pairing with long graphs, under
which the bracket is dual to the cobracket (signed deconcatenation of the
word, `_word_pair`): a term's pairings with the long graphs on the
super-Lyndon bar basis are solved for comb coordinates in the comb half of
the content's pairing block (graphcoalg.bar_quotient), whose bar half
serves build_E.  `tensor_expand` is an oracle the normal form never calls.

A bracket literal [[a,b],c] and the product (a*b)*c share the same term keys:
nested tuples of generator names.
"""

from .errors import CapExceeded
from .elements import TreeElement, _Element
from .graphcoalg import bar_quotient
from .linalg import add_into
from .shapes import tall_tree, tree_leaves

__all__ = ["product", "bracket", "lie_normal_form", "tensor_expand", "LieElement"]

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


def _word_pair(table, w, t):
    """<long graph on the word w, tree term t>, an integer: a leaf x pairs to
    1 with (x,) only, and as the bracket is dual to the cobracket,
        <w, (t1, t2)> = <w[:k], t1> <w[k:], t2> - s <w[i:], t1> <w[:i], t2>
    with k the number of leaves of t1, i = len(w) - k and
    s = (-1)^(|w[:i]| |w[i:]|).  Memoized on the table."""
    if isinstance(t, str):
        return int(w == (t,))
    memo = table.memo("word_pair")
    hit = memo.get((w, t))
    if hit is None:
        k = len(tree_leaves(t[0]))
        i = len(w) - k
        kappa = (-1) ** (sum(table.degrees_of(w[:i]))
                         * sum(table.degrees_of(w[i:])))
        hit = memo[(w, t)] = (
            _word_pair(table, w[:k], t[0]) * _word_pair(table, w[k:], t[1])
            - kappa * _word_pair(table, w[i:], t[0])
            * _word_pair(table, w[:i], t[1]))
    return hit


def lie_normal_form(t):
    """Normal form of a TreeElement over the basis combs: per content, the
    pairing of its terms with the long graphs on the bar basis words, solved
    in the content's pairing block (bar_quotient)."""
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
        q = bar_quotient(table, content, ARRANGEMENT_CAP)
        out.update(q.comb_coordinates(
            [sum(c * _word_pair(table, b, key) for key, c in terms)
             for b in q.basis]))
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
