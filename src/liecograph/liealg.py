"""The dual, algebra side: free binary non-associative algebra on a generator
table (tree grafting), free Lie algebra normal forms over the standard
bracketings of super-Lyndon words, and expansion into the tensor algebra.

Classes are read through the configuration pairing with long graphs, under
which the bracket is dual to the cobracket (signed deconcatenation of the
word): graphcoalg._tree_column gives a tree's pairings with every word.
Both sides of the duality share one basis per content: the super-Lyndon
words l of graphcoalg.bar_quotient, standing here for their standard
bracketings P(l), solved for by forward substitution in the unitriangular
block <l_i, P(l_j)>.  `tensor_expand` is an oracle the normal form never
calls.

A bracket literal [[a,b],c] and the product (a*b)*c share the same term keys:
nested tuples of generator names.
"""

from .errors import CapExceeded
from .elements import TreeElement, _Element
from .graphcoalg import (_lie_dimension, _standard_bracketing, _tree_column,
                         bar_quotient)
from .linalg import add_into
from .shapes import tree_leaves

__all__ = ["product", "bracket", "lie_normal_form", "tensor_expand",
           "LieElement"]

# most leaves a tree term may have; the worst weight-10 content under
# DIMENSION_CAP is a^4 b^4 c d (630 standard bracketings): a left comb on it
# took 0.13-0.34 s and 24-28 MB on a cold table (2 vCPUs), the slowest
# abababcdab on even letters, and `dual-check cp2` at 10/20 takes 0.4 s
LIE_CAP = 10
# most standard bracketings a content may have; the worst admitted content is
# a left comb on 7 distinct letters: 720 coordinates in 0.05-0.12 s and 22 MB
# on a cold table (2 vCPUs); on 8 (5 040) it takes 0.8-1.1 s and 130 MB
DIMENSION_CAP = 720


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
    """Class in the free Lie algebra: coordinates over the standard
    bracketings P(l) of each content's super-Lyndon words l, keyed by the
    words (the basis of graphcoalg.bar_quotient)."""

    def as_tree_element(self):
        return TreeElement(self.table, {_standard_bracketing(self.table, w): c
                                        for w, c in self.terms.items()})

    def __repr__(self):
        return repr(self.as_tree_element())


def lie_normal_form(t):
    """Normal form of a TreeElement over the standard bracketings: per
    content, the pairings of its terms with the words (one column per
    term), solved by forward substitution in the content's pairing block.
    A content whose free Lie part has more than DIMENSION_CAP dimensions is
    a CapExceeded, counted before any word is listed."""
    table = t.table
    by_content = {}
    for key, coeff in t.terms.items():
        leaves = tree_leaves(key)
        if len(leaves) > LIE_CAP:
            raise CapExceeded(f"Lie normal form capped at weight <= {LIE_CAP}")
        content = tuple(sorted(leaves, key=table.sort_key))
        if content not in by_content and (
                n := _lie_dimension(table, content)) > DIMENSION_CAP:
            raise CapExceeded(f"content {content} has {n} standard "
                              f"bracketings (cap {DIMENSION_CAP})")
        b = by_content.setdefault(content, {})
        for u, v in _tree_column(table, key).items():
            add_into(b, u, coeff * v)
    out = {}
    for content, b in by_content.items():
        if b:
            out.update(bar_quotient(table, content).solve_tree(b))
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
