"""The dual, algebra side: free binary non-associative algebra on a generator
table (tree grafting), free Lie algebra normal forms over left combs with a
designated leading slot, and expansion into the tensor algebra.

A bracket literal [[a,b],c] and the product (a*b)*c share the same term keys:
nested tuples of generator names.
"""

from fractions import Fraction

from .errors import CapExceeded
from .elements import TreeElement, _Element
from .graphcoalg import _distinct_arrangements, designated_words, graphify
from .linalg import Echelon, add_into
from .pairing import element_pair
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
    """Class in the free Lie algebra: coordinates over left-comb words whose
    leading slot carries the designated (minimal) generator of the content,
    reduced modulo the exact relation space of those words."""

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


def _word_degree(table, word):
    return sum(table.degree[x] for x in word)


def _br_words(table, u, v):
    """[comb u, comb v] as a dict of comb words (Jacobi recursion on v)."""
    if len(v) == 1:
        return {u + v: Fraction(1)}
    vp, z = v[:-1], v[-1:]
    out = {}
    for w, c in _br_words(table, u, vp).items():
        add_into(out, w + z, c)
    sgn = -((-1) ** (_word_degree(table, vp) * _word_degree(table, z)))
    for w, c in _br_words(table, u + z, vp).items():
        add_into(out, w, sgn * c)
    return out


def _combs_of_term(table, key):
    """Left-comb word expansion of one tree term."""
    if isinstance(key, str):
        return {(key,): Fraction(1)}
    L = _combs_of_term(table, key[0])
    R = _combs_of_term(table, key[1])
    out = {}
    for u, cu in L.items():
        for v, cv in R.items():
            for w, c in _br_words(table, u, v).items():
                add_into(out, w, cu * cv * c)
    return out


def _lead_designated(table, word, coeff, acc):
    """Rewrite a comb word so the designated (minimal) generator leads."""
    g0 = min(word, key=table.sort_key)
    if word[0] == g0:
        add_into(acc, word, coeff)
        return
    k = next(i for i, x in enumerate(word) if x == g0)
    prefix, tail = word[:k], word[k + 1:]
    sgn = -((-1) ** (_word_degree(table, prefix) * table.degree[g0]))
    for w, c in _br_words(table, (g0,), prefix).items():
        full = w + tail
        assert full[0] == g0
        add_into(acc, full, coeff * sgn * c)


def _content_reduction(table, content):
    """Echelon of the exact relation space among designated-leading comb words
    of a content (pivot = a word index), plus the word list.

    Relations are detected through the configuration pairing against long
    graphs over all arrangements, which separates free-Lie classes: the
    pairing vectors go into a tracked echelon from the last word to the
    first, and a word whose vector is already spanned gives the relation
    e_i - (its coordinates over the later words).  Memoized on the table."""
    memo = table.memo("content_reduction")
    hit = memo.get(content)
    if hit is not None:
        return hit
    words = designated_words(table, content)
    if len(words) > ARRANGEMENT_CAP:
        raise CapExceeded(
            f"content {content} has {len(words)} candidate words "
            f"(cap {ARRANGEMENT_CAP})")
    graphs = [graphify(arr, table) for arr in _distinct_arrangements(content)]
    ech = Echelon(track=True)  # pairing vectors of independent words
    rel_ech = Echelon()  # relations over word indices
    for i in reversed(range(len(words))):
        t = TreeElement.from_term(table, tall_tree(words[i]))
        vec = {j: v for j, g in enumerate(graphs) if (v := element_pair(g, t))}
        if ech.insert(vec, i) is None:
            rel = {k: -c for k, c in ech.reduce(vec)[1].items()}
            rel[i] = 1
            rel_ech.insert(rel)
    res = memo[content] = (words, rel_ech)
    return res


def lie_normal_form(t):
    """Normal form of a TreeElement in the free Lie algebra: anti-symmetry and
    Jacobi rewriting to left combs with the designated slot leading, then
    exact reduction modulo the relation space of those words (nontrivial only
    for repeated generators)."""
    table = t.table
    acc = {}
    for key, coeff in t.terms.items():
        n = len(tree_leaves(key))
        if n > LIE_CAP:
            raise CapExceeded(f"Lie normal form capped at weight <= {LIE_CAP}")
        for w, c in _combs_of_term(table, key).items():
            _lead_designated(table, w, coeff * c, acc)
    # reduce per content
    out = {}
    by_content = {}
    for w, c in acc.items():
        content = tuple(sorted(w, key=table.sort_key))
        by_content.setdefault(content, {})[w] = c
    for content, coords in by_content.items():
        words, rel_ech = _content_reduction(table, content)
        widx = {w: i for i, w in enumerate(words)}
        vec, _ = rel_ech.reduce({widx[w]: c for w, c in coords.items()})
        for i, c in vec.items():
            out[words[i]] = c
    return LieElement(table, out)


def tensor_expand(x):
    """Expand into the tensor algebra: [u, v] -> uv - (-1)^{|u||v|} vu,
    concatenation for the product.  Accepts a LieElement or TreeElement;
    returns {word tuple: Fraction}.  Injective on free-Lie classes."""
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
        return {(key,): Fraction(1)}
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
