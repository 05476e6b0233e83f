"""The configuration pairing between graphs and trees.

At shape level: each edge a->b of the graph is sent to the nadir (lowest
internal vertex) of the path between leaves a and b of the tree; the pairing
is 0 unless that map is surjective onto the internal vertices, and otherwise
the product of edge signs (+1 when leaf a sits to the left of leaf b).
A tree's nadirs and signs are held as one flat table of small ints,
+-(nadir + 1) at a * (n + 1) + b (_pair_info), cached for shape_pair and
_term_pair.

Two sign rules hold: reversing an edge of the graph negates the pairing, and
so does swapping the two children at an internal node of the tree.  The
weight-n pairing matrix is therefore built and ranked on the quotient by
both, one oriented tree per undirected tree (n^(n-2) rows) against one child
order per antisymmetry class (n!*Cat(n-1)/2^(n-1) columns): 1296 x 945 at
n = 6 instead of 41472 x 30240.  The quotient is an int8 bytearray, seen
as a 2-D memoryview, and is filled column by column from where the pairing
can be nonzero: the edges of G must meet the internal vertices of T one to
one, so a column's nonzeros are its choices of one leaf pair across each
vertex (74520 of 1224720 cells at n = 6).  Its rank is certified on the
block of long graphs against tall trees, a signed identity since the two
are dual bases; see PairingMatrix.

At element level generators pair by name, so a graph term meets a tree term
of its weight only through the label-preserving bijections from vertices to
leaves (vertex j to a leaf carrying the j-th label), each weighted by the
shape pairing of the relabeled graph and the Koszul sign of the reordering.
_term_pair sums them in machine ints, at most BIJECTION_CAP per term pair,
memoised on (canonical graph term, odd-degree generators, tree term): the
signs depend on the degrees only through their parities.
"""

from functools import lru_cache
from itertools import combinations, permutations, product
from math import factorial, isqrt, prod
from operator import or_

from .errors import CapExceeded, MalformedDual, WeightMismatch
from .linalg import integer_matrix_rank
from .shapes import (
    ENUMERATION_CAP,
    _tree_shapes,
    enumerate_graphs,
    enumerate_trees,
    long_graph,
    tall_tree,
    tree_leaves,
)
from .elements import koszul_sign, tree_term_shape

__all__ = [
    "shape_pair",
    "element_pair",
    "pairing_matrix",
    "PairingMatrix",
]


@lru_cache(maxsize=1 << 12)
def _pair_info(tree):
    """The nadir table of a tree on the leaves 1..n: at a * (n + 1) + b,
    for every ordered pair of leaves a != b, +(nadir + 1) when a sits left
    of b and -(nadir + 1) when it sits right, the n - 1 internal vertices
    numbered 0, 1, ... top down; 0 elsewhere."""
    stride = len(tree_leaves(tree)) + 1
    info, subtrees, node = [0] * (stride * stride), [tree], 0
    for t in subtrees:  # extended while it is read: every subtree, top down
        if isinstance(t, tuple):
            subtrees += t
            node += 1
            for a in tree_leaves(t[0]):
                for b in tree_leaves(t[1]):
                    info[a * stride + b], info[b * stride + a] = node, -node
    return tuple(info)


def shape_pair(G, T):
    """Configuration pairing of an S-graph with a planar tree; in {-1, 0, 1}."""
    info = _pair_info(T)
    stride = isqrt(len(info))  # the table is stride x stride
    if G.n != stride - 1:
        raise WeightMismatch(f"graph weight {G.n} vs tree with {stride - 1} "
                             "leaves")
    return _shape_pair_on(G.edges, info, stride)


def _shape_pair_on(edges, info, stride):
    """The pairing of the edges a -> b, given as leaf-label pairs (a, b),
    with the tree whose nadir table (_pair_info) is info, of row length
    stride: 0 if two edges share a nadir, else the product of their signs."""
    seen = 0
    sign = 1
    for a, b in edges:
        v = info[a * stride + b]
        if v < 0:
            v, sign = -v, -sign
        bit = 1 << v
        if seen & bit:
            return 0
        seen |= bit
    return sign


# 9!, the bijections a term pair of weight 9 on one repeated letter needs
BIJECTION_CAP = factorial(9)


def element_pair(g, t):
    """Bilinear configuration pairing of a GraphElement against a TreeElement,
    with generators paired by name (the Kronecker pairing of g's table with
    t's).  Terms of different weight contribute zero.  Returns the exact
    sum, an int when both elements have int coefficients."""
    table = g.table
    if table is not t.table:
        _check_degrees(g, t)
    odd = table.odd_names
    total = 0
    for tkey, tc in t.terms.items():
        acc = 0
        for ((n, edges), wlabels), gc in g.terms.items():
            s = _term_pair(n, edges, wlabels, odd, tkey)
            if s:
                acc += gc * s
        if acc:
            total += tc * acc
    return total


def _check_degrees(g, t):
    """MalformedDual if a name labels equal-weight terms of g and t with
    different degrees in their two tables."""
    wdeg, vdeg = g.table.degree, t.table.degree
    trees = [tree_leaves(tkey) for tkey in t.terms]
    for (n, _), wlabels in g.terms:
        for vlabels in trees:
            if len(vlabels) == n:
                for x in set(wlabels) & set(vlabels):
                    if wdeg[x] != vdeg[x]:
                        raise MalformedDual(
                            f"paired generators {x!r} have different degrees")


@lru_cache(maxsize=1 << 16)
def _term_pair(n, edges, wlabels, odd, tkey):
    """<G(wlabels), tkey> in integers for a canonical graph term on n
    vertices and a tree term; odd holds the generators of odd degree.

    Sums <sigma G, T> * koszul(sigma) over the label-preserving bijections
    sigma only: vertex j goes to a leaf position carrying wlabels[j]."""
    vlabels = tree_leaves(tkey)
    if len(vlabels) != n:
        return 0
    verts, slots = {}, {}
    for j, x in enumerate(wlabels):
        verts.setdefault(x, []).append(j)
    for i, x in enumerate(vlabels):
        slots.setdefault(x, []).append(i)
    if any(len(slots.get(x, ())) != len(js) for x, js in verts.items()):
        return 0
    if prod(factorial(len(js)) for js in verts.values()) > BIJECTION_CAP:
        raise CapExceeded(
            f"element pairing capped at {BIJECTION_CAP} bijections per term")
    info = _pair_info(tree_term_shape(tkey))
    parity = [x in odd for x in wlabels]
    perm, inv = [0] * n, [0] * n  # vertex j -> leaf perm[j]; leaf i <- inv[i]
    total = 0
    for choice in product(*(permutations(slots[x]) for x in verts)):
        for js, ps in zip(verts.values(), choice):
            for j, i in zip(js, ps):
                perm[j] = i + 1
                inv[i] = j
        sp = _shape_pair_on([(perm[a - 1], perm[b - 1]) for a, b in edges],
                            info, n + 1)
        if sp:
            total += sp * koszul_sign(parity, inv)
    return total


class PairingMatrix:
    """The Gr(n) x Tr(n) integer pairing matrix, held as its quotient by the
    two sign rules of the pairing.

    Arrow-reversing: reversing an edge of G negates <G, T>, so every graph
    is (-1)^(reversed edges) times its orientation with a < b on each edge
    a -> b; there are n^(n-2) such rows.  Antisymmetry: swapping the two
    children at an internal node of T negates <G, T>, so every tree is
    (-1)^(swaps) times its child order with the smaller least leaf on the
    left; there are n!*Cat(n-1)/2^(n-1) such columns.  The quotient matrix
    Q (`quotient`, a 2-D int8 memoryview) pairs these representatives, and
    entry(i, j) = row_sign[i] * col_sign[j] * Q[row_class[i], col_class[j]]
    for i, j indexing row_basis and col_basis.  Rows and columns equal up
    to sign span the same space, so rank() is the rank of Q.

    Long graphs 1 -> j2 -> ... -> jn and tall trees ((1, i2), ..., in) are
    dual bases: their (n-1)! square block of Q is diagonal with entries +-1.
    `minor` holds its (row classes, column classes), in the same order of
    tails, and rank() is certified on it by integer_matrix_rank."""

    def __init__(self, n, graphs, trees, row_class, row_sign, col_class,
                 col_sign, quotient, minor):
        self.n = n
        self.row_basis = graphs
        self.col_basis = trees
        self.row_class = row_class
        self.row_sign = row_sign
        self.col_class = col_class
        self.col_sign = col_sign
        self.quotient = quotient
        self.minor = minor
        self._rank = None

    def entry(self, i, j):
        return (self.row_sign[i] * self.col_sign[j]
                * self.quotient[self.row_class[i], self.col_class[j]])

    def rank(self):
        if self._rank is None:
            self._rank = integer_matrix_rank(self.quotient, *self.minor)
        return self._rank

    def __repr__(self):
        return (f"PairingMatrix(n={self.n}, "
                f"{len(self.row_basis)}x{len(self.col_basis)}, quotient "
                f"{self.quotient.shape[0]}x{self.quotient.shape[1]})")


def _splits(t):
    """(leaves of the left child, leaves of the right child) at every
    internal vertex of the tree t."""
    out, stack = [], [t]
    while stack:
        t = stack.pop()
        if isinstance(t, tuple):
            out.append((tree_leaves(t[0]), tree_leaves(t[1])))
            stack += t
    return out


def _tree_key(t):
    """The OR (a sum, as clades differ) of 1 << clade over the internal
    vertices of t, a clade being the bits 1 << leaf of the leaves below a
    vertex: it names t up to child order."""
    return sum(1 << sum(1 << x for x in left + right)
               for left, right in _splits(t))


def _col_keys(n):
    """Per tree of enumerate_trees(n), in its order: _tree_key shifted up
    one bit, above the parity of the internal vertices whose left child
    holds the greater least leaf.  Computed per shape for every labeling at
    once, one list per internal vertex."""
    # columns[i]: the bit of the leaf at position i, over all labelings
    columns = [[1 << x for x in c]
               for c in zip(*permutations(range(1, n + 1)))]
    # per clade: its key bit (clades are even, so bit 0 stays free) and its
    # least leaf, the clade's lowest bit
    bit = [2 << c for c in range(2 << n)]
    least = [c & -c for c in range(2 << n)]
    keys = []
    for shape in _tree_shapes(n):
        nodes = []
        _clades(shape, columns, nodes)
        key = [0] * len(columns[0])
        for left, right in nodes:
            key = [k ^ bit[lo | ro] ^ (least[lo] > least[ro])
                   for k, lo, ro in zip(key, left, right)]
        keys += key
    return keys


def _clades(t, columns, nodes):
    """The clade of shape t under every labeling; appends its children's to
    nodes at each internal vertex."""
    if not isinstance(t, tuple):
        return columns[t]
    nodes.append((_clades(t[0], columns, nodes),
                  _clades(t[1], columns, nodes)))
    return list(map(or_, *nodes[-1]))


def _classes(keys):
    """Class index of each key, numbered in order of first appearance, and
    {key: (class index, position of its first appearance)}."""
    first = {}
    return ([first.setdefault(k, (len(first), i))[0]
             for i, k in enumerate(keys)], first)


@lru_cache(maxsize=None)
def pairing_matrix(n):
    if n > ENUMERATION_CAP:
        raise CapExceeded(f"pairing matrix capped at n <= {ENUMERATION_CAP}")
    graphs, trees = enumerate_graphs(n), enumerate_trees(n)
    # undirected edges as a bitmask, above 3 bits counting reversed edges
    bits = {}
    for k, (a, b) in enumerate(combinations(range(1, n + 1), 2)):
        bits[a, b], bits[b, a] = 8 << k, (8 << k) + 1
    row_key = [sum(map(bits.__getitem__, G.edges)) for G in graphs]
    row_class, row_first = _classes([k >> 3 for k in row_key])
    col_key = _col_keys(n)
    col_class, col_first = _classes([k >> 1 for k in col_key])
    R, C = len(row_first), len(col_first)
    # <G, T> != 0 only when the edges of G meet the internal vertices of T
    # one to one, so a column's nonzeros are its choices of one leaf pair
    # (a, b) across each vertex, a under the left child.  The pair is an
    # edge of the row representative, which runs from the smaller end: it
    # counts -1 when a > b.  The column's first tree differs from its
    # representative by its parity of child swaps.
    offset = {k: c * C for k, (c, _) in row_first.items()}
    byte = (1, 255)  # +1 and -1 as int8
    buf = bytearray(R * C)
    for j, i in col_first.values():
        keys = [0]
        for left, right in _splits(trees[i]):
            pairs = [bits[a, b] for a in left for b in right]
            keys = [k + e for k in keys for e in pairs]
        parity = col_key[i] & 1
        for k in keys:
            buf[offset[k >> 3] + j] = byte[(k ^ parity) & 1]
    tails = list(permutations(range(2, n + 1)))
    minor = ([row_first[sum(map(bits.__getitem__,
                                long_graph((1,) + t).edges)) >> 3][0]
              for t in tails],
             [col_first[_tree_key(tall_tree((1,) + t))][0] for t in tails])
    return PairingMatrix(n, graphs, trees, row_class,
                         [1 - 2 * (k & 1) for k in row_key], col_class,
                         [1 - 2 * (k & 1) for k in col_key],
                         memoryview(buf).cast("b", (R, C)), minor)
