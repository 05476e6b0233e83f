"""The configuration pairing between graphs and trees.

At shape level: each edge a->b of the graph is sent to the nadir (lowest
internal vertex) of the path between leaves a and b of the tree; the pairing
is 0 unless that map is surjective onto the internal vertices, and otherwise
the product of edge signs (+1 when leaf a sits to the left of leaf b).
A tree's nadirs and signs are one flat table of small ints,
+-(nadir + 1) at a * (n + 1) + b (_pair_info), built per shape_pair call.

Two sign rules hold: reversing an edge of the graph negates the pairing, and
so does swapping the two children at an internal node of the tree.  The
weight-n pairing matrix is therefore built and ranked on the quotient by
both, one oriented tree per undirected tree (n^(n-2) rows) against one child
order per antisymmetry class (n!*Cat(n-1)/2^(n-1) columns): 1296 x 945 at
n = 6 instead of 41472 x 30240, and 16807 x 10395 at n = 7.  No graph is
built: a row's class and sign are read off its index (shapes.oriented_trees,
an indexed view), and the column trees' keys are streamed into a 2-byte
class and a 1-byte sign per tree.  The int8 quotient is filled column by
column where the pairing can be nonzero: the edges of G must meet the
internal vertices of T one to one, so a column's nonzeros are its choices of
one leaf pair across each vertex (74520 of 1224720 cells at n = 6, 3769920
at n = 7).  Its rank is certified on the block of long graphs against tall
trees, a signed identity since the two are dual bases; see PairingMatrix.

At element level generators pair by name, and the pairing is one of a
coalgebra with an algebra: the bracket is dual to the cobracket.  A graph
term G pairs with a leaf x only at weight 1, to 1 when its vertex is
labelled x, and with (t1, t2) through its cobracket: <G, (t1, t2)> is the
sum of c <k1, t1> <k2, t2> over the terms c k1 (x) k2 of G's cobracket.
_term_pair reads each cobracket from the table's memo that is_zero_in_E
fills too, and memoises its integer values on the table; an equal-weight
term pair past ZERO_CAP is refused.  The definition, a sum over the
label-preserving bijections of vertices to leaves of shape_pair times a
Koszul sign, is the tests' oracle.
"""

from functools import lru_cache
from itertools import combinations, permutations
from math import factorial, isqrt
from operator import or_

from .errors import CapExceeded, MalformedDual, WeightMismatch
from .graphcoalg import ZERO_CAP, _iterated_term
from .linalg import integer_matrix_rank
from .shapes import (
    ENUMERATION_CAP,
    _tree_shapes,
    enumerate_trees,
    oriented_trees,
    tree_leaves,
)

__all__ = [
    "shape_pair",
    "element_pair",
    "pairing_matrix",
    "PairingMatrix",
]


def _pair_info(tree):
    """The nadir table of a tree on the leaves 1..n: at a * (n + 1) + b,
    for every ordered pair of leaves a != b, +(nadir + 1) when a sits left
    of b and -(nadir + 1) when it sits right, the n - 1 internal vertices
    numbered 0, 1, ... top down; 0 elsewhere.  Built on each call."""
    stride = len(tree_leaves(tree)) + 1
    info, subtrees, node = [0] * (stride * stride), [tree], 0
    for t in subtrees:  # extended while it is read: every subtree, top down
        if isinstance(t, tuple):
            subtrees += t
            node += 1
            for a in tree_leaves(t[0]):
                for b in tree_leaves(t[1]):
                    info[a * stride + b], info[b * stride + a] = node, -node
    return info


def shape_pair(G, T):
    """Configuration pairing of an S-graph with a planar tree; in {-1, 0, 1}:
    0 if two edges a -> b share a nadir, else the product of their signs."""
    info = _pair_info(T)
    stride = isqrt(len(info))  # the table is stride x stride
    if G.n != stride - 1:
        raise WeightMismatch(f"graph weight {G.n} vs tree with {stride - 1} "
                             "leaves")
    seen = 0
    sign = 1
    for a, b in G.edges:
        v = info[a * stride + b]
        if v < 0:
            v, sign = -v, -sign
        bit = 1 << v
        if seen & bit:
            return 0
        seen |= bit
    return sign


def element_pair(g, t):
    """Bilinear configuration pairing of a GraphElement against a TreeElement,
    with generators paired by name (the Kronecker pairing of g's table with
    t's).  Terms of different weight contribute zero; an equal-weight term
    pair past ZERO_CAP is a CapExceeded.  Returns the exact sum, an int when
    both elements have int coefficients."""
    table = g.table
    if table is not t.table:
        _check_degrees(g, t)
    total = 0
    for tkey, tc in t.terms.items():
        for key, gc in g.terms.items():
            total += tc * gc * _term_pair(table, key, tkey)
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


def _term_pair(table, key, tkey):
    """<G, T> for a canonical graph term key and a tree term tkey, by the
    recursion dual to the cobracket: a vertex pairs with a leaf of its own
    name to 1, and <G, (t1, t2)> is the sum of c <k1, t1> <k2, t2> over the
    terms c k1 (x) k2 of G's cobracket (graphcoalg._iterated_term, memoised
    on the table) with k1 of t1's weight.  0 on terms of different weight,
    with no cobracket taken.  Integer values, memoised on the table."""
    if isinstance(tkey, str):
        return int(key[1] == (tkey,))
    memo = table.memo("term_pair")
    hit = memo.get((key, tkey))
    if hit is None:
        t1, t2 = tkey
        n, n1, hit = key[0][0], len(tree_leaves(t1)), 0
        if n == n1 + len(tree_leaves(t2)):
            if n > ZERO_CAP:
                raise CapExceeded(
                    f"element pairing capped at weight <= {ZERO_CAP}")
            for (k1, k2), c in _iterated_term(table, key, 1).items():
                if k1[0][0] == n1:
                    s = _term_pair(table, k1, t1)
                    if s:
                        hit += c * s * _term_pair(table, k2, t2)
        memo[(key, tkey)] = hit
    return hit


class PairingMatrix:
    """The Gr(n) x Tr(n) integer pairing matrix, held as its quotient by the
    two sign rules of the pairing.

    Arrow-reversing: reversing an edge of G negates <G, T>, so every graph
    is (-1)^(reversed edges) times its orientation with a < b on each edge
    a -> b; there are n^(n-2) such rows.  Antisymmetry: swapping the two
    children at an internal node of T negates <G, T>, so every tree is
    (-1)^(swaps) times its child order with the smaller least leaf on the
    left; there are n!*Cat(n-1)/2^(n-1) such columns.  The quotient matrix
    Q (`quotient`, a 2-D int8 memoryview) pairs these representatives: the
    rows are the undirected trees in ascending order of their edge lists
    (shapes.labeled_trees), the columns the child orders in order of first
    appearance in enumerate_trees(n).  Up to ENUMERATION_CAP the bases are
    attached.  row_basis is the view shapes.oriented_trees(n), which builds
    a graph only when it is read: row i is row class i >> (n - 1) with one
    edge reversed, and a sign, per set bit of its low n - 1 bits, so no
    per-row list is stored.  col_basis is enumerate_trees(n), each column
    with its col_class and col_sign (2-byte and 1-byte arrays); entry(i, j)
    = (-1)^popcount(i's low n - 1 bits) * col_sign[j] * Q[i >> (n - 1),
    col_class[j]].  At n = 7 these four are None: entry() is unavailable.
    Rows and columns equal up to sign span the same space, so rank() is
    the rank of Q.

    Long graphs 1 -> j2 -> ... -> jn and tall trees ((1, i2), ..., in) are
    dual bases: their (n-1)! square block of Q is diagonal with entries +-1.
    `minor` holds its (row classes, column classes), in the same order of
    tails, and rank() is certified on it by integer_matrix_rank."""

    def __init__(self, n, graphs, trees, col_class, col_sign, quotient,
                 minor):
        self.n = n
        self.row_basis = graphs
        self.col_basis = trees
        self.col_class = col_class
        self.col_sign = col_sign
        self.quotient = quotient
        self.minor = minor
        self._rank = None

    def entry(self, i, j):
        m = self.n - 1
        sign = -1 if (i & (1 << m) - 1).bit_count() & 1 else 1
        return sign * self.col_sign[j] * self.quotient[i >> m,
                                                       self.col_class[j]]

    def rank(self):
        if self._rank is None:
            self._rank = integer_matrix_rank(self.quotient, *self.minor)
        return self._rank

    def __repr__(self):
        R, C = self.quotient.shape
        return f"PairingMatrix(n={self.n}, quotient {R}x{C})"


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


def _col_keys(n):
    """Per tree of enumerate_trees(n), in its order: its key up to child
    order, the sum of 1 << clade over its internal vertices (a clade: the
    bits 1 << leaf below one), shifted up one bit above the parity of the
    internal vertices whose left child holds the greater least leaf.
    Yielded one list per shape, computed for every labeling at once."""
    # columns[i]: the bit of the leaf at position i, over all labelings
    columns = [[1 << x for x in c]
               for c in zip(*permutations(range(1, n + 1)))]
    # per clade: its key bit (clades are even, so bit 0 stays free) and its
    # least leaf, the clade's lowest bit
    bit = [2 << c for c in range(2 << n)]
    least = [c & -c for c in range(2 << n)]
    for shape in _tree_shapes(n):
        nodes = []
        _clades(shape, columns, nodes)
        key = [0] * len(columns[0])
        for left, right in nodes:
            key = [k ^ bit[lo | ro] ^ (least[lo] > least[ro])
                   for k, lo, ro in zip(key, left, right)]
        yield key


def _clades(t, columns, nodes):
    """The clade of shape t under every labeling; appends its children's to
    nodes at each internal vertex."""
    if not isinstance(t, tuple):
        return columns[t]
    nodes.append((_clades(t[0], columns, nodes),
                  _clades(t[1], columns, nodes)))
    return list(map(or_, *nodes[-1]))


# the largest weight whose pairing matrix is built: at n = 7 its quotient
# is 175 MB, built and certified in 8.2-9.3 s and 206 MB peak RSS on
# 2 vCPUs
PAIRING_CAP = 7


def pairing_matrix(n):
    """The PairingMatrix of weight n <= PAIRING_CAP.  Up to ENUMERATION_CAP
    it carries its bases and column class maps and is cached (4.1 MB at
    n = 6, of which the trees of col_basis are most); at n = 7 it holds only
    its quotient and minor and is built anew on each call, so that no cache
    pins its 175 MB for the life of the process."""
    if n > PAIRING_CAP:
        raise CapExceeded(f"pairing matrix capped at n <= {PAIRING_CAP}")
    if n <= ENUMERATION_CAP:
        return _enumerated_pairing_matrix(n)
    return _pairing_matrix(n)


def _pairing_matrix(n):
    from array import array  # an extension module, loaded only when needed
    # row classes: the undirected trees, ascending, each oriented from the
    # smaller end of every edge; a pair (a, b) is its edge bit, shifted
    # above 3 bits counting the edges reversed (a > b)
    rows = oriented_trees(n)
    trees = rows.trees
    bits = {}
    for k, (a, b) in enumerate(combinations(range(1, n + 1), 2)):
        bits[a, b], bits[b, a] = 8 << k, (8 << k) + 1
    # column classes: first appearances in enumerate_trees' order, each with
    # the position and the parity of child swaps of its first tree
    first, col_class, col_sign = {}, array("H"), array("b")
    for keys in _col_keys(n):  # one shape under every labeling
        col_class += array("H", [
            first.setdefault(k >> 1, (len(first), i, k & 1))[0]
            for i, k in enumerate(keys, len(col_class))])
        col_sign += array("b", [1 - 2 * (k & 1) for k in keys])
    R, C = len(trees), len(first)
    # the tall trees ((1, i2), ..., in) are the left comb, the last shape,
    # under its first (n - 1)! labelings: leaf 1 first, the tails in order
    tails = list(permutations(range(2, n + 1)))
    tall = list(col_class[-factorial(n):][:len(tails)])
    if n <= ENUMERATION_CAP:
        maps = (rows, enumerate_trees(n), col_class, col_sign)
    else:
        maps = (None,) * 4
    del col_class, col_sign
    # the start of each row in buf, indexed by the row's undirected edges
    offset = [None] * (1 << n * (n - 1) // 2)
    for c, es in enumerate(trees):
        offset[sum(map(bits.__getitem__, es)) >> 3] = c * C
    # <G, T> != 0 only when the edges of G meet the internal vertices of T
    # one to one, so a column's nonzeros are its choices of one leaf pair
    # (a, b) across each vertex, a under the left child: an edge of the row
    # representative, which runs from the smaller end, so -1 when a > b.
    # The column's first tree, a shape of enumerate_trees(n) under one
    # labeling, differs from its representative by its child-swap parity.
    splits = [_splits(shape) for shape in _tree_shapes(n)]
    perms = list(permutations(range(1, n + 1)))
    byte = (1, 255)  # +1 and -1 as int8
    buf = bytearray(R * C)
    for j, i, parity in first.values():
        keys = [parity]  # the low 3 bits count the signs: at most n < 8
        shape, p = divmod(i, len(perms))
        label = perms[p]  # the leaf at each position of the shape
        for left, right in splits[shape]:
            pairs = [bits[label[a], label[b]] for a in left for b in right]
            keys = [k + e for k in keys for e in pairs]
        for k in keys:
            buf[offset[k >> 3] + j] = byte[k & 1]
    # a long graph's row class is its offset over C
    minor = ([offset[sum(map(bits.__getitem__, zip((1,) + t, t))) >> 3] // C
              for t in tails], tall)
    return PairingMatrix(n, *maps, memoryview(buf).cast("b", (R, C)), minor)


_enumerated_pairing_matrix = lru_cache(maxsize=None)(_pairing_matrix)
