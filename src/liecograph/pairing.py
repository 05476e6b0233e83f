"""The configuration pairing between graphs and trees.

At shape level: each edge a->b of the graph is sent to the nadir (lowest
internal vertex) of the path between leaves a and b of the tree; the pairing
is 0 unless that map is surjective onto the internal vertices, and otherwise
the product of edge signs (+1 when leaf a sits to the left of leaf b).
A tree's nadirs and signs are held as one flat table of small ints,
+-(nadir + 1) at a * (n + 1) + b (_pair_info), cached for shape_pair and
_term_pair and built afresh, chunk by chunk, for the dense matrix.

Two sign rules hold: reversing an edge of the graph negates the pairing, and
so does swapping the two children at an internal node of the tree.  The
weight-n pairing matrix is therefore built and ranked on the quotient by
both, one oriented tree per undirected tree (n^(n-2) rows) against one child
order per antisymmetry class (n!*Cat(n-1)/2^(n-1) columns): 1296 x 945 at
n = 6 instead of 41472 x 30240.  Its rank is certified on the block of
long graphs against tall trees, a signed identity since the two are dual
bases; see PairingMatrix.

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
    Q pairs these representatives, and
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
                * int(self.quotient[self.row_class[i], self.col_class[j]]))

    def rank(self):
        if self._rank is None:
            self._rank = integer_matrix_rank(self.quotient, *self.minor)
        return self._rank

    def __repr__(self):
        return (f"PairingMatrix(n={self.n}, "
                f"{len(self.row_basis)}x{len(self.col_basis)}, quotient "
                f"{self.quotient.shape[0]}x{self.quotient.shape[1]})")


def _graph_class(G):
    """Orientation with a < b on every edge, and (-1)^(reversed edges)."""
    return (tuple(sorted((min(a, b), max(a, b)) for a, b in G.edges)),
            (-1) ** sum(a > b for a, b in G.edges))


def _tree_class(T):
    """Child order with the smaller least leaf on the left at every internal
    node, and (-1)^(swaps)."""
    if isinstance(T, int):
        return T, 1
    (left, lsign), (right, rsign) = _tree_class(T[0]), _tree_class(T[1])
    if tree_leaves(left)[0] < tree_leaves(right)[0]:  # their least leaves
        return (left, right), lsign * rsign
    return (right, left), -lsign * rsign


def _col_keys(n):
    """Per tree of enumerate_trees(n): its sorted clade bitmasks packed into
    one integer, and the parity of its nodes with the greater least leaf left."""
    import numpy as np

    labels = 1 << np.array(list(permutations(range(n))), dtype=np.int64)
    weights = 1 << (n * np.arange(n - 1, dtype=np.int64))
    keys, parity = [], []
    for shape in _tree_shapes(n):
        nodes = []
        _clades(shape, labels, nodes)
        left, right = np.array(nodes, dtype=np.int64).reshape(
            -1, 2, len(labels)).transpose(1, 2, 0)
        keys.append(np.sort(left | right, axis=1) @ weights)
        # the lowest set bit of a clade is its least leaf
        parity.append(((left & -left) > (right & -right)).sum(axis=1) & 1)
    return np.concatenate(keys), np.concatenate(parity)


def _clades(t, labels, nodes):
    """Clade bitmask of shape t for every labeling (a row of label bits per
    leaf position); appends its children's to nodes at each internal node."""
    if not isinstance(t, tuple):
        return labels[:, t]
    nodes.append((_clades(t[0], labels, nodes), _clades(t[1], labels, nodes)))
    return nodes[-1][0] | nodes[-1][1]


def _classes(keys, basis, reduce):
    """Class index of each basis element by key, numbered in order of first
    appearance, and {reduce(first member)[0]: class index}."""
    first = {}
    cls = [first.setdefault(k, (len(first), i))[0]
           for i, k in enumerate(keys.tolist())]
    return cls, {reduce(basis[i])[0]: c for c, i in first.values()}


@lru_cache(maxsize=None)
def pairing_matrix(n):
    if n > ENUMERATION_CAP:
        raise CapExceeded(f"pairing matrix capped at n <= {ENUMERATION_CAP}")
    import numpy as np

    graphs, trees = enumerate_graphs(n), enumerate_trees(n)
    # undirected edges as a bitmask, above 3 bits counting reversed edges
    bits = {}
    for k, (a, b) in enumerate(combinations(range(1, n + 1), 2)):
        bits[a, b], bits[b, a] = 8 << k, (8 << k) + 1
    row_key = np.fromiter((sum(map(bits.__getitem__, G.edges))
                           for G in graphs), np.int64, len(graphs))
    col_key, col_parity = _col_keys(n)
    row_class, row_index = _classes(row_key >> 3, graphs, _graph_class)
    col_class, col_index = _classes(col_key, trees, _tree_class)
    Q = _dense_pairing(n, list(row_index), list(col_index))
    tails = list(permutations(range(2, n + 1)))
    minor = ([row_index[_graph_class(long_graph((1,) + t))[0]] for t in tails],
             [col_index[_tree_class(tall_tree((1,) + t))[0]] for t in tails])
    return PairingMatrix(n, graphs, trees, row_class,
                         (1 - 2 * (row_key & 1)).tolist(), col_class,
                         (1 - 2 * col_parity).tolist(), Q, minor)


def _dense_pairing(n, graphs, trees):
    """Vectorized pairing matrix of edge tuples against trees: for a chunk of
    trees at a time, gather the nadir table entries of all edges and
    combine.  The tables are built here, not through _pair_info's cache,
    which would keep one per tree."""
    import numpy as np

    g = len(graphs)
    edges = np.array(graphs, dtype=np.intp).reshape(g, n - 1, 2)
    # index into a flattened (n+1)x(n+1) nadir table
    flat = edges[:, :, 0] * (n + 1) + edges[:, :, 1]
    full = (1 << n) - 2  # the bits 1 << (nadir + 1) of the n-1 nadirs
    table = _pair_info.__wrapped__
    out = np.zeros((g, len(trees)), dtype=np.int8)
    chunk = 64
    for j0 in range(0, len(trees), chunk):
        part = np.array([table(T) for T in trees[j0:j0 + chunk]], np.int8)
        entries = part[:, flat]  # (c, g, n-1): +-(nadir + 1)
        bits = np.left_shift(np.int8(1), np.abs(entries))
        # distinctness: OR of bits has n-1 set bits iff no collision occurred
        surj = np.bitwise_or.reduce(bits, axis=2) == full
        signs = np.sign(entries).prod(axis=2, dtype=np.int8)
        out[:, j0:j0 + len(part)] = np.where(surj, signs, 0).T
    return out
