"""Combinatorial shapes: S-graphs (connected acyclic edge-oriented graphs on
{1..n}) and planar binary trees with labeled leaves, plus edge surgery and
canonical forms.

Graphs are stored with their edge list sorted, so shape keys are stable under
surgery.  Trees are nested tuples over leaf labels: 3 is a leaf, ((2,1),3) is
the tree whose left subtree is (2,1).

The lru_caches on enumerate_graphs, enumerate_trees and _tree_shapes are
unbounded because their argument is: the enumerations refuse n outside
1..ENUMERATION_CAP before anything is cached, and _tree_shapes is read
only by them and by the pairing matrix, capped at n <= 7, so each cache
holds at most 7 entries.  oriented_trees(n) is a view and caches nothing.
"""

from functools import lru_cache
from itertools import combinations, permutations, product

from .errors import (
    BadEdgeIndex,
    BadVertexIndex,
    CapExceeded,
    DuplicateEdge,
    HasCycle,
    InvalidInput,
    NotConnected,
)

ENUMERATION_CAP = 6


class SGraph:
    """Connected acyclic directed graph on vertices {1..n}; exactly n-1 edges.
    Use validate_graph() to construct from untrusted data."""

    __slots__ = ("n", "edges")

    def __init__(self, n, edges, _checked=False):
        self.n = n
        self.edges = tuple(sorted(tuple(e) for e in edges))
        if not _checked:
            validate_graph(n, edges)

    @classmethod
    def _presorted(cls, n, edges):  # a valid edge tuple, already sorted
        G = object.__new__(cls)
        G.n, G.edges = n, edges
        return G

    def key(self):
        return (self.n, self.edges)

    def __eq__(self, other):
        return isinstance(other, SGraph) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        es = ", ".join(f"{a}->{b}" for a, b in self.edges)
        return f"G[{self.n}; {es}]"

    def relabel(self, perm):
        """perm maps old vertex -> new vertex (dict or callable)."""
        f = perm.__getitem__ if isinstance(perm, dict) else perm
        return SGraph(self.n, [(f(a), f(b)) for a, b in self.edges], _checked=True)

    def reverse_edge(self, i):
        if not 0 <= i < len(self.edges):
            raise BadEdgeIndex(f"edge index {i} out of range")
        es = list(self.edges)
        a, b = es[i]
        es[i] = (b, a)
        return SGraph(self.n, es, _checked=True)


def validate_graph(n, edges):
    """Check the S-graph conditions and return the SGraph, or raise a
    structured error naming the offending edge/vertex."""
    edges = [tuple(e) for e in edges]
    for a, b in edges:
        if not (isinstance(a, int) and isinstance(b, int)):
            raise BadVertexIndex(f"non-integer vertex in edge {a}->{b}")
        if not (1 <= a <= n and 1 <= b <= n):
            raise BadVertexIndex(f"edge {a}->{b} leaves vertex set {{1..{n}}}")
        if a == b:
            raise HasCycle(f"loop edge {a}->{b}")
    seen = set()
    for a, b in edges:
        und = frozenset((a, b))
        if und in seen:
            raise DuplicateEdge(f"edge {a}->{b} repeated (in some orientation)")
        seen.add(und)
    # union-find for connectivity / cycle detection
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            raise HasCycle(f"edge {a}->{b} closes a cycle")
        parent[ra] = rb
    if len(edges) != n - 1 or len({find(v) for v in range(1, n + 1)}) != 1:
        raise NotConnected(f"graph on {n} vertices with {len(edges)} edges "
                           "is not connected")
    return SGraph(n, edges, _checked=True)


@lru_cache(maxsize=None)
def enumerate_graphs(n):
    """All S-graphs on {1..n}: spanning trees of K_n in every orientation.
    Count is n^(n-2) * 2^(n-1).  Deterministic order (sorted by edge list):
    the graphs of oriented_trees(n), each edge tuple compared by its flat
    vertex bytes (the same order, compared faster), listed and cached."""
    _check_weight(n, "graph")
    return sorted(oriented_trees(n), key=lambda G: bytes(sum(G.edges, ())))


def oriented_trees(n):
    """The S-graphs on {1..n} in generation order: an OrientedTrees view
    over labeled_trees(n)."""
    return OrientedTrees(n, labeled_trees(n))


class OrientedTrees:
    """The oriented trees on {1..n}, indexed without being listed: graph
    c * 2^(n-1) + o is tree c of `trees` with edge k reversed when bit
    n - 2 - k of o is set, so it has one edge a -> b with a > b per set bit.
    Each graph is built when it is read, over arc tuples shared by the
    graphs of one view, and none is kept.

    Iteration runs a product loop over each tree's orientations rather
    than indexing: building all 41 472 graphs at n = 6 takes 42 ms that way
    against 103 ms by index, and a pairing-matrix benchmark pass, which
    iterates every row, 0.205 s against 0.263 s (medians of 14 alternating
    fresh-interpreter passes, CPython 3.11, 2 vCPUs)."""

    __slots__ = ("n", "trees", "_arc")

    def __init__(self, n, trees):
        self.n, self.trees = n, trees
        self._arc = [[(a, b) for b in range(n + 1)] for a in range(n + 1)]

    def __len__(self):
        return len(self.trees) << self.n - 1

    def __getitem__(self, i):
        i, m, arc = range(len(self))[i], self.n - 1, self._arc
        es = [arc[b][a] if i >> m - 1 - k & 1 else arc[a][b]
              for k, (a, b) in enumerate(self.trees[i >> m])]
        return SGraph._presorted(self.n, tuple(sorted(es)))

    def __iter__(self):
        arc = self._arc
        for tree in self.trees:
            for es in product(*((arc[a][b], arc[b][a]) for a, b in tree)):
                yield SGraph._presorted(self.n, tuple(sorted(es)))


def labeled_trees(n):
    """The undirected trees on {1..n}, n^(n-2) of them by Cayley: their
    edges (a, b), a < b, each list ascending, from the Pruefer codes, in
    ascending order of the edge lists.  Each edge is one shared tuple."""
    if n < 1:
        raise InvalidInput(f"tree enumeration needs n >= 1, got {n}")
    if n == 1:
        return [()]
    edge = [[None] * (n + 1) for _ in range(n + 1)]
    for a, b in combinations(range(1, n + 1), 2):
        edge[a][b] = edge[b][a] = (a, b)
    return sorted(tuple(sorted(edge[a][b]
                               for a, b in _pruefer_to_tree(n, seq)))
                  for seq in product(range(1, n + 1), repeat=n - 2))


def _check_weight(n, what):
    if n < 1:
        raise InvalidInput(f"{what} enumeration needs n >= 1, got {n}")
    if n > ENUMERATION_CAP:
        raise CapExceeded(f"{what} enumeration capped at n <= {ENUMERATION_CAP}")


def _pruefer_to_tree(n, seq):
    """Undirected labeled tree edges from a Pruefer sequence."""
    degree = [1] * (n + 1)
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = degree.index(1, 1)  # the least leaf
        edges.append((leaf, x))
        degree[leaf], degree[x] = 0, degree[x] - 1
    return edges + [tuple(v for v in range(1, n + 1) if degree[v] == 1)]


# ---------------------------------------------------------------------------
# planar binary trees

def tree_leaves(t):
    """Leaf labels in left-to-right planar order; a leaf is anything that is
    not a tuple (an int in a shape, a generator name in a tree term)."""
    if not isinstance(t, tuple):
        return (t,)
    return tree_leaves(t[0]) + tree_leaves(t[1])


def validate_tree(t, n=None):
    ls = tree_leaves(t)
    if n is not None and len(ls) != n:
        raise BadVertexIndex(f"tree has {len(ls)} leaves, expected {n}")
    if sorted(ls) != list(range(1, len(ls) + 1)):
        raise BadVertexIndex(f"leaf labels {ls} are not a bijection to "
                             f"{{1..{len(ls)}}}")
    return t


@lru_cache(maxsize=None)
def _tree_shapes(n):
    """All binary tree shapes with leaves replaced by position indices 0..n-1."""
    # positions are assigned left to right, so split sizes determine offsets
    def build(lo, size):
        if size == 1:
            return [lo]
        out = []
        for ls in range(1, size):
            for l in build(lo, ls):
                for r in build(lo + ls, size - ls):
                    out.append((l, r))
        return out
    return build(0, n)


@lru_cache(maxsize=None)
def enumerate_trees(n):
    """All planar binary trees with leaves labeled by {1..n}; count is
    n! * Catalan(n-1).  Deterministic order.  Equal proper subtrees are one
    shared tuple, so the trees hold each labeled subtree once."""
    _check_weight(n, "tree")
    # the label at each leaf position, over all permutations in order
    columns = list(zip(*permutations(range(1, n + 1))))
    intern = {}.setdefault  # one dict for all shapes, dropped on return
    return [T for shape in _tree_shapes(n)
            for T in _label_all(shape, columns, intern, root=True)]


def _label_all(shape, columns, intern, root=False):
    """tree_relabel(shape, p) for every permutation p, one zip per node;
    below the root each subtree is intern(t, t), the first equal one met."""
    if not isinstance(shape, tuple):
        return columns[shape]
    nodes = zip(_label_all(shape[0], columns, intern),
                _label_all(shape[1], columns, intern))
    return nodes if root else [intern(t, t) for t in nodes]


def tree_relabel(t, perm):
    """Apply a leaf relabeling to leaf labels: perm maps old -> new (a dict,
    or a sequence indexed by the leaf positions of a shape)."""
    if not isinstance(t, tuple):
        return perm[t]
    return (tree_relabel(t[0], perm), tree_relabel(t[1], perm))


def tall_tree(seq):
    """Left comb ((...(s1,s2),s3)...,sn)."""
    t = seq[0]
    for x in seq[1:]:
        t = (t, x)
    return t


def long_graph(seq):
    """Directed path seq[0] -> seq[1] -> ... -> seq[-1] as an SGraph."""
    n = len(seq)
    return SGraph(n, [(seq[i], seq[i + 1]) for i in range(n - 1)], _checked=True)


# ---------------------------------------------------------------------------
# edge surgery

def _adjacency(n, edges):
    """Neighbour lists of vertices 1..n (index 0 unused)."""
    adj = [[] for _ in range(n + 1)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def cut_edge(G, e):
    """Remove edge e; returns (G1, G2, (slots1, slots2)) where G1 carries the
    source side and G2 the target side, each relabeled to {1..k} preserving
    relative vertex order.  slots_i are the original vertex labels, ascending."""
    if not 0 <= e < len(G.edges):
        raise BadEdgeIndex(f"edge index {e} out of range for {G!r}")
    src = G.edges[e][0]
    rest = G.edges[:e] + G.edges[e + 1:]
    adj = _adjacency(G.n, rest)
    seen, stack = {src}, [src]  # the source side, depth first
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    side1 = [v for v in range(1, G.n + 1) if v in seen]
    side2 = [v for v in range(1, G.n + 1) if v not in seen]
    # both relabelings keep vertex order, so the edges stay sorted
    m = {v: i + 1 for side in (side1, side2) for i, v in enumerate(side)}
    e1 = tuple((m[a], m[b]) for a, b in rest if a in seen)
    e2 = tuple((m[a], m[b]) for a, b in rest if a not in seen)
    return (SGraph._presorted(len(side1), e1),
            SGraph._presorted(len(side2), e2), (tuple(side1), tuple(side2)))


def contract_edge(G, e):
    """Contract edge e = (s, t): the merged vertex takes s's label position and
    every vertex after t shifts down by one.  Returns (SGraph on n-1 vertices,
    (s, t))."""
    if not 0 <= e < len(G.edges):
        raise BadEdgeIndex(f"edge index {e} out of range for {G!r}")
    s, t = G.edges[e]
    remap = [v - (v > t) for v in range(G.n + 1)]
    remap[t] = remap[s]
    rest = G.edges[:e] + G.edges[e + 1:]
    return SGraph(G.n - 1, [(remap[a], remap[b]) for a, b in rest],
                  _checked=True), (s, t)


# ---------------------------------------------------------------------------
# canonical forms

def _canonical_perms(n, edges):
    """The plan of a shape (n, sorted edges): canonical edges, the 0-based
    inverses of every relabeling reaching them (the source order of the
    labels) and whether the identity is the only one.  Only the
    finitely many shapes on <= ENUMERATION_CAP vertices are brute forced and
    cached; longer ones must be paths, numbered along the path per call."""
    if n <= ENUMERATION_CAP:
        return _small_canonical_perms(n, edges)
    adj = _adjacency(n, edges)
    ends = [v for v in range(1, n + 1) if len(adj[v]) == 1]
    if len(ends) != 2 or max(map(len, adj)) > 2:
        raise CapExceeded("canonicalization of non-path shapes capped at "
                          f"{ENUMERATION_CAP} vertices (got {n})")
    order = [ends[0], adj[ends[0]][0]]  # the path from its least end
    while len(order) < n:
        a, b = adj[order[-1]]
        order.append(b if a == order[-2] else a)
    return _least_relabelings(n, edges, (order, order[::-1]))


def _least_relabelings(n, edges, orders=None):
    """_canonical_perms over vertex orders (old vertices in new order), by
    default all of them."""
    best, invs = None, []
    p = [0] * (n + 1)
    for seq in orders or permutations(range(1, n + 1)):
        for j, v in enumerate(seq, 1):
            p[v] = j
        relab = tuple(sorted((p[a], p[b]) for a, b in edges))
        if best is None or relab < best:
            best, invs = relab, [tuple(v - 1 for v in seq)]
        elif relab == best:
            invs.append(tuple(v - 1 for v in seq))
    return best, tuple(invs), invs == [tuple(range(n))]


_small_canonical_perms = lru_cache(maxsize=None)(_least_relabelings)


def canonical_form(G):
    """Canonical vertex relabeling of G, with the first permutation achieving
    it (as a tuple p where vertex i maps to p[i-1]).  Two graphs lie in the
    same relabeling orbit iff their canonical forms coincide.  Up to 6
    vertices it is the lexicographically minimal relabeling; above that only
    paths are accepted, numbered along the path."""
    best, invs, _ = _canonical_perms(G.n, G.edges)
    p = [0] * G.n
    for j, v in enumerate(invs[0], 1):
        p[v] = j
    return SGraph(G.n, best, _checked=True), tuple(p)
