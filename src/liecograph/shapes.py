"""Combinatorial shapes: S-graphs (connected acyclic edge-oriented graphs on
{1..n}) and planar binary trees with labeled leaves, plus edge surgery and
canonical forms.

Graphs are stored with their edge list sorted, so shape keys are stable under
surgery.  Trees are nested tuples over leaf labels: 3 is a leaf, ((2,1),3) is
the tree whose left subtree is (2,1).

Every graph shape has one canonical form, its plan (_canonical_plan), built
from tree codes: canonical edges, the old vertex at each new position and
the runs of interchangeable sibling subtrees, never a list of automorphisms.
Plans are cached up to ENUMERATION_CAP vertices only; the enumerations are
capped there too, so their lru_caches hold at most 7 entries (the pairing
matrix reads _tree_shapes to n = 7).  oriented_trees(n) caches nothing.
"""

from functools import lru_cache
from itertools import combinations, count, groupby, permutations, product
from operator import itemgetter

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
    graphs of one view, and none is kept.  Iteration runs a product loop
    over each tree's orientations, 2.5 times faster than indexing (42 ms
    against 103 ms for the 41 472 graphs at n = 6, CPython 3.11, 2 vCPUs)."""

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

def _tree_plan(n, edges):
    """The plan of a shape (n, sorted edges), by tree codes (Aho, Hopcroft
    and Ullman 1974): its canonical edges, the old vertex (0-based) at each
    new position, and the runs of interchangeable sibling subtrees, inner
    runs first, each a tuple of blocks of new positions (0-based ranges in
    the subtrees' own preorder).  Leaves are peeled level by level to the
    centre; a vertex's code ranks in its level the sorted 2 code + outward
    of the vertices peeled into it.  The root is the centre or the central
    edge's source; positions run in preorder by code, a first subtree of
    two or more mirrored before the root, so that long graphs keep theirs."""
    adj, arcs, size = _adjacency(n, edges), set(edges), [1] * (n + 1)
    deg, kids = list(map(len, adj)), [[] for _ in adj]
    level, peeled, base = [v for v in range(1, n + 1) if deg[v] < 2], [], 0
    while len(peeled) + 2 < n:
        keys = [tuple(sorted(map(itemgetter(0), kids[v]))) for v in level]
        rank = dict(zip(sorted(set(keys)), count(base)))
        base, nxt = base + len(rank), []
        for v, key in zip(level, keys):
            deg[v] = 0  # peeled into its one unpeeled neighbour
            p = next(u for u in adj[v] if deg[u])
            kids[p].append((2 * rank[key] + ((v, p) not in arcs), v))
            size[p] += size[v]
            deg[p] -= 1
            if deg[p] == 1:
                nxt.append(p)
        peeled += level
        level = nxt
    root = level[0]
    if len(level) == 2:  # the other centre codes above every peeled vertex
        root, t = level if tuple(level) in arcs else level[::-1]
        kids[root].append((2 * base + 1, t))
        peeled.append(t)
    pre = [0] * (n + 1)  # preorder index, top down
    for v in [root, *reversed(peeled)]:
        kids[v].sort()
        q = pre[v] + 1
        for _, c in kids[v]:
            pre[c], q = q, q + size[c]
    s = size[kids[root][0][1]] if len(kids[root]) > 1 else 0
    pos = [s - q if q <= s else q for q in pre]  # the root's pre is 0
    runs = [tuple(range(pos[c], pos[c] - size[c], -1) if pre[c] <= s
                  else range(pos[c], pos[c] + size[c]) for _, c in run)
            for v in peeled + [root] if len(kids[v]) > 1
            for run in (list(g) for _, g in groupby(kids[v], itemgetter(0)))
            if len(run) > 1]
    return (tuple(sorted((pos[a] + 1, pos[b] + 1) for a, b in edges)),
            tuple(sorted(range(n), key=pos[1:].__getitem__)), tuple(runs))


_cached_plan = lru_cache(maxsize=None)(_tree_plan)


def _canonical_plan(n, edges):
    """_tree_plan, cached up to ENUMERATION_CAP vertices; a long graph, its
    own plan, needs no codes (a word's cobracket cuts only long graphs)."""
    if n <= ENUMERATION_CAP:
        return _cached_plan(n, edges)
    if edges == tuple(zip(range(1, n), range(2, n + 1))):
        return edges, tuple(range(n)), ()
    return _tree_plan(n, edges)
