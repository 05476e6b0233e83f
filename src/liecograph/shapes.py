"""Combinatorial shapes: S-graphs (connected acyclic edge-oriented graphs on
{1..n}) and planar binary trees with labeled leaves, plus edge surgery and
canonical forms.

Graphs are stored with their edge list sorted, so shape keys are stable under
surgery.  Trees are nested tuples over leaf labels: 3 is a leaf, ((2,1),3) is
the tree whose left subtree is (2,1).
"""

from functools import lru_cache
from itertools import permutations, product

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
    Count is n^(n-2) * 2^(n-1).  Deterministic order (sorted by edge list)."""
    _check_weight(n, "graph")
    if n == 1:
        return [SGraph(1, [], _checked=True)]
    # Pruefer trees, each edge both ways, from one shared tuple per vertex
    # pair; each edge tuple is sorted once, the tuples by their flat vertex
    # bytes (the same order, compared faster)
    arc = [[(a, b) for b in range(n + 1)] for a in range(n + 1)]
    out = sorted((tuple(sorted(es))
                  for seq in product(range(1, n + 1), repeat=n - 2)
                  for es in product(*((arc[a][b], arc[b][a])
                                      for a, b in _pruefer_to_tree(n, seq)))),
                 key=lambda es: bytes(sum(es, ())))
    return [SGraph._presorted(n, es) for es in out]


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
    if n == 1:
        return [0]
    shapes = []
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

def cut_edge(G, e):
    """Remove edge e; returns (G1, G2, (slots1, slots2)) where G1 carries the
    source side and G2 the target side, each relabeled to {1..k} preserving
    relative vertex order.  slots_i are the original vertex labels, ascending."""
    if not 0 <= e < len(G.edges):
        raise BadEdgeIndex(f"edge index {e} out of range for {G!r}")
    src, tgt = G.edges[e]
    rest = [G.edges[i] for i in range(len(G.edges)) if i != e]
    comp = {v: v for v in range(1, G.n + 1)}

    def find(v):
        while comp[v] != v:
            comp[v] = comp[comp[v]]
            v = comp[v]
        return v

    for a, b in rest:
        comp[find(a)] = find(b)
    side1 = sorted(v for v in range(1, G.n + 1) if find(v) == find(src))
    side2 = sorted(v for v in range(1, G.n + 1) if find(v) == find(tgt))
    m1 = {v: i + 1 for i, v in enumerate(side1)}
    m2 = {v: i + 1 for i, v in enumerate(side2)}
    e1 = [(m1[a], m1[b]) for a, b in rest if a in m1]
    e2 = [(m2[a], m2[b]) for a, b in rest if a in m2]
    G1 = SGraph(len(side1), e1, _checked=True)
    G2 = SGraph(len(side2), e2, _checked=True)
    return G1, G2, (tuple(side1), tuple(side2))


def contract_edge(G, e):
    """Contract edge e = (s, t): the merged vertex takes s's label position and
    every vertex after t shifts down by one.  Returns (SGraph on n-1 vertices,
    (s, t))."""
    if not 0 <= e < len(G.edges):
        raise BadEdgeIndex(f"edge index {e} out of range for {G!r}")
    s, t = G.edges[e]
    remap = {v: v - (1 if v > t else 0) for v in range(1, G.n + 1) if v != t}
    remap[t] = remap[s]
    new_edges = []
    for i, (a, b) in enumerate(G.edges):
        if i == e:
            continue
        new_edges.append((remap[a], remap[b]))
    H = SGraph(G.n - 1, new_edges, _checked=True)
    return H, (s, t)


# ---------------------------------------------------------------------------
# canonical forms

def _is_path(n, edges):
    """If the underlying graph is a path, return its vertex order from one
    endpoint (the one making the sequence lex-smaller); else None."""
    adj = {v: [] for v in range(1, n + 1)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    ends = [v for v in adj if len(adj[v]) == 1]
    if len(ends) != 2 or any(len(adj[v]) > 2 for v in adj):
        return None
    start = min(ends)
    order = [start]
    prev = None
    while len(order) < n:
        nxt = [u for u in adj[order[-1]] if u != prev]
        prev = order[-1]
        order.append(nxt[0])
    return tuple(order)


@lru_cache(maxsize=None)
def _canonical_perms(n, edges):
    """Canonical edge list of the shape and every permutation achieving it.
    Permutations are tuples p with vertex i |-> p[i-1].  Brute force for
    n <= 6; path shapes handled directly above that."""
    if n <= 6:
        cands = permutations(range(1, n + 1))
    else:
        order = _is_path(n, edges)
        if order is None:
            raise CapExceeded(
                "canonicalization of non-path shapes capped at 6 vertices "
                f"(got {n})")
        cands = []
        for seq in (order, order[::-1]):
            p = [0] * n
            for pos, v in enumerate(seq):
                p[v - 1] = pos + 1
            cands.append(tuple(p))
    best, perms = None, []
    for p in cands:
        relab = tuple(sorted((p[a - 1], p[b - 1]) for a, b in edges))
        if best is None or relab < best:
            best, perms = relab, [p]
        elif relab == best:
            perms.append(p)
    return best, tuple(perms)


def canonical_form(G):
    """Canonical vertex relabeling of G, with the first permutation achieving
    it (as a tuple p where vertex i maps to p[i-1]).  Two graphs lie in the
    same relabeling orbit iff their canonical forms coincide.  Up to 6
    vertices it is the lexicographically minimal relabeling; above that only
    paths are accepted, numbered along the path."""
    best, perms = _canonical_perms(G.n, G.edges)
    return SGraph(G.n, best, _checked=True), perms[0]
