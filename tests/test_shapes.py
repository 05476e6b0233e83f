import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecograph.errors import (
    BadEdgeIndex,
    BadVertexIndex,
    CapExceeded,
    DuplicateEdge,
    HasCycle,
    InvalidInput,
    NotConnected,
)
from liecograph.shapes import (
    ENUMERATION_CAP,
    SGraph,
    _canonical_plan,
    _pruefer_to_tree,
    _tree_plan,
    _tree_shapes,
    contract_edge,
    cut_edge,
    enumerate_graphs,
    enumerate_trees,
    labeled_trees,
    long_graph,
    oriented_trees,
    tall_tree,
    tree_leaves,
    tree_relabel,
    validate_graph,
    validate_tree,
)


class TestValidation:
    def test_rejects_cycle(self):
        with pytest.raises(HasCycle):
            validate_graph(3, [(1, 2), (2, 3), (3, 1)])

    def test_rejects_disconnected(self):
        with pytest.raises(NotConnected):
            validate_graph(5, [(1, 2), (2, 3), (4, 5)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises((DuplicateEdge, HasCycle)):
            validate_graph(3, [(1, 2), (2, 1), (2, 3)])

    def test_rejects_bad_vertex(self):
        with pytest.raises(BadVertexIndex):
            validate_graph(2, [(1, 5)])

    def test_rejects_bad_leaf_set(self):
        with pytest.raises(BadVertexIndex):
            validate_tree(((1, 3), 3))

    def test_bad_edge_index(self):
        G = long_graph((1, 2, 3))
        with pytest.raises(BadEdgeIndex):
            cut_edge(G, 5)
        with pytest.raises(BadEdgeIndex):
            contract_edge(G, -1)


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 12), (4, 128)])
    def test_graph_counts(self, n, count):
        graphs = enumerate_graphs(n)
        assert len(graphs) == count == n ** max(n - 2, 0) * 2 ** (n - 1)
        assert len({(G.n, G.edges) for G in graphs}) == count

    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 12), (4, 120)])
    def test_tree_counts(self, n, count):
        trees = enumerate_trees(n)
        assert len(trees) == count
        assert len(set(trees)) == count
        for t in trees:
            assert sorted(tree_leaves(t)) == list(range(1, n + 1))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_trees_share_equal_subtrees(self, n):
        """The trees are those of the unshared construction, each shape
        relabeled by every permutation, in that order; and every proper
        subtree is the one object of its value, across all the trees."""
        trees = enumerate_trees(n)
        perms = list(itertools.permutations(range(1, n + 1)))
        assert trees == [tree_relabel(shape, p)
                         for shape in _tree_shapes(n) for p in perms]
        shared, seen = {}, set()
        stack = [t for T in trees if isinstance(T, tuple) for t in T]
        while stack:
            t = stack.pop()
            if isinstance(t, tuple) and id(t) not in seen:
                seen.add(id(t))
                assert shared.setdefault(t, t) is t
                stack += t
        assert len(seen) == len(shared)

    def test_enumeration_deterministic(self):
        assert enumerate_trees(3) == enumerate_trees(3)
        assert [G.edges for G in enumerate_graphs(3)] \
            == [G.edges for G in enumerate_graphs(3)]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_graphs_in_edge_tuple_order(self, n):
        """The graphs come sorted by their edge tuples (compared as tuples
        of tuples), whatever key the enumeration sorts by."""
        edges = [G.edges for G in enumerate_graphs(n)]
        assert all(isinstance(e, tuple) for es in edges for e in es)
        assert edges == sorted(edges)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_oriented_trees_index_tree_and_orientation(self, n):
        """Graph c * 2^(n-1) + o is tree c with edge i reversed exactly when
        bit n - 2 - i of o is set; iterating the view gives the same graphs
        in the same order, and its indices behave as a list's."""
        trees, m = labeled_trees(n), n - 1
        graphs = oriented_trees(n)
        assert len(graphs) == len(trees) << m
        for c, tree in enumerate(trees):
            for o in range(1 << m):
                edges = [(b, a) if o >> m - 1 - i & 1 else (a, b)
                         for i, (a, b) in enumerate(tree)]
                assert graphs[(c << m) + o] == SGraph(n, edges), (c, o)
        assert list(graphs) == [graphs[i] for i in range(len(graphs))]
        assert graphs[-1] == graphs[len(graphs) - 1]
        assert graphs[-len(graphs)] == graphs[0]
        for i in (len(graphs), -len(graphs) - 1):
            with pytest.raises(IndexError):
                graphs[i]

    def test_enumeration_cap(self):
        with pytest.raises(CapExceeded):
            enumerate_graphs(99)

    @pytest.mark.parametrize("n", [0, -1])
    def test_enumeration_rejects_nonpositive_weight(self, n):
        with pytest.raises(InvalidInput):
            enumerate_graphs(n)
        with pytest.raises(InvalidInput):
            enumerate_trees(n)


def _relabeled(G, perm):
    """G with vertex v renamed perm[v - 1]."""
    return SGraph(G.n, [(perm[a - 1], perm[b - 1]) for a, b in G.edges])


def _renumbered(G, order):
    """G with old vertex order[j] (0-based) renamed j + 1, as a plan does."""
    perm = [0] * G.n
    for j, v in enumerate(order, 1):
        perm[v] = j
    return _relabeled(G, perm)


def _automorphisms(n, edges):
    """The vertex permutations fixing the edge tuple, by brute force."""
    return sum(tuple(sorted((p[a - 1], p[b - 1]) for a, b in edges)) == edges
               for p in itertools.permutations(range(1, n + 1)))


def _grown_shapes(n):
    """One canonical edge tuple per oriented tree on n vertices, grown a
    leaf at a time through the plan."""
    shapes = {()}
    for w in range(2, n + 1):
        shapes = {_canonical_plan(w, tuple(sorted((*edges, e))))[0]
                  for edges in shapes for v in range(1, w)
                  for e in ((v, w), (w, v))}
    return shapes


class TestCanonicalForm:
    def test_relabeling_orbit_constant(self):
        G = SGraph(4, [(2, 1), (2, 3), (3, 4)])
        base = _canonical_plan(4, G.edges)[0]
        for perm in itertools.permutations(range(1, 5)):
            assert _canonical_plan(4, _relabeled(G, perm).edges)[0] == base
        rng = random.Random(8)
        for n in (7, 9, 12):
            tree = _pruefer_to_tree(n, [rng.randint(1, n) for _ in range(n - 2)])
            G = SGraph(n, [e if rng.random() < 0.5 else e[::-1] for e in tree])
            base = _canonical_plan(n, G.edges)[0]
            for _ in range(30):
                perm = rng.sample(range(1, n + 1), n)
                assert _canonical_plan(n, _relabeled(G, perm).edges)[0] == base

    def test_idempotent(self):
        for n in range(1, 6):
            for G in enumerate_graphs(n):
                best, _, runs = _canonical_plan(n, G.edges)
                assert _canonical_plan(n, best) == (best, tuple(range(n)), runs)

    def test_view_on_the_one_canonicaliser(self):
        """The order relabels the shape onto its canonical edges; swapping
        two blocks of a run, position by position, is an automorphism of
        them; and the runs account for every automorphism, a run of k
        blocks for k! of them."""
        for n in range(1, 6):
            for G in enumerate_graphs(n):
                best, order, runs = _canonical_plan(n, G.edges)
                assert sorted(order) == list(range(n))
                assert _renumbered(G, order).edges == best
                count = 1
                for run in runs:
                    count *= math.factorial(len(run))
                    for b1, b2 in itertools.combinations(run, 2):
                        swap = list(range(1, n + 1))
                        for p, q in zip(b1, b2):
                            swap[p], swap[q] = q + 1, p + 1
                        assert len(b1) == len(b2)
                        assert _relabeled(SGraph(n, best), swap).edges == best
                assert count == _automorphisms(n, best)

    def test_paths_above_six_vertices(self):
        """Shapes past ENUMERATION_CAP are planned on each call, paths and
        the rest alike: a path of alternating edges and a 7-vertex star."""
        G = SGraph(7, [(1, 2), (3, 2), (3, 4), (5, 4), (5, 6), (7, 6)])
        star = SGraph(7, [(1, v) for v in range(2, 8)])
        for H in (G, star):
            base, order, _ = _canonical_plan(7, H.edges)
            assert _renumbered(H, order).edges == base
            for perm in itertools.islice(itertools.permutations(range(1, 8)),
                                         0, 5040, 97):
                assert _canonical_plan(7, _relabeled(H, perm).edges)[0] == base
        assert [len(run) for run in _canonical_plan(7, star.edges)[2]] == [6]

    @pytest.mark.parametrize("n", range(1, 41))
    def test_long_graphs_are_their_own_form(self, n):
        """The long graph 1 -> ... -> n is its own canonical form with no
        automorphism, by the tree codes and by the planner's shortcut."""
        G = long_graph(range(1, n + 1))
        plan = (G.edges, tuple(range(n)), ())
        assert _tree_plan(n, G.edges) == _canonical_plan(n, G.edges) == plan

    def test_oriented_tree_counts(self):
        """Grown a leaf at a time, the canonical shapes are the oriented
        trees: 1, 1, 3, 8, 27, 91 and 350 on 1..7 vertices (OEIS A000238),
        the last past ENUMERATION_CAP; up to 5 vertices they are the
        canonical edges of every graph."""
        counts = [len(_grown_shapes(n)) for n in range(1, 8)]
        assert counts == [1, 1, 3, 8, 27, 91, 350] and ENUMERATION_CAP == 6
        for n in range(1, 6):
            assert _grown_shapes(n) == {_canonical_plan(n, G.edges)[0]
                                        for G in enumerate_graphs(n)}


class TestSurgery:
    def test_cut_edge_partitions_vertices(self):
        for G in enumerate_graphs(4):
            for e in range(3):
                G1, G2, (s1, s2) = cut_edge(G, e)
                assert G1.n + G2.n == 4
                assert sorted(s1 + s2) == [1, 2, 3, 4]
                assert G.edges[e][0] in s1 and G.edges[e][1] in s2

    def test_contract_edge_drops_one_vertex(self):
        for G in enumerate_graphs(4):
            for e in range(3):
                K, (s, t) = contract_edge(G, e)
                assert K.n == 3
                assert (s, t) == G.edges[e]

    def test_long_and_tall_shapes(self):
        assert long_graph((1, 2, 3)).edges == ((1, 2), (2, 3))
        assert tall_tree((1, 2, 3, 4)) == (((1, 2), 3), 4)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.data())
def test_random_tree_graph_roundtrip(n, data):
    graphs = enumerate_graphs(n)
    G = graphs[data.draw(st.integers(0, len(graphs) - 1))]
    # cutting any edge and re-counting weights is consistent
    e = data.draw(st.integers(0, n - 2))
    G1, G2, _ = cut_edge(G, e)
    assert G1.n + G2.n == n
    assert len(G1.edges) == G1.n - 1 and len(G2.edges) == G2.n - 1
