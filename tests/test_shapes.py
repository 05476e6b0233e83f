import itertools

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
    SGraph,
    _canonical_perms,
    _tree_shapes,
    canonical_form,
    contract_edge,
    cut_edge,
    enumerate_graphs,
    enumerate_trees,
    long_graph,
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

    def test_enumeration_cap(self):
        with pytest.raises(CapExceeded):
            enumerate_graphs(99)

    @pytest.mark.parametrize("n", [0, -1])
    def test_enumeration_rejects_nonpositive_weight(self, n):
        with pytest.raises(InvalidInput):
            enumerate_graphs(n)
        with pytest.raises(InvalidInput):
            enumerate_trees(n)


class TestCanonicalForm:
    def test_relabeling_orbit_constant(self):
        G = SGraph(4, [(2, 1), (2, 3), (3, 4)])
        base, _ = canonical_form(G)
        for perm in itertools.permutations(range(1, 5)):
            m = {i + 1: perm[i] for i in range(4)}
            H = SGraph(4, [(m[a], m[b]) for a, b in G.edges])
            assert canonical_form(H)[0].edges == base.edges

    def test_idempotent(self):
        for G in enumerate_graphs(3):
            C, _ = canonical_form(G)
            assert canonical_form(C)[0].edges == C.edges

    def test_view_on_the_one_canonicaliser(self):
        for n in range(1, 5):
            for G in enumerate_graphs(n):
                best, invs, identity = _canonical_perms(n, G.edges)
                C, p = canonical_form(G)
                assert C.edges == best and [p[i] for i in invs[0]] == list(
                    range(1, n + 1))
                for inv in invs:
                    # inv lists the old vertices (0-based) in their new order
                    q = {v + 1: j for j, v in enumerate(inv, 1)}
                    assert G.relabel(q).edges == best
                assert len(set(invs)) == len(invs)
                assert identity == (invs == (tuple(range(n)),))

    def test_paths_above_six_vertices(self):
        G = SGraph(7, [(1, 2), (3, 2), (3, 4), (5, 4), (5, 6), (7, 6)])
        base, p = canonical_form(G)
        assert G.relabel(lambda v: p[v - 1]).edges == base.edges
        for perm in itertools.islice(itertools.permutations(range(1, 8)),
                                     0, 5040, 97):
            H = G.relabel(lambda v: perm[v - 1])
            assert canonical_form(H)[0].edges == base.edges
        star = SGraph(7, [(1, v) for v in range(2, 8)])
        with pytest.raises(CapExceeded):
            canonical_form(star)


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
