import itertools
import random
import tracemalloc
from fractions import Fraction
from math import comb

import pytest

from liecograph.elements import GeneratorTable, TreeElement
from liecograph.errors import MalformedDual
from liecograph.graphcoalg import cobracket, graphify
from liecograph.liealg import product
from liecograph.pairing import (
    element_pair,
    kronecker_dual,
    long_tall_submatrix,
    pairing_matrix,
    shape_pair,
)
from liecograph.shapes import (
    SGraph,
    enumerate_graphs,
    enumerate_trees,
    long_graph,
    tall_tree,
    tree_relabel,
)


def _factorial(k):
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def _swap_at(tree, path):
    """Swap the two children of the internal node reached by `path` (tuple of
    0/1 descents)."""
    if not path:
        return (tree[1], tree[0])
    a, b = tree
    if path[0] == 0:
        return (_swap_at(a, path[1:]), b)
    return (a, _swap_at(b, path[1:]))


def _internal_paths(tree, prefix=()):
    if isinstance(tree, int):
        return []
    return ([prefix]
            + _internal_paths(tree[0], prefix + (0,))
            + _internal_paths(tree[1], prefix + (1,)))


class TestShapePair:
    def test_antisymmetry_combinations_vanish(self):
        """<G, T + swap(T)> = 0 for a swap at any internal node; exhaustive
        n <= 4."""
        for n in (2, 3, 4):
            graphs = enumerate_graphs(n)
            for T in enumerate_trees(n):
                for path in _internal_paths(T):
                    T2 = _swap_at(T, path)
                    for G in graphs:
                        assert shape_pair(G, T) + shape_pair(G, T2) == 0

    def test_antisymmetry_randomized_weight_5(self):
        rng = random.Random(11)
        graphs = enumerate_graphs(5)
        trees = enumerate_trees(5)
        for _ in range(300):
            G = rng.choice(graphs)
            T = rng.choice(trees)
            path = rng.choice(_internal_paths(T))
            assert shape_pair(G, T) + shape_pair(G, _swap_at(T, path)) == 0

    def test_jacobi_combinations_vanish(self):
        """Root-level Jacobi: <G, ((A,B),C) + ((B,C),A) + ((C,A),B)> = 0,
        exhaustive over all subtree triples for n = 3, 4."""
        for n in (3, 4):
            graphs = enumerate_graphs(n)
            subtrees = {}
            for T in enumerate_trees(n):
                if isinstance(T, tuple) and isinstance(T[0], tuple):
                    (a, b), c = T
                    key = tuple(sorted(map(repr, (a, b, c))))
                    subtrees.setdefault(key, []).append((a, b, c))
            for triples in subtrees.values():
                for a, b, c in triples:
                    combo = [((a, b), c), ((b, c), a), ((c, a), b)]
                    for G in graphs:
                        assert sum(shape_pair(G, T) for T in combo) == 0

    def test_equivariance(self):
        """shape_pair(sigma G, sigma T) = shape_pair(G, T); exhaustive n <= 3,
        sampled n = 4."""
        for n in (2, 3):
            for G in enumerate_graphs(n):
                for T in enumerate_trees(n):
                    for perm in itertools.permutations(range(1, n + 1)):
                        m = {i + 1: perm[i] for i in range(n)}
                        Gp = SGraph(n, [(m[a], m[b]) for a, b in G.edges])
                        assert shape_pair(Gp, tree_relabel(T, m)) \
                            == shape_pair(G, T)
        rng = random.Random(3)
        graphs4, trees4 = enumerate_graphs(4), enumerate_trees(4)
        for _ in range(400):
            G = rng.choice(graphs4)
            T = rng.choice(trees4)
            perm = list(range(1, 5))
            rng.shuffle(perm)
            m = {i + 1: perm[i] for i in range(4)}
            Gp = SGraph(4, [(m[a], m[b]) for a, b in G.edges])
            assert shape_pair(Gp, tree_relabel(T, m)) == shape_pair(G, T)

    def test_weight_mismatch_is_zero_at_element_level(self):
        table = GeneratorTable([("a", 2)])
        g = graphify(("a", "a"), table)
        t = TreeElement.from_term(table, (("a", "a"), "a"))
        assert element_pair(g, t) == 0


class TestMatrices:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_long_tall_submatrix_invertible(self, n):
        M = long_tall_submatrix(n)
        k = _factorial(n - 1)
        assert (M.rows, M.cols) == (k, k)
        assert M.rank() == k

    def test_pairing_matrix_small_values(self):
        P = pairing_matrix(2)
        # two graphs (1->2, 2->1) vs two trees ((1,2), (2,1)); orientation and
        # leaf swap each flip the sign
        vals = [[P.entry(i, j) for j in range(2)] for i in range(2)]
        flat = sorted(v for row in vals for v in row)
        assert flat == [-1, -1, 1, 1]
        assert vals[0][0] == -vals[0][1] == -vals[1][0] == vals[1][1]


class TestQuotient:
    """The pairing matrix is held as its quotient by arrow-reversing and
    antisymmetry; entry(i, j) must still be the full matrix's entry."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_entry_matches_shape_pair(self, n):
        P = pairing_matrix(n)
        cols = range(len(P.col_basis))
        for i, G in enumerate(P.row_basis):
            assert [P.entry(i, j) for j in cols] \
                == [shape_pair(G, T) for T in P.col_basis], (n, G)

    def test_sampled_entries_weight_6(self):
        P = pairing_matrix(6)
        rng = random.Random(6)
        for _ in range(2000):
            i = rng.randrange(len(P.row_basis))
            j = rng.randrange(len(P.col_basis))
            assert P.entry(i, j) \
                == shape_pair(P.row_basis[i], P.col_basis[j]), (i, j)

    def test_weight_1(self):
        P = pairing_matrix(1)
        assert (len(P.row_basis), len(P.col_basis)) == (1, 1)
        assert P.entry(0, 0) == 1 and P.rank() == 1

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_quotient_shape(self, n):
        catalan = comb(2 * n - 2, n - 1) // n
        assert pairing_matrix(n).quotient.shape \
            == (n ** (n - 2), _factorial(n) * catalan // 2 ** (n - 1))

    def test_long_tall_block_weight_6_is_signed_identity(self):
        """Long graphs and tall trees are dual bases: their block of the full
        matrix is diagonal with entries +-1."""
        P = pairing_matrix(6)
        row_of = {G: i for i, G in enumerate(P.row_basis)}
        col_of = {T: j for j, T in enumerate(P.col_basis)}
        tails = list(itertools.permutations(range(2, 7)))
        rows = [row_of[long_graph((1,) + t)] for t in tails]
        cols = [col_of[tall_tree((1,) + t)] for t in tails]
        for a, i in enumerate(rows):
            for b, j in enumerate(cols):
                e = P.entry(i, j)
                assert abs(e) == 1 if a == b else e == 0, (a, b)

    def test_weight_6_peak_memory(self):
        """Building and ranking the weight-6 matrix stays under 200 MB of
        traced allocations (the full int8 matrix alone is 1.25 GB)."""
        for cached in (pairing_matrix, enumerate_graphs, enumerate_trees):
            cached.cache_clear()
        tracemalloc.start()
        try:
            assert pairing_matrix(6).rank() == 120
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200 * 2 ** 20, f"peak {peak / 2 ** 20:.0f} MB"


class TestElementPair:
    def test_bracket_cobracket_adjoint(self):
        """<g, t1 * t2> equals the cobracket of g paired factorwise against
        t1 (x) t2, over an exhaustive weight-3 even family."""
        table = GeneratorTable([("a", 2), ("b", 2)])
        trees1 = [TreeElement.leaf(table, x) for x in ("a", "b")]
        trees2 = [TreeElement.from_term(table, (x, y))
                  for x in ("a", "b") for y in ("a", "b")]
        for G in enumerate_graphs(3):
            for labels in itertools.product(("a", "b"), repeat=3):
                from liecograph.elements import GraphElement
                g = GraphElement.from_term(table, G, labels)
                if g.is_zero():
                    continue
                cb = cobracket(g)
                for t1 in trees1:
                    for t2 in trees2:
                        lhs = element_pair(g, product(t1, t2))
                        rhs = Fraction(0)
                        for (k1, k2), c in cb.terms.items():
                            from liecograph.elements import GraphElement as GE
                            g1 = GE(table, {k1: Fraction(1)})
                            g2 = GE(table, {k2: Fraction(1)})
                            rhs += c * element_pair(g1, t1) \
                                * element_pair(g2, t2)
                        assert lhs == rhs, (G, labels)

    def test_dual_degree_mismatch_raises(self):
        t1 = GeneratorTable([("a", 2)])
        t2 = GeneratorTable([("a", 3)])
        dual = kronecker_dual(t1, t2)
        with pytest.raises(MalformedDual):
            dual("a", "a")

    def test_linear_in_both_slots(self):
        table = GeneratorTable([("a", 2), ("b", 2)])
        g1 = graphify(("a", "b"), table)
        g2 = graphify(("b", "a"), table)
        t = TreeElement.from_term(table, ("a", "b"))
        assert element_pair(g1.add(g2.scale(3)), t) \
            == element_pair(g1, t) + 3 * element_pair(g2, t)
