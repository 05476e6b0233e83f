import hashlib
import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecograph import pairing
from liecograph.elements import GeneratorTable, GraphElement, TreeElement
from liecograph.errors import (
    CapExceeded,
    GraphError,
    MalformedDual,
    WeightMismatch,
)
from liecograph.graphcoalg import ZERO_CAP, _tree_column, cobracket, graphify
from liecograph.liealg import product
from liecograph.pairing import (
    _pair_info,
    element_pair,
    pairing_matrix,
    shape_pair,
)
from liecograph.shapes import (
    SGraph,
    _pruefer_to_tree,
    enumerate_graphs,
    enumerate_trees,
    labeled_trees,
    long_graph,
    tall_tree,
    tree_relabel,
    validate_graph,
)

from conftest import dense_rank_oracle


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

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_pair_info_is_the_nadir_table(self, n):
        """_pair_info(T)[a * (n + 1) + b] is +-(nadir + 1) for every ordered
        pair of leaves a != b: the nadir is the internal vertex where the
        root paths of a and b part, numbered level by level from the root
        and left to right within a level; + when a's path turns left there.
        Every other entry is 0."""
        for T in enumerate_trees(n):
            leaf_path, nodes, stack = {}, [], [(T, ())]
            while stack:
                t, path = stack.pop()
                if isinstance(t, tuple):
                    nodes.append(path)
                    stack += [(t[0], path + (0,)), (t[1], path + (1,))]
                else:
                    leaf_path[t] = path
            number = {p: i for i, p in enumerate(
                sorted(nodes, key=lambda p: (len(p), p)))}
            want = [0] * (n + 1) ** 2
            for (a, pa), (b, pb) in itertools.permutations(
                    leaf_path.items(), 2):
                k = next(i for i, (u, v) in enumerate(zip(pa, pb)) if u != v)
                want[a * (n + 1) + b] = ((1 if pa[k] == 0 else -1)
                                         * (number[pa[:k]] + 1))
            assert _pair_info(T) == want, T

    def test_weight_mismatch_is_zero_at_element_level(self):
        table = GeneratorTable([("a", 2)])
        g = graphify(("a", "a"), table)
        t = TreeElement.from_term(table, (("a", "a"), "a"))
        assert element_pair(g, t) == 0

    def test_weight_mismatch_is_an_error_at_shape_level(self):
        """A graph and a tree of different weights have no pairing."""
        for n, m in ((2, 3), (3, 2), (1, 4)):
            with pytest.raises(WeightMismatch,
                               match=f"graph weight {n} vs tree with {m} "):
                shape_pair(long_graph(range(1, n + 1)),
                           tall_tree(range(1, m + 1)))


class TestMatrices:
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

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_long_tall_block_is_signed_identity(self, n):
        """Long graphs and tall trees are dual bases: their block of the full
        matrix is diagonal with entries +-1, and it is the minor the rank is
        certified on.  Each long graph's row i is its undirected tree
        i >> (n - 1) of labeled_trees(n), with the sign of the parity of
        i's low n - 1 bits."""
        P = pairing_matrix(n)
        m, trees = n - 1, labeled_trees(n)
        row_of = {G: i for i, G in enumerate(P.row_basis)}
        col_of = {T: j for j, T in enumerate(P.col_basis)}
        tails = list(itertools.permutations(range(2, n + 1)))
        rows = [row_of[long_graph((1,) + t)] for t in tails]
        cols = [col_of[tall_tree((1,) + t)] for t in tails]
        for a, i in enumerate(rows):
            for b, j in enumerate(cols):
                e = P.entry(i, j)
                assert abs(e) == 1 if a == b else e == 0, (a, b)
        for i in rows:
            assert _graph_class(P.row_basis[i]) == (
                trees[i >> m], (-1) ** bin(i & (1 << m) - 1).count("1")), i
        assert P.minor == ([i >> m for i in rows],
                           [P.col_class[j] for j in cols])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_rank_matches_textbook_oracle(self, n):
        P = pairing_matrix(n)
        assert P.rank() == dense_rank_oracle(P.quotient.tolist())

    def test_weight_6_peak_memory(self):
        """Building and ranking the weight-6 matrix stays under 4.75 MB of
        traced allocations (the full int8 matrix alone is 1.25 GB).  4.49-4.50
        MB measured in a fresh process on CPython 3.10 to 3.13, of which
        4.07 MB stay held on 3.11, most of it the trees of col_basis: the
        rows are an indexed view, so no graph is built.  With the column keys
        and class maps held as lists it was 5.25-5.26 MB on 3.10 to 3.13."""
        for cached in (pairing._enumerated_pairing_matrix, enumerate_graphs,
                       enumerate_trees):
            cached.cache_clear()
        tracemalloc.start()
        try:
            assert pairing_matrix(6).rank() == 120
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.75 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MB"

    def test_class_maps_are_compact(self):
        """One 2-byte class and one 1-byte sign per column tree."""
        P = pairing_matrix(6)
        assert (P.col_class.typecode, P.col_class.itemsize) == ("H", 2)
        assert (P.col_sign.typecode, P.col_sign.itemsize) == ("b", 1)
        assert len(P.col_class) == len(P.col_sign) == len(P.col_basis)
        assert set(P.col_sign) == {-1, 1}

    def test_weight_6_holds_one_graph_list(self):
        """The rows are an indexed view, not a sorted list: pairing_matrix(6)
        leaves enumerate_graphs' cache empty, so no list of graphs is held
        (see test_weight_6_builds_no_graph)."""
        for cached in (pairing._enumerated_pairing_matrix, enumerate_graphs):
            cached.cache_clear()
        pairing_matrix(6)
        assert enumerate_graphs.cache_info().currsize == 0

    def test_weight_6_builds_no_graph(self, monkeypatch):
        """Building and ranking pairing_matrix(6) constructs no SGraph; a
        row is built when it is read."""
        built, presorted = [], SGraph._presorted
        monkeypatch.setattr(SGraph, "_presorted", staticmethod(
            lambda n, edges: built.append(n) or presorted(n, edges)))
        pairing._enumerated_pairing_matrix.cache_clear()
        P = pairing_matrix(6)
        assert P.rank() == 120 and built == []
        # the last row: the star on 6, every edge reversed
        assert P.row_basis[-1].edges == ((6, 1), (6, 2), (6, 3), (6, 4),
                                         (6, 5)) and built == [6]

    def test_weight_6_quotient_is_pinned(self):
        """The sha256 of the weight-6 quotient's int8 bytes, as the dense
        numpy build computed it."""
        assert hashlib.sha256(pairing_matrix(6).quotient.tobytes()) \
            .hexdigest() == ("00abb7fa4ddabc3534e7d97c241fefffe5ce7f64ca2a50e2"
                             "0211b49ee0978d39")

    def test_no_numpy(self):
        """Building and ranking every pairing matrix imports no numpy."""
        code = ("import sys\n"
                "from liecograph.pairing import pairing_matrix\n"
                "ranks = [pairing_matrix(n).rank() for n in range(1, 7)]\n"
                "assert ranks == [1, 1, 2, 6, 24, 120], ranks\n"
                "assert 'numpy' not in sys.modules\n")
        src = Path(pairing.__file__).resolve().parents[1]
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": str(src)})


class TestWeight7:
    """n = 7 is built from its classes alone: nothing is enumerated, and it
    is not cached.  Its certified rank (720, on the long-graph/tall-tree
    block) is checked by a separate CI step, which takes 10-15 s."""

    def test_class_counts(self):
        """7^5 row classes (Cayley) and 11!! column classes, counted
        without building the quotient."""
        assert len(labeled_trees(7)) == 7 ** 5 == 16807
        count, classes = 0, set()
        for keys in pairing._col_keys(7):  # one shape at a time
            count += len(keys)
            classes.update(k >> 1 for k in keys)
        assert count == 5040 * 132
        assert len(classes) == 11 * 9 * 7 * 5 * 3 == 10395

    def test_not_cached(self, monkeypatch):
        built = []
        monkeypatch.setattr(pairing, "_pairing_matrix",
                            lambda n: built.append(n) or object())
        assert pairing_matrix(7) is not pairing_matrix(7)
        assert built == [7, 7]

    def test_weight_8_refused_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded, match="n <= 7"):
                pairing_matrix(8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16


def _classes_oracle(basis, reduce):
    """Class index (representatives numbered in order of first appearance)
    and sign of each basis element under reduce(x) -> (rep, sign), one
    element at a time; returns ({rep: index}, classes, signs)."""
    index, cls, sign = {}, [], []
    for x in basis:
        rep, s = reduce(x)
        cls.append(index.setdefault(rep, len(index)))
        sign.append(s)
    return index, cls, sign


def _graph_class(G):
    """Orientation with a < b on every edge, and (-1)^(reversed edges)."""
    return (tuple(sorted((min(a, b), max(a, b)) for a, b in G.edges)),
            (-1) ** sum(a > b for a, b in G.edges))


def _tree_class(T):
    """Child order with the smaller least leaf on the left at every internal
    node, and (-1)^(swaps)."""
    def walk(t):
        # (canonical subtree, least leaf, swap parity)
        if isinstance(t, int):
            return t, t, 0
        left, lmin, lpar = walk(t[0])
        right, rmin, rpar = walk(t[1])
        if lmin < rmin:
            return (left, right), lmin, lpar ^ rpar
        return (right, left), rmin, lpar ^ rpar ^ 1

    rep, _, parity = walk(T)
    return rep, (-1) ** parity


def _graphs_oracle(n):
    """Every orientation of every (n-1)-edge subset of K_n that
    validate_graph accepts, sorted by edge list."""
    out = []
    for und in itertools.combinations(
            itertools.combinations(range(1, n + 1), 2), n - 1):
        try:
            validate_graph(n, und)
        except GraphError:
            continue
        for flips in itertools.product((False, True), repeat=n - 1):
            out.append(SGraph(n, [(b, a) if f else (a, b)
                                  for (a, b), f in zip(und, flips)]))
    return sorted(out, key=lambda G: G.edges)


def _dense_pairing(n, graphs, trees):
    """The int8 pairing matrix of edge tuples against trees, every cell at
    once in numpy: gather the nadir table entries of all edges and combine.
    Shares nothing with pairing_matrix but the nadir tables."""
    import numpy as np

    g = len(graphs)
    edges = np.array(graphs, dtype=np.intp).reshape(g, n - 1, 2)
    # index into a flattened (n+1)x(n+1) nadir table
    flat = edges[:, :, 0] * (n + 1) + edges[:, :, 1]
    full = (1 << n) - 2  # the bits 1 << (nadir + 1) of the n-1 nadirs
    table = np.array([_pair_info(T) for T in trees], np.int8)
    entries = table[:, flat]  # (trees, graphs, n-1): +-(nadir + 1)
    bits = np.left_shift(np.int8(1), np.abs(entries))
    # distinctness: OR of bits has n-1 set bits iff no collision occurred
    surj = np.bitwise_or.reduce(bits, axis=2) == full
    signs = np.sign(entries).prod(axis=2, dtype=np.int8)
    return np.where(surj, signs, 0).T.astype(np.int8)


class TestClassMaps:
    """The class maps of pairing_matrix are computed by construction (edge
    bitmasks, clade masks per shape) and canonicalise only representatives;
    canonicalising every element, one at a time, must give the same.  The
    quotient, filled from each column's nonzero pattern, must be the dense
    pairing of the representatives."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_match_per_element_path(self, n):
        """Also: the rows are the graphs, and each row's class is its
        undirected tree in labeled_trees(n), its sign its orientation's."""
        P = pairing_matrix(n)
        assert sorted(P.row_basis, key=lambda G: G.edges) \
            == enumerate_graphs(n)
        row_index, row_class, row_sign = _classes_oracle(
            P.row_basis, _graph_class)
        assert list(row_index) == labeled_trees(n)
        # row i: class i >> (n - 1), sign the parity of its low n - 1 bits
        m = n - 1
        assert row_class == [i >> m for i in range(len(P.row_basis))]
        assert row_sign == [(-1) ** bin(i & (1 << m) - 1).count("1")
                            for i in range(len(P.row_basis))]
        col_index, col_class, col_sign = _classes_oracle(
            enumerate_trees(n), _tree_class)
        assert (list(P.col_class), list(P.col_sign)) == (col_class, col_sign)
        tails = list(itertools.permutations(range(2, n + 1)))
        assert P.minor == (
            [row_index[_graph_class(long_graph((1,) + t))[0]] for t in tails],
            [col_index[_tree_class(tall_tree((1,) + t))[0]] for t in tails])
        assert P.quotient.tobytes() == _dense_pairing(
            n, list(row_index), list(col_index)).tobytes()

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_row_classes_are_the_sorted_pruefer_trees(self, n):
        """The row representatives, numbered in order of first appearance
        among the graphs, are the undirected trees in ascending order of
        their edge lists: the Pruefer trees, sorted."""
        row_index, _, _ = _classes_oracle(enumerate_graphs(n), _graph_class)
        pruefer = {tuple(sorted(tuple(sorted(e))
                                for e in _pruefer_to_tree(n, seq)))
                   for seq in itertools.product(range(1, n + 1),
                                                repeat=n - 2)}
        assert list(row_index) == labeled_trees(n) == sorted(pruefer)
        assert len(pruefer) == n ** (n - 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_enumerate_graphs_matches_validated_construction(self, n):
        graphs = enumerate_graphs(n)
        assert [G.key() for G in graphs] \
            == [G.key() for G in _graphs_oracle(n)]
        assert all(validate_graph(G.n, G.edges) == G for G in graphs)


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
        """A name shared by two tables with different degrees cannot be
        paired; terms of different weight never meet, so they do not raise."""
        t1 = GeneratorTable([("a", 2), ("b", 2)])
        t2 = GeneratorTable([("a", 3), ("b", 2)])
        g = graphify(("a", "b"), t1)
        with pytest.raises(MalformedDual):
            element_pair(g, TreeElement.from_term(t2, ("b", "a")))
        assert element_pair(g, TreeElement.from_term(t2, "a")) == 0

    def test_linear_in_both_slots(self):
        table = GeneratorTable([("a", 2), ("b", 2)])
        g1 = graphify(("a", "b"), table)
        g2 = graphify(("b", "a"), table)
        t = TreeElement.from_term(table, ("a", "b"))
        assert element_pair(g1.add(g2.scale(3)), t) \
            == element_pair(g1, t) + 3 * element_pair(g2, t)


# ---------------------------------------------------------------------------
# element_pair against an independent textbook oracle

def _oracle_internal_nodes(tkey):
    """(left leaf positions, right leaf positions) of every internal node of
    a tree term, leaves numbered 0.. from the left, and the leaf names."""
    nodes, names = [], []

    def walk(k):
        if isinstance(k, str):
            names.append(k)
            return {len(names) - 1}
        left, right = walk(k[0]), walk(k[1])
        nodes.append((left, right))
        return left | right

    walk(tkey)
    return nodes, names


def _oracle_shape_pair(edges, pos, nodes):
    """<sigma G, T> with vertex v sent to leaf pos[v - 1]: each edge goes to
    the internal node separating its two leaves, +1 when the source is on the
    left; zero unless every internal node is hit exactly once."""
    hit, sign = [], 1
    for a, b in edges:
        p, q = pos[a - 1], pos[b - 1]
        for k, (left, right) in enumerate(nodes):
            if p in left and q in right:
                hit.append(k)
            elif q in left and p in right:
                hit.append(k)
                sign = -sign
    return sign if sorted(hit) == list(range(len(nodes))) else 0


def _oracle_koszul(odd, order):
    """(-1)^(inversions between odd symbols) of the sequence `order`."""
    k = sum(1 for i in range(len(order)) for j in range(i + 1, len(order))
            if odd[order[i]] and odd[order[j]] and order[j] < order[i])
    return (-1) ** k


def oracle_pair(g, t):
    """Textbook <g, t>: every pair of terms of equal weight n contributes the
    sum over all of S_n of <sigma G, T> * koszul(sigma) * prod_i M[i][j_i],
    with M[i][j] = <w_j, v_i> the Kronecker matrix held as Fractions."""
    total = Fraction(0)
    for ((n, edges), wlabels), gc in g.terms.items():
        odd = [g.table.degree[x] % 2 == 1 for x in wlabels]
        for tkey, tc in t.terms.items():
            nodes, vlabels = _oracle_internal_nodes(tkey)
            if len(vlabels) != n:
                continue
            M = [[Fraction(int(wlabels[j] == vlabels[i])) for j in range(n)]
                 for i in range(n)]
            for pos in itertools.permutations(range(n)):
                order = [0] * n  # leaf i carries vertex order[i]
                for v, i in enumerate(pos):
                    order[i] = v
                weight = Fraction(1)
                for i in range(n):
                    weight *= M[i][order[i]]
                total += (gc * tc * weight * _oracle_koszul(odd, order)
                          * _oracle_shape_pair(edges, pos, nodes))
    return total


def _tree_key(shape, labels):
    if isinstance(shape, int):
        return labels[shape - 1]
    return (_tree_key(shape[0], labels), _tree_key(shape[1], labels))


TABLES = {
    "even": GeneratorTable([("a", 2), ("b", 4), ("c", 2)]),
    "odd": GeneratorTable([("a", 3), ("b", 1), ("c", 5)]),
    "mixed": GeneratorTable([("a", 2), ("b", 3), ("c", 1)]),
}

coefficients = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def element_pairs(draw, table, tree_table=None):
    """A multi-term graph element and a multi-term tree element of one
    weight; tree terms reuse a graph term's labels in a drawn order, so most
    pairs are nonzero."""
    n = draw(st.integers(1, 5))
    names = table.names[:draw(st.integers(1, len(table.names)))]
    graphs, trees = enumerate_graphs(n), enumerate_trees(n)
    g = GraphElement(table)
    words = []
    for _ in range(draw(st.integers(1, 3))):
        word = draw(st.lists(st.sampled_from(names), min_size=n, max_size=n))
        words.append(word)
        g = g.add(GraphElement.from_term(
            table, draw(st.sampled_from(graphs)), word, draw(coefficients)))
    t = TreeElement(tree_table or table)
    for _ in range(draw(st.integers(1, 3))):
        word = draw(st.permutations(draw(st.sampled_from(words))))
        t = t.add(TreeElement.from_term(
            t.table, _tree_key(draw(st.sampled_from(trees)), word),
            draw(coefficients)))
    return g, t


class TestElementPairOracle:
    @pytest.mark.parametrize("kind", sorted(TABLES))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_oracle(self, kind, data):
        g, t = data.draw(element_pairs(TABLES[kind]))
        assert element_pair(g, t) == oracle_pair(g, t)

    @settings(max_examples=40, deadline=None)
    @given(element_pairs(GeneratorTable([("a", 2), ("b", 3)]),
                         GeneratorTable([("b", 3), ("a", 2), ("c", 1)])))
    def test_two_tables_match_oracle(self, pair):
        g, t = pair
        assert element_pair(g, t) == oracle_pair(g, t)

    def test_memo_keeps_tables_of_other_parity_apart(self):
        """Warm the term memo on an even table, then pair the same term keys
        under an odd one: values follow the oracle, signs flip with it."""
        even = GeneratorTable([("a", 2), ("b", 2)])
        odd = GeneratorTable([("a", 3), ("b", 3)])
        cases = []
        for G in enumerate_graphs(3):
            for word in (("a", "a", "b"), ("a", "b", "b")):
                g = GraphElement.from_term(even, G, word)
                if g.is_zero():
                    continue
                for T in enumerate_trees(3):
                    for order in set(itertools.permutations(word)):
                        cases.append((g.terms, _tree_key(T, order)))
        for terms, tkey in cases:
            g, t = GraphElement(even, terms), TreeElement.from_term(even, tkey)
            assert element_pair(g, t) == oracle_pair(g, t)
        flipped = 0
        for terms, tkey in cases:
            g_even = GraphElement(even, terms)
            g_odd = GraphElement(odd, terms)
            t_even = TreeElement.from_term(even, tkey)
            t_odd = TreeElement.from_term(odd, tkey)
            want = oracle_pair(g_odd, t_odd)
            assert element_pair(g_odd, t_odd) == want
            flipped += want == -oracle_pair(g_even, t_even) != 0
        assert flipped > 0

    def test_values_survive_cache_clear(self):
        table = TABLES["mixed"]
        pairs = [(graphify(w, table), TreeElement.from_term(table, k))
                 for w in (("a", "b", "c"), ("b", "c", "a"), ("c", "b", "b"))
                 for k in ((("a", "b"), "c"), ("c", ("b", "a")),
                           (("b", "c"), "b"))]
        warm = [element_pair(g, t) for g, t in pairs]
        assert table.memo("term_pair") and table.memo("iterated_cobracket")
        table.memo("term_pair").clear()
        table.memo("iterated_cobracket").clear()
        assert [element_pair(g, t) for g, t in pairs] == warm
        assert warm == [oracle_pair(g, t) for g, t in pairs]
        assert any(warm)


def _random_tree(rng, leaves):
    if len(leaves) == 1:
        return leaves[0]
    k = rng.randrange(1, len(leaves))
    return (_random_tree(rng, leaves[:k]), _random_tree(rng, leaves[k:]))


def test_element_pair_matches_the_word_column():
    """element_pair, the graph recursion through the cobracket, against the
    word recursion _tree_column, on long graphs and planar trees over a
    rearrangement of their letters up to weight ZERO_CAP, over an even, an
    odd and a mixed table; single-letter words of weight 10 to 12 are
    paired too, however often their letter repeats."""
    rng = random.Random(1)
    nonzero = 0
    for kind, table in sorted(TABLES.items()):
        cases = [("a",) * n for n in range(10, ZERO_CAP + 1)]
        for n in range(1, ZERO_CAP + 1):
            cases += [tuple(rng.choice(table.names) for _ in range(n))
                      for _ in range(5)]
        for word in cases:
            leaves = list(word)
            rng.shuffle(leaves)
            tree = _random_tree(rng, tuple(leaves))
            want = _tree_column(table, tree).get(word, 0)
            got = element_pair(graphify(word, table),
                               TreeElement.from_term(table, tree))
            assert got == want, (kind, word, tree)
            nonzero += got != 0
    assert nonzero >= 40
