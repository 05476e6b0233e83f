import itertools
import random
from fractions import Fraction

import pytest

from conftest import canonical_graph_term
from liecograph.elements import (
    GeneratorTable,
    GraphElement,
    TreeElement,
    canonical_term,
    graded_sort,
    koszul_sign,
)
from liecograph.shapes import SGraph, _pruefer_to_tree, enumerate_graphs


class TestKoszulSign:
    def test_identity_is_plus_one(self):
        assert koszul_sign([2, 3, 5], [0, 1, 2]) == 1

    def test_single_odd_odd_swap(self):
        assert koszul_sign([3, 3], [1, 0]) == -1
        assert koszul_sign([2, 3], [1, 0]) == 1

    def test_multiplicative_under_composition(self):
        degs = [2, 3, 3, 5]
        rng = random.Random(0)
        for _ in range(50):
            p = list(range(4))
            q = list(range(4))
            rng.shuffle(p)
            rng.shuffle(q)
            pq = [p[q[i]] for i in range(4)]
            permuted = [degs[p[i]] for i in range(4)]
            assert koszul_sign(degs, pq) \
                == koszul_sign(degs, p) * koszul_sign(permuted, q)


def bubble_sort(seq, degree, order):
    """Sort by adjacent swaps of letters out of order, negating the sign at
    each swap of two odd letters; 0 when two equal odd letters end up side
    by side."""
    word, sign = list(seq), 1
    for end in range(len(word) - 1, 0, -1):
        for i in range(end):
            a, b = word[i], word[i + 1]
            if order[a] > order[b]:
                word[i], word[i + 1] = b, a
                if degree[a] % 2 and degree[b] % 2:
                    sign = -sign
    if any(a == b and degree[a] % 2 for a, b in zip(word, word[1:])):
        sign = 0
    return tuple(word), sign


class TestGradedSort:
    def test_matches_bubble_sort(self):
        rng = random.Random(17)
        names = ["a", "b", "c", "d"]
        for _ in range(2000):
            degree = {x: rng.randint(1, 4) for x in names}
            order = {x: i for i, x in enumerate(rng.sample(names, 4))}
            seq = tuple(rng.choice(names) for _ in range(rng.randint(0, 7)))
            assert graded_sort(seq, degree, order) \
                == bubble_sort(seq, degree, order), (seq, degree, order)

    def test_odd_repeats_give_zero(self):
        degree, order = {"t": 3, "u": 2}, {"t": 0, "u": 1}
        assert graded_sort(("t", "u", "t"), degree, order) == (
            ("t", "t", "u"), 0)
        assert graded_sort(("u", "u", "t"), degree, order) == (
            ("t", "u", "u"), 1)

    def test_letter_indices(self):
        # the index form of the word builders: degree a list, order a range
        assert graded_sort((1, 2, 0), [3, 3, 2], range(3)) == ((0, 1, 2), -1)
        assert graded_sort((2, 0, 1), [3, 3, 2], range(3)) == ((0, 1, 2), 1)


class TestCanonicalTerms:
    TABLE = GeneratorTable([("a", 2), ("b", 3)])

    def test_relabeled_graph_same_class_up_to_sign(self):
        G = SGraph(3, [(1, 2), (2, 3)])
        labels = ("a", "b", "a")
        base = GraphElement.from_term(self.TABLE, G, labels)
        for perm in itertools.permutations(range(1, 4)):
            m = {i + 1: perm[i] for i in range(3)}
            Gp = SGraph(3, [(m[x], m[y]) for x, y in G.edges])
            lp = [None] * 3
            for v in range(1, 4):
                lp[m[v] - 1] = labels[v - 1]
            el = GraphElement.from_term(self.TABLE, Gp, tuple(lp))
            assert set(el.terms) == set(base.terms)
            (key,) = el.terms
            assert el.terms[key] in (base.terms[key], -base.terms[key])

    def test_odd_label_collision_vanishes(self):
        # two odd labels on a symmetric shape: the canonical term is zero
        G = SGraph(2, [(1, 2)])
        el = GraphElement.from_term(self.TABLE, G, ("b", "b"))
        rev = GraphElement.from_term(self.TABLE, SGraph(2, [(2, 1)]),
                                     ("b", "b"))
        assert el.add(rev).is_zero() or el.add(rev.scale(-1)).is_zero()

    def test_scale_and_add(self):
        g = GraphElement.from_term(self.TABLE, SGraph(2, [(1, 2)]),
                                   ("a", "b"))
        assert g.add(g.scale(-1)).is_zero()
        assert g.scale(Fraction(1, 2)).scale(2).terms == g.terms

    def test_tree_leaf_and_nesting(self):
        t = TreeElement.from_term(self.TABLE, (("a", "b"), "a"))
        assert not t.is_zero()
        leaf = TreeElement.leaf(self.TABLE, "a")
        assert set(leaf.terms) == {"a"}


class TestCanonicalTermOracle:
    """canonical_term, read from the shape's plan, gives the (key, sign) of
    the brute-force oracle over every relabeling (conftest), on a table
    listed out of name order with two odd letters."""

    TABLE = GeneratorTable([("c", 3), ("a", 2), ("b", 3)])

    def check(self, n, edges, labels):
        table = self.TABLE
        want_edges, want_labels, want_sign = canonical_graph_term(
            n, edges, labels, table.degrees_of(labels), table.sort_key)
        key, sign = canonical_term(table, n, edges, labels)
        assert sign == want_sign, (n, edges, labels)
        assert key == ((n, want_edges), want_labels), (n, edges, labels)
        return sign

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_graph_every_labeling(self, n):
        signs = set()
        for G in enumerate_graphs(n):
            for labels in itertools.product(self.TABLE.names, repeat=n):
                signs.add(self.check(n, G.edges, labels))
        # a directed edge has no automorphism, so no sign 0 below n = 3
        assert signs == [{1}, {-1, 1}, {-1, 0, 1}, {-1, 0, 1}][n - 1]

    @pytest.mark.parametrize("n", [5, 6])
    def test_random_graphs(self, n):
        rng = random.Random(n)
        for _ in range(150):
            tree = _pruefer_to_tree(
                n, [rng.randint(1, n) for _ in range(n - 2)])
            G = SGraph(n, [e if rng.random() < 0.5 else e[::-1]
                           for e in tree])
            labels = tuple(rng.choice(self.TABLE.names) for _ in range(n))
            self.check(n, G.edges, labels)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_stars_with_repeated_odd_leaves_vanish(self, n):
        """Two leaves of a star swapped by an automorphism carry the same
        odd letter: the term is its own negative."""
        rng = random.Random(n)
        for inward in (False, True):
            G = SGraph(n, [(v, 1) if inward else (1, v)
                           for v in range(2, n + 1)])
            for odd in ("b", "c"):
                for _ in range(20):
                    rest = [rng.choice(self.TABLE.names) for _ in range(n - 3)]
                    labels = (rng.choice(self.TABLE.names), odd, odd, *rest)
                    assert self.check(n, G.edges, labels) == 0


class TestCoefficientContract:
    """Coefficients are exact: int and Fraction pass through unchanged, any
    other rational is converted, float and bool are refused."""
    TABLE = GeneratorTable([("a", 2), ("b", 3)])
    G = SGraph(2, [(1, 2)])

    def test_int_and_fraction_pass_through(self):
        g = GraphElement.from_term(self.TABLE, self.G, ("a", "b"), 3)
        assert [type(c) for c in g.terms.values()] == [int]
        h = g.scale(Fraction(1, 2))
        assert list(h.terms.values()) == [Fraction(3, 2)]
        assert [type(c) for c in g.scale(Fraction(2)).terms.values()] \
            == [Fraction]

    def test_other_rationals_are_converted(self):
        import numpy as np

        t = TreeElement.leaf(self.TABLE, "a", np.int64(4))
        assert [(type(c), c) for c in t.terms.values()] == [(int, 4)]
        assert t.scale(np.int32(-1)).terms == {"a": -4}

    @pytest.mark.parametrize("bad", [0.1, 1.0, float("nan"), True, False,
                                     complex(1, 0), "1", None])
    def test_float_bool_and_non_numbers_are_refused(self, bad):
        g = GraphElement.from_term(self.TABLE, self.G, ("a", "b"))
        with pytest.raises(TypeError):
            GraphElement.from_term(self.TABLE, self.G, ("a", "b"), bad)
        with pytest.raises(TypeError):
            TreeElement.leaf(self.TABLE, "a", bad)
        with pytest.raises(TypeError):
            g.scale(bad)
