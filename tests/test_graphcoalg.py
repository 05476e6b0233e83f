import itertools
import math
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecograph.elements import (
    GeneratorTable,
    GraphElement,
    TreeElement,
    koszul_sign,
)
from liecograph.errors import CapExceeded
from liecograph import graphcoalg
from liecograph.graphcoalg import (
    BAR_CAP,
    ZERO_CAP,
    _cut_signs,
    _peeling_orders,
    _standard_bracketing,
    _tree_column,
    _witt_dimension,
    _iterated_vector,
    _lyndon_words,
    _shuffles,
    _word_coordinates,
    cobracket,
    bar_quotient,
    graphify,
    is_zero_in_E,
    iterated_cobracket,
    relation_generators,
    super_lyndon_words,
    to_bar_basis,
)
from liecograph.liealg import lie_normal_form, tensor_expand
from liecograph.linalg import SparseMatrix
from liecograph.pairing import element_pair
from liecograph.shapes import (SGraph, cut_edge, enumerate_graphs,
                               enumerate_trees, long_graph, tall_tree)

from conftest import _word_vector, arrangements, super_lyndon


@pytest.fixture
def table():
    return GeneratorTable([("a", 2), ("b", 2)])


def _all_elements(table, w):
    for G in enumerate_graphs(w):
        for labels in itertools.product(table.names, repeat=w):
            g = GraphElement.from_term(table, G, labels)
            if not g.is_zero():
                yield g


class TestCobracket:
    def test_anti_cocommutative_even_labels(self, table):
        for w in (2, 3):
            for g in _all_elements(table, w):
                cb = cobracket(g)
                for (k1, k2), c in cb.terms.items():
                    assert cb.terms.get((k2, k1)) == -c

    def test_cut_signs_are_the_koszul_signs(self):
        """The one-pass signs of every cut are koszul_sign of the unshuffle
        to the source side then the target side, and that times
        (-1)^(|G1| |G2|): on every graph of <= 4 vertices under every label
        parity, and on paths of 40 vertices numbered at random."""
        def check(G, odd):
            for e in range(G.n - 1):
                s1, s2 = cut_edge(G, e)[2]
                k12 = koszul_sign(odd, [v - 1 for v in s1 + s2])
                swap = sum(odd[v - 1] for v in s1) * sum(
                    odd[v - 1] for v in s2)
                assert _cut_signs([0, *odd], s1) == (
                    k12, k12 * (-1) ** swap), (G, e, odd)
        for n in range(2, 5):
            for odd in itertools.product((0, 1), repeat=n):
                for G in enumerate_graphs(n):
                    check(G, odd)
        rng = random.Random(7)
        for _ in range(20):
            check(long_graph(rng.sample(range(1, 41), 40)),
                  [rng.randint(0, 1) for _ in range(40)])

    def test_weight_one_primitively_zero(self, table):
        g = graphify(("a",), table)
        assert cobracket(g).is_zero()

    def test_iterated_factors_have_weight_one(self, table):
        g = graphify(("a", "b", "a"), table)
        t = iterated_cobracket(g, 2)
        assert not t.is_zero()
        for keys in t.terms:
            assert len(keys) == 3
            for (n, _), _labels in keys:
                assert n == 1

    def test_coderivation_square_vanishes_on_lie_classes(self, table):
        # cutting twice in either order then antisymmetrizing must agree with
        # the direct 2-fold iterate on every weight-3 generator
        g = graphify(("a", "a", "b"), table)
        direct = iterated_cobracket(g, 2)
        rebuilt = {}
        for (k1, k2), c in cobracket(g).terms.items():
            inner = cobracket(GraphElement(table, {k1: Fraction(1)}))
            for (k11, k12), c2 in inner.terms.items():
                key = (k11, k12, k2)
                rebuilt[key] = rebuilt.get(key, Fraction(0)) + c * c2
        assert {k: v for k, v in rebuilt.items() if v} == direct.terms


class TestWordProblem:
    def test_bar_basis_roundtrip_on_designated_words(self, table):
        # distinct labels: coordinates are the word itself
        assert to_bar_basis(graphify(("a", "b"), table)) \
            == {("a", "b"): Fraction(1)}
        # repeated labels: designated-leading words may be dependent, so the
        # contract is representative equality, not a fixed coordinate vector
        for w in (2, 3, 4):
            for tail in itertools.product(table.names, repeat=w - 1):
                word = ("a",) + tail
                g = graphify(word, table)
                coords = to_bar_basis(g)
                assert bool(coords) != is_zero_in_E(g)[0]
                residual = g
                for word2, c in coords.items():
                    residual = residual.add(graphify(word2, table, -c))
                assert is_zero_in_E(residual)[0], word

    def test_bar_coordinates_reproduce_the_class(self, table):
        g = GraphElement.from_term(
            table, enumerate_graphs(3)[5], ("b", "a", "b"))
        coords = to_bar_basis(g)
        residual = g
        for word, c in coords.items():
            residual = residual.add(graphify(word, table, -c))
        assert is_zero_in_E(residual)[0]

    def test_nonzero_witness_is_reported(self, table):
        g = graphify(("a", "b"), table)
        flag, witness = is_zero_in_E(g)
        assert not flag
        keys, c = witness
        assert c != 0 and len(keys) == 2

    def test_helpers_pass_the_recursion_limit(self):
        """_lyndon_words and _word_vector do not recurse per letter: on
        words longer than the recursion limit each answers in well under a
        second."""
        n = sys.getrecursionlimit() + 10
        x, y = ("x",), ("y",)
        table = GeneratorTable([("x", 2), ("y", 2)])
        start = time.perf_counter()
        lyndon = _lyndon_words(["x", "y"], [1, n])
        vector = _word_vector(table, x * n + y)
        assert time.perf_counter() - start < 1.0
        assert lyndon == [x + y * n]
        # even letters: v(x^k) = 0 for k > 1, so v(x^k y) = -v(x^(k-1) y).(x)
        assert vector == {x + y + x * (n - 1): (-1) ** (n - 1),
                          y + x * n: (-1) ** n}

    def test_bar_cap(self, table):
        """Weight BAR_CAP is read; one letter more is refused."""
        assert to_bar_basis(graphify(("a",) * BAR_CAP, table)) == {}
        with pytest.raises(CapExceeded):
            to_bar_basis(graphify(("a",) * (BAR_CAP + 1), table))

    def test_zero_test_cap(self, table):
        """A 40-letter word is refused before any cobracket is taken; at
        ZERO_CAP letters the test still runs."""
        start = time.perf_counter()
        with pytest.raises(CapExceeded):
            is_zero_in_E(graphify(("a", "b") * 20, table))
        assert time.perf_counter() - start < 1.0
        assert not table.memo("iterated_cobracket")
        assert is_zero_in_E(graphify(("a",) * ZERO_CAP, table)) == (True, None)

    def test_peeling_orders_count_the_iterated_cobracket(self):
        """The zero test's bound is counted from the shape: on distinct
        letters its leaf-peeling orders are the terms of the fully iterated
        cobracket, on every graph up to 5 vertices and on the 6-star."""
        table = GeneratorTable([(x, 2) for x in "abcdef"])
        star = SGraph(6, [(1, v) for v in range(2, 7)])
        for G in [*(G for n in range(1, 6) for G in enumerate_graphs(n)),
                  star]:
            g = GraphElement.from_term(table, G, "abcdef"[:G.n])
            assert _peeling_orders(G.n, G.edges) == len(
                iterated_cobracket(g, G.n - 1).terms), G
        assert _peeling_orders(6, star.edges) == 240

    def test_zero_test_counted_bound(self):
        """2^(ZERO_CAP - 1) = 2048 orders, the long graph's on ZERO_CAP
        letters, are admitted: the 7-star (1440) and that long graph are
        tested, and the 8-star (10080) is refused before any cobracket."""
        table = GeneratorTable([(x, 2) for x in "abcdefghijkl"])
        stars = [SGraph(n, [(1, v) for v in range(2, n + 1)]) for n in (7, 8)]
        assert [_peeling_orders(S.n, S.edges) for S in stars] == [1440, 10080]
        long = long_graph(range(1, ZERO_CAP + 1))
        assert _peeling_orders(ZERO_CAP, long.edges) == 2 ** (ZERO_CAP - 1)
        assert not is_zero_in_E(graphify(table.names[:ZERO_CAP], table))[0]
        assert not is_zero_in_E(
            GraphElement.from_term(table, stars[0], "abcdefg"))[0]
        table = GeneratorTable([(x, 2) for x in "abcdefgh"])
        start = time.perf_counter()
        with pytest.raises(CapExceeded, match="2048 leaf-peeling orders"):
            is_zero_in_E(GraphElement.from_term(table, stars[1], "abcdefgh"))
        assert time.perf_counter() - start < 1.0
        assert not table.memo("iterated_cobracket")

    def test_each_cobracket_taken_once(self, monkeypatch):
        """Zero tests and element pairings read one memo of single
        cobrackets: on a fresh table each canonical key's cobracket is taken
        once, however many iterated cobrackets and pairings read it."""
        table = GeneratorTable([("a", 2), ("b", 3), ("c", 2)])
        taken, real = [], graphcoalg.cobracket
        monkeypatch.setattr(graphcoalg, "cobracket",
                            lambda g: taken.extend(g.terms) or real(g))
        gs = [graphify(("a", "b", "c", "a"), table),
              GraphElement.from_term(table, enumerate_graphs(4)[5], "abcb")
              .add(graphify(("b", "c", "a", "b", "a"), table))]
        trees = [TreeElement.from_term(table, t) for t in (
            (("a", "b"), ("c", "a")), (("a", ("b", "c")), "b"),
            ((("b", "a"), "c"), ("b", "a")))]
        for g in gs:
            for t in trees:
                element_pair(g, t)
            is_zero_in_E(g)
            is_zero_in_E(g)
        assert taken and len(taken) == len(set(taken))


class TestRelations:
    def test_unknown_kind_rejected(self, table):
        with pytest.raises(ValueError):
            relation_generators("bogus", table, ("a", "b"))

    def test_reverse_all_matches_arrow_reversing_at_weight_two(self, table):
        for labels in (("a", "a"), ("a", "b")):
            for el in relation_generators("reverse_all", table, labels):
                assert is_zero_in_E(el)[0]

    def test_harrison_shuffles_signed_per_shuffle(self):
        # the memoised signs depend on the degrees through their parities
        table = GeneratorTable([("a", 2), ("b", 3), ("c", 1)])
        for labels in (("a", "b", "c", "b"), ("b", "a", "a"), ("c", "c")):
            degs = table.degrees_of(labels)
            want = []
            for k in range(1, len(labels)):
                el = GraphElement.zero(table)
                for s in _shuffles(k, len(labels) - k):
                    el = el.add(graphify(tuple(labels[i] for i in s), table,
                                         koszul_sign(degs, s)))
                want.append(el)
            want = [e for e in want if not e.is_zero()] or want[:1]
            assert relation_generators(
                "harrison_shuffle", table, labels) == want

    def test_relations_killed_by_bar_coordinates(self, table):
        for kind in ("arnold", "harrison_shuffle", "cyclic"):
            for el in relation_generators(kind, table, ("a", "a", "b")):
                assert to_bar_basis(el) == {}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["even", "odd", "mixed"]), st.data())
def test_word_vector_matches_graph_iterated_cobracket(parity, data):
    """The word recursion reads the fully iterated cobracket of a long graph
    off its word; the graph cobracket is the oracle."""
    k = data.draw(st.integers(1, 4), label="generators")
    degree = {"even": st.sampled_from([2, 4]), "odd": st.sampled_from([1, 3]),
              "mixed": st.integers(1, 4)}[parity]
    degs = data.draw(st.lists(degree, min_size=k, max_size=k), label="degrees")
    if parity == "mixed" and k > 1:
        degs[:2] = [2, 3]
    table = GeneratorTable([(f"g{i}", d) for i, d in enumerate(degs)])
    word = tuple(data.draw(st.lists(st.sampled_from(table.names),
                                    min_size=1, max_size=6), label="word"))
    assert _word_vector(table, word) == _iterated_vector(graphify(word, table))


def _tree_term(shape, labels):
    if isinstance(shape, int):
        return labels[shape - 1]
    return (_tree_term(shape[0], labels), _tree_term(shape[1], labels))


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from(["a", "b"]), st.sampled_from(["a", "b"]),
              st.sampled_from(["a", "b"]), st.integers(-3, 3)),
    min_size=1, max_size=4))
def test_three_way_agreement_on_random_combinations(terms):
    table = GeneratorTable([("a", 2), ("b", 2)])
    g = GraphElement.zero(table)
    for x, y, z, c in terms:
        if c:
            g = g.add(graphify((x, y, z), table, c))
    flag = is_zero_in_E(g)[0]
    assert flag == (not to_bar_basis(g))
    if not flag:
        # a nonzero class must pair nontrivially against some tall tree
        found = False
        for shape in enumerate_trees(3):
            for labels in itertools.product(["a", "b"], repeat=3):
                t = TreeElement.from_term(table, _tree_term(shape, labels))
                if not t.is_zero() and element_pair(g, t) != 0:
                    found = True
                    break
            if found:
                break
        assert found


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["even", "odd", "mixed"]), st.data())
def test_int_coefficients_match_fractions_and_stay_int(parity, data):
    """The word layer computes the same thing from int and from Fraction
    coefficients, and keeps ints int: only the bar coordinates, which come
    out of the content's pairing block, are Fractions.  Each side runs on
    its own table, so neither reads the other's memos."""
    k = data.draw(st.integers(1, 3), label="generators")
    degree = {"even": st.sampled_from([2, 4]), "odd": st.sampled_from([1, 3]),
              "mixed": st.integers(1, 4)}[parity]
    degs = data.draw(st.lists(degree, min_size=k, max_size=k), label="degrees")
    if parity == "mixed" and k > 1:
        degs[:2] = [2, 3]
    gens = [(f"g{i}", d) for i, d in enumerate(degs)]
    n = data.draw(st.integers(1, 5), label="weight")
    names = [x for x, _ in gens]
    terms = data.draw(st.lists(st.tuples(
        st.sampled_from(enumerate_graphs(n)),
        st.lists(st.sampled_from(names), min_size=n, max_size=n),
        st.integers(-3, 3).filter(bool)), min_size=1, max_size=3),
        label="terms")
    labels = data.draw(st.sampled_from([ls for _, ls, _ in terms]))
    trees = data.draw(st.lists(st.tuples(
        st.sampled_from(enumerate_trees(n)), st.permutations(labels),
        st.integers(-3, 3).filter(bool)), min_size=1, max_size=3),
        label="trees")
    cut = data.draw(st.integers(0, n - 1), label="cobracket depth")

    def run(number):
        table = GeneratorTable(gens)
        g, t = GraphElement.zero(table), TreeElement(table)
        for G, ls, c in terms:
            g = g.add(GraphElement.from_term(table, G, ls, number(c)))
        for T, ls, c in trees:
            t = t.add(TreeElement.from_term(table, _tree_term(T, ls),
                                            number(c)))
        return (g, cobracket(g).terms, iterated_cobracket(g, cut).terms,
                is_zero_in_E(g), to_bar_basis(g), element_pair(g, t))

    g, cob, it, (flag, witness), bar, pair = run(int)
    assert run(Fraction)[1:] == (cob, it, (flag, witness), bar, pair)
    exact = [*g.terms.values(), *cob.values(), *it.values(), pair]
    if witness is not None:
        exact.append(witness[1])
    assert all(type(c) is int for c in exact)


def _free_lie_dimension(table, content):
    letters = sorted(set(content), key=table.sort_key)
    return _witt_dimension(tuple(map(content.count, letters)),
                           tuple(table.degree[x] % 2 for x in letters))


class TestFreeLieDimension:
    def test_known_dimensions(self):
        # x even, y odd: [x, x] = 0, [y, y] != 0, [y, [y, y]] = 0; two even
        # generators give the necklace numbers, 1 at multidegree (2, 2)
        table = GeneratorTable([("x", 2), ("y", 1), ("z", 4)])
        assert [_free_lie_dimension(table, c) for c in (
            ("x", "x"), ("y", "y"), ("y", "y", "y"), ("y",) * 4,
            ("x", "x", "z", "z"), ("x", "y"), ("x", "z", "z"))] == [
            0, 1, 0, 0, 1, 1, 1]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=3), st.data())
    def test_matches_rank_of_expanded_combs(self, degs, data):
        """Left combs on the arrangements of a content span its free Lie
        part, so the formula is the rank of their tensor expansions."""
        table = GeneratorTable([(f"g{i}", d) for i, d in enumerate(degs)])
        content = tuple(sorted(data.draw(st.lists(
            st.sampled_from(table.names), min_size=1, max_size=6)),
            key=table.sort_key))
        words = arrangements(content)
        index = {w: j for j, w in enumerate(words)}
        entries = {}
        for i, w in enumerate(words):
            for u, c in tensor_expand(
                    TreeElement(table, {tall_tree(w): 1})).items():
                entries[(i, index[u])] = c
        rank = SparseMatrix(len(words), len(words), entries).rank()
        assert _free_lie_dimension(table, content) == rank
        assert len(bar_quotient(table, content).basis) == rank

    def test_matches_the_fraction_formula(self):
        """The integer recurrence n L(m) = multinomial(m) - sum_k ... gives
        the Fraction formula's dimension for every multidegree of up to 4
        letters, each of multiplicity 1..6, under every parity."""
        memo = {}

        def in_fractions(mults, odd):
            # _witt_dimension as it was computed in Fractions
            if (mults, odd) not in memo:
                n, g = sum(mults), math.gcd(*mults)
                total = Fraction(math.factorial(n) // math.prod(
                    map(math.factorial, mults)), n)
                for k in range(2, g + 1):
                    if g % k == 0:
                        sub = tuple(m // k for m in mults)
                        c = (-1) ** ((k + 1) * sum(
                            m * o for m, o in zip(sub, odd)))
                        total -= Fraction(c * in_fractions(sub, odd), k)
                assert total.denominator == 1
                memo[mults, odd] = int(total)
            return memo[mults, odd]

        cases = 0
        for letters in range(1, 5):
            for odd in itertools.product((0, 1), repeat=letters):
                for mults in itertools.product(range(1, 7), repeat=letters):
                    assert _witt_dimension(mults, odd) \
                        == in_fractions(mults, odd), (mults, odd)
                    cases += 1
        assert cases == 22620

    def test_planted_mismatch_names_the_content(self, monkeypatch):
        # a(2) once and b(3) twice: multidegree (1, 2), odd letters (0, 1)
        table = GeneratorTable([("a", 2), ("b", 3)])
        monkeypatch.setattr(graphcoalg, "_witt_dimension", lambda m, o: (
            _witt_dimension(m, o) + (m == (1, 2))))
        assert bar_quotient(table, ("a", "a", "b")).basis
        with pytest.raises(AssertionError,
                           match=r"bar basis of content \('a', 'b', 'b'\)"):
            bar_quotient(table, ("a", "b", "b"))


# tables listed out of name order, with letters of both parities
_MIXED_TABLES = ([("b", 1)], [("b", 2), ("a", 3)],
                 [("c", 3), ("a", 2), ("b", 1)],
                 [("b", 1), ("a", 1), ("c", 2)])


def _table_id(gens):
    return ",".join(f"{n}:{d}" for n, d in gens)


def _contents(table, top):
    for n in range(1, top + 1):
        for c in itertools.combinations_with_replacement(table.names, n):
            yield c


class TestSuperLyndonBasis:
    @pytest.mark.parametrize("gens", _MIXED_TABLES, ids=_table_id)
    def test_generator_matches_the_definition(self, gens):
        """Generated directly, the super-Lyndon words of every content of
        weight <= 8 are the arrangements that are super-Lyndon by
        definition, ascending, in table order and in name order, and as
        many as the free Lie dimension."""
        table = GeneratorTable(gens)
        for content in _contents(table, 8):
            words = arrangements(content)
            for key in (table.sort_key, str):
                got = super_lyndon_words(table, content, key)
                want = sorted((w for w in words
                               if super_lyndon(w, table.degree, key)),
                              key=lambda w: [key(x) for x in w])
                assert got == want, (content, key)
            assert len(got) == _free_lie_dimension(table, content), content

    @pytest.mark.parametrize("gens", _MIXED_TABLES[1:], ids=_table_id)
    def test_columns_are_the_pairings_with_the_standard_bracketing(
            self, gens):
        """The column of each basis word's standard bracketing holds its
        pairing with every arrangement, as the configuration pairing
        computes it, and is its expansion in the tensor algebra."""
        table = GeneratorTable(gens)
        for content in _contents(table, 5):
            for l in bar_quotient(table, content).basis:
                t = _standard_bracketing(table, l)
                tree = TreeElement.from_term(table, t)
                column = _tree_column(table, t)
                assert column == tensor_expand(tree), l
                for u in arrangements(content):
                    assert column.get(u, 0) \
                        == element_pair(graphify(u, table), tree), (l, u)

    def test_columns_share_their_words(self):
        """A word held by several columns is one tuple, interned on the
        table: three trees on a b c d share the words they pair with."""
        table = GeneratorTable([(x, 2) for x in "abcd"])
        held, entries = {}, 0
        for t in [((("a", "b"), "c"), "d"), (("a", "b"), ("c", "d")),
                  ("a", ("b", ("c", "d")))]:
            for u in _tree_column(table, t):
                assert held.setdefault(u, u) is u is table.memo("word")[u]
                entries += 1
        assert entries == 24 > len(held)

    def test_memo_holds_only_reused_columns(self):
        """The tree_column memo keeps the columns of proper subtrees, which
        larger trees reuse, and not the column a caller asked for: not that
        of a tree after its normal form, and not that of a standard
        bracketing P(l) after its block's rows or column echelon."""
        table = GeneratorTable([("a", 2), ("b", 3), ("c", 2), ("d", 3)])
        t = ((("a", "b"), "c"), ("d", "a"))
        lie_normal_form(TreeElement.from_term(table, t))
        memo = table.memo("tree_column")
        assert {(("a", "b"), "c"), ("a", "b"), ("d", "a")} <= set(memo)
        assert t not in memo
        table = GeneratorTable([("a", 2), ("b", 3), ("c", 2), ("d", 3)])
        q, memo = bar_quotient(table, ("a", "a", "b", "c")), table.memo(
            "tree_column")
        brackets = [_standard_bracketing(table, l) for l in q.basis]
        for build in ("rows", "_column_echelon"):
            getattr(q, build)
            assert memo and not any(P in memo for P in brackets), build

    def test_planted_wrong_bracketing_names_the_content(self, monkeypatch):
        """A left comb in place of the standard bracketing of a a b is zero
        (a is even), so the block is not triangular: on the word side, and
        on the Lie side at the diagonal entry.  With [a, [c, b]] in place
        of P(acb) = [[a, c], b] the diagonal holds, but the row of abc and
        the column of acb meet the other basis word, so neither has its
        diagonal as its least key, and an elimination seeded with them
        would solve wrongly.  A pairing vector that no free-Lie class has
        keeps every pivot and leaves a residual."""
        table = GeneratorTable([("a", 2), ("b", 2), ("c", 2)])
        monkeypatch.setattr(graphcoalg, "_standard_bracketing",
                            lambda table, w: tall_tree(w))
        with pytest.raises(AssertionError, match=r"pairing block of content "
                           r"\('a', 'a', 'b'\) is not unitriangular"):
            _word_coordinates(table, ("a", "b", "a"))
        with pytest.raises(AssertionError, match=r"pairing block of content "
                           r"\('a', 'a', 'c'\) is not unitriangular at"):
            lie_normal_form(TreeElement.from_term(table, ("a", ("a", "c"))))
        monkeypatch.setattr(graphcoalg, "_standard_bracketing",
                            lambda table, w: {("a", "c", "b"): (
                                "a", ("c", "b"))}.get(w, ("a", ("b", "c"))))
        table = GeneratorTable([("a", 2), ("b", 2), ("c", 2)])
        with pytest.raises(AssertionError, match=r"pairing block of content "
                           r"\('a', 'b', 'c'\) is not unitriangular at "
                           r"\('a', 'b', 'c'\)"):
            _word_coordinates(table, ("b", "a", "c"))
        table = GeneratorTable([("a", 2), ("b", 2), ("c", 2)])
        with pytest.raises(AssertionError, match=r"pairing block of content "
                           r"\('a', 'b', 'c'\) is not unitriangular at "
                           r"\('a', 'c', 'b'\)"):
            lie_normal_form(TreeElement.from_term(table, (("a", "c"), "b")))
        monkeypatch.undo()
        table = GeneratorTable([("a", 2), ("b", 2), ("c", 2)])
        with pytest.raises(AssertionError, match=r"pairing block of content "
                           r"\('a', 'b', 'c'\) leaves a residual at "
                           r"\('b', 'a', 'c'\)"):
            bar_quotient(table, ("a", "b", "c")).solve_tree(
                {("a", "b", "c"): 1, ("b", "a", "c"): 1})

    @pytest.mark.parametrize("gens", _MIXED_TABLES[1:], ids=_table_id)
    def test_graph_and_word_routes_agree(self, gens):
        """Read through its graph's iterated cobracket (Dynkin-Specht-Wever)
        or through its pairings with the standard bracketings, every
        arrangement of every content of weight <= 5 has the same
        coordinates."""
        table = GeneratorTable(gens)
        for content in _contents(table, 5):
            for w in arrangements(content):
                assert to_bar_basis(graphify(w, table)) \
                    == _word_coordinates(table, w), w
