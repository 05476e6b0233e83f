from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecograph.elements import GeneratorTable, TreeElement
from liecograph.errors import CapExceeded
from liecograph import graphcoalg
from liecograph.graphcoalg import (_standard_bracketing, _tree_column,
                                   graphify, super_lyndon_words)
from liecograph.liealg import (
    DIMENSION_CAP,
    bracket,
    lie_normal_form,
    product,
    tensor_expand,
)
from liecograph.pairing import element_pair
from liecograph.shapes import tall_tree

from conftest import _word_vector


TABLE = GeneratorTable([("a", 2), ("b", 3), ("c", 4)])


def _leaf(name):
    return TreeElement.leaf(TABLE, name)


def _deg(term):
    if isinstance(term, str):
        return TABLE.degree[term]
    return _deg(term[0]) + _deg(term[1])


def _leaves(t):
    if isinstance(t, str):
        return 1
    return _leaves(t[0]) + _leaves(t[1])


small_term = st.deferred(
    lambda: st.sampled_from(["a", "b", "c"])
    | st.tuples(small_term, small_term).filter(lambda t: _leaves(t) <= 4))
tiny_term = small_term.filter(lambda t: _leaves(t) <= 2)


def _as_element(term, coeff=1):
    return TreeElement.from_term(TABLE, term, Fraction(coeff))


@settings(max_examples=80, deadline=None)
@given(small_term)
def test_normal_form_preserves_tensor_expansion(term):
    t = _as_element(term)
    nf = lie_normal_form(t)
    assert tensor_expand(nf) == tensor_expand(t)


@settings(max_examples=80, deadline=None)
@given(tiny_term, tiny_term)
def test_graded_antisymmetry(u, v):
    sgn = (-1) ** (_deg(u) * _deg(v))
    combo = _as_element((u, v)).add(_as_element((v, u), sgn))
    assert tensor_expand(combo) == {}
    assert lie_normal_form(combo).is_zero()


@settings(max_examples=50, deadline=None)
@given(tiny_term, tiny_term, tiny_term)
def test_graded_jacobi(x, y, z):
    dx, dy = _deg(x), _deg(y)
    combo = (
        _as_element(((x, y), z))
        .add(_as_element((x, (y, z)), -1))
        .add(_as_element((y, (x, z)), (-1) ** (dx * dy))))
    assert tensor_expand(combo) == {}
    assert lie_normal_form(combo).is_zero()


def test_normal_form_idempotent():
    t = _as_element((("a", "b"), ("a", "c")))
    nf = lie_normal_form(t)
    again = lie_normal_form(nf.as_tree_element())
    assert again.terms == nf.terms


@settings(max_examples=30, deadline=None)
@given(small_term)
def test_normal_form_keys_are_super_lyndon(term):
    """Every key is a super-Lyndon word of the term's content, standing for
    its standard bracketing."""
    nf = lie_normal_form(_as_element(term))
    for word in nf.terms:
        content = tuple(sorted(word, key=TABLE.sort_key))
        assert word in super_lyndon_words(TABLE, content, TABLE.sort_key)
    assert set(nf.as_tree_element().terms) == {
        _standard_bracketing(TABLE, w) for w in nf.terms}


def test_pairing_depends_only_on_normal_form():
    table = GeneratorTable([("a", 2), ("b", 2)])
    words = [("a", "b", "a"), ("a", "a", "b"), ("b", "a", "a")]
    terms = [(("a", "b"), "a"), ("a", ("b", "a")), (("a", "a"), "b")]
    for term in terms:
        t = TreeElement.from_term(table, term)
        nf = lie_normal_form(t).as_tree_element()
        for w in words:
            g = graphify(w, table)
            assert element_pair(g, t) == element_pair(g, nf), (term, w)


def test_product_concatenates_terms():
    t = product(_leaf("a"), bracket(_leaf("b"), _leaf("c")))
    assert set(t.terms) == {("a", ("b", "c"))}


def test_weight_cap():
    deep = "a"
    for _ in range(10):
        deep = (deep, "a")
    with pytest.raises(CapExceeded):
        lie_normal_form(_as_element(deep))


def test_weight_10_admitted():
    """LIE_CAP admits 10 leaves: a left comb on the content a^4 b^4 c d,
    630 standard bracketings, keeps its tensor expansion."""
    table = GeneratorTable([("a", 2), ("b", 3), ("c", 2), ("d", 3)])
    t = TreeElement.from_term(table, tall_tree("abababcdab"))
    nf = lie_normal_form(t)
    assert len(nf.terms) == 271
    assert tensor_expand(nf) == tensor_expand(t)


def test_dimension_cap(monkeypatch):
    """Seven distinct letters (6! = 720 standard bracketings) are the cap and
    are admitted; eight (5 040) are refused before a word is listed."""
    table = GeneratorTable([(x, 2) for x in "abcdefgh"])
    assert len(lie_normal_form(TreeElement.from_term(
        table, tall_tree("abcdefg"))).terms) == DIMENSION_CAP == 720
    monkeypatch.setattr(graphcoalg, "_lyndon_words", None)
    with pytest.raises(CapExceeded, match=r"has 5040 standard bracketings "
                                          r"\(cap 720\)"):
        lie_normal_form(TreeElement.from_term(table, tall_tree("abcdefgh")))


def _draw_tree(data, leaves):
    if len(leaves) == 1:
        return leaves[0]
    k = data.draw(st.integers(1, len(leaves) - 1))
    return (_draw_tree(data, leaves[:k]), _draw_tree(data, leaves[k:]))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["even", "odd", "mixed"]), st.data())
def test_word_pair_is_the_configuration_pairing(parity, data):
    """The tree's column (the bracket/cobracket recursion) against
    element_pair, on a random word and a random planar tree over a
    rearrangement of its letters; on a left comb it is the entry of the word
    vector, the iterated cobracket's word recursion."""
    k = data.draw(st.integers(1, 3), label="generators")
    degree = {"even": st.sampled_from([2, 4]), "odd": st.sampled_from([1, 3]),
              "mixed": st.integers(1, 4)}[parity]
    degs = data.draw(st.lists(degree, min_size=k, max_size=k), label="degrees")
    if parity == "mixed" and k > 1:
        degs[:2] = [2, 3]
    table = GeneratorTable([(f"g{i}", d) for i, d in enumerate(degs)])
    word = tuple(data.draw(st.lists(st.sampled_from(table.names),
                                    min_size=1, max_size=6), label="word"))
    leaves = tuple(data.draw(st.permutations(word), label="leaves"))
    tree = _draw_tree(data, leaves)
    assert _tree_column(table, tree).get(word, 0) == element_pair(
        graphify(word, table), TreeElement.from_term(table, tree))
    assert _tree_column(table, tall_tree(leaves)).get(word, 0) \
        == _word_vector(table, word).get(leaves, 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(5, 8), st.data())
def test_random_bracketings_keep_their_expansion(weight, data):
    """Random bracketings of weight 5 to 8 over three or four letters of
    mixed parity: the normal form has the term's tensor expansion."""
    degs = data.draw(st.lists(st.integers(1, 4), min_size=3, max_size=4),
                     label="degrees")
    degs[:2] = [2, 3]
    table = GeneratorTable([(f"g{i}", d) for i, d in enumerate(degs)])
    leaves = tuple(data.draw(st.lists(st.sampled_from(table.names),
                                      min_size=weight, max_size=weight),
                             label="leaves"))
    t = TreeElement.from_term(table, _draw_tree(data, leaves), Fraction(1, 2))
    assert tensor_expand(lie_normal_form(t)) == tensor_expand(t)


def test_expansion_antisymmetry_identity():
    # [u, v] -> uv - (-1)^{|u||v|} vu on leaves
    exp = tensor_expand(_as_element(("a", "b")))
    assert exp == {("a", "b"): Fraction(1), ("b", "a"): Fraction(-1)}
    exp2 = tensor_expand(_as_element(("b", "c")))
    assert exp2 == {("b", "c"): Fraction(1), ("c", "b"): Fraction(-1)}
    # odd-odd pair: the sign flips and the terms double up
    assert tensor_expand(_as_element(("b", "b"))) == {("b", "b"): Fraction(2)}
