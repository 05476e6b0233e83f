import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecograph.errors import InvalidPresentation, LiecographError, ParseError
from liecograph.functors import dualize
from liecograph.presentations import (
    DgcaPresentation,
    DgccPresentation,
    multisets,
    parse_polynomial,
    parse_presentation,
)

from conftest import FIXTURES, load_presentation, random_presentation


class TestParsing:
    def test_basic_algebra(self):
        A = parse_presentation("gen x deg 2\ngen y deg 3\ndiff y = x^2\n")
        assert isinstance(A, DgcaPresentation)
        assert A.gen_degree == {"x": 2, "y": 3}
        assert A.differentials["y"] == {("x", "x"): Fraction(1)}

    def test_relations_and_caps(self):
        A = parse_presentation(
            "gen x deg 2\nrel x^3 = 0\ncap weight 4 degree 9\n")
        assert A.relations == {"x": 3}
        assert (A.cap_weight, A.cap_degree) == (4, 9)

    def test_rational_coefficients(self):
        A = parse_presentation(
            "gen x deg 2\ngen y deg 3\ndiff y = 3/2 x^2\n")
        assert A.differentials["y"] == {("x", "x"): Fraction(3, 2)}

    def test_comments_and_blank_lines(self):
        A = parse_presentation("# a sphere\n\ngen x deg 3\n")
        assert A.gen_names == ["x"]

    def test_coalgebra(self):
        C = parse_presentation(
            "cogen u deg 2\ncogen w deg 4\n"
            "coprod w = u (x) u\ncodiff w = 0\n")
        assert isinstance(C, DgccPresentation)
        assert C.coprod["w"] == [(Fraction(1), "u", "u")]

    def test_coalgebra_tensor_glyph(self):
        C = parse_presentation(
            "cogen u deg 2\ncogen w deg 4\ncoprod w = 2 u ⊗ u\n")
        assert C.coprod["w"] == [(Fraction(2), "u", "u")]

    def test_star_in_class_names(self):
        C = parse_presentation(
            "cogen x deg 2\ncogen x*x deg 4\ncoprod x*x = x (x) x\n")
        assert C.class_degree["x*x"] == 4

    def test_unrecognized_line_reports_position(self):
        with pytest.raises(ParseError) as e:
            parse_presentation("gen x deg 2\nfrobnicate\n")
        assert e.value.line == 2

    def test_mixed_kinds_rejected(self):
        with pytest.raises(ParseError):
            parse_presentation("gen x deg 2\ncogen y deg 3\n")

    @pytest.mark.parametrize("exponent", ["1000000000000", "1" + "0" * 29],
                             ids=["13-digits", "30-digits"])
    def test_huge_exponent_refused_before_expansion(self, exponent):
        """A term of diff y has at most deg y + 1 factors; a larger power
        is refused without building its factor tuple."""
        with pytest.raises(ParseError, match="more than 4 factors") as e:
            parse_presentation(
                f"gen x deg 2\ngen y deg 3\ndiff y = x^{exponent}\n")
        assert e.value.line == 3

    def test_factor_bound_is_the_degree(self):
        A = parse_presentation("gen x deg 2\ngen y deg 3\ndiff y = x*x\n")
        assert A.differentials["y"] == {("x", "x"): Fraction(1)}
        with pytest.raises(ParseError):
            parse_presentation("gen x deg 2\ngen y deg 3\ndiff y = x*x^4\n")
        with pytest.raises(InvalidPresentation, match="unknown"):
            parse_presentation("gen x deg 2\ndiff q = x^2\n")


class TestAlgebraStructure:
    def test_odd_squares_vanish(self):
        A = parse_presentation("gen t deg 3\n")
        _, s = A.normalize_monomial(("t", "t"))
        assert s == 0

    def test_koszul_sign_on_swap(self):
        A = parse_presentation("gen t deg 3\ngen u deg 5\n")
        m, s = A.normalize_monomial(("u", "t"))
        assert m == ("t", "u") and s == -1

    def test_monomial_enumeration(self):
        A = parse_presentation("gen x deg 2\nrel x^3 = 0\n")
        assert A.monomials(8) == [("x",), ("x", "x")]

    def test_differential_squares_to_zero_enforced(self):
        with pytest.raises(InvalidPresentation):
            # d(y) = x with d(x) = t: d^2(y) = t != 0
            parse_presentation(
                "gen t deg 4\ngen x deg 3\ngen y deg 2\n"
                "diff x = t\ndiff y = x\n")

    def test_differential_degree_checked(self):
        with pytest.raises(InvalidPresentation):
            parse_presentation("gen x deg 2\ngen y deg 5\ndiff y = x^2\n")

    def test_leibniz_rule(self):
        A = parse_presentation("gen x deg 2\ngen y deg 3\ndiff y = x^2\n")
        # d(x y) = x * x^2 = x^3 (the x factor passes no odd generators)
        assert A.differential_of_monomial(("x", "y")) \
            == {("x", "x", "x"): Fraction(1)}
        # odd squares are already zero, so their differential is too
        assert A.differential_of_monomial(("y", "y")) == {}


class TestCoalgebraStructure:
    @pytest.mark.parametrize("name, match", [
        ("bad_codiff_squared.coalg", r"codiff\^2 != 0 on class 'c'"),
        ("bad_not_coassociative.coalg", "not coassociative on class 'z'"),
        ("bad_not_coleibniz.coalg",
         "codiff is not a coderivation of coprod on class 'u'"),
    ], ids=["codiff-squared", "not-coassociative", "not-coleibniz"])
    def test_axioms_enforced(self, name, match):
        with pytest.raises(InvalidPresentation, match=match):
            load_presentation(name)

    def test_codiff_to_unknown_class_refused(self):
        with pytest.raises(InvalidPresentation, match="unknown 'q'"):
            parse_presentation(
                "cogen a deg 2\ncogen b deg 3\ncodiff b = q\n")

    def test_coassociative_coproduct_accepted(self):
        C = parse_presentation(
            "cogen x deg 2\ncogen y deg 4\ncogen z deg 6\n"
            "coprod y = x (x) x\ncoprod z = x (x) y + y (x) x\n"
            "codiff z = 0\n")
        assert set(C.coprod) == {"y", "z"}

    @pytest.mark.parametrize("path", sorted(
        [*FIXTURES.glob("*.alg"),
         *(FIXTURES.parents[1] / "perfbench" / "inputs").glob("*.alg")]),
        ids=lambda p: f"{p.parent.name}/{p.name}")
    def test_dual_of_an_algebra_is_coleibniz(self, path):
        # DgccPresentation refuses a codiff that is not a coderivation, so
        # building the transpose is the check, at the file's caps and beyond
        A = parse_presentation(path.read_text())
        for cap_degree in (A.cap_degree, 10):
            dualize(A, cap_degree)

    def test_dual_of_random_algebras_is_coleibniz(self):
        rng = random.Random(20261018)
        for _ in range(200):
            dualize(random_presentation(rng))


class TestPolynomials:
    def test_parse_polynomial(self):
        A = parse_presentation("gen x deg 2\ngen y deg 3\n")
        p = parse_polynomial("2 x^2 - 1/3 x*y", A)
        assert p == {("x", "x"): Fraction(2), ("x", "y"): Fraction(-1, 3)}

    def test_poly_multiply_graded_commutative(self):
        A = parse_presentation("gen t deg 3\ngen u deg 5\n")
        p = {("t",): Fraction(1)}
        q = {("u",): Fraction(1)}
        assert A.poly_multiply(p, q) == {("t", "u"): Fraction(1)}
        assert A.poly_multiply(q, p) == {("t", "u"): Fraction(-1)}


class TestMultisets:
    ITEMS = ["a", "b", "c"]
    DEGREE = {"a": 1, "b": 2, "c": 3}

    @pytest.mark.parametrize("max_mult", [None, {"a": 1}, {"a": 2, "c": 1}])
    @pytest.mark.parametrize("max_size", [None, 1, 2, 4])
    def test_matches_brute_force(self, max_size, max_mult):
        """Every bounded multiset exactly once, in lexicographic order of
        item positions (the depth-first order)."""
        for max_degree in range(10):
            got = multisets(self.ITEMS, self.DEGREE, max_degree, max_size,
                            max_mult)
            sizes = range(1, (max_size or max_degree) + 1)
            want = [c for n in sizes
                    for c in combinations_with_replacement(self.ITEMS, n)
                    if sum(self.DEGREE[x] for x in c) <= max_degree
                    and all(c.count(x) <= (max_mult or {}).get(x, n)
                            for x in self.ITEMS)]
            want.sort(key=lambda c: [self.ITEMS.index(x) for x in c])
            assert got == want, (max_degree, max_size, max_mult)


# presentation lines built from the file format's own tokens
_NAMES = st.sampled_from(["x", "y", "u", "v", "x*x"])
_NUMBERS = st.one_of(st.integers(0, 30).map(str),
                     st.sampled_from(["1/0", "3/2", "0/4", "2/0"]))
_ATOMS = st.one_of(_NAMES, _NUMBERS, st.sampled_from(
    ["^", "*", "+", "-", "(x)", "\u2297", "=", "deg", "0"]))
_RHS = st.lists(_ATOMS, max_size=7).map(" ".join)
# codiff right-hand sides over class names: "q" is never declared, the
# others are declared or not depending on the drawn cogen lines
_CLASS_RHS = st.lists(
    st.tuples(st.sampled_from(["", "-", "2", "1/2"]),
              st.sampled_from(["x", "y", "u", "q"])).map(" ".join),
    min_size=1, max_size=3).map(" + ".join)
_LINES = st.one_of(
    st.builds("{} {} deg {}".format, st.sampled_from(["gen", "cogen"]),
              _NAMES, _NUMBERS),
    st.builds("rel {}^{} = 0".format, _NAMES, _NUMBERS),
    st.builds("{} {} = {}".format,
              st.sampled_from(["diff", "codiff", "coprod"]), _NAMES, _RHS),
    st.builds("codiff {} = {}".format, _NAMES, _CLASS_RHS),
    st.builds("cap weight {} degree {}".format, _NUMBERS, _NUMBERS),
    _RHS)
_COGENS = st.lists(
    st.tuples(st.sampled_from(["x", "y", "u"]), st.integers(1, 4)),
    min_size=1, max_size=3, unique_by=lambda t: t[0]).map(
        lambda gens: [f"cogen {n} deg {d}" for n, d in gens])
# a coalgebra file: declared classes, then lines whose codiffs may name a
# declared class next to an undeclared one
_COALGEBRA = st.builds(lambda gens, lines: "\n".join(gens + lines),
                       _COGENS, st.lists(_LINES, max_size=3))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(_LINES, max_size=6).map("\n".join), _COALGEBRA))
def test_parse_presentation_fuzz(text):
    """Any text either parses or is refused with a LiecographError."""
    try:
        P = parse_presentation(text)
    except LiecographError:
        return
    assert isinstance(P, (DgcaPresentation, DgccPresentation))
