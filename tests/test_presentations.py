import random
import re
import sys
import time
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecograph.cli import main
from liecograph.errors import InvalidPresentation, LiecographError, ParseError
from liecograph.functors import dualize
from liecograph.presentations import (
    MAX_FACTORS,
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


def structure(P):
    """The parsed data of a presentation, as plain literals."""
    caps = (P.cap_weight, P.cap_degree)
    if isinstance(P, DgcaPresentation):
        return ([(g, P.gen_degree[g]) for g in P.gen_names], P.relations,
                P.differentials, caps)
    return ([(c, P.class_degree[c]) for c in P.class_names], P.coprod,
            P.codiff, caps)


DEFAULT_CAPS = (5, 12)
CP2_CO = ([("x", 2), ("x*x", 4)], {"x*x": [(1, "x", "x")]}, {}, DEFAULT_CAPS)
S2_CO = ([("x", 2)], {}, {}, DEFAULT_CAPS)
CP2 = ([("x", 2)], {"x": 3}, {}, DEFAULT_CAPS)
S2 = ([("x", 2)], {"x": 2}, {}, DEFAULT_CAPS)
S3 = ([("x", 3)], {}, {}, DEFAULT_CAPS)
SULLIVAN_S2 = ([("x", 2), ("y", 3)], {}, {"y": {("x", "x"): 1}},
               DEFAULT_CAPS)
# every presentation file of the repository, written out by hand
FILES = {
    "fixtures/bad_codiff_squared.coalg": (
        [("a", 2), ("b", 3), ("c", 4)], {},
        {"b": [(1, "a")], "c": [(1, "b")]}, DEFAULT_CAPS),
    "fixtures/bad_not_coassociative.coalg": (
        [("x", 2), ("y", 4), ("z", 6)],
        {"y": [(1, "x", "x")], "z": [(1, "x", "y")]}, {}, DEFAULT_CAPS),
    "fixtures/bad_not_coleibniz.coalg": (
        [("x", 2), ("y", 3), ("u", 5)],
        {"u": [(1, "x", "y"), (1, "y", "x")]}, {"y": [(1, "x")]},
        DEFAULT_CAPS),
    "fixtures/cp2.alg": CP2,
    "fixtures/cp2.coalg": CP2_CO,
    "fixtures/s2.alg": S2,
    "fixtures/s2.coalg": S2_CO,
    "fixtures/s3.alg": S3,
    "fixtures/sullivan_s2.alg": SULLIVAN_S2,
    "inputs/cp2.alg": CP2,
    "inputs/cp2.coalg": CP2_CO,
    "inputs/s2.alg": S2,
    "inputs/s2.coalg": S2_CO,
    "inputs/s2xs2.alg": ([("x", 2), ("y", 2)], {"x": 2, "y": 2}, {},
                         DEFAULT_CAPS),
    "inputs/s3.alg": S3,
    "inputs/sullivan_s2.alg": SULLIVAN_S2,
    "inputs/xyz.alg": ([("x", 2), ("y", 2), ("z", 3)], {},
                       {"z": {("x", "y"): 1}}, DEFAULT_CAPS),
}
# the examples of the README's "Presentation files" section, in order
README_EXAMPLES = [
    CP2,
    ([("x", 2), ("y", 3)], {}, {"y": {("x", "x"): 1}}, (4, 9)),
    ([("x", 2), ("y", 2), ("z", 3)], {},
     {"z": {("x", "y"): 2, ("x", "x"): Fraction(-1, 2)}}, DEFAULT_CAPS),
    ([("x", 2), ("x*x", 4)], {"x*x": [(1, "x", "x")]}, {"x*x": []},
     DEFAULT_CAPS),
]
ROOT = FIXTURES.parents[1]


class TestFiles:
    @pytest.mark.parametrize("path", sorted(
        [*FIXTURES.iterdir(), *(ROOT / "perfbench" / "inputs").glob("*.*")]),
        ids=lambda p: f"{p.parent.name}/{p.name}")
    def test_file_parses_to_its_literal(self, path, monkeypatch):
        # the bad_* fixtures are refused by the coalgebra axioms, which
        # TestCoalgebraStructure checks; here only what was read counts
        monkeypatch.setattr(DgccPresentation, "_validate", lambda self: None)
        got = structure(parse_presentation(path.read_text()))
        assert got == FILES[f"{path.parent.name}/{path.name}"]

    def test_readme_examples(self):
        readme = (ROOT / "README.md").read_text()
        section = readme.split("## Presentation files")[1].split("\n## ")[0]
        blocks = re.findall(r"^```\n(.*?)^```$", section, re.M | re.S)
        assert [structure(parse_presentation(b)) for b in blocks] \
            == README_EXAMPLES


DIFF = "gen x deg 2\ngen y deg 4\ndiff y = {}\n"
COPROD = "cogen x deg 2\ncogen y deg 4\ncoprod y = {}\n"
CODIFF = "cogen x deg 2\ncogen y deg 3\ncodiff y = {}\n"
MALFORMED = [
    pytest.param(head.format(rhs), id=f"{kind} = {rhs}")
    for kind, head, rhss in [
        ("diff", DIFF, [
            "x -", "-", "", "x - - y", "x + + y", "x*", "*x", "x**y",
            "x*2*y", "x^", "x^y", "(x)", "2 3 x", "x^2 3", "x^2 +", "-0",
            "x + 0"]),
        ("coprod", COPROD, [
            "x (x) y - - y (x) x", "x (x) x -", "-", "", "x (x)", "x x",
            "x (x) x (x) x", "x (x) 2 x", "2 3 x (x) x", "x (x) x x (x) x"]),
        ("codiff", CODIFF, [
            "x -", "-", "", "x - - x", "2 3 x", "x x", "x (x) x", "x^2"])]
    for rhs in rhss]
REPEATED = [pytest.param(text, first, id=first) for text, first in [
    ("gen x deg 2\ngen y deg 3\ndiff y = x^2\ndiff y = 2 x^2\n", "diff y"),
    ("gen x deg 2\nrel x^2 = 0\nrel x^3 = 0\n", "rel x"),
    ("gen x deg 2\ncap weight 4 degree 9\ncap weight 4 degree 9\n", "cap"),
    ("cogen x deg 2\ncogen y deg 4\ncoprod y = x (x) x\ncoprod y = 0\n",
     "coprod y"),
    ("cogen x deg 2\ncogen y deg 3\ncodiff y = x\ncodiff y = 0\n",
     "codiff y"),
]]


class TestStrictGrammar:
    @pytest.mark.parametrize("text", MALFORMED)
    def test_malformed_right_hand_side(self, text):
        with pytest.raises(ParseError) as e:
            parse_presentation(text)
        assert e.value.line == 3

    @pytest.mark.parametrize("text", MALFORMED + [
        pytest.param(p.values[0], id=p.id) for p in REPEATED])
    def test_cli_exits_1(self, capsys, tmp_path, text):
        path = tmp_path / "bad.alg"
        path.write_text(text)
        code = main(["pi", str(path)])
        out, err = capsys.readouterr()
        last = text.count("\n")  # the offending line is the last one
        assert code == 1 and out == "" and "ParseError" in err
        assert f"at line {last}" in err
        assert "Traceback" not in err and len(err.strip().split("\n")) == 1

    @pytest.mark.parametrize("text, first", REPEATED)
    def test_repeated_definition(self, text, first):
        with pytest.raises(ParseError, match=f"repeated '{first}'") as e:
            parse_presentation(text)
        assert e.value.line == text.count("\n")
        assert f"first at line {e.value.line - 1}" in str(e.value)

    def test_coprod_and_codiff_terms(self):
        C = parse_presentation(
            "cogen a deg 2\ncogen b deg 2\ncogen c deg 4\ncogen d deg 3\n"
            "coprod c = 2 a ⊗ b - 1/2*b (x) a + a(x)a\n"
            "codiff c = -3 d\ncodiff d = 0\n")
        assert C.coprod == {"c": [(2, "a", "b"), (Fraction(-1, 2), "b", "a"),
                                  (1, "a", "a")]}
        assert C.codiff == {"c": [(-3, "d")], "d": []}

    @pytest.mark.parametrize("head, rhs", [
        (DIFF, "x*" * 50_000),
        (DIFF, "x " * 50_000 + "^"),
        (DIFF, "2" + " " * 100_000 + "y^"),
        (DIFF, "x - " * 25_000 + "-"),
        (COPROD, "x (x) x + " * 10_000 + "x"),
        (COPROD, "x" + " " * 100_000 + "(x)"),
        (CODIFF, "x +" + " " * 100_000 + "+ x"),
    ], ids=["diff-star", "diff-caret", "diff-blanks", "diff-signs",
            "coprod-terms", "coprod-blanks", "codiff-blanks"])
    def test_long_malformed_line_refused_fast(self, head, rhs):
        start = time.perf_counter()
        with pytest.raises(ParseError) as e:
            parse_presentation(head.format(rhs))
        assert time.perf_counter() - start < 1.0
        assert e.value.line == 3 and len(str(e.value)) < 100


class TestFileKind:
    @pytest.mark.parametrize("text, message", [
        ("gen x deg 2\ncoprod x = x (x) x\ncodiff x = x\n",
         "coprod line in an algebra file (gen at line 1) at line 2"),
        ("cogen x deg 2\nrel x^2 = 0\n",
         "rel line in a coalgebra file (cogen at line 1) at line 2"),
        ("gen x deg 2\ncogen y deg 3\n",
         "cogen line in an algebra file (gen at line 1) at line 2"),
        ("# comment\ncodiff y = 0\ncap weight 3 degree 6\ndiff y = 0\n",
         "diff line in a coalgebra file (codiff at line 2) at line 4"),
    ], ids=["coprod-in-algebra", "rel-in-coalgebra", "cogen-in-algebra",
            "diff-after-codiff"])
    def test_statement_of_the_other_kind(self, capsys, tmp_path, text,
                                         message):
        with pytest.raises(ParseError) as e:
            parse_presentation(text)
        assert str(e.value) == message
        path = tmp_path / "mixed.alg"
        path.write_text(text)
        code = main(["pi", str(path)])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == f"error: ParseError: {message}\n"

    def test_kind_fixed_by_the_first_statement(self):
        # coprod/codiff without cogen lines make a coalgebra file, refused
        # for its unknown class instead of read as an empty algebra
        with pytest.raises(InvalidPresentation, match="coprod on unknown"):
            parse_presentation("coprod z = x (x) x\n")


LONG = "n" * 10_000
LONG_NAME_FILES = {
    "duplicate": f"gen {LONG} deg 2\ngen {LONG} deg 2\n",
    "degree-0": f"gen {LONG} deg 0\n",
    "rel-unknown": f"gen x deg 2\nrel {LONG}^2 = 0\n",
    "rel-power": f"gen {LONG} deg 2\nrel {LONG}^1 = 0\n",
    "diff-unknown": f"gen x deg 2\ndiff {LONG} = x^2\n",
    "diff-unknown-generator": f"gen y deg 3\ndiff y = {LONG}^2\n",
    "diff-degree": f"gen x deg 2\ngen {LONG} deg 5\ndiff {LONG} = x^2\n",
    "diff-vanishing": f"gen {LONG} deg 3\ngen y deg 5\ndiff y = {LONG}^2\n",
    "d-squared": (f"gen t deg 4\ngen x deg 3\ngen {LONG} deg 2\n"
                  f"diff x = t\ndiff {LONG} = x\n"),
    "rel-unstable": (f"gen x deg 2\ngen {LONG} deg 3\nrel {LONG}^2 = 0\n"
                     f"diff {LONG} = x^2\n"),
    "repeated": f"gen x deg 3\ndiff {LONG} = x\ndiff {LONG} = x\n",
    "unrecognized": f"gen x deg 2\n{LONG}\n",
    "coprod-unknown": f"cogen a deg 2\ncoprod {LONG} = a (x) a\n",
    "coprod-unknown-classes": f"cogen {LONG} deg 4\ncoprod {LONG} = a (x) a\n",
    "coprod-degrees": (f"cogen a deg 2\ncogen {LONG} deg 5\n"
                       f"coprod {LONG} = a (x) a\n"),
    "codiff-unknown": f"cogen a deg 2\ncodiff {LONG} = a\n",
    "codiff-unknown-class": f"cogen y deg 3\ncodiff y = {LONG}\n",
    "codiff-degree": f"cogen a deg 2\ncogen {LONG} deg 4\ncodiff {LONG} = a\n",
    "codiff-squared": (f"cogen a deg 2\ncogen b deg 3\ncogen {LONG} deg 4\n"
                       f"codiff {LONG} = b\ncodiff b = a\n"),
}


class TestClippedMessages:
    @pytest.mark.parametrize("text", LONG_NAME_FILES.values(),
                             ids=LONG_NAME_FILES.keys())
    def test_long_names_are_clipped(self, text):
        with pytest.raises(LiecographError) as e:
            parse_presentation(text)
        assert re.search(r"of \d+ characters", str(e.value))
        assert len(str(e.value).encode()) < 200

    @pytest.mark.parametrize("text, digits", [
        ("gen x deg 2\ngen y deg {}\ndiff y = x^2\n", 4000),
        ("gen x deg {}\ngen y deg 5\ndiff y = x^2\n", 4000),
        ("gen x deg 1\ngen y deg {}\ndiff y = x^19\n", 4000),
        ("gen x deg 2\ngen y deg {}\ndiff y = x^2\n", 4300),
    ], ids=["expected-degree", "term-degree", "factors", "past-str-limit"])
    def test_long_numbers_are_clipped(self, capsys, tmp_path, text, digits):
        """A degree of 4 000 nines is echoed by its digit count, also where
        the echoed number has more digits than str() will print."""
        path = tmp_path / "big.alg"
        path.write_text(text.format("9" * digits))
        assert main(["pi", str(path)]) == 1
        out, err = capsys.readouterr()
        assert re.search(r"of \d{4} digits", err), err[:200]
        assert out == "" and err.count("\n") == 1 and len(err.encode()) < 200

    def test_unrecognized_line_through_pi(self, capsys, tmp_path):
        path = tmp_path / "long.alg"
        path.write_text("gen x deg 2\n" + "q" * 100_000 + "\n")
        assert main(["pi", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and len(err.encode()) < 200

    def test_unknown_class_through_dual_check(self, capsys, tmp_path):
        path = tmp_path / "long.coalg"
        path.write_text("cogen x deg 2\ncogen y deg 3\ncodiff y = "
                        + "x*" * 5000 + "x\n")
        assert main(["dual-check", str(FIXTURES / "s2.alg"), str(path)]) == 1
        out, err = capsys.readouterr()
        assert "InvalidPresentation" in err and "of 10001 characters" in err
        assert out == "" and err.count("\n") == 1 and len(err.encode()) < 200


# a 30-digit N and N = 10^9
HUGE_POWERS = pytest.mark.parametrize("n", [10 ** 29, 10 ** 9],
                                      ids=["30-digits", "10^9"])


def _pi(capsys, tmp_path, text):
    """(exit code, stdout, stderr) of `pi` on text, asserted under 1 s."""
    path = tmp_path / "big.alg"
    path.write_text(text)
    start = time.perf_counter()
    code = main(["pi", str(path)])
    assert time.perf_counter() - start < 1.0
    return (code, *capsys.readouterr())


class TestHugePowers:
    """Powers far past every cap are decided or refused without expanding
    them into factor tuples."""

    @HUGE_POWERS
    def test_diff_power_past_the_factor_bound(self, capsys, tmp_path, n):
        """x^N has the degree of diff y, but more than MAX_FACTORS factors."""
        code, out, err = _pi(capsys, tmp_path, f"gen x deg 2\ngen y deg "
                             f"{2 * n - 1}\ndiff y = x^{n}\n")
        assert code == 1 and out == "" and err.count("\n") == 1
        assert f"ParseError: a term has more than {MAX_FACTORS} factors" in err

    @HUGE_POWERS
    def test_odd_relation_power_is_stable(self, capsys, tmp_path, n):
        """y is odd, so y^2 = 0 and y^(N-1) dy = 0 for every N > 2: the
        relation is differential-stable and changes no answer."""
        sullivan = "gen x deg 2\ngen y deg 3\ndiff y = x^2\n"
        text = sullivan + f"rel y^{n} = 0\n"
        assert parse_presentation(text).relations == {"y": n}
        assert _pi(capsys, tmp_path, text) == _pi(capsys, tmp_path, sullivan)

    @HUGE_POWERS
    def test_even_relation_power_is_refused(self, capsys, tmp_path, n):
        """y is even and dy = xz lacks y, so y^(N-1) dy != 0."""
        code, out, err = _pi(capsys, tmp_path, (
            "gen x deg 2\ngen z deg 3\ngen y deg 4\ndiff y = x*z\n"
            f"rel y^{n} = 0\n"))
        assert code == 1 and out == "" and err.count("\n") == 1
        assert "InvalidPresentation" in err and "differential-stable" in err

    @pytest.mark.parametrize("text", [
        "gen x deg 2\ngen y deg 3\ndiff y = x^2\n",
        "gen u deg 1\ngen y deg 3\ndiff y = y*u\n",
        "gen x deg 2\ngen z deg 3\ngen y deg 4\ndiff y = x*z\n",
        "gen u deg 1\ngen y deg 2\ndiff y = y*u\n",
        "gen u deg 1\ngen x deg 2\ngen y deg 2\ndiff y = y*u + x*u\n",
        "gen x deg 2\ngen z deg 3\ngen y deg 4\ndiff y = x*z - z*x\n",
    ], ids=["odd", "odd-holds-y", "even", "even-holds-y", "even-mixed",
            "even-cancelling"])
    def test_stability_matches_the_expanded_product(self, text):
        """For k = 2..5, rel y^k is accepted exactly when the product
        y^(k-1) dy, expanded in the quotient, is zero."""
        for k in range(2, 6):
            A = parse_presentation(text)
            A.relations = {"y": k}
            product = A.poly_multiply({("y",) * (k - 1): 1},
                                      A.differentials["y"])
            try:
                parse_presentation(text + f"rel y^{k} = 0\n")
            except InvalidPresentation as e:
                assert "differential-stable" in str(e) and product, k
            else:
                assert not product, k


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
        p = parse_polynomial("2 x^2 - 1/3 x*y", 1)
        assert p == {("x", "x"): Fraction(2), ("x", "y"): Fraction(-1, 3)}

    @pytest.mark.parametrize("text, want", [
        ("-x y + 2*x^2", {("x", "y"): -1, ("x", "x"): 2}),
        ("3/2 * x ^ 2 y", {("x", "x", "y"): Fraction(3, 2)}),
        ("+ 2x*y*x", {("x", "y", "x"): 2}),
        ("x*y - x*y", {}),
        ("0", {}),
    ])
    def test_term_forms(self, text, want):
        assert parse_polynomial(text, 1) == want

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

    def test_longer_than_the_recursion_limit(self):
        """Depth first on an explicit stack: multisets of more elements than
        the recursion limit come out in well under a second."""
        n = sys.getrecursionlimit() + 10
        start = time.perf_counter()
        got = multisets(["x"], {"x": 1}, n)
        assert time.perf_counter() - start < 0.5
        assert got == [("x",) * k for k in range(1, n + 1)]


@pytest.mark.parametrize("source", [*sorted(FIXTURES.glob("*.alg")),
                                    *range(20)],
                         ids=lambda s: getattr(s, "name", str(s)))
def test_monomial_counts_count_the_monomials(source):
    """monomial_counts is the number of listed monomials in each degree,
    on every algebra fixture and on random presentations."""
    if isinstance(source, int):
        rng = random.Random(source)
        A = random_presentation(rng)
    else:
        A = parse_presentation(source.read_text())
    for top in (1, 7, 16):
        want = [0] * (top + 1)
        for m in A.monomials(top):
            want[A.monomial_degree(m)] += 1
        assert A.monomial_counts(top) == want


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
