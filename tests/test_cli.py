import contextlib
import io
import os
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecograph.cli import (MAX_NESTING, _fmt_tree_key, _parse_gens, main,
                            parse_expression)
from liecograph.elements import GeneratorTable, GraphElement, TreeElement
from liecograph.errors import ArityMismatch, ParseError, UnknownGenerator
from liecograph.graphcoalg import (_standard_bracketing, _word_coordinates,
                                   super_lyndon_words)
from liecograph.liealg import tensor_expand
from liecograph.shapes import tree_leaves

from conftest import FIXTURES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


S2 = str(FIXTURES / "s2.alg")
CP2 = str(FIXTURES / "cp2.alg")
S2_CO = str(FIXTURES / "s2.coalg")
CP2_CO = str(FIXTURES / "cp2.coalg")
BIG = "9" * 4301  # one digit past Python's integer-string limit
LONG = "q" * 5000


class TestPair:
    def test_repeated_label_example(self, capsys):
        code, out, _ = run(capsys, "pair", "G[3; 1->2, 2->3](a,a,b)",
                           "[[a,b],a]", "--gens", "a:2,b:2")
        assert code == 0 and out == "-1\n"

    def test_product_notation_matches_brackets(self, capsys):
        _, out1, _ = run(capsys, "pair", "a|b", "(a*b)", "--gens", "a:2,b:2")
        _, out2, _ = run(capsys, "pair", "a|b", "[a,b]", "--gens", "a:2,b:2")
        assert out1 == out2

    def test_rational_coefficients(self, capsys):
        code, out, _ = run(capsys, "pair", "1/2 a|b", "[a,b]",
                           "--gens", "a:2,b:2")
        assert code == 0
        assert re.fullmatch(r"-?\d+(/\d+)?\n", out)


class TestExpressionParsing:
    TABLE = GeneratorTable([("a", 2), ("b", 3)])

    def test_bar_word(self):
        g = parse_expression("a|b|a", self.TABLE)
        assert isinstance(g, GraphElement) and not g.is_zero()

    def test_graph_literal_roundtrip(self):
        g = parse_expression("G[3; 1->2, 3->2](a,b,a)", self.TABLE)
        assert isinstance(g, GraphElement)

    def test_tree_literals_agree(self):
        t1 = parse_expression("[[a,b],a]", self.TABLE, kind="tree")
        t2 = parse_expression("(a*b)*a", self.TABLE, kind="tree")
        assert t1.terms == t2.terms

    def test_linear_combination(self):
        g = parse_expression("2 a|b - 1/3 b|a", self.TABLE)
        assert len(g.terms) == 2

    def test_unknown_generator(self):
        with pytest.raises(UnknownGenerator):
            parse_expression("q|b", self.TABLE)

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            parse_expression("G[3; 1->2, 2->3](a,b)", self.TABLE)

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as e:
            parse_expression("a|b +", self.TABLE)
        assert e.value.col is not None


class TestVerbs:
    def test_cobracket_deterministic_and_reparsable(self, capsys):
        code, out, _ = run(capsys, "cobracket", "a|b|c",
                           "--gens", "a:2,b:2,c:4")
        code2, out2, _ = run(capsys, "cobracket", "a|b|c",
                             "--gens", "a:2,b:2,c:4")
        assert code == code2 == 0 and out == out2
        table = GeneratorTable([("a", 2), ("b", 2), ("c", 4)])
        for line in out.strip().split("\n"):
            coeff, lit1, lit2 = line.split("\t")
            for lit in (lit1, lit2):
                g = parse_expression(lit, table)
                assert isinstance(g, GraphElement) and not g.is_zero()

    def test_normalize(self, capsys):
        code, out, _ = run(capsys, "normalize", "b|a", "--gens", "a:2,b:2")
        assert code == 0 and out == "a|b\t-1\n"

    def test_normalize_at_weight_7(self, capsys):
        """Weight 7 (BAR_CAP) is read: the long graphs' coordinates are
        their words' pairings with the standard bracketings, solved."""
        gens = "a:2,b:3,c:2,d:4,e:3,f:2,g:5"
        words = {("d", "a", "c", "g", "b", "f", "e"): 1,
                 ("b", "a", "b", "c", "a", "b", "c"): Fraction(-3, 2)}
        start = time.perf_counter()
        code, out, err = run(capsys, "normalize",
                             "d|a|c|g|b|f|e - 3/2*b|a|b|c|a|b|c",
                             "--gens", gens)
        assert time.perf_counter() - start < 5.0
        assert code == 0 and err == ""
        table = GeneratorTable([(x.split(":")[0], int(x.split(":")[1]))
                                for x in gens.split(",")])
        want = {}
        for w, c in words.items():
            for b, x in _word_coordinates(table, w).items():
                want[b] = want.get(b, 0) + c * x
        got = {tuple(w.split("|")): Fraction(x)
               for w, x in (line.split("\t") for line in out.splitlines())}
        assert got == {b: x for b, x in want.items() if x} and len(got) > 2

    def test_iszero_zero(self, capsys):
        code, out, _ = run(capsys, "iszero", "a|b + b|a",
                           "--gens", "a:2,b:2")
        assert code == 0 and out == "zero\n"

    def test_iszero_nonzero_has_witness(self, capsys):
        code, out, _ = run(capsys, "iszero", "a|b", "--gens", "a:2,b:2")
        assert code == 0
        assert out.startswith("nonzero\n# witness")

    def test_lie_normalize_prints_standard_bracketings(self, capsys):
        code, out, _ = run(capsys, "lie-normalize", "[a,[b,a]]",
                           "--gens", "a:2,b:3")
        assert code == 0 and out == "[a,[a,b]]\t-1\n"
        table = _parse_gens("a:2,b:3,c:2,d:4,e:3")
        code, out, _ = run(capsys, "lie-normalize",
                           "[[[c,a],[e,b]],[[d,a],b]] + [[[e,b],d],[[b,a],c]]",
                           "--gens", "a:2,b:3,c:2,d:4,e:3")
        assert code == 0 and out
        for line in out.splitlines():
            expr = line.split("\t")[0]
            word = tree_leaves(next(iter(
                parse_expression(expr, table, kind="tree").terms)))
            content = tuple(sorted(word, key=table.sort_key))
            assert word in super_lyndon_words(table, content, table.sort_key)
            assert _fmt_tree_key(_standard_bracketing(table, word)) == expr

    def test_lie_normalize_kills_jacobi(self, capsys):
        combo = "[[a,b],c] - [a,[b,c]] + [b,[a,c]]"
        code, out, _ = run(capsys, "lie-normalize", combo,
                           "--gens", "a:2,b:2,c:2")
        assert code == 0 and out == ""

    @pytest.mark.parametrize("expr, gens, want, combs", [
        ("[[a,[b,c]],[d,[e,a]]]", "a:2,b:3,c:2,d:4,e:3",
         "[[a,[b,c]],[[a,e],d]]\t1\n",
         "[[[[[a,e],d],a],b],c]\t1\n[[[[[a,e],d],a],c],b]\t-1\n"
         "[[[[[a,e],d],b],c],a]\t-1\n[[[[[a,e],d],c],b],a]\t1\n"),
        ("[[[a,b],[c,d]],[[e,f],g]]", "a:2,b:3,c:2,d:4,e:3,f:2,g:2",
         "[a,[b,[c,[d,[e,[f,g]]]]]]\t1\n[a,[b,[c,[d,[[e,g],f]]]]]\t1\n"
         "[a,[b,[[c,[e,[f,g]]],d]]]\t1\n[a,[b,[[c,[[e,g],f]],d]]]\t1\n"
         "[a,[[b,[e,[f,g]]],[c,d]]]\t1\n[a,[[b,[[e,g],f]],[c,d]]]\t1\n"
         "[[a,[c,d]],[b,[e,[f,g]]]]\t1\n[[a,[c,d]],[b,[[e,g],f]]]\t1\n"
         "[[a,[c,[d,[e,[f,g]]]]],b]\t-1\n[[a,[c,[d,[[e,g],f]]]],b]\t-1\n"
         "[[a,[[c,[e,[f,g]]],d]],b]\t-1\n[[a,[[c,[[e,g],f]],d]],b]\t-1\n"
         "[[a,[e,[f,g]]],[b,[c,d]]]\t-1\n[[[a,[e,[f,g]]],[c,d]],b]\t-1\n"
         "[[a,[[e,g],f]],[b,[c,d]]]\t-1\n[[[a,[[e,g],f]],[c,d]],b]\t-1\n",
         "[[[[[[a,b],c],d],e],f],g]\t1\n[[[[[[a,b],c],d],f],e],g]\t-1\n"
         "[[[[[[a,b],c],d],g],e],f]\t-1\n[[[[[[a,b],c],d],g],f],e]\t1\n"
         "[[[[[[a,b],d],c],e],f],g]\t-1\n[[[[[[a,b],d],c],f],e],g]\t1\n"
         "[[[[[[a,b],d],c],g],e],f]\t1\n[[[[[[a,b],d],c],g],f],e]\t-1\n"),
    ], ids=["weight-6", "weight-7"])
    def test_lie_normalize_pinned_output(self, capsys, expr, gens, want,
                                         combs):
        """The pinned normal form, and the same class as the left-comb
        normal form an earlier basis printed: equal tensor expansions."""
        start = time.process_time()
        code, out, _ = run(capsys, "lie-normalize", expr, "--gens", gens)
        assert time.process_time() - start < 5.0
        assert code == 0 and out == want
        table = _parse_gens(gens)

        def expansion(text):
            total = TreeElement(table)
            for line in text.splitlines():
                e, c = line.split("\t")
                total = total.add(parse_expression(e, table, kind="tree")
                                  .scale(Fraction(c)))
            return tensor_expand(total)
        assert expansion(want) == expansion(combs) == tensor_expand(
            parse_expression(expr, table, kind="tree"))

    def test_pi_table_with_header(self, capsys):
        code, out, _ = run(capsys, "pi", S2, "--window", "2..4")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("# caps:")
        assert lines[1:] == ["2\t1", "3\t1", "4\t0"]

    def test_pi_deep_window_on_xyz(self, capsys, tmp_path):
        # the classical table of x, y (degree 2) and z (degree 3) with
        # dz = xy; the default caps 10/9 run the word layer up to weight 10
        path = tmp_path / "xyz.alg"
        path.write_text("gen x deg 2\ngen y deg 2\ngen z deg 3\n"
                        "diff z = x*y\n")
        code, out, _ = run(capsys, "pi", str(path), "--window", "2..9")
        assert code == 0
        assert out == ("# caps: weight=10 degree=9\n2\t2\n3\t1\n"
                       + "".join(f"{d}\t0\n" for d in range(4, 10)))

    def test_pi_deterministic(self, capsys):
        _, out1, _ = run(capsys, "pi", S2, "--window", "2..4", "--oracle")
        _, out2, _ = run(capsys, "pi", S2, "--window", "2..4", "--oracle")
        assert out1 == out2

    def test_harrison_matches_pi_one_degree_down(self, capsys):
        _, pi_out, _ = run(capsys, "pi", S2, "--window", "2..4")
        _, h_out, _ = run(capsys, "harrison", S2, "--window", "1..3")
        pi = dict(tuple(map(int, l.split("\t")))
                  for l in pi_out.strip().split("\n")[1:])
        h = dict(tuple(map(int, l.split("\t")))
                 for l in h_out.strip().split("\n")[1:])
        assert all(pi[d] == h[d - 1] for d in (2, 3, 4))

    def test_ss_formal_pages_agree(self, capsys):
        code, out, _ = run(capsys, "ss", CP2, "--window", "1..5",
                           "--pages", "3")
        assert code == 0
        rows = [l.split("\t") for l in out.strip().split("\n")[1:]]
        by_page = {}
        for r, w, d, dim in rows:
            by_page.setdefault(int(r), {})[(int(w), int(d))] = int(dim)
        assert by_page[2] == by_page[3]

    def test_dual_check_pass(self, capsys):
        code, out, _ = run(capsys, "dual-check", S2, S2_CO,
                           "--cap-weight", "4", "--cap-degree", "8")
        assert code == 0 and out.endswith("pass\n")

    @pytest.mark.parametrize("name", ["bad_codiff_squared.coalg",
                                      "bad_not_coassociative.coalg",
                                      "bad_not_coleibniz.coalg"])
    def test_dual_check_refuses_bad_coalgebra(self, capsys, name):
        code, out, err = run(capsys, "dual-check", S2, str(FIXTURES / name))
        assert code == 1 and out == "" and "InvalidPresentation" in err
        assert "Traceback" not in err and len(err.strip().split("\n")) == 1

    def test_dual_check_mismatch_is_an_input_error(self, capsys):
        code, out, err = run(capsys, "dual-check", CP2, S2_CO,
                             "--cap-weight", "3", "--cap-degree", "6")
        assert code == 1 and out == "" and "NotDual" in err

    def test_enumerate_counts(self, capsys):
        _, out, _ = run(capsys, "enumerate", "graphs", "3")
        assert len(out.strip().split("\n")) == 12
        _, out, _ = run(capsys, "enumerate", "trees", "4")
        assert len(out.strip().split("\n")) == 120


class TestErrorsAndCaps:
    def test_unknown_generator_exits_1(self, capsys):
        code, _, err = run(capsys, "iszero", "q|b", "--gens", "a:2,b:2")
        assert code == 1 and "UnknownGenerator" in err

    def test_missing_file_exits_1(self, capsys):
        code, _, err = run(capsys, "pi", "/nonexistent.alg")
        assert code == 1

    def test_non_utf8_file_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.alg"
        bad.write_bytes(b"gen x deg 2\n\xff\n")
        code, _, err = run(capsys, "pi", str(bad))
        assert code == 1 and "ParseError" in err and "UTF-8" in err
        assert len(err.strip().split("\n")) == 1

    @pytest.mark.parametrize("kind", ["graphs", "trees"])
    @pytest.mark.parametrize("weight", ["0", "-1"])
    def test_enumerate_nonpositive_weight_exits_1(self, capsys, kind, weight):
        code, out, err = run(capsys, "enumerate", kind, weight)
        assert code == 1 and out == "" and "InvalidInput" in err
        assert len(err.strip().split("\n")) == 1

    @pytest.mark.parametrize("expr", [
        "[" * 400 + "a" + ",b]" * 400,
        "(" * 400 + "a" + ")" * 400,
        "*".join(["a"] * 1500),
    ], ids=["brackets", "parentheses", "products"])
    def test_deep_nesting_exits_1(self, capsys, expr):
        code, out, err = run(capsys, "lie-normalize", expr, "--gens", "a:2,b:2")
        assert code == 1 and out == "" and "ParseError" in err
        assert re.search(r"col \d+", err) and "Traceback" not in err
        assert len(err.strip().split("\n")) == 1

    def test_nesting_at_the_limit_parses(self):
        table = GeneratorTable([("a", 2), ("b", 2)])
        t = parse_expression("[" * MAX_NESTING + "a" + ",b]" * MAX_NESTING,
                             table, kind="tree")
        assert isinstance(t, TreeElement)
        with pytest.raises(ParseError):
            parse_expression("a" + "*b" * (MAX_NESTING + 1), table)

    def test_pair_bijection_cap_exits_1(self, capsys):
        """A 12-letter single-label word would walk 12! bijections; it is
        refused before enumerating."""
        start = time.perf_counter()
        code, out, err = run(capsys, "pair", "|".join("a" * 12),
                             "(" + "*".join("a" * 12) + ")", "--gens", "a:2")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == "" and "CapExceeded" in err
        assert "Traceback" not in err and len(err.strip().split("\n")) == 1

    def test_normalize_weight_cap_exits_1(self, capsys):
        """A weight-8 graph is past BAR_CAP: refused before its iterated
        cobracket is taken, with one stderr line."""
        start = time.perf_counter()
        code, out, err = run(capsys, "normalize", "a|b|c|d|e|f|g|a",
                             "--gens", "a:2,b:3,c:2,d:4,e:3,f:2,g:5")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == "" and "CapExceeded" in err
        assert "Traceback" not in err and len(err.strip().split("\n")) == 1

    def test_iszero_weight_cap_exits_1(self, capsys):
        """A 40-letter word would take about half an hour to zero-test; it
        is refused before any cobracket is taken."""
        start = time.perf_counter()
        code, out, err = run(capsys, "iszero", "|".join("abc" * 13 + "a"),
                             "--gens", "a:2,b:2,c:4")
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == "" and "CapExceeded" in err
        assert "Traceback" not in err and len(err.strip().split("\n")) == 1

    @pytest.mark.parametrize("verb", ["pi", "harrison", "ss"])
    def test_runaway_window_exits_1(self, capsys, verb):
        """At --window 2..40 the word models of x, y, z would have millions
        of keys; the count is predicted from the caps and the run refused
        before any content is listed.  At 2..4000 the alphabet alone would
        have about 2 M monomials: the letters are counted per degree and
        the run refused before any monomial is listed."""
        xyz = str(FIXTURES.parents[1] / "perfbench" / "inputs" / "xyz.alg")
        for window in ("2..40", "2..4000"):
            start = time.perf_counter()
            code, out, err = run(capsys, verb, xyz, "--window", window)
            assert time.perf_counter() - start < 1.0, window
            assert code == 1 and out == "" and "CapExceeded" in err
            assert re.search(r"at least \d+ keys, over the budget of \d+",
                             err)
            assert "Traceback" not in err
            assert len(err.strip().split("\n")) == 1

    @pytest.mark.parametrize("argv", [
        ("pair", "1/0*a|b", "[a,b]", "--gens", "a:2,b:2"),
        ("cobracket", "G[x;](a)", "--gens", "a:2"),
        ("pair", "G[2;1->x](a,b)", "[a,b]", "--gens", "a:2,b:2"),
        ("iszero", "a|a", "--gens", "a:0"),
        ("iszero", "a|a", "--gens", "a:2,a:3"),
    ], ids=["zero-denominator", "graph-size", "graph-edge", "gens-degree",
            "gens-duplicate"])
    def test_malformed_expression_exits_1(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and "ParseError" in err
        assert re.search(r"col \d+", err) and "Traceback" not in err
        assert len(err.strip().split("\n")) == 1

    @pytest.mark.parametrize("text", [
        "gen x deg 2\ngen y deg 3\ndiff y = 1/0 * x^2\n",
        "gen x deg 2\ngen y deg 3\ndiff y = x^\n",
        "gen x deg 2\ngen y deg 3\ndiff y = x^x\n",
        "cogen u deg 2\ncogen v deg 4\ncoprod v = 1/0 u (x) u\n",
        "cogen u deg 2\ncogen v deg 3\ncodiff v = 1/0 u\n",
    ], ids=["diff-zero-denominator", "diff-missing-exponent",
            "diff-name-exponent", "coprod-zero-denominator",
            "codiff-zero-denominator"])
    def test_malformed_presentation_exits_1(self, capsys, tmp_path, text):
        path = tmp_path / "bad.alg"
        path.write_text(text)
        code, out, err = run(capsys, "pi", str(path))
        assert code == 1 and out == "" and "ParseError" in err
        assert "line 3" in err and "Traceback" not in err
        assert len(err.strip().split("\n")) == 1

    @pytest.mark.parametrize("text, argv, env", [
        (f"gen x deg {BIG}\n", ["pi"], None),
        (f"gen x deg 2\nrel x^{BIG} = 0\n", ["pi"], None),
        (f"gen x deg 2\ncap weight {BIG} degree 4\n", ["pi"], None),
        (None, ["iszero", "a|a", "--gens", f"a:{BIG}"], None),
        (None, ["pi", S2, "--window", f"2..{BIG}"], None),
        (None, ["cobracket", f"G[{BIG};](a)", "--gens", "a:2"], None),
        (None, ["pi", S2, "--window", "2..3"], f"{BIG},4"),
    ], ids=["gen-degree", "rel-power", "cap", "gens-degree", "window",
            "graph-size", "cap-override"])
    def test_huge_integer_literal_exits_1(self, capsys, tmp_path,
                                          monkeypatch, text, argv, env):
        if text is not None:
            path = tmp_path / "big.alg"
            path.write_text(text)
            argv = argv + [str(path)]
        if env is not None:
            monkeypatch.setenv("LIECOGRAPH_CAP_OVERRIDE", env)
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and "ParseError" in err
        assert "Traceback" not in err and len(err.strip().split("\n")) == 1

    @pytest.mark.parametrize("argv", [
        ["pair", f"{BIG[1:]} a|b + a|b", "[a,b]"],
        ["cobracket", f"{BIG[1:]} a|b + a|b"],
        ["normalize", f"a|b + {BIG[1:]} a|a|b + a|a|b"],
        ["iszero", f"{BIG[1:]} a|b + a|b"],
        ["lie-normalize", f"{BIG[1:]} [a,b] + [a,b]"],
    ], ids=lambda argv: argv[0])
    def test_coefficient_past_the_digit_limit_exits_1(self, capsys, argv):
        """Each literal fits the integer-string limit but their sum does not;
        the verb prints nothing and exits 1 with one stderr line."""
        code, out, err = run(capsys, *argv, "--gens", "a:2,b:2")
        assert code == 1 and out == "" and "CapExceeded" in err, err[:200]
        assert "Traceback" not in err and len(err.strip().split("\n")) == 1

    @pytest.mark.parametrize("argv, env", [
        (("pi", S2, "--cap-weight", "x"), None),
        (("pi", S2, "--cap-degree", "1.5"), None),
        (("ss", S2, "--pages", "x"), None),
        (("ss", S2, "--pages", "-1"), None),
        (("ss", S2, "--pages", "1000000000"), None),
        (("enumerate", "graphs", "q"), None),
        (("enumerate", "trees", BIG), None),
        (("dual-check", CP2, CP2_CO, "--cap-weight", "-1"), None),
        (("harrison", S2, "--window", "1..7", "--cap-degree", "-1"), None),
        (("harrison", S2, "--window", "1..7"), "-1,5"),
    ], ids=["cap-weight", "cap-degree", "pages", "negative-pages",
            "pages-above-max", "enumerate-weight", "enumerate-huge-weight",
            "negative-cap-weight", "negative-cap-degree",
            "negative-cap-override"])
    def test_malformed_integer_argument_exits_1(self, capsys, monkeypatch,
                                                argv, env):
        """Each refused before any computation: a negative cap would lift
        the cap and run at unbounded weight."""
        if env is not None:
            monkeypatch.setenv("LIECOGRAPH_CAP_OVERRIDE", env)
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == "" and "ParseError" in err
        assert "Traceback" not in err and len(err.strip().split("\n")) == 1
        if env is not None:
            assert "LIECOGRAPH_CAP_OVERRIDE" in err

    @pytest.mark.parametrize("argv", [
        ("normalize", "a|a " + "$" * 4996, "--gens", "a:2"),
        ("normalize", "a", "--gens", "a:2," + "q" * 4996),
        ("normalize", "a", "--gens", f"{LONG}:2,{LONG}:3"),
        ("normalize", "a", "--gens", f"{LONG}:0"),
        ("cobracket", f"G[2 {LONG}](a,a)", "--gens", "a:2"),
        ("normalize", f"a {LONG}", "--gens", "a:2"),
        ("normalize", "a + " + " " * 4995 + ";", "--gens", "a:2"),
        ("cobracket", f"G[{LONG}; ](a)", "--gens", "a:2"),
        ("lie-normalize", f"[a,{'1' * 5000}]", "--gens", "a:2"),
        ("normalize", f"a|{LONG}", "--gens", "a:2"),
        ("pi", S2, "--window", LONG),
        ("pi", S2, "--window", "2" * 2499 + ".." + "1" * 2499),
    ], ids=["tokenize", "gens-spec", "gens-duplicate", "gens-degree",
            "expected-token", "unexpected-token", "atom", "integer",
            "generator", "unknown-generator", "window", "empty-window"])
    def test_long_input_is_clipped(self, capsys, argv):
        """Each echo of a 5 000-character input stays one short line."""
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == "" and "Traceback" not in err
        assert err.count("\n") == 1 and len(err.encode()) < 200, err[:200]

    @pytest.mark.parametrize("value", ["9" * 300, "9" * 4301 + ",4"],
                             ids=["300-digits", "4301-digits"])
    def test_env_cap_override_error_is_clipped(self, capsys, monkeypatch,
                                               value):
        monkeypatch.setenv("LIECOGRAPH_CAP_OVERRIDE", value)
        code, out, err = run(capsys, "pi", S2, "--window", "2..4")
        assert code == 1 and out == "" and "ParseError" in err
        assert len(err.strip().split("\n")) == 1 and len(err) < 120

    def test_cap_too_small_exits_2(self, capsys):
        code, out, err = run(capsys, "pi", S2, "--window", "2..8",
                             "--cap-weight", "3", "--cap-degree", "4")
        assert code == 2 and out == "" and "cap-too-small" in err
        # degree 0 lies below the complete range of the shuffle model
        code, out, err = run(capsys, "harrison", S2, "--window", "0..3")
        assert code == 2 and out == "" and "cap-too-small" in err

    @pytest.mark.parametrize("verb", ["pi", "harrison", "ss"])
    def test_env_cap_override(self, capsys, monkeypatch, verb):
        monkeypatch.setenv("LIECOGRAPH_CAP_OVERRIDE", "3,4")
        code, _, err = run(capsys, verb, S2, "--window", "2..8")
        assert code == 2  # the small override bites exactly like the flags

    def test_env_cap_override_malformed(self, capsys, monkeypatch):
        monkeypatch.setenv("LIECOGRAPH_CAP_OVERRIDE", "bogus")
        code, _, err = run(capsys, "pi", S2, "--window", "2..4")
        assert code == 1


# ---------------------------------------------------------------------------
# fuzz: random command lines over every verb

NAME = st.sampled_from(["a", "b", "c", "x", "G", "_q"])
COEFF = st.sampled_from(["", "2 ", "1/2 ", "0 ", "3*", "-1 ", "1/0 ", "07 ",
                         "9" * 40 + " ", BIG + " "])
BAR_WORD = st.lists(NAME, min_size=1, max_size=5).map("|".join)
GRAPH_LITERAL = st.builds(
    lambda n, edges, labels: "G[%s; %s](%s)" % (
        n, ", ".join(f"{a}->{b}" for a, b in edges), ",".join(labels)),
    st.integers(0, 5),
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=5),
    st.lists(NAME, max_size=6))
TREE = st.recursive(NAME, lambda kids: st.tuples(kids, kids, st.sampled_from(
    ["[{},{}]", "({}*{})", "{}*{}"])).map(lambda t: t[2].format(t[0], t[1])),
    max_leaves=6)
TERM = st.tuples(COEFF, st.one_of(BAR_WORD, GRAPH_LITERAL, TREE)).map("".join)
SUM = st.lists(st.tuples(st.sampled_from(["", " + ", " - ", "-"]), TERM),
               min_size=1, max_size=3).map(
    lambda ts: "".join(s + t for s, t in ts))


@st.composite
def expressions(draw):
    """Well-formed sums, their one-character mutations, or raw text over the
    expression alphabet; at most six letters a term, so every verb is quick."""
    text = draw(SUM)
    how = draw(st.sampled_from(["keep", "insert", "delete", "raw"]))
    if how == "raw":
        return draw(st.text("abcG|[](),;*+-/0123456789> ", max_size=24))
    if how == "keep":
        return text
    i = draw(st.integers(0, len(text)))
    if how == "delete":
        return text[:i] + text[i + 1:]
    return text[:i] + draw(st.sampled_from("ab|[](),;*+-/0>G ")) + text[i:]


SMALL_INT = st.one_of(st.integers(-2, 6).map(str),
                      st.sampled_from(["", "x", "1.5", "07", "2..3", BIG]))
WINDOW = st.one_of(st.sampled_from(["1..3", "2..4", "2..5", "0..3", "4..2"]),
                   st.text("0123456789.-x", max_size=7))
ALGEBRAS = [str(FIXTURES / f) for f in ("s2.alg", "s3.alg", "cp2.alg",
                                        "sullivan_s2.alg")]
COALGEBRAS = [str(FIXTURES / f) for f in (
    "s2.coalg", "cp2.coalg", "bad_codiff_squared.coalg",
    "bad_not_coassociative.coalg", "bad_not_coleibniz.coalg")]
# "@name" is a file of the odd_files fixture
ODD_FILES = [str(FIXTURES / "missing.alg"), str(FIXTURES), "@bad.alg",
             "@empty.alg"]
FILE = st.sampled_from(ALGEBRAS + COALGEBRAS + ODD_FILES)
GENS = st.one_of(st.sampled_from(["a:2,b:3", "a:2,b:2", "a:3,b:5,c:4",
                                  "a:1", "a:2,a:3", "a:0", f"a:{BIG}"]),
                 st.text("abc:,0123456789 ", max_size=10))


def _options(**choices):
    """A strategy for a flat list of "--flag value" pairs, each flag drawn
    from its strategy or left out."""
    return st.fixed_dictionaries({}, optional=choices).map(
        lambda d: [x for flag, v in d.items() for x in (flag, v)])


TABLE_OPTS = st.one_of(
    _options(**{"--gens": GENS}),
    _options(**{"--alg": st.sampled_from(ALGEBRAS + ODD_FILES)}))
CAP_OPTS = _options(**{"--cap-weight": SMALL_INT, "--cap-degree": SMALL_INT})


@st.composite
def command_lines(draw):
    """(argv, LIECOGRAPH_CAP_OVERRIDE or None) for a random verb."""
    verb = draw(st.sampled_from(
        ["pair", "cobracket", "normalize", "iszero", "lie-normalize", "pi",
         "harrison", "ss", "dual-check", "enumerate"]))
    if verb == "pair":
        argv = [draw(expressions()), draw(expressions()),
                *draw(TABLE_OPTS)]
    elif verb in ("cobracket", "normalize", "iszero", "lie-normalize"):
        argv = [draw(expressions()), *draw(TABLE_OPTS)]
    elif verb == "enumerate":
        argv = [draw(st.sampled_from(["graphs", "trees"])), draw(SMALL_INT)]
    elif verb == "dual-check":
        argv = [draw(FILE), draw(FILE), *draw(CAP_OPTS)]
    else:
        argv = [draw(FILE), *draw(CAP_OPTS),
                *draw(_options(**{"--window": WINDOW}))]
        if verb == "pi" and draw(st.booleans()):
            argv.append("--oracle")
        if verb == "ss":
            argv += draw(_options(**{"--pages": SMALL_INT}))
    env = draw(st.one_of(st.none(), st.sampled_from(["3,4", "5,5", "x,2",
                                                     "-1,2", "4", ""])))
    return [verb, *argv], env


FUZZ_SECONDS = 10.0


@pytest.fixture(scope="module")
def odd_files(tmp_path_factory):
    """The non-UTF-8 and empty presentation files the fuzz draws from."""
    base = tmp_path_factory.mktemp("fuzz")
    (base / "bad.alg").write_bytes(b"gen x deg 2\n\xff\n")
    (base / "empty.alg").write_text("")
    return base


@settings(max_examples=400, deadline=None)
@given(command_lines())
def test_cli_fuzz(odd_files, case):
    """Any command line ends with exit 0, 1 or 2, at most one stderr line
    and no traceback, within FUZZ_SECONDS; a failing verb leaves stdout
    empty."""
    argv, env = case
    argv = [str(odd_files / a[1:]) if a.startswith("@") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    old = os.environ.pop("LIECOGRAPH_CAP_OVERRIDE", None)
    if env is not None:
        os.environ["LIECOGRAPH_CAP_OVERRIDE"] = env
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:  # argparse: --help, or a usage error
                code = e.code
    finally:
        os.environ.pop("LIECOGRAPH_CAP_OVERRIDE", None)
        if old is not None:
            os.environ["LIECOGRAPH_CAP_OVERRIDE"] = old
    assert time.perf_counter() - start < FUZZ_SECONDS, argv
    err = err.getvalue()
    assert code in (0, 1, 2), (argv, code, err)
    assert err.count("\n") <= 1 and "Traceback" not in err, (argv, err)
    if err:
        assert out.getvalue() == "", (argv, err)
