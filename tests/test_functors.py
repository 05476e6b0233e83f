import hashlib
import itertools
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from liecograph import functors, graphcoalg, shapes
from liecograph.elements import GraphElement, koszul_sign
from liecograph.errors import (
    CapExceeded,
    CapTooSmall,
    DegreeMismatch,
    InvalidInput,
    InvalidPresentation,
    NotDual,
    NotSimplyConnected,
)
from liecograph.functors import (
    LieAlgebraData,
    build_A_hat,
    build_C,
    build_E,
    build_G,
    build_L,
    canonical_twisting_function,
    check_duality,
    check_twisting,
    dualize,
    harrison_shuffle_model,
    rational_homotopy,
)
from liecograph.graphcoalg import (
    _shuffles,
    graphify,
    relation_generators,
    super_lyndon_words,
    to_bar_basis,
)
from liecograph.liealg import lie_normal_form
from liecograph.linalg import Echelon, add_into
from liecograph.pairing import element_pair
from liecograph.presentations import parse_presentation
from liecograph.shapes import tree_leaves

from conftest import (
    arrangements,
    graph_key_cobracket,
    is_lyndon,
    load_presentation,
    random_presentation,
    super_lyndon,
)


SULLIVAN = "gen x deg 2\ngen y deg 3\ndiff y = x^2\n"


@pytest.fixture(scope="module")
def sullivan():
    return parse_presentation(SULLIVAN)


@pytest.fixture(scope="module")
def GE(sullivan):
    return build_G(sullivan, 3, 6), build_E(sullivan, 3, 6)


class TestGraphToWordProjection:
    def test_projection_is_a_chain_map(self, GE):
        G, E = GE
        table = E.table

        def project(terms):
            return to_bar_basis(GraphElement(table, terms))

        checked = 0
        for key, (w, d) in G.key_bidegree.items():
            if d >= G.caps[1]:
                continue  # differential truncated at the cap boundary
            # differential then project == project then differential
            lhs = {}
            for k2, c in G.differential_of_key(key).items():
                for word, c2 in project({k2: Fraction(1)}).items():
                    lhs[word] = lhs.get(word, Fraction(0)) + c * c2
            rhs = {}
            for word, c in project({key: Fraction(1)}).items():
                for w2, c2 in E.differential_of_key(word).items():
                    rhs[w2] = rhs.get(w2, Fraction(0)) + c * c2
            assert {k: v for k, v in lhs.items() if v} \
                == {k: v for k, v in rhs.items() if v}, key
            checked += 1
        assert checked > 0

    def test_relation_classes_project_to_zero(self, GE, sullivan):
        G, E = GE
        table = E.table
        for kind in ("arrow_reversing", "arnold"):
            for el in relation_generators(kind, table,
                                          ("x", "x", "y")):
                assert to_bar_basis(el) == {}


class TestAHatInput:
    @pytest.mark.parametrize("make", [
        lambda A: harrison_shuffle_model(A, 3, 6),
        lambda A: build_L(dualize(A, 6), 3, 6),
    ], ids=["harrison", "L"])
    def test_bundle_without_cobracket_refused(self, sullivan, make):
        with pytest.raises(InvalidInput):
            build_A_hat(make(sullivan), 3)


# slot letters of both parities (xyz: x, y odd, z and x*z even), and of odd
# degree only over two generators (s2xs2) and one (cp2)
_SHUFFLE_CASES = {
    "xyz": "gen x deg 2\ngen y deg 2\ngen z deg 3\ndiff z = x*y\n",
    "s2xs2": "gen x deg 2\ngen y deg 2\nrel x^2 = 0\nrel y^2 = 0\n",
    "cp2": "gen x deg 2\nrel x^3 = 0\n",
}


def _oracle_bases(H):
    """{content: its basis words in the oracle's key order} over every
    content within the oracle's caps, an empty basis included."""
    def content_of(word):
        return tuple(sorted(word, key=H.table.sort_key))
    bases = {content_of(c): [] for c, _ in functors._contents(H.table,
                                                                *H.caps)}
    for w in H.key_bidegree:
        bases[content_of(w)].append(w)
    return bases


@pytest.mark.parametrize("name", list(_SHUFFLE_CASES))
def test_harrison_every_split_spans_the_same_quotient(name):
    """harrison_shuffle_model rewrites a word by one relation per word that
    is not super-Lyndon, lazily; an echelon fed with every split of every
    word of each content, columns in descending word order, has the basis
    words as its free columns and reduces every word to the same
    coordinates."""
    H = harrison_shuffle_model(parse_presentation(_SHUFFLE_CASES[name]), 6, 6)
    bases = _oracle_bases(H)
    assert bases
    for content, basis in bases.items():
        words = arrangements(content)[::-1]
        widx = {w: i for i, w in enumerate(words)}
        full = Echelon()
        for a in words:
            degs = [H.table.degree[x] for x in a]
            for k in range(1, len(a)):
                row = {}
                for src in _shuffles(k, len(a) - k):
                    j = widx[tuple(a[i] for i in src)]
                    row[j] = row.get(j, 0) + koszul_sign(degs, src)
                full.insert({j: v for j, v in row.items() if v})
        assert basis == [w for w in words if widx[w] not in full.rows][::-1]
        for w in words:
            _, residual = full.decompose({widx[w]: 1})
            want = {words[i]: c for i, c in residual.items()}
            assert functors._shuffle_reduce(H.table, w) == want, (content, w)


def test_lyndon_prefix_is_the_longest_lyndon_prefix():
    """Duval's first Chen-Fox-Lyndon factor against the definition, on every
    word of length <= 8 over 1 to 3 letters."""
    for n in range(1, 9):
        for word in itertools.product("abc", repeat=n):
            want = max(k for k in range(1, n + 1) if is_lyndon(word[:k]))
            assert functors._lyndon_prefix(word) == want, word


@pytest.mark.parametrize("seed", ["xyz", "s2xs2", "cp2", 0, 1, 2, 3, 4, 5])
def test_harrison_basis_is_the_super_lyndon_words(seed):
    """The oracle's basis of each content, read off its keys, is its
    super-Lyndon words in name order, by the generator and by definition, on
    the shuffle cases and on random presentations with odd slot letters."""
    if seed in _SHUFFLE_CASES:
        A = parse_presentation(_SHUFFLE_CASES[seed])
    else:
        A = random_presentation(random.Random(seed))
    H = harrison_shuffle_model(A, 6, 8)
    bases = _oracle_bases(H)
    assert bases
    for content, basis in bases.items():
        assert basis == super_lyndon_words(H.table, content, str) == [
            w for w in arrangements(content)
            if super_lyndon(w, H.table.degree)], content


def test_harrison_reduce_needs_no_recursion():
    """The rewriting keeps its own stack: this word reduces through a chain
    of eleven relations, which a recursive rewriting cannot follow within 12
    frames of the caller."""
    H = harrison_shuffle_model(parse_presentation(_SHUFFLE_CASES["xyz"]),
                               2, 2)
    word = tuple("yyyxxyyxxxxy")

    def frames_left(n=0):
        try:
            return frames_left(n + 1)
        except RecursionError:
            return n

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit - frames_left() + 12)
    try:
        coords = functors._shuffle_reduce(H.table, word)
    finally:
        sys.setrecursionlimit(limit)
    assert coords and all(super_lyndon(w, H.table.degree) for w in coords)


def test_harrison_wrong_pivot_names_the_content(monkeypatch):
    """Each relation's pivot is predicted, not searched for; a planted wrong
    split is an AssertionError naming the content and the word.  The oracle
    reduces only the words its differentials reach; at caps 8/8 those of
    cp2 include words that are not super-Lyndon."""
    monkeypatch.setattr(functors, "_lyndon_prefix",
                        lambda word: max(len(word) - 1, 1))
    with pytest.raises(AssertionError, match=r"shuffle relation of content "
                       r"\('x[^)]*\) does not lead with \('x[^)]*\)$"):
        harrison_shuffle_model(parse_presentation(_SHUFFLE_CASES["cp2"]), 8, 8)


def test_harrison_dimension_mismatch_names_the_content(monkeypatch):
    """The shuffle quotient's size per content is checked against the free
    Lie dimension; a planted wrong dimension is an AssertionError naming
    the content."""
    # cp2's slot letters are x and x*x, both odd; only ('x', 'x*x') has
    # multidegree (1, 1)
    true = graphcoalg._witt_dimension
    monkeypatch.setattr(graphcoalg, "_witt_dimension",
                        lambda m, o: true(m, o) + (m == (1, 1)))
    with pytest.raises(AssertionError,
                       match=r"shuffle quotient of content \('x', 'x\*x'\)"):
        harrison_shuffle_model(parse_presentation(_SHUFFLE_CASES["cp2"]), 6, 6)


_STORED = sorted(Path(__file__).resolve().parents[1].glob(
    "perfbench/inputs/*.alg"))


@pytest.mark.parametrize("source", [*_STORED, *range(50)],
                         ids=lambda s: getattr(s, "name", str(s)))
def test_predicted_keys_are_the_built_keys(source):
    """The letters counted per slot degree without listing a monomial are
    those of the listed alphabet, and the key count predicted from them and
    the caps is the number of keys build_E, the shuffle oracle and build_L
    on the dual coalgebra build, on every stored presentation and on the
    criterion-6 random presentations, at the caps of their stored jobs and
    at those of criterion 6."""
    if isinstance(source, Path):
        A, caps = parse_presentation(source.read_text()), [(9, 8), (9, 9)]
    else:
        rng = random.Random(20260823)
        for _ in range(source + 1):
            A = random_presentation(rng)
        caps = [(3, 8), (5, 9)]
    for cw, cd in caps:
        E = build_E(A, cw, cd)
        H = harrison_shuffle_model(A, cw, cd)
        L = build_L(dualize(A, cd), cw, cd)
        letters = functors._letter_degrees(A, cd)
        assert letters == Counter(E.table.degree.values()) \
            == Counter(L.table.degree.values())
        predicted = functors._predicted_keys(letters, cw, cd)
        assert predicted == len(E.key_bidegree) == len(H.key_bidegree) \
            == len(L.key_bidegree)


def _predicted_keys_in_fractions(letters, cap_weight, cap_degree):
    """_predicted_keys as it was computed in Fractions, with no budget:
    L(n, d) = W(n, d) / n - sum_k (-1)^((k + 1) d/k) L(n/k, d/k) / k."""
    words, dims = {(0, 0): 1}, {}
    for n in range(1, cap_weight + 1):
        for d in range(n, cap_degree + 1):
            w = sum(c * words.get((n - 1, d - e), 0)
                    for e, c in letters.items() if e <= d - n + 1)
            if w:
                words[n, d] = w
                dims[n, d] = Fraction(w, n) - sum(
                    Fraction((-1) ** ((k + 1) * (d // k))
                             * dims.get((n // k, d // k), 0), k)
                    for k in range(2, min(n, d) + 1)
                    if n % k == d % k == 0)
    assert all(x.denominator == 1 for x in dims.values())
    return int(sum(dims.values()))


@pytest.mark.parametrize("letters", [
    {1: 1}, {2: 1}, {3: 1}, {1: 2}, {2: 3}, {1: 1, 2: 1}, {2: 2, 3: 1},
    {1: 2, 2: 1, 3: 2}, {2: 3, 4: 2, 5: 1}, {1: 3, 3: 3, 6: 1}],
    ids=lambda letters: ",".join(f"{c}x{e}" for e, c in letters.items()))
def test_predicted_keys_match_the_fraction_formula(letters, monkeypatch):
    """The integer recurrence n L(n, d) = W(n, d) - sum_k ... gives the
    Fraction formula's key count on a grid of alphabets and caps."""
    monkeypatch.setattr(functors, "KEY_BUDGET", 10 ** 30)
    for cw in range(1, 13):
        for cd in range(cw, 17, 3):
            assert functors._predicted_keys(Counter(letters), cw, cd) \
                == _predicted_keys_in_fractions(letters, cw, cd), (cw, cd)


def test_key_budget_refuses_before_building(monkeypatch):
    """Past KEY_BUDGET keys build_E, build_G (which maps onto build_E's
    quotient, so has at least its keys), and build_L on the dual coalgebra,
    are refused with the predicted count and the budget, before any
    content's block or graph term is built."""
    A = parse_presentation(_SHUFFLE_CASES["xyz"])
    monkeypatch.setattr(functors, "canonical_term", None)  # build_G's terms
    with pytest.raises(CapExceeded, match=r"caps weight=3 degree=200 give "):
        build_G(A, 3, 200)
    monkeypatch.setattr(functors, "KEY_BUDGET", 979)
    with pytest.raises(CapExceeded, match=r"caps weight=9 degree=8 give at "
                       r"least 980 keys, over the budget of 979$"):
        build_E(A, 9, 8)
    assert len(build_E(A, 9, 7).key_bidegree) <= 979
    with pytest.raises(CapExceeded, match=r"caps weight=9 degree=8 give at "
                       r"least 980 keys, over the budget of 979$"):
        build_G(A, 9, 8)
    C = dualize(A, 8)
    monkeypatch.setattr(functors, "bar_quotient", None)
    with pytest.raises(CapExceeded, match=r"caps weight=9 degree=8 give at "
                       r"least 980 keys, over the budget of 979$"):
        build_L(C, 9, 8)


@pytest.mark.parametrize("name", list(_SHUFFLE_CASES))
def test_key_cobracket_matches_graph_cobracket(name):
    """build_E's key_cobracket deconcatenates its word and projects the
    factors as words.  The oracle is the graph route: the cobracket of the
    word's long graph, each factor projected through the graph iterated
    cobracket (to_bar_basis)."""
    E = build_E(parse_presentation(_SHUFFLE_CASES[name]), 7, 7)
    for word in E.key_bidegree:
        assert E.key_cobracket(word) == graph_key_cobracket(E.table, word), \
            word


class TestWordModel:
    def test_not_simply_connected_rejected(self):
        A = parse_presentation("gen s deg 1\n")
        with pytest.raises(NotSimplyConnected):
            build_E(A, 3, 5)

    def test_sphere_word_model_homology(self):
        # odd sphere: one class, no differential; homology concentrated there
        A = load_presentation("s3.alg")
        E = build_E(A, 8, 8)
        hom = E.homology((1, 6))
        assert hom == {1: 0, 2: 1, 3: 0, 4: 0, 5: 0, 6: 0}


class TestAHat:
    def test_cochain_homology_recovers_the_algebra(self, sullivan):
        # the composite of the two functors on the two-stage model has the
        # cohomology of a 2-sphere in the guaranteed range
        E = build_E(sullivan, 4, 7)
        AH = build_A_hat(E, 3)
        lo, hi = AH.complex.complete_degrees
        hom = AH.homology((lo + 1, hi - 1))
        expect = {d: (1 if d == 2 else 0) for d in range(lo + 1, hi)}
        assert hom == expect


class TestLieModels:
    def test_degree_two_codifferential_rejected(self):
        C = parse_presentation(
            "cogen u deg 2\ncogen v deg 3\ncodiff u = 0\n")
        C.codiff["u"] = [(Fraction(1), "v")]  # illegal: degree-2 class
        with pytest.raises((InvalidPresentation, InvalidInput)):
            build_L(C, 3, 6)

    def test_bracket_table_antisymmetrized(self):
        # a nonzero self-bracket needs an odd class
        L = LieAlgebraData([("v", 3), ("w", 6)], {("v", "v"): [(2, "w")]})
        assert L.bracket("v", "v") == [(Fraction(2), "w")]
        L2 = LieAlgebraData([("x", 2), ("y", 3), ("z", 5)],
                            {("x", "y"): [(1, "z")]})
        assert L2.bracket("y", "x") == [(Fraction(-1), "z")]
        with pytest.raises(InvalidInput):
            # even self-bracket must vanish by graded antisymmetry
            LieAlgebraData([("v", 2), ("w", 4)], {("v", "v"): [(2, "w")]})

    def test_bracket_degree_checked(self):
        with pytest.raises(InvalidInput):
            LieAlgebraData([("v", 2), ("w", 3)], {("v", "v"): [(1, "w")]})

    def test_chains_on_a_square_bracket(self):
        # [v, v] = 2w: d(sv sv) picks up the bracket exactly once per pair
        L = LieAlgebraData([("v", 3), ("w", 6)], {("v", "v"): [(2, "w")]})
        C = build_C(L, 3)
        key_vv = next(k for k in C.key_bidegree
                      if len(k) == 2 and k == (0, 0))
        d = C.differential_of_key(key_vv)
        (kw, coeff), = d.items()
        assert kw == (1,) and abs(coeff) == 2

    def test_heisenberg_validates(self):
        L = LieAlgebraData(
            [("x", 2), ("y", 3), ("z", 5)],
            {("x", "y"): [(1, "z")]})
        build_C(L, 3).complex.validate()

    def test_abelian_validates(self):
        L = LieAlgebraData([("x", 3), ("y", 5)])
        build_C(L, 4).complex.validate()

    def test_normal_forms_stay_within_the_weight_cap(self, monkeypatch):
        """build_L normalises no raw word past cap_weight: its words would
        all be dropped, and past LIE_CAP the normal form refuses them."""
        weights = []

        def recording(el):
            weights.extend(len(tree_leaves(t)) for t in el.terms)
            return lie_normal_form(el)

        monkeypatch.setattr(functors, "lie_normal_form", recording)
        build_L(load_presentation("cp2.coalg"), 8, 16)
        assert weights and max(weights) <= 8


class TestDuality:
    def test_transpose_mismatch_detected(self):
        A = load_presentation("cp2.alg")
        C = load_presentation("s2.coalg")
        with pytest.raises(NotDual):
            check_duality(A, C, 3, 6)

    def test_dualize_transposes_multiplication(self):
        A = load_presentation("cp2.alg")
        C = dualize(A, 8)
        assert (Fraction(1), "x", "x") in C.coprod["x*x"]

    def test_adjoint_signs_recorded(self):
        A = load_presentation("s2.alg")
        C = load_presentation("s2.coalg")
        rep = check_duality(A, C, 4, 8)
        assert rep.passed
        assert all(s in (1, -1) for s in rep.signs.values())

    @staticmethod
    def patch(monkeypatch, builder, drop=(), dh=None):
        """Make functors.<builder> drop the basis keys in drop and replace
        the horizontal differential of the keys in dh."""
        real = getattr(functors, builder)

        def build(P, cap_weight, cap_degree):
            B = real(P, cap_weight, cap_degree)
            B.key_bidegree = {k: bd for k, bd in B.key_bidegree.items()
                              if k not in drop}
            B.dh_of_key = {**B.dh_of_key, **(dh or {})}
            return B
        monkeypatch.setattr(functors, builder, build)

    def cp2_report(self, caps):
        return check_duality(load_presentation("cp2.alg"),
                             load_presentation("cp2.coalg"), *caps)

    def test_dimension_mismatch(self, monkeypatch):
        self.patch(monkeypatch, "build_E", drop={("x",)})
        rep = self.cp2_report((4, 8))
        assert not rep.passed and rep.violations == [
            "dimension mismatch at (weight, degree)=(1, 1): 0 vs 1"]
        assert rep.bidegrees[(1, 1)] == (0, 1)

    def test_singular_pairing_matrix(self, monkeypatch):
        # at (5, 9) both models have the keys x x x x*x x*x and x x x*x x x*x
        # and the pairing matrix is the identity; dropping the first E key
        # and the second L key leaves its zero entry
        self.patch(monkeypatch, "build_E",
                   drop={("x", "x", "x", "x*x", "x*x")})
        self.patch(monkeypatch, "build_L",
                   drop={("x", "x", "x*x", "x", "x*x")})
        rep = self.cp2_report((6, 12))
        assert rep.violations == ["pairing matrix singular at (5, 9)"]

    @pytest.mark.parametrize("coeff, message", [
        (0, "adjointness fails at (2, 2): <dh ('x', 'x'), ('x*x',)> = 0, "
            "<('x', 'x'), dh ('x*x',)> = 1"),
        (2, "adjointness ratio 2 at (2, 2) for (('x', 'x'), ('x*x',))"),
    ], ids=["zeroed", "doubled"])
    def test_adjointness_broken(self, monkeypatch, coeff, message):
        # dh (x|x) = (x*x) is the only term of <dh (x|x), (x*x)>
        self.patch(monkeypatch, "build_E",
                   dh={("x", "x"): {("x*x",): Fraction(coeff)}})
        rep = self.cp2_report((4, 8))
        assert rep.violations == [message]

    def test_inconsistent_adjoint_sign(self, monkeypatch):
        # flipping dh of the second word at (6, 10) flips the first nonzero
        # adjoint pair there, so the two pairs of the third word disagree
        x2, x3 = ("x", "x", "x", "x*x", "x", "x*x"), \
            ("x", "x", "x*x", "x", "x", "x*x")
        self.patch(monkeypatch, "build_E",
                   dh={x2: {("x", "x*x", "x", "x*x", "x*x"): Fraction(-1)}})
        rep = self.cp2_report((6, 12))
        y0, y1 = ("x", "x", "x*x", "x*x", "x*x"), \
            ("x", "x*x", "x", "x*x", "x*x")
        assert rep.violations == [
            f"inconsistent adjoint sign at (6, 10) for ({x3}, {y0})",
            f"inconsistent adjoint sign at (6, 10) for ({x3}, {y1})"]
        assert rep.signs[(6, 10)] == -1

    def test_each_pair_computed_once(self, monkeypatch):
        calls = []

        def counting(g, t):
            calls.append((frozenset(g.terms.items()),
                          frozenset(t.terms.items())))
            return element_pair(g, t)
        monkeypatch.setattr(functors, "element_pair", counting)
        rep = self.cp2_report((6, 12))
        assert rep.passed
        # one call per (bar word, key) of each square pairing matrix
        assert len(calls) == len(set(calls)) == sum(
            de * dl for de, dl in rep.bidegrees.values()) == 38


def _build_G_digest(bundles):
    """sha256 over the key order and both differentials of build_G bundles;
    coefficients compared as rationals, whatever their type."""
    h = hashlib.sha256()
    for bundle in bundles:
        h.update(repr(list(bundle.key_bidegree.items())).encode())
        for d in (bundle.dv_of_key, bundle.dh_of_key):
            h.update(repr(sorted(
                (k, sorted((k2, str(Fraction(c))) for k2, c in col.items()))
                for k, col in d.items())).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name, digest", [
    ("s2.alg",
     "127509c387dcffad509d73c80277a42e9f1bd2ff186d3ce2e045d2bd13d25126"),
    ("s3.alg",
     "0e873d8b388246bcc54395de81e06e0e746638361a6e61015d6c854106c80b23"),
    ("cp2.alg",
     "67d450dc82668e1336823085972b17590e99e8ad2d6477d30364ec20db2dc3d9"),
    ("sullivan_s2.alg",
     "ae7237fd5a9aa62b2a9fa5b30898f53acdd6528bc8fdfd3dc179fc3c78d6cccf"),
], ids=["s2.alg", "s3.alg", "cp2.alg", "sullivan_s2.alg"])
def test_build_G_pinned_on_fixtures(name, digest):
    """build_G's keys and differentials at caps 4/8, over the tree-code
    canonical forms (re-pinned when they replaced the least relabelings,
    with every piece's dimension and every filtered rank unchanged)."""
    assert _build_G_digest([build_G(load_presentation(name), 4, 8)]) == digest


def test_build_G_pinned_on_random_presentations():
    """build_G at caps 3/8 on the first 20 criterion-6 presentations."""
    rng = random.Random(20260823)
    bundles = [build_G(random_presentation(rng), 3, 8) for _ in range(20)]
    assert _build_G_digest(bundles) == (
        "59a6ce0ef83bfdc43c21a6b940fe8d50122a22f4df236147de26c529b0ab3756")


def test_build_G_shapes_are_the_oriented_trees(monkeypatch):
    """On one even slot letter each shape is one key: 1, 1, 3, 8, 27 and
    91 in weights 1-6, the oriented trees (OEIS A000238).  The shapes are
    grown a leaf at a time, so a plan is computed only for a shape of
    weight w - 1 with a leaf added, 2 (w - 1) of them per shape.  Weight 7
    is past ENUMERATION_CAP: a CapExceeded before any of its orders or
    shapes is listed."""
    A = parse_presentation("gen x deg 3\n")
    grown = []
    monkeypatch.setattr(functors, "_canonical_plan",
                        lambda n, edges: grown.append(n)
                        or shapes._canonical_plan(n, edges))
    G = build_G(A, 6, 12)
    counts = Counter(w for w, _ in G.key_bidegree.values())
    assert [counts[w] for w in range(1, 7)] == [1, 1, 3, 8, 27, 91]
    assert Counter(grown) == {w: 2 * (w - 1) * counts[w - 1]
                              for w in range(2, 7)}

    def orders(content):
        assert len(content) <= 6, f"orders of {content} listed"
        return itertools.permutations(content)

    monkeypatch.setattr(functors, "permutations", orders)
    grown.clear()
    with pytest.raises(CapExceeded, match="graph model enumeration capped "
                                          "at n <= 6"):
        build_G(A, 7, 14)
    assert 7 not in grown


def test_build_G_at_weight_6_and_criterion_10():
    """build_G(cp2.alg, 6, 12) over the tree-code canonical forms (re-pinned
    with them; a signed bijection of keys maps the complex first recorded,
    each shape then found by the plan of every labelled graph, onto this
    one); on it the canonical twisting function passes, and a perturbed one
    fails with a witness."""
    A = load_presentation("cp2.alg")
    G = build_G(A, 6, 12)
    assert _build_G_digest([G]) == (
        "1c1cc9f62d65085891c6edb919e378e63966556470a912b0356d911671c2f7c0")
    tau = canonical_twisting_function(G)
    assert check_twisting(tau, G, A).passed
    key = next(k for k in tau if tau[k])
    bad = {**tau, key: {m: 2 * c for m, c in tau[key].items()}}
    rep = check_twisting(bad, G, A)
    assert not rep.passed and rep.witness is not None


class TestTwisting:
    def test_degree_mismatch_rejected(self, GE, sullivan):
        G, _ = GE
        tau = canonical_twisting_function(G)
        key = next(iter(tau))
        bad = dict(tau)
        bad[key] = {("x", "x", "x"): Fraction(1)}
        with pytest.raises(DegreeMismatch):
            check_twisting(bad, G, sullivan)

    def test_unknown_key_rejected(self, GE, sullivan):
        G, _ = GE
        tau = canonical_twisting_function(G)
        tau[("bogus",)] = {}
        with pytest.raises(InvalidInput):
            check_twisting(tau, G, sullivan)


class TestRationalHomotopy:
    def test_insufficient_caps_refused(self):
        A = load_presentation("s2.alg")
        with pytest.raises(CapTooSmall):
            rational_homotopy(A, (2, 8), cap_weight=3, cap_degree=4)

    def test_oracle_agreement_on_random_presentations(self):
        rng = random.Random(99)
        for _ in range(3):
            A = random_presentation(rng)
            pi = rational_homotopy(A, (2, 4), oracle=True)
            assert set(pi) == {2, 3, 4}

    def test_window_shift(self):
        # the degree-d group is the degree d-1 homology of the word model
        A = load_presentation("s3.alg")
        pi = rational_homotopy(A, (2, 6))
        E = build_E(A, 7, 6)
        hom = E.homology((1, 5))
        assert pi == {d: hom[d - 1] for d in range(2, 7)}
