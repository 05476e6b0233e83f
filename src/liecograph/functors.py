"""Builders turning algebra/coalgebra presentations into bigraded complexes.

From a commutative algebra presentation A:
  build_G   — graph words on the desuspended monomial basis, with the
              edge-contraction differential and the slot-wise internal one;
  build_E   — its Lie-coalgebra quotient realized directly on bar-word
              coordinates (the super-Lyndon words of each content);
  harrison_shuffle_model — an independent realization of the same quotient:
              all words modulo the shuffle subspace (the homology oracle).
All three refuse, before building, caps whose predicted key count (that of
build_E, a lower bound for build_G) passes KEY_BUDGET.

From either of those, build_A_hat gives the free graded-commutative algebra
on the suspended basis with the cobracket-splitting differential.

From a coalgebra presentation C, build_L gives the free Lie algebra on the
desuspended basis with the coproduct-splitting differential; from finite Lie
algebra data, build_C gives the cofree word model with the bracket-merging
differential.

All six builders share one skeleton.  A builder lists its basis keys in
order with their (w, d) pieces and says how to differentiate one key;
`_bundle` collects the two differentials as key-indexed columns into a
BigradedComplex, which groups the keys into pieces and checks that every
differential term lands in its target piece.
Every internal differential, and the letter-splitting differentials of
build_A_hat and build_L, is a map on letters extended slot by slot with the
Koszul sign (elements._slotwise); the structure terms (edge contraction,
adjacent product, bracket merge) are each builder's own.  build_A_hat and
build_C sort raw words into graded-commutative basis words through one
emitter (`_sorted_emitter`, on elements.graded_sort).

check_duality, check_twisting, rational_homotopy and spectral-sequence
reporting sit on top.
"""

from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from math import gcd

from .errors import (
    CapExceeded,
    DegreeMismatch,
    InvalidInput,
    InvalidPresentation,
    NotDual,
    NotSimplyConnected,
)
from .linalg import (
    BigradedComplex,
    SparseMatrix,
    add_into,
    total_homology,
)
from .shapes import (
    SGraph,
    _canonical_perms,
    contract_edge,
    enumerate_graphs,
    tree_leaves,
    tree_relabel,
)
from .elements import (GeneratorTable, GraphElement, TreeElement,
                       _slotwise, canonical_term, graded_sort, koszul_sign,
                       tree_term_shape)
from .graphcoalg import (
    _certify_dimension,
    _signed_shuffles,
    _standard_bracketing,
    _word_coordinates,
    bar_quotient,
    cobracket,
    graphify,
    super_lyndon_words,
)
from .liealg import lie_normal_form
from .pairing import element_pair
from .presentations import DgccPresentation, multisets

__all__ = [
    "DgComplexBundle",
    "LieAlgebraData",
    "build_G",
    "build_E",
    "build_A_hat",
    "build_L",
    "build_C",
    "harrison_shuffle_model",
    "check_duality",
    "check_twisting",
    "canonical_twisting_function",
    "rational_homotopy",
    "dualize",
    "DualityReport",
    "TwistingReport",
]


def _mono_name(m):
    return "*".join(m)


class DgComplexBundle:
    """A truncated bigraded complex with named basis keys.

    kind: E_of_A | G_of_A | A_of_E | L_of_C | C_of_L | harrison.
    key_bidegree maps each basis key to its (w, d) piece; dv_of_key /
    dh_of_key give the two differentials as key-indexed sparse columns.  All
    three are the complex's own dicts (BigradedComplex holds the only copy).

    The remaining fields are None unless the builder named sets them:
      table           GeneratorTable the keys are written in: the
                      desuspended monomials (build_G, build_E,
                      harrison_shuffle_model) or the desuspended coalgebra
                      classes (build_L);
      monomial_of     slot name -> monomial of A (build_G, build_E,
                      harrison_shuffle_model);
      key_cobracket   key -> {(key1, key2): coeff}, the cobracket of one basis
                      key (build_G, build_E); build_A_hat needs it.
    build_E's classes of GraphElements over its table are read with
    graphcoalg.to_bar_basis, from the same bar_quotient memo as build_E;
    build_L has the same keys (liealg.LieElement).  No memo of a table
    refers back to it, so a dropped bundle frees its table and caches
    without waiting for the cycle collector."""

    def __init__(self, kind, complex, caps, table=None, monomial_of=None,
                 key_cobracket=None):
        self.kind = kind
        self.complex = complex
        self.caps = caps
        self.key_bidegree = complex.key_bidegree
        self.dv_of_key = complex.dv
        self.dh_of_key = complex.dh
        self.table = table
        self.monomial_of = monomial_of
        self.key_cobracket = key_cobracket

    def dims(self):
        return {bd: len(keys) for bd, keys in self.complex.pieces.items()}

    def differential_of_key(self, key):
        out = dict(self.dv_of_key.get(key, ()))
        for k, v in self.dh_of_key.get(key, {}).items():
            add_into(out, k, v)
        return out

    def homology(self, window):
        return total_homology(self.complex, window)

    def __repr__(self):
        return (f"DgComplexBundle(kind={self.kind}, "
                f"pieces={len(self.complex.pieces)})")


# ---------------------------------------------------------------------------
# the shared skeleton: assembler, slot-wise derivation, sorted-word emitter

def _bundle(kind, caps, key_bidegree, differential, complete, table=None,
            monomial_of=None, key_cobracket=None):
    """Bundle of the complex on the ordered basis key_bidegree (key ->
    (w, d)); differential(key, (w, d)) returns (dv, dh), two {key: coeff}
    dicts landing in (w, d + 1) and (w - 1, d + 1)."""
    dv_of_key, dh_of_key = {}, {}
    for key, bd in key_bidegree.items():
        dv, dh = differential(key, bd)
        if dv:
            dv_of_key[key] = dv
        if dh:
            dh_of_key[key] = dh
    cx = BigradedComplex(key_bidegree, dv_of_key, dh_of_key, complete)
    return DgComplexBundle(kind, cx, caps, table=table,
                           monomial_of=monomial_of,
                           key_cobracket=key_cobracket)


def _sorted_emitter(sdeg, keys, degree_hi):
    """emit(acc, raw letter indices, coeff) accumulates coeff times the
    graded_sort of raw by index into acc.  A word missing from keys must lie
    beyond total degree degree_hi (it was cut by the caps)."""
    letters = range(len(sdeg))

    def emit(acc, raw, coeff):
        w2, sgn = graded_sort(raw, sdeg, letters)
        if sgn and coeff:
            if w2 not in keys:
                assert sum(sdeg[i] for i in w2) > degree_hi, (
                    f"word {w2} missing inside the complete range")
                return
            add_into(acc, w2, coeff * sgn)
    return emit


# ---------------------------------------------------------------------------
# caps, monomial slot alphabets and contents

def _caps(P, cap_weight, cap_degree):
    return (cap_weight if cap_weight is not None else P.cap_weight,
            cap_degree if cap_degree is not None else P.cap_degree)


def _slot_alphabet(A, cap_degree, cap_weight=None):
    """GeneratorTable of A's basis monomials with slot degree = degree - 1,
    the name -> monomial map, A's differential as a letter map for _slotwise
    (with the internal differential's extra minus sign) and its product as
    a map letter pair -> (letter, sign or 0).  Given cap_weight, the word
    models' keys are first counted from the letters' degrees, so caps past
    KEY_BUDGET are refused before a monomial is listed (_predicted_keys)."""
    if not A.is_simply_connected():
        raise NotSimplyConnected(
            "input algebra must be generated in degrees >= 2")
    if cap_weight is not None:
        _predicted_keys(_letter_degrees(A, cap_degree), cap_weight,
                        cap_degree)
    monos = A.monomials(cap_degree + 1)
    table = GeneratorTable(
        [(_mono_name(m), A.monomial_degree(m) - 1) for m in monos])
    mono_of = {_mono_name(m): m for m in monos}

    @cache
    def d_letter(name):
        return [((_mono_name(m2),), -c) for m2, c in
                A.differential_of_monomial(mono_of[name]).items()]

    @cache
    def multiply(x, y):
        prod, sign = A.multiply(mono_of[x], mono_of[y])
        return _mono_name(prod), sign
    return table, mono_of, d_letter, multiply


def _letter_degrees(A, cap_degree):
    """{slot degree: number of letters} of _slot_alphabet(A, cap_degree),
    counted from the generators' degrees and power caps alone."""
    return {d - 1: c for d, c in enumerate(A.monomial_counts(cap_degree + 1))
            if c}


def _contents(table, cap_weight, cap_degree):
    """(content, (size, total slot degree)) for the multisets of slot names
    within the caps."""
    return [(c, (len(c), sum(table.degree[x] for x in c)))
            for c in multisets(table.names, table.degree, cap_degree,
                               cap_weight)]


# most keys build_E or the shuffle oracle may build: pi costs 0.15-0.3 ms and
# under 10 KB a key on a 2-vCPU host (xyz.alg at 2..11: 16 679 keys, 2.5 s,
# 109 MB; at 2..12: 43 692 keys, 12 s, 378 MB)
KEY_BUDGET = 50_000


def _predicted_keys(letters, cap_weight, cap_degree):
    """The number of keys of build_E and of the shuffle oracle within the
    caps, on an alphabet with letters[e] letters of slot degree e: the sum
    of the free Lie dimensions of the contents, found without listing a
    content; CapExceeded as soon as the sum passes KEY_BUDGET.
    Summed over the contents of n letters and total slot degree d,
    _witt_dimension's formula gives the bigraded dimensions
        L(n, d) = W(n, d) / n - sum_{k > 1 dividing n and d}
                                (-1)^((k + 1) d/k) L(n/k, d/k) / k,
    W(n, d) the number of words of n letters and total degree d (a content
    of odd total degree has an odd number of odd letters)."""
    letters = sorted(letters.items())
    degrees = [e for e, _ in letters]
    words, dims, total = {(0, 0): 1}, {}, 0
    for n in range(1, cap_weight + 1):
        for d in range(n, cap_degree + 1):
            # the last letter leaves n - 1 letters of degree >= n - 1
            last = letters[:bisect_right(degrees, d - n + 1)]
            w = sum(c * words.get((n - 1, d - e), 0) for e, c in last)
            if not w:
                continue  # no content, no keys
            words[n, d] = w
            dim = Fraction(w, n) - sum(
                Fraction((-1) ** ((k + 1) * (d // k))
                         * dims.get((n // k, d // k), 0), k)
                for k in range(2, gcd(n, d) + 1) if n % k == d % k == 0)
            dims[n, d] = int(dim)
            total += dims[n, d]
            if total > KEY_BUDGET:
                raise CapExceeded(
                    f"caps weight={cap_weight} degree={cap_degree} give at "
                    f"least {total} keys, over the budget of {KEY_BUDGET}")
    return total


# ---------------------------------------------------------------------------
# the bar-word complex (shared with the Harrison oracle) and build_E

def _bar_model(kind, caps, alphabet, basis_of, project_word,
               key_cobracket=None):
    """Bundle of A's bar-word complex on a quotient of the words over the slot
    alphabet.  basis_of(content) lists the basis words of one content and
    project_word(raw, coeff, acc) accumulates coeff * (class of the raw word)
    in basis coordinates; pieces (w, d) = (word length, total slot degree),
    vertical = slot-wise internal differential, horizontal = the
    adjacent-slot multiplication differential."""
    cw, cd = caps
    table, mono_of, d_letter, multiply = alphabet
    key_bidegree = {word: bd for content, bd in _contents(table, cw, cd)
                    for word in basis_of(content)}

    def differential(word, bd):
        dv, dh = {}, {}
        if bd[1] >= cd:
            return dv, dh  # target pieces beyond caps
        for raw, c in _slotwise(word, table.degree, d_letter):
            project_word(raw, c, dv)
        for i in range(len(word) - 1):
            prod, ps = multiply(word[i], word[i + 1])
            if ps:
                sgn = -ps * (-1) ** sum(table.degree[x] for x in word[:i + 1])
                project_word(word[:i] + (prod,) + word[i + 2:], sgn, dh)
        return dv, dh

    return _bundle(kind, caps, key_bidegree, differential, (0, min(cw, cd)),
                   table=table, monomial_of=mono_of,
                   key_cobracket=key_cobracket)


def build_E(A, cap_weight=None, cap_degree=None):
    """Lie-coalgebra model of a commutative algebra presentation, realized on
    the super-Lyndon words of each content in table order (see _bar_model
    for the bigrading and the differentials).  Every raw word and cobracket
    factor is put in that basis by the content's pairing block
    (graphcoalg.bar_quotient): its pairings with the standard bracketings,
    solved by one back substitution in the block's unitriangular matrix; no
    word is turned into a graph.  Caps past KEY_BUDGET keys are refused
    before anything is built.  The key cobracket is the signed
    deconcatenation of the word, checked in the tests against the graph
    cobracket of its long graph."""
    cw, cd = _caps(A, cap_weight, cap_degree)
    alphabet = _slot_alphabet(A, cd, cw)
    table = alphabet[0]

    def project_word(raw, coeff, acc):
        for w, c in _word_coordinates(table, raw).items():
            add_into(acc, w, coeff * c)

    def key_cobracket(word):
        """Cutting edge i of the long graph on word leaves prefix (x) suffix
        and, with the Koszul sign of the swap, suffix (x) prefix."""
        out = {}
        n = len(word)
        degs = table.degrees_of(word)
        for i in range(1, n):
            kappa = koszul_sign(degs, [*range(i, n), *range(i)])
            p1 = _word_coordinates(table, word[:i])
            p2 = _word_coordinates(table, word[i:])
            for w1, c1 in p1.items():
                for w2, c2 in p2.items():
                    c = c1 * c2
                    add_into(out, (w1, w2), c)
                    add_into(out, (w2, w1), -kappa * c)
        return out

    return _bar_model(
        "E_of_A", (cw, cd), alphabet,
        lambda content: bar_quotient(table, content).basis, project_word,
        key_cobracket=key_cobracket)


# ---------------------------------------------------------------------------
# build_G

def build_G(A, cap_weight=None, cap_degree=None):
    """Graph-coalgebra model: canonical graph terms (elements.canonical_term)
    labeled by desuspended monomials; horizontal differential contracts edges
    (multiplying labels), vertical applies the internal differential.
    G maps onto build_E's quotient, so build_E's predicted key count is a
    lower bound on G's, and caps whose count passes KEY_BUDGET are refused
    before a monomial is listed."""
    cw, cd = _caps(A, cap_weight, cap_degree)
    table, mono_of, d_letter, multiply = _slot_alphabet(A, cd, cw)

    @cache
    def canonical_shapes(w):  # one representative per relabeling orbit
        return [G.edges for G in enumerate_graphs(w)
                if _canonical_perms(w, G.edges)[0] == G.edges]

    key_bidegree = {}
    for content, (w, d) in _contents(table, cw, cd):
        # first: it refuses w past ENUMERATION_CAP before w! orders are listed
        shapes = canonical_shapes(w)
        arrangements = set(permutations(content))
        terms = (canonical_term(table, w, edges, labels)
                 for edges in shapes for labels in arrangements)
        for k in sorted({key for key, sign in terms if sign}):
            key_bidegree[k] = (w, d)

    @cache
    def contractions(n, edges):
        """Per edge (s, t), 0-based: s, t, the contracted edges, the slot
        order moving t right after s, and the slots up to s in it."""
        plans = []
        for e, (s, t) in enumerate(edges):
            order = [v for v in range(n) if v != t - 1]
            pos = order.index(s - 1) + 1
            order.insert(pos, t - 1)
            plans.append((s - 1, t - 1, contract_edge(
                SGraph._presorted(n, edges), e)[0].edges, order, order[:pos]))
        return plans

    def differential(key, bd):
        dv, dh = {}, {}
        if bd[1] >= cd:
            return dv, dh
        (n, edges), labels = key
        for raw, c in _slotwise(labels, table.degree, d_letter):
            k2, sign = canonical_term(table, n, edges, raw)
            if sign:
                add_into(dv, k2, c * sign)
        sdegs = table.degrees_of(labels)
        for s, t, contracted, order, prefix in contractions(n, edges):
            prod, ps = multiply(labels[s], labels[t])
            if not ps:
                continue
            # slot t moved right after slot s, then the two merged
            sgn = -ps * koszul_sign(sdegs, order) * (
                (-1) ** sum(sdegs[v] for v in prefix))
            merged = tuple(prod if v == s else x
                           for v, x in enumerate(labels) if v != t)
            k2, sign = canonical_term(table, n - 1, contracted, merged)
            if sign:
                add_into(dh, k2, sgn * sign)
        return dv, dh

    def key_cobracket(key):
        return dict(cobracket(GraphElement(table, {key: 1})).terms)

    return _bundle("G_of_A", (cw, cd), key_bidegree, differential,
                   (0, min(cw, cd)), table=table, monomial_of=mono_of,
                   key_cobracket=key_cobracket)


# ---------------------------------------------------------------------------
# build_A_hat

def build_A_hat(G, cap_letters=3, cap_degree=None):
    """Free graded-commutative algebra on the suspended basis of a graph or
    bar-word bundle; horizontal differential splits a letter along the
    cobracket, vertical extends the bundle's total differential."""
    if not isinstance(G, DgComplexBundle) or G.key_cobracket is None:
        raise InvalidInput(
            "build_A_hat needs a bundle with cobracket support "
            "(output of build_G or build_E)")
    inner_hi = G.complex.complete_degrees[1]
    if cap_degree is None:
        cap_degree = inner_hi + 1
    letters = sorted(G.key_bidegree, key=lambda k: (G.key_bidegree[k], str(k)))
    index = {k: i for i, k in enumerate(letters)}
    sdeg = [G.key_bidegree[k][1] + 1 for k in letters]
    K = cap_letters + 1
    odd = {i: 1 for i, s in enumerate(sdeg) if s % 2}
    key_bidegree = {
        word: (K - len(word), sum(sdeg[i] for i in word))
        for word in multisets(range(len(letters)), sdeg, cap_degree,
                              cap_letters, odd)}
    complete = (0, min(cap_degree, inner_hi, 2 * cap_letters + 1))
    emit = _sorted_emitter(sdeg, key_bidegree, complete[1])

    @cache
    def d_letter(i):
        return [((index[k2],), -c)
                for k2, c in G.differential_of_key(letters[i]).items()]

    @cache
    def split(i):
        return [((index[k1], index[k2]),
                 Fraction(1, 2) * (-1) ** G.key_bidegree[k1][1] * c)
                for (k1, k2), c in G.key_cobracket(letters[i]).items()]

    def differential(word, bd):
        dv, dh = {}, {}
        for raw, c in _slotwise(word, sdeg, d_letter):
            emit(dv, raw, c)
        for raw, c in _slotwise(word, sdeg, split):
            emit(dh, raw, c)
        return dv, dh

    return _bundle("A_of_E", (cap_letters, cap_degree), key_bidegree,
                   differential, complete)


# ---------------------------------------------------------------------------
# build_L

def build_L(C, cap_weight=None, cap_degree=None):
    """Free Lie algebra on the desuspended coalgebra basis, on the standard
    bracketings P(l) keyed by the super-Lyndon words l, build_E's keys.  The
    horizontal differential splits a letter along the reduced coproduct, the
    vertical one applies the internal differential, each slot by slot into
    the leaves of P(l), put in normal form by lie_normal_form.  Caps past
    KEY_BUDGET keys are refused before a content is listed.

    Degrees are re-indexed so both differentials raise the index by one:
    piece (K - word length, OFF - natural degree) with K = cap_weight + 1,
    OFF = cap_degree + 1."""
    cw, cd = _caps(C, cap_weight, cap_degree)
    for name in C.class_names:
        if C.class_degree[name] < 2:
            raise NotSimplyConnected(
                f"coalgebra class {name!r} has degree < 2")
        if C.class_degree[name] == 2 and C.codiff.get(name):
            raise InvalidPresentation(
                f"differential of degree-2 class {name!r} must vanish")
    table = GeneratorTable(
        [(name, C.class_degree[name] - 1) for name in C.class_names])
    _predicted_keys(Counter(table.degree.values()), cw, cd)
    K = cw + 1
    OFF = cd + 1

    key_bidegree = {}
    for content, (k, nat) in _contents(table, cw, cd):
        for w in bar_quotient(table, content).basis:
            key_bidegree[w] = (K - k, OFF - nat)

    def normalize(shape, raws):
        """Normal form of the sum of coeff * (shape, raw's entries as leaves)
        over raws.  A raw past the caps is skipped (a split slot holds a
        pair: raw has more letters than slots)."""
        trees = {}
        for raw, coeff in raws:
            tree = tree_relabel(shape, (None, *raw))
            letters = tree_leaves(tree)
            if len(letters) <= cw and sum(table.degrees_of(letters)) <= cd:
                add_into(trees, tree, coeff)
        out = lie_normal_form(TreeElement(table, trees)).terms
        assert key_bidegree.keys() >= out.keys(), "basis word past the caps"
        return out

    def d_letter(name):
        return [((a,), -c) for c, a in C.codiff.get(name, ())]

    def split(name):
        return [(((a, b),), Fraction(1, 2) * (-1) ** C.class_degree[a] * c)
                for c, a, b in C.coprod.get(name, ())]

    def differential(word, bd):
        shape = tree_term_shape(_standard_bracketing(table, word))
        return [normalize(shape, _slotwise(word, table.degree, f))
                for f in (d_letter, split)]

    complete_nat_hi = min(cw, cd)  # natural degrees fully enumerated
    return _bundle("L_of_C", (cw, cd), key_bidegree, differential,
                   (OFF - complete_nat_hi, OFF - 1), table=table)


# ---------------------------------------------------------------------------
# build_C

class LieAlgebraData:
    """Finite graded Lie algebra data: named classes with degrees, a bracket
    table {(a, b): [(coeff, name), ...]} (closed under graded antisymmetry),
    and an optional differential {name: [(coeff, name), ...]} of degree -1."""

    def __init__(self, classes, brackets=None, differentials=None):
        self.class_names = [n for n, _ in classes]
        self.class_degree = dict(classes)
        if len(self.class_degree) != len(classes):
            raise InvalidInput("duplicate class names")
        self.brackets = {}
        for (a, b), terms in (brackets or {}).items():
            self._set_bracket(a, b, [(Fraction(c), n) for c, n in terms if c])
        self.differentials = {
            n: [(Fraction(c), m) for c, m in terms if c]
            for n, terms in (differentials or {}).items()}
        self._validate()

    def _set_bracket(self, a, b, terms):
        self.brackets[(a, b)] = terms
        flip = -((-1) ** (self.class_degree[a] * self.class_degree[b]))
        flipped = [(flip * c, n) for c, n in terms]
        if (b, a) in self.brackets and self.brackets[(b, a)] != flipped:
            raise InvalidInput(f"bracket table not antisymmetric on {a},{b}")
        self.brackets[(b, a)] = flipped

    def bracket(self, a, b):
        return self.brackets.get((a, b), [])

    def _validate(self):
        for (a, b), terms in self.brackets.items():
            want = self.class_degree[a] + self.class_degree[b]
            for _, n in terms:
                if self.class_degree[n] != want:
                    raise InvalidInput(
                        f"bracket [{a},{b}] target {n} has wrong degree")
        for n, terms in self.differentials.items():
            for _, m in terms:
                if self.class_degree[m] != self.class_degree[n] - 1:
                    raise InvalidInput(
                        f"differential {n} -> {m} is not degree -1")


def build_C(L, cap_weight=None, cap_degree=None):
    """Cofree cocommutative word model on the suspended Lie algebra basis;
    horizontal differential merges a pair of letters along the bracket,
    vertical applies the internal differential slot-wise.

    Degrees re-indexed as in build_L: piece (word length, OFF - natural)."""
    if not isinstance(L, LieAlgebraData):
        raise InvalidInput("build_C needs LieAlgebraData")
    cw = cap_weight if cap_weight is not None else 3
    names = L.class_names
    sdeg = [L.class_degree[n] + 1 for n in names]
    if cap_degree is None:
        cap_degree = cw * max(sdeg, default=1)
    OFF = cap_degree + 1

    odd = {i: 1 for i, s in enumerate(sdeg) if s % 2}
    key_bidegree = {
        word: (len(word), OFF - sum(sdeg[i] for i in word))
        for word in multisets(range(len(names)), sdeg, cap_degree, cw, odd)}
    emit = _sorted_emitter(sdeg, key_bidegree, cap_degree)

    def d_letter(i):
        return [((names.index(m),), -c)
                for c, m in L.differentials.get(names[i], ())]

    def differential(word, bd):
        dv, dh = {}, {}
        for raw, c in _slotwise(word, sdeg, d_letter):
            emit(dv, raw, c)
        for p, q in combinations(range(len(word)), 2):
            vp, vq = names[word[p]], names[word[q]]
            terms = L.bracket(vp, vq)
            if not terms:
                continue
            crossing = sum(sdeg[word[l]] for l in range(p + 1, q))
            sign = ((-1) ** sum(sdeg[word[l]] for l in range(p))
                    ) * ((-1) ** (sdeg[word[q]] * crossing)
                    ) * ((-1) ** L.class_degree[vp])
            for c, m in terms:
                raw = (word[:p] + (names.index(m),) + word[p + 1:q]
                       + word[q + 1:])
                emit(dh, raw, sign * c)
        return dv, dh

    return _bundle("C_of_L", (cw, cap_degree), key_bidegree, differential,
                   (OFF - cap_degree, OFF - 1))


# ---------------------------------------------------------------------------
# Harrison shuffle oracle

def _lyndon_prefix(word):
    """Length of the first factor of word's Chen-Fox-Lyndon factorisation,
    its longest Lyndon prefix (Duval 1983)."""
    i, j = 0, 1
    while j < len(word) and word[i] <= word[j]:
        i = 0 if word[i] < word[j] else i + 1
        j += 1
    return j - i


def _shuffle_relation(table, w):
    """None for a super-Lyndon word (Lyndon, or l.l for an odd Lyndon l),
    else (c, [(u, c_u), ...]) with c w + sum c_u u the shuffle relation l ⧢ v
    of w = l.v, l its first Lyndon factor (l.l on an odd square).  Its
    largest word is w (Reutenauer, Free Lie Algebras, Thm 6.1): asserted,
    not searched for."""
    parities = tuple(table.degree[x] % 2 for x in w)
    k = _lyndon_prefix(w)
    if w[k:2 * k] == w[:k] and sum(parities[:k]) % 2:
        k *= 2  # an odd Lyndon square is super-Lyndon
    if k == len(w):
        return None
    row = {}
    for src, sgn in _signed_shuffles(table, k, parities):
        add_into(row, tuple(w[i] for i in src), sgn)
    lead = row.pop(w, 0)
    if not lead or any(u > w for u in row):
        raise AssertionError(
            f"shuffle relation of content "
            f"{tuple(sorted(w, key=table.sort_key))} does not lead with {w}")
    return lead, list(row.items())


def _shuffle_reduce(table, word):
    """{super-Lyndon word: coefficient} of word modulo the shuffle relations:
    a basis word is itself, any other word is its relation solved for it,
    its smaller words reduced first.  Depth-first on an explicit stack, so
    no chain of relations meets the recursion limit; memoized on the
    table."""
    reduced, stack, pending = table.memo("shuffle_reduce"), [word], {}
    while stack:
        w = stack[-1]
        if w in reduced:
            stack.pop()
        elif w not in pending:
            rel = pending[w] = _shuffle_relation(table, w)
            if rel is None:
                reduced[w] = {w: 1}
            else:
                stack += [u for u, _ in rel[1] if u not in reduced]
        else:
            lead, rest = pending.pop(w)
            acc = reduced[w] = {}
            for u, c in rest:
                for b, x in reduced[u].items():
                    add_into(acc, b, Fraction(-c, lead) * x)
    return reduced[word]


def harrison_shuffle_model(A, cap_weight=None, cap_degree=None):
    """Independent realization of the commutative bar quotient: all words on
    the desuspended monomial alphabet modulo the shuffle subspace.  It shares
    the bar differential with build_E (_bar_model: the slot-wise and
    adjacent-product loops) and the super-Lyndon word generator, here with
    letters in name order; the quotient itself shares no machinery with
    build_E's solver.  The basis of each content is its super-Lyndon words,
    certified in number, and each raw word is rewritten into them by its
    shuffle relations (_shuffle_reduce), lazily, word by word."""
    cw, cd = _caps(A, cap_weight, cap_degree)
    alphabet = _slot_alphabet(A, cd, cw)
    table = alphabet[0]

    def basis_of(content):
        basis = super_lyndon_words(table, content, str)
        _certify_dimension(table, content, len(basis), "shuffle quotient")
        return basis

    def project_word(raw, coeff, acc):
        for w, c in _shuffle_reduce(table, raw).items():
            add_into(acc, w, coeff * c)

    return _bar_model("harrison", (cw, cd), alphabet, basis_of, project_word)


# ---------------------------------------------------------------------------
# duality

def dualize(A, cap_degree=None):
    """Transpose a commutative algebra presentation into coalgebra data on
    the same monomial names: reduced coproduct = transpose of multiplication,
    differential = transpose of d_A."""
    cd = cap_degree if cap_degree is not None else A.cap_degree
    monos = A.monomials(cd + 1)
    classes = [(_mono_name(m), A.monomial_degree(m)) for m in monos]
    coprod = {}
    for m1 in monos:
        for m2 in monos:
            prod, s = A.multiply(m1, m2)
            if not s or A.monomial_degree(prod) > cd + 1:
                continue
            coprod.setdefault(_mono_name(prod), []).append(
                (Fraction(s), _mono_name(m1), _mono_name(m2)))
    codiff = {}
    for m in monos:
        for m2, c in A.differential_of_monomial(m).items():
            if A.monomial_degree(m2) > cd + 1:
                continue
            codiff.setdefault(_mono_name(m2), []).append((c, _mono_name(m)))
    return DgccPresentation(classes, coprod, codiff,
                            cap_weight=A.cap_weight, cap_degree=cd)


class DualityReport:
    def __init__(self, passed, violations, signs, bidegrees):
        self.passed = passed
        self.violations = violations  # list of human-readable strings
        self.signs = signs            # bidegree -> +1/-1 adjoint sign
        self.bidegrees = bidegrees    # bidegree -> (dim E, dim L)

    def __bool__(self):
        return self.passed

    def __repr__(self):
        state = "pass" if self.passed else "FAIL"
        return f"DualityReport({state}, {len(self.violations)} violations)"


def _transpose_check(A, C, cap_degree):
    """Structure constants of C must transpose A's within the degree cap."""
    want = dualize(A, cap_degree)
    if sorted((n, want.class_degree[n]) for n in want.class_names) != sorted(
            (n, C.class_degree[n]) for n in C.class_names):
        raise NotDual("coalgebra basis does not match the monomial basis")

    def norm(terms):
        acc = {}
        for c, *rest in terms:
            add_into(acc, tuple(rest), Fraction(c))
        return acc

    for name in want.class_names:
        if norm(C.coprod.get(name, [])) != norm(want.coprod.get(name, [])):
            raise NotDual(f"coproduct of {name!r} is not the transposed "
                          "multiplication")
        if norm(C.codiff.get(name, [])) != norm(want.codiff.get(name, [])):
            raise NotDual(f"differential of {name!r} is not the transposed "
                          "differential")


def check_duality(A, C, cap_weight=None, cap_degree=None):
    """Verify that the bar-word model of A and the bracket model of C are
    linearly dual: per-bidegree pairing matrices invertible, and the two
    structure differentials adjoint up to a per-bidegree sign.  A bar word
    pairs with a key l of build_L through its standard bracketing P(l), by
    element_pair on graphs and trees, independent of the one word recursion
    that solves both models (graphcoalg._tree_column, the columns of the
    shared pairing block); each (bar word, key) pair is computed once, and
    the adjointness sums read the pairing matrices' entries."""
    cw = min(A.cap_weight, C.cap_weight) if cap_weight is None else cap_weight
    cd = min(A.cap_degree, C.cap_degree) if cap_degree is None else cap_degree
    _transpose_check(A, C, cd)
    E = build_E(A, cw, cd)
    L = build_L(C, cw, cd)

    @cache
    def pair(bar, l):
        return element_pair(graphify(bar, E.table), TreeElement.from_term(
            L.table, _standard_bracketing(L.table, l)))

    # both bases per natural bidegree (word length, degree sum)
    E_basis, L_basis = {}, {}
    for word, bd in E.key_bidegree.items():
        E_basis.setdefault(bd, []).append(word)
    for w in L.key_bidegree:
        L_basis.setdefault((len(w), sum(L.table.degrees_of(w))), []).append(w)

    violations, signs, bidegrees, paired = [], {}, {}, set()
    # ascending, so the target (w-1, d+1) of dh comes before (w, d)
    for bd in sorted(set(E_basis) | set(L_basis)):
        ews, lws = E_basis.get(bd, []), L_basis.get(bd, [])
        bidegrees[bd] = (len(ews), len(lws))
        if len(ews) != len(lws):
            violations.append(
                f"dimension mismatch at (weight, degree)={bd}: "
                f"{len(ews)} vs {len(lws)}")
            continue
        paired.add(bd)
        M = SparseMatrix(len(lws), len(ews), {
            (i, j): v for i, lw in enumerate(lws)
            for j, ew in enumerate(ews) if (v := pair(ew, lw))})
        if M.rank() != len(ews):
            violations.append(f"pairing matrix singular at {bd}")
        # adjointness of the structure differentials: for x at (w, d) and y
        # at (w-1, d+1): <dh x, y> = sign * <x, d_Delta y>
        tgt = (bd[0] - 1, bd[1] + 1)
        if tgt not in paired:
            continue
        for x in ews:
            for y in L_basis[tgt]:
                lhs = sum(c * pair(k2, y)
                          for k2, c in E.dh_of_key.get(x, {}).items())
                rhs = sum(c * pair(x, k2)
                          for k2, c in L.dh_of_key.get(y, {}).items())
                if not (lhs or rhs):
                    continue
                q = 1 if lhs == rhs else -1 if lhs == -rhs else None
                if not (lhs and rhs):
                    violations.append(
                        f"adjointness fails at {bd}: <dh {x}, {y}> = {lhs}, "
                        f"<{x}, dh {y}> = {rhs}")
                elif q is None:
                    violations.append(
                        f"adjointness ratio {Fraction(lhs) / rhs} at {bd} "
                        f"for ({x}, {y})")
                elif signs.setdefault(bd, q) != q:
                    violations.append(
                        f"inconsistent adjoint sign at {bd} for ({x}, {y})")
    return DualityReport(not violations, violations, signs, bidegrees)


# ---------------------------------------------------------------------------
# twisting functions

class TwistingReport:
    def __init__(self, passed, witness=None):
        self.passed = passed
        self.witness = witness  # (key, leftover polynomial) when failing

    def __bool__(self):
        return self.passed

    def __repr__(self):
        return f"TwistingReport({'pass' if self.passed else 'FAIL'})"


def canonical_twisting_function(G):
    """The adjunct of the identity: project to weight-1 pieces and suspend
    (a single desuspended monomial maps back to that monomial)."""
    tau = {}
    for key, (w, d) in G.key_bidegree.items():
        if w == 1:
            (_, _), labels = key
            tau[key] = {G.monomial_of[labels[0]]: Fraction(1)}
    return tau


def check_twisting(tau, G, A):
    """Twisting-function identity for a degree -1 map tau from a graph bundle
    to its algebra: d_A tau + tau d_G - half the multiplication of the
    sign-twisted tau-square of the cobracket must vanish on every basis key."""
    for key, poly in tau.items():
        if key not in G.key_bidegree:
            raise InvalidInput(f"tau defined on unknown key {key}")
        d = G.key_bidegree[key][1]
        for m in poly:
            if A.monomial_degree(m) != d + 1:
                raise DegreeMismatch(
                    f"tau({key}) has a term of algebra degree "
                    f"{A.monomial_degree(m)}; key degree {d} requires "
                    f"{d + 1}")

    def tau_of(key):
        return tau.get(key, {})

    for key, (w, d) in G.key_bidegree.items():
        if d >= G.caps[1]:
            continue  # differential data truncated at the cap boundary
        acc = {}
        for m, c in A.differential_of_poly(tau_of(key)).items():
            add_into(acc, m, c)
        for k2, c in G.differential_of_key(key).items():
            for m, c2 in tau_of(k2).items():
                add_into(acc, m, c * c2)
        for (k1, k2), c in G.key_cobracket(key).items():
            p1, p2 = tau_of(k1), tau_of(k2)
            if not p1 or not p2:
                continue
            # the sign operator reads the algebra degree of tau's output
            s1 = (-1) ** (G.key_bidegree[k1][1] + 1)
            for m, cm in A.poly_multiply(p1, p2).items():
                add_into(acc, m, -Fraction(1, 2) * s1 * c * cm)
        if acc:
            return TwistingReport(False, (key, acc))
    return TwistingReport(True)


# ---------------------------------------------------------------------------
# rational homotopy

def rational_homotopy(A, degree_window, cap_weight=None, cap_degree=None,
                      oracle=False):
    """dim of the degree-d homotopy group for d in the window, read off as
    the homology of the bar-word model one degree down.  Caps default to the
    smallest values guaranteed complete for the window."""
    lo, hi = degree_window
    if lo < 2:
        raise InvalidInput("window must start at degree >= 2")
    if not A.is_simply_connected():
        raise NotSimplyConnected(
            "homotopy reporting needs generators in degrees >= 2")
    cw = cap_weight if cap_weight is not None else hi + 1
    cd = cap_degree if cap_degree is not None else hi
    E = build_E(A, cw, cd)
    hom = E.homology((lo - 1, hi - 1))
    if oracle:
        H = harrison_shuffle_model(A, cw, cd)
        hom2 = H.homology((lo - 1, hi - 1))
        if hom != hom2:
            raise AssertionError(
                f"oracle disagreement: bar model {hom} vs shuffle model {hom2}")
    return {d: hom[d - 1] for d in range(lo, hi + 1)}
