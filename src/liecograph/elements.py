"""Graded elements: finite Q-linear combinations of (shape x label tensor)
terms over a table of graded generators, with int or Fraction coefficients.

Graph terms are stored in canonical form, read from the shape's tree-code
plan (`canonical_term`): the graph is renumbered onto its canonical edges,
its labels move along, each run of interchangeable subtrees is sorted by
its labels, and the Koszul sign is folded into the coefficient.  A term
that an automorphism negates (two equal subtrees, each with an odd number
of odd letters) is zero.  Tree terms are nested tuples of generator names.
"""

from fractions import Fraction
from numbers import Integral, Rational

from .linalg import add_into
from .shapes import _canonical_plan

__all__ = [
    "GeneratorTable",
    "koszul_sign",
    "graded_sort",
    "canonical_term",
    "GraphElement",
    "TreeElement",
    "TensorElement",
]


class GeneratorTable:
    """Ordered graded generators (name, degree >= 1).  Caches derived from
    one table (iterated cobrackets, word quotients) live in its `memo`s and
    die with it."""

    def __init__(self, gens):
        self.names = []
        self.degree = {}
        for name, deg in gens:
            if name in self.degree:
                raise ValueError(f"duplicate generator {name!r}")
            if deg < 1:
                raise ValueError(f"generator {name!r} has degree {deg} < 1; "
                                 "the table must be reduced")
            self.names.append(name)
            self.degree[name] = deg
        self.order = {n: i for i, n in enumerate(self.names)}
        self._memos = {}

    def memo(self, name):
        """The table's cache dict called name, created empty on first use."""
        return self._memos.setdefault(name, {})

    def degrees_of(self, labels):
        return tuple(self.degree[x] for x in labels)

    def sort_key(self, name):
        return self.order[name]

    def __contains__(self, name):
        return name in self.degree

    def __repr__(self):
        return "GeneratorTable(%s)" % ", ".join(
            f"{n}:{self.degree[n]}" for n in self.names)


def koszul_sign(degrees, src):
    """Sign of rearranging a tensor of graded symbols: the output at position
    i is the input symbol src[i] (0-based).  Equals (-1)^k where k counts
    odd-odd inversions of the src sequence (the bubble-sort convention)."""
    sign = 1
    n = len(src)
    for i in range(n):
        if degrees[src[i]] % 2 == 0:
            continue
        for j in range(i + 1, n):
            if src[j] < src[i] and degrees[src[j]] % 2 == 1:
                sign = -sign
    return sign


def _slotwise(word, degree, letter_map):
    """The derivation extending letter_map slot by slot: for each slot i and
    each (replacement tuple, c) in letter_map(word[i]), yield the raw word
    with slot i replaced and c times (-1)^(degrees of the slots before i)."""
    sign = 1
    for i, x in enumerate(word):
        for repl, c in letter_map(x):
            yield word[:i] + repl + word[i + 1:], sign * c
        if degree[x] % 2:
            sign = -sign


def graded_sort(seq, degree, order):
    """Sort seq by order[x] (stable), returning (sorted tuple, Koszul sign of
    the sort); the sign is 0 when a letter of odd degree[x] repeats.  degree
    and order are indexables: dicts, lists or a range."""
    perm = sorted(range(len(seq)), key=lambda i: order[seq[i]])
    word = tuple(seq[i] for i in perm)
    for a in range(len(word) - 1):
        if word[a] == word[a + 1] and degree[word[a]] % 2:
            return word, 0
    return word, koszul_sign([degree[x] for x in seq], perm)


def canonical_term(table, n, edges, labels):
    """Canonical key ((n, edges), labels) and sign of the term on a shape
    (n, sorted edge tuple) with a label tuple, from its plan: the labels
    moved to their new positions, each run's blocks sorted by their labels
    in table order, bottom up, and the Koszul sign of the final order; 0
    when two equal blocks of a run hold an odd number of odd letters."""
    best, order, runs = _canonical_plan(n, edges)
    if not runs and best == edges:  # no automorphism: order is the identity
        return ((n, best), labels), 1
    src, rank, degree = list(order), table.order, table.degree
    for run in runs:
        held = sorted(([rank[labels[src[p]]] for p in block],
                       [src[p] for p in block]) for block in run)
        for (key, moved), (twin, _) in zip(held, held[1:]):
            if key == twin and sum(degree[labels[s]] for s in moved) % 2:
                return ((n, best), labels), 0
        for block, (_, moved) in zip(run, held):
            for p, s in zip(block, moved):
                src[p] = s
    return ((n, best), tuple(labels[i] for i in src)), koszul_sign(
        table.degrees_of(labels), src)


def _coefficient(v):
    """int and Fraction pass through, another Integral becomes an int and
    another Rational a Fraction; float and bool are a TypeError."""
    if type(v) is int or type(v) is Fraction:
        return v
    if isinstance(v, bool) or not isinstance(v, Rational):
        raise TypeError(f"coefficient {v!r} is not an int or a rational")
    return int(v) if isinstance(v, Integral) else Fraction(v)


class _Element:
    """Shared Q-linear-combination plumbing; terms: key -> int or Fraction."""

    def __init__(self, table, terms=None):
        self.table = table
        self.terms = {}
        if terms:
            for k, v in terms.items():
                v = _coefficient(v)
                if v:
                    self.terms[k] = v

    def is_zero(self):
        return not self.terms

    def add(self, other):
        assert self.table is other.table
        out = dict(self.terms)
        for k, v in other.terms.items():
            add_into(out, k, v)
        return type(self)(self.table, out)

    def scale(self, c):
        c = _coefficient(c)
        if not c:
            return type(self)(self.table)
        return type(self)(self.table, {k: c * v for k, v in self.terms.items()})

    def __eq__(self, other):
        return (type(self) is type(other) and self.table is other.table
                and self.terms == other.terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))


class GraphElement(_Element):
    """Element of the cofree graph coalgebra on the table's generators.
    Term keys: ((n, edges), labels)."""

    @classmethod
    def from_term(cls, table, graph, labels, coeff=1):
        n, labels, coeff = graph.n, tuple(labels), _coefficient(coeff)
        if len(labels) != n:
            raise ValueError(f"graph on {n} vertices with {len(labels)} labels")
        key, sign = canonical_term(table, n, graph.edges, labels)
        return cls(table, {key: coeff * sign} if sign else None)

    @classmethod
    def zero(cls, table):
        return cls(table)

    def weights(self):
        return sorted({k[0][0] for k in self.terms})

    def component(self, weight):
        return GraphElement(self.table, {
            k: v for k, v in self.terms.items() if k[0][0] == weight})

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for ((n, edges), labels), c in sorted(
                self.terms.items(), key=lambda kv: (kv[0][0], kv[0][1])):
            es = ", ".join(f"{a}->{b}" for a, b in edges)
            bits.append(f"{c} * G[{n}; {es}]({', '.join(labels)})")
        return " + ".join(bits)


class TreeElement(_Element):
    """Element of the free non-associative algebra on the table's generators.
    Term keys: nested tuples of generator names (leaf = name)."""

    @classmethod
    def leaf(cls, table, name, coeff=1):
        if name not in table:
            raise ValueError(f"unknown generator {name!r}")
        return cls(table, {name: coeff})

    @classmethod
    def from_term(cls, table, term, coeff=1):
        return cls(table, {term: coeff})

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{c} * {k}" for k, c in sorted(
            self.terms.items(), key=lambda kv: str(kv[0])))


def tree_term_shape(key):
    """The underlying planar tree with leaves labeled by position 1..n."""
    counter = [0]

    def build(k):
        if isinstance(k, str):
            counter[0] += 1
            return counter[0]
        return (build(k[0]), build(k[1]))

    return build(key)


class TensorElement(_Element):
    """Element of a tensor power of the graph coalgebra.  Term keys: tuples of
    GraphElement term keys."""

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(
            f"{c} * {k}" for k, c in sorted(self.terms.items(), key=str))
