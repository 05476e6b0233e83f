import random
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

from liecograph.elements import GeneratorTable, koszul_sign
from liecograph.presentations import DgcaPresentation, parse_presentation

FIXTURES = Path(__file__).parent / "fixtures"


def load_presentation(name):
    return parse_presentation((FIXTURES / name).read_text())


def arrangements(content):
    """The distinct orders of a content, sorted."""
    return sorted(set(permutations(content)))


@pytest.fixture
def two_even_table():
    return GeneratorTable([("a", 2), ("b", 2)])


@pytest.fixture
def even_odd_table():
    return GeneratorTable([("a", 2), ("b", 3)])


def random_presentation(rng):
    """Small random cochain algebra presentation with d^2 = 0 guaranteed:
    differentials are polynomials in closed generators only, and generators
    carrying a truncation relation are kept closed."""
    ngen = rng.randint(1, 3)
    gens = [(f"g{i}", rng.randint(2, 5)) for i in range(ngen)]
    closed = {n for n, _ in gens if rng.random() < 0.6}
    rels = {}
    for n, d in gens:
        if d % 2 == 0 and rng.random() < 0.5:
            rels[n] = rng.randint(2, 3)
            closed.add(n)
    A0 = DgcaPresentation([(n, d) for n, d in gens if n in closed],
                          {n: k for n, k in rels.items() if n in closed})
    diffs = {}
    for n, d in gens:
        if n in closed:
            continue
        cands = [m for m in A0.monomials(d + 1)
                 if A0.monomial_degree(m) == d + 1]
        if cands and rng.random() < 0.8:
            poly = {}
            for m in rng.sample(cands, min(len(cands), rng.randint(1, 2))):
                poly[m] = Fraction(rng.choice([1, -1, 2]))
            if poly:
                diffs[n] = poly
    return DgcaPresentation(gens, rels, diffs)


# ---------------------------------------------------------------------------
# textbook rank oracle, independent of liecograph.linalg

def dense_rref(rows, ncols):
    """Textbook Gauss-Jordan elimination of dense rows, independent of
    Echelon: (the nonzero rows of the reduced echelon form, their pivot
    columns)."""
    rows = [list(map(Fraction, r)) for r in rows]
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        rows[rank] = [x / rows[rank][col] for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
    return rows[:len(pivots)], pivots


def dense_rank_oracle(rows):
    return len(dense_rref(rows, len(rows[0]) if rows else 0)[1])


# ---------------------------------------------------------------------------
# Lyndon words by their definition

def is_lyndon(word, key=None):
    """Strictly smaller than each of its proper suffixes, comparing letters
    by key (by name when None)."""
    w = list(word) if key is None else [key(x) for x in word]
    return all(w < w[i:] for i in range(1, len(w)))


def super_lyndon(word, degree, key=None):
    """A Lyndon word, or l.l for a Lyndon word l of odd total degree."""
    h = len(word) // 2
    return is_lyndon(word, key) or (
        word[:h] == word[h:] and is_lyndon(word[:h], key)
        and sum(degree[x] for x in word[:h]) % 2 == 1)


# ---------------------------------------------------------------------------
# the word recursion of the iterated cobracket, an oracle for the pairing

def _word_vector(table, word):
    """The fully iterated cobracket of the long graph on a bar word, read
    off the word: cutting an edge of w1->...->wn leaves the prefix and the
    suffix, so only the two end cuts split off one vertex, and
        v(a) = (a),  v(w) = v(w1..w(n-1)).(wn) - k(w) v(w2..wn).(w1)
    with ".(x)" appending the slot x and k(w) the Koszul sign of moving w1
    past the rest.  v(w) at u is the pairing of w with the left comb on u.
    Integer entries; memoized on the table, on an explicit stack, so no
    recursion limit applies."""
    memo, stack = table.memo("word_vector"), [word]
    while stack:
        w = stack[-1]
        if w in memo:
            stack.pop()
            continue
        n = len(w)
        if n == 1:
            memo[w] = {w: 1}
            continue
        head, tail = w[:-1], w[1:]
        missing = [u for u in (head, tail) if u not in memo]
        if missing:
            stack += missing
            continue
        kappa = koszul_sign(table.degrees_of(w), [*range(1, n), 0])
        hit = {keys + w[-1:]: c for keys, c in memo[head].items()}
        for keys, c in memo[tail].items():
            key = keys + w[:1]
            s = hit.get(key, 0) - kappa * c
            if s:
                hit[key] = s
            else:
                del hit[key]
        memo[w] = hit
    return memo[word]


# ---------------------------------------------------------------------------
# brute-force canonical graph terms, independent of shapes._canonical_perms

def canonical_graph_term(n, edges, labels, degrees, order_key):
    """Canonical key and sign for a (graph, label tuple) term, by trying
    every relabeling of the n vertices: the least relabeled edge list, then
    the least relabeled labels by order_key among the relabelings reaching
    it.  Returns (canonical_edges, canonical_labels, sign); sign 0 means the
    term cancels against its own image under a stabilizer element.  The
    library's canonical form is this one up to 6 vertices; past that it
    numbers paths along the path instead."""
    best_edges, perms = None, []
    for p in permutations(range(1, n + 1)):
        relab = tuple(sorted((p[a - 1], p[b - 1]) for a, b in edges))
        if best_edges is None or relab < best_edges:
            best_edges, perms = relab, [p]
        elif relab == best_edges:
            perms.append(p)
    best_labels = None
    best = []  # (sign, perm) achieving minimal labels
    for p in perms:
        inv = [0] * n
        for i in range(n):
            inv[p[i] - 1] = i  # 0-based: position j of output takes input inv[j]
        new_labels = tuple(labels[inv[j]] for j in range(n))
        key = tuple(order_key(x) for x in new_labels)
        if best_labels is None or key < best_labels:
            best_labels = key
            best = [(koszul_sign(degrees, inv), new_labels)]
        elif key == best_labels:
            best.append((koszul_sign(degrees, inv), new_labels))
    signs = {s for s, _ in best}
    if len(signs) > 1:
        return best_edges, best[0][1], 0
    return best_edges, best[0][1], best[0][0]
