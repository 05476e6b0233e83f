"""The three benchmark workloads, as lists of checked jobs.

`load(name, seed, inputs, tiny=False, plant=False)` builds a workload's jobs
from its seed and the input directory; that is the "loading the inputs" part
of set-up.  Each job is a (name, callable) pair; the callable does the work,
checks every answer and raises `WrongAnswer` (or whatever the library raised)
when a check fails.  `tiny` shrinks every workload for the self-test, and
`plant` plants one wrong expected value so the self-test can see it counted.

The library is imported by the caller before `load`; jobs look functions up
through their modules at call time, so a tracer that rebinds module
attributes sees every call.
"""

import contextlib
import io
import itertools
import random
from fractions import Fraction
from math import comb, factorial

from liecograph import (cli, elements, functors, graphcoalg, pairing,
                        presentations, shapes)


class WrongAnswer(Exception):
    pass


def _check(ok, what):
    if not ok:
        raise WrongAnswer(what)


# ---------------------------------------------------------------------------
# pairing-matrix: Gr(n) x Tr(n) pairing matrices and their certified ranks

# entries per n compared against shape_pair; drawn from the seed
_ENTRY_SAMPLE = 400


def _catalan(k):
    return comb(2 * k, k) // (k + 1)


def _pairing_matrix_job(n, sample, want_rank):
    def run():
        M = pairing.pairing_matrix(n)
        rows, cols = M.row_basis, M.col_basis
        want_shape = (n ** (n - 2) * 2 ** (n - 1), factorial(n) * _catalan(n - 1))
        _check((len(rows), len(cols)) == want_shape,
               f"shape {(len(rows), len(cols))} != {want_shape}")
        r = M.rank()
        _check(r == want_rank, f"rank {r} != {want_rank}")
        for u, v in sample:
            i, j = int(u * len(rows)), int(v * len(cols))
            got = M.entry(i, j)
            want = pairing.shape_pair(rows[i], cols[j])
            _check(got == want, f"entry({i}, {j}) = {got}, shape_pair {want}")
        # long graphs and tall trees are dual bases: their block is diagonal
        # with entries +-1
        row_of = {G.key(): i for i, G in enumerate(rows)}
        col_of = {T: j for j, T in enumerate(cols)}
        tails = list(itertools.permutations(range(2, n + 1)))
        ri = [row_of[shapes.long_graph((1,) + t).key()] for t in tails]
        ci = [col_of[shapes.tall_tree((1,) + t)] for t in tails]
        for a, i in enumerate(ri):
            for b, j in enumerate(ci):
                e = M.entry(i, j)
                _check(abs(e) == 1 if a == b else e == 0,
                       f"long/tall block entry ({a}, {b}) = {e}")
    return run


def _load_pairing_matrix(seed, inputs, tiny, plant):
    rng = random.Random(seed)
    jobs = []
    for n in range(2, 5 if tiny else 7):
        # positions as fractions of the basis sizes, so the sample needs no
        # enumeration at set-up
        sample = [(rng.random(), rng.random()) for _ in range(_ENTRY_SAMPLE)]
        want = factorial(n - 1) + (1 if plant and n == 2 else 0)
        jobs.append((f"pairing_matrix({n})", _pairing_matrix_job(n, sample, want)))
    return jobs


# ---------------------------------------------------------------------------
# word-problem: relation suites and the three-way word problem

RELATION_KINDS = ("arrow_reversing", "arnold", "harrison_shuffle",
                  "reverse_all", "cyclic")


def _tree_term(shape, labels):
    if isinstance(shape, int):
        return labels[shape - 1]
    return (_tree_term(shape[0], labels), _tree_term(shape[1], labels))


def _all_label_trees(table, labels):
    """Nonzero tree elements of every planar tree over every arrangement of
    the labels."""
    terms = {_tree_term(shape, labels)
             for shape in shapes.enumerate_trees(len(labels))}
    out = []
    for term in sorted(terms, key=repr):
        t = elements.TreeElement.from_term(table, term)
        if not t.is_zero():
            out.append(t)
    return out


def _relations_job(table, w):
    """Every relation generator of weight w vanishes by the cobracket test and
    pairs to zero with every tree."""
    def run():
        for labels in itertools.combinations_with_replacement(table.names, w):
            trees = _all_label_trees(table, labels)
            for kind in RELATION_KINDS:
                for el in graphcoalg.relation_generators(kind, table, labels):
                    flag, _ = graphcoalg.is_zero_in_E(el)
                    _check(flag, f"{kind} relation {labels} is nonzero")
                    for t in trees:
                        p = pairing.element_pair(el, t)
                        _check(p == 0, f"{kind} relation {labels} pairs to {p}")
    return run


def _three_ways_job(table, w, flip):
    """Cobracket, bar coordinates and pairing agree on whether each graph word
    of weight w vanishes.  `flip` plants a wrong expectation."""
    def run():
        for G in shapes.enumerate_graphs(w):
            for labels in itertools.product(table.names, repeat=w):
                g = elements.GraphElement.from_term(table, G, labels)
                if g.is_zero():
                    continue
                by_cobracket = graphcoalg.is_zero_in_E(g)[0] != flip
                by_bar = not graphcoalg.to_bar_basis(g)
                by_pairing = all(pairing.element_pair(g, t) == 0
                                 for t in _all_label_trees(table, labels))
                _check(by_cobracket == by_bar == by_pairing,
                       f"{G} {labels}: cobracket {by_cobracket}, "
                       f"bar {by_bar}, pairing {by_pairing}")
    return run


def _load_word_problem(seed, inputs, tiny, plant):
    # only degree parity changes the Koszul signs, so the seed moves the
    # degrees without moving the amount of work
    rng = random.Random(seed)
    two_even = elements.GeneratorTable(
        [("a", rng.choice((2, 4, 6))), ("b", rng.choice((2, 4, 6)))])
    even_odd = elements.GeneratorTable(
        [("a", rng.choice((2, 4, 6))), ("b", rng.choice((3, 5, 7)))])
    top = 3 if tiny else 4
    jobs = []
    for table in (two_even, even_odd):
        for w in range(2, top + 1):
            jobs.append((f"relations {table} w={w}", _relations_job(table, w)))
        for w in range(1, top + 1):
            flip = plant and table is two_even and w == 1
            jobs.append((f"three ways {table} w={w}",
                         _three_ways_job(table, w, flip)))
    return jobs


# ---------------------------------------------------------------------------
# homotopy: CLI verbs against stored TSV, and builder identities

# (job name, argv with input file names); the expected stdout of each is
# inputs/expected/<job name>.tsv
CLI_JOBS = (
    ("pi-xyz", ["pi", "--oracle", "--window", "2..8", "xyz.alg"]),
    ("pi-s2xs2", ["pi", "--oracle", "--window", "2..8", "s2xs2.alg"]),
    ("pi-s2", ["pi", "--oracle", "--window", "2..8", "s2.alg"]),
    ("pi-s3", ["pi", "--oracle", "--window", "2..8", "s3.alg"]),
    ("pi-cp2", ["pi", "--oracle", "--window", "2..8", "cp2.alg"]),
    ("pi-sullivan_s2", ["pi", "--oracle", "--window", "2..8",
                        "sullivan_s2.alg"]),
    ("ss-cp2", ["ss", "cp2.alg", "--window", "1..8", "--pages", "8",
                "--cap-weight", "9", "--cap-degree", "9"]),
    ("ss-sullivan_s2", ["ss", "sullivan_s2.alg", "--window", "1..8",
                        "--pages", "1", "--cap-weight", "9",
                        "--cap-degree", "9"]),
    ("dual-check-cp2", ["dual-check", "cp2.alg", "cp2.coalg",
                        "--cap-weight", "6", "--cap-degree", "12"]),
    ("dual-check-s2", ["dual-check", "s2.alg", "s2.coalg",
                       "--cap-weight", "4", "--cap-degree", "8"]),
)
TINY_CLI_JOBS = (
    ("pi-s2-to5", ["pi", "--oracle", "--window", "2..5", "s2.alg"]),
)
RANDOM_PRESENTATIONS = 50
TINY_RANDOM_PRESENTATIONS = 2


def _cli_job(argv, expected):
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        _check(rc == 0, f"exit code {rc}")
        _check(out.getvalue() == expected, "stdout differs from expected TSV")
    return run


def random_presentation(rng):
    """Small random cochain algebra presentation with d^2 = 0 guaranteed:
    differentials are polynomials in closed generators only, and generators
    carrying a truncation relation are kept closed.

    The acceptance tests' criterion-6 generator, copied so that the benchmark
    imports nothing from tests/ (whose conftest needs pytest)."""
    ngen = rng.randint(1, 3)
    gens = [(f"g{i}", rng.randint(2, 5)) for i in range(ngen)]
    closed = {n for n, _ in gens if rng.random() < 0.6}
    rels = {}
    for n, d in gens:
        if d % 2 == 0 and rng.random() < 0.5:
            rels[n] = rng.randint(2, 3)
            closed.add(n)
    A0 = presentations.DgcaPresentation(
        [(n, d) for n, d in gens if n in closed],
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
    return presentations.DgcaPresentation(gens, rels, diffs)


def _builders_job(A):
    """Every builder's bicomplex satisfies dv^2 = dh^2 = dv dh + dh dv = 0."""
    def run():
        for builder in (functors.build_G, functors.build_E,
                        functors.harrison_shuffle_model):
            builder(A, 3, 8).complex.validate()
        functors.build_A_hat(functors.build_E(A, 3, 6), 3).complex.validate()
        functors.build_L(functors.dualize(A, 6), 3, 6).complex.validate()
    return run


def _load_homotopy(seed, inputs, tiny, plant):
    # parse every input once, so a malformed input fails at set-up
    for path in sorted(inputs.glob("*.alg")) + sorted(inputs.glob("*.coalg")):
        presentations.parse_presentation(path.read_text())
    jobs = []
    for name, argv in TINY_CLI_JOBS if tiny else CLI_JOBS:
        expected = (inputs / "expected" / f"{name}.tsv").read_text()
        if plant and not jobs:
            expected = expected.replace("\t1\n", "\t2\n", 1)
        argv = [str(inputs / a) if a.endswith((".alg", ".coalg")) else a
                for a in argv]
        jobs.append((name, _cli_job(argv, expected)))
    rng = random.Random(seed)
    count = TINY_RANDOM_PRESENTATIONS if tiny else RANDOM_PRESENTATIONS
    for k in range(count):
        jobs.append((f"builders on random presentation {k}",
                     _builders_job(random_presentation(rng))))
    return jobs


LOADERS = {
    "pairing-matrix": _load_pairing_matrix,
    "word-problem": _load_word_problem,
    "homotopy": _load_homotopy,
}


def load(name, seed, inputs, tiny=False, plant=False):
    return LOADERS[name](seed, inputs, tiny, plant)
