import math
import random
from array import array
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecograph.errors import CapTooSmall
from liecograph.functors import (
    _contents,
    build_E,
    build_G,
    harrison_shuffle_model,
)
from liecograph.elements import TreeElement
from liecograph.graphcoalg import (
    BAR_CAP,
    _iterated_vector,
    _standard_bracketing,
    _word_coordinates,
    bar_quotient,
    graphify,
    to_bar_basis,
)
from liecograph.liealg import lie_normal_form, tensor_expand
from liecograph.linalg import (
    BigradedComplex,
    Echelon,
    SparseMatrix,
    _exact_inverse,
    add_into,
    integer_matrix_rank,
    spectral_pages,
    total_homology,
)
from liecograph.presentations import parse_presentation
from liecograph.shapes import tall_tree

from conftest import (
    arrangements,
    dense_rank_oracle,
    dense_rref,
    load_presentation,
    random_presentation,
)


def _dense_nullspace(rows, ncols):
    """Basis of {x : rows . x = 0}, one vector per free column."""
    reduced, pivots = dense_rref(rows, ncols)
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        x = [Fraction(0)] * ncols
        x[j] = Fraction(1)
        for row, p in zip(reduced, pivots):
            x[p] = -row[j]
        basis.append(x)
    return basis


def _to_sparse(rows):
    entries = {(i, j): Fraction(v)
               for i, r in enumerate(rows) for j, v in enumerate(r) if v}
    return SparseMatrix(len(rows), len(rows[0]), entries)


small_matrix = st.lists(
    st.lists(st.integers(-4, 4), min_size=1, max_size=5),
    min_size=1, max_size=5,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


@settings(max_examples=120, deadline=None)
@given(small_matrix)
def test_sparse_rank_matches_oracle(rows):
    M = _to_sparse(rows)
    expect = dense_rank_oracle(rows)
    assert M.rank() == expect
    assert _to_sparse([list(col) for col in zip(*rows)]).rank() == expect


def _sparse_rows(rows):
    return [{j: Fraction(v) for j, v in enumerate(r) if v} for r in rows]


rational = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
small_rational_matrix = st.lists(
    st.lists(rational, min_size=1, max_size=5),
    min_size=1, max_size=5,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


@settings(max_examples=120, deadline=None)
@given(small_rational_matrix, st.data())
def test_echelon_matches_oracle(rows, data):
    ech = Echelon()
    for row in _sparse_rows(rows):
        ech.insert(row)
    rank = dense_rank_oracle(rows)
    assert len(ech) == rank
    for c, row in ech.rows.items():
        assert all(type(x) is int for x in row.values())
        assert math.gcd(*row.values()) == 1
        assert row[c] > 0 and min(row) == c
    for row in _sparse_rows(rows):
        assert ech.decompose(row)[1] == {}
    ncols = len(rows[0])
    drawn = data.draw(st.lists(rational, min_size=ncols, max_size=ncols))
    _, residual = ech.decompose({j: x for j, x in enumerate(drawn) if x})
    assert all(c not in residual for c in ech.rows)
    # v - reduce(v) lies in the row span, and the residual vanishes exactly
    # when v does
    assert dense_rank_oracle(
        rows + [[x - residual.get(j, 0) for j, x in enumerate(drawn)]]) == rank
    assert (residual == {}) == (dense_rank_oracle(rows + [drawn]) == rank)


class _FractionEchelon:
    """Reference elimination in Fraction, independent of Echelon: each row
    normalised to pivot entry 1, its pivot its smallest column, with its
    expression over the tags of the inserted rows."""

    def __init__(self):
        self.rows, self.exprs = {}, {}

    def _eliminate(self, vec, full):
        vec, coeffs = {k: Fraction(v) for k, v in vec.items() if v}, {}
        done = set()
        while True:
            todo = [k for k in vec if k not in done]
            if not todo:
                return vec, coeffs, None
            c = min(todo)
            if c not in self.rows:
                if not full:
                    return vec, coeffs, c
                done.add(c)
                continue
            f = vec[c]
            for k, v in self.rows[c].items():
                vec[k] = vec.get(k, 0) - f * v
            for t, e in self.exprs[c].items():
                coeffs[t] = coeffs.get(t, 0) + f * e
            vec = {k: v for k, v in vec.items() if v}
            coeffs = {t: e for t, e in coeffs.items() if e}

    def insert(self, vec, tag):
        vec, coeffs, c = self._eliminate(vec, full=False)
        if c is None:
            return None
        p = vec[c]
        self.rows[c] = {k: v / p for k, v in vec.items()}
        expr = {t: -e / p for t, e in coeffs.items()}
        expr[tag] = expr.get(tag, 0) + 1 / p
        self.exprs[c] = expr
        return c

    def reduce(self, vec):
        vec, coeffs, _ = self._eliminate(vec, full=True)
        return vec, coeffs


def test_echelon_matches_fraction_reference_on_bar_quotients():
    """Every content of the x, y, z word model at caps 7/7 against the
    Fraction reference fed the full graph iterated-cobracket vectors V_w:
    the bar basis is the greedy independent rows among the words led by
    the content's least letter, in sort_key order, and every arrangement u
    has the reference's bar coordinates of V_u, read both from the word (its
    pairings with the standard bracketings) and, to BAR_CAP letters, from
    its graph (to_bar_basis), with sum x_b V_b == V_u on full vectors.  On
    the Lie side the standard bracketings of the bar basis are independent
    in the tensor algebra, and the left comb on u has the reference's
    coordinates over them."""
    E = build_E(parse_presentation(
        "gen x deg 2\ngen y deg 2\ngen z deg 3\ndiff z = x*y\n"), 7, 7)
    table = E.table
    contents = [content for content, _ in _contents(table, 7, 7)]
    assert len(contents) > 20
    for content in contents:
        q = bar_quotient(table, content)
        full = {w: _iterated_vector(graphify(w, table))
                for w in arrangements(content)}
        rows = _FractionEchelon()
        ordered = sorted((w for w in full if w[0] == content[0]),
                         key=lambda w: [table.sort_key(x) for x in w])
        assert q.basis == [w for w in ordered
                           if rows.insert(full[w], w) is not None], content
        cols = _FractionEchelon()
        assert all(cols.insert(tensor_expand(TreeElement.from_term(
            table, _standard_bracketing(table, l))), l) is not None
            for l in q.basis), content
        for u, vec in full.items():
            residual, want = rows.reduce(vec)
            assert residual == {}
            x = _word_coordinates(table, u)
            assert x == want
            if len(u) <= BAR_CAP:
                assert to_bar_basis(graphify(u, table)) == x
            total = {}
            for b, c in x.items():
                for k, v in full[b].items():
                    add_into(total, k, c * v)
            assert total == vec, (content, u)
            comb = TreeElement.from_term(table, tall_tree(u))
            residual, want = cols.reduce(tensor_expand(comb))
            assert residual == {}
            assert lie_normal_form(comb).terms == want, (content, u)


square_matrix = st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(-2, 2), min_size=n, max_size=n),
    min_size=n, max_size=n))


@settings(max_examples=150, deadline=None)
@given(square_matrix)
def test_exact_inverse(S):
    """S adj = delta I with integer adj and delta the least common
    denominator of S^-1; singular S is refused."""
    n = len(S)
    if dense_rank_oracle(S) < n:
        with pytest.raises(ZeroDivisionError):
            _exact_inverse(S)
        return
    adj, delta = _exact_inverse(S)
    assert type(delta) is int and delta > 0
    assert all(type(x) is int for row in adj for x in row)
    assert math.gcd(delta, *(x for row in adj for x in row)) == 1
    assert [[sum(S[i][k] * adj[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)] == [[delta * (i == j) for j in range(n)]
                                   for i in range(n)]


def test_exact_inverse_examples():
    assert _exact_inverse([[2, 1], [1, 1]]) == ([[1, -1], [-1, 2]], 1)
    assert _exact_inverse([[2, 0], [0, 3]]) == ([[3, 0], [0, 2]], 6)
    with pytest.raises(ZeroDivisionError):
        _exact_inverse([[1, 2], [2, 4]])


@pytest.mark.parametrize("S", [[[2, 1], [0, 3]], [[2, 0, 1], [4, 3, 0],
                                                  [0, 5, 7]]])
def test_exact_inverse_not_integral(S):
    """A minor whose inverse is not integral: adj / delta equals the inverse
    of a textbook Fraction Gauss-Jordan elimination, delta its least common
    denominator."""
    n = len(S)
    reduced, _ = dense_rref([row + [int(i == j) for j in range(n)]
                             for i, row in enumerate(S)], 2 * n)
    inverse = [row[n:] for row in reduced]
    adj, delta = _exact_inverse(S)
    assert delta == math.lcm(*(x.denominator for row in inverse for x in row))
    assert delta > 1
    assert [[Fraction(x, delta) for x in row] for row in adj] == inverse


def test_decompose_returns_ints_without_a_denominator():
    """decompose returns ints when the elimination needed no denominator,
    else Fractions, with the same values."""
    ech = Echelon({0: {0: 1, 1: 2, 2: -1}, 1: {1: 2, 2: 1}})
    x, r = ech.decompose({0: 3, 1: 6, 2: 5})  # 3 rows[0] + 8 (0, 0, 1)
    assert (x, r) == ({0: 3}, {2: 8})
    assert all(type(v) is int for v in [*x.values(), *r.values()])
    x, r = ech.decompose({0: 1, 1: 3, 2: 0})  # rows[0] + rows[1] / 2
    assert (x, r) == ({0: 1, 1: Fraction(1, 2)}, {2: Fraction(1, 2)})
    assert all(type(v) is Fraction for v in [*x.values(), *r.values()])


def _named_minor(rows):
    """(row indices, column indices) of a nonsingular minor of maximal size,
    picked by the textbook elimination: the pivot rows of the transpose and
    the pivot columns of the matrix."""
    return (dense_rref([list(c) for c in zip(*rows)], len(rows))[1],
            dense_rref(rows, len(rows[0]))[1])


@settings(max_examples=100, deadline=None)
@given(small_matrix)
def test_integer_rank_certified(rows):
    A = np.array(rows, dtype=np.int64)
    R, C = _named_minor(rows)
    assert integer_matrix_rank(A, R, C) == dense_rank_oracle(rows)
    if R:  # a smaller minor is not maximal
        with pytest.raises(ArithmeticError):
            integer_matrix_rank(A, R[:-1], C[:-1])
    extra_rows = [i for i in range(len(rows)) if i not in R]
    extra_cols = [j for j in range(len(rows[0])) if j not in C]
    if extra_rows and extra_cols:  # a larger minor is singular
        with pytest.raises(ArithmeticError):
            integer_matrix_rank(A, R + extra_rows[:1], C + extra_cols[:1])


def _buffer(rows, code="q"):
    """rows as a 2-D memoryview of the array type code (signed entries)."""
    flat = array(code, [x for row in rows for x in row])
    return memoryview(flat).cast("B").cast(code, (len(rows), len(rows[0])))


def test_integer_rank_certifies_2_to_the_40():
    """Past what int64 products and float64 sums hold exactly, the packed
    certificate still certifies, and still finds a planted wrong entry."""
    big = 2 ** 40
    assert integer_matrix_rank(np.array([[big]], dtype=np.int64),
                               [0], [0]) == 1
    assert integer_matrix_rank(_buffer([[big, -big], [-big, big]]),
                               [0], [0]) == 1
    with pytest.raises(ArithmeticError, match="span"):
        integer_matrix_rank(_buffer([[big, -big], [-big, big + 1]]),
                            [0], [0])


def test_integer_rank_on_an_empty_minor():
    """An empty minor certifies rank 0 on a zero matrix, and any nonzero
    entry lies outside its span."""
    assert integer_matrix_rank(_buffer([[0, 0], [0, 0]], "b"), [], []) == 0
    with pytest.raises(ArithmeticError, match="span"):
        integer_matrix_rank(_buffer([[0, 0], [0, 1]], "b"), [], [])


def test_integer_rank_certifies_2_to_the_53():
    """A 1x1 minor [a] has delta = |a| and adj = +-1; at a = 2^53 (a bound
    of 2^107 on the old float64 sums) the rank is certified exactly, and a
    wrong entry one unit off is found."""
    a = 2 ** 53
    assert integer_matrix_rank(np.array([[a]], dtype=np.int64), [0], [0]) == 1
    assert integer_matrix_rank(_buffer([[a, 3 * a], [2 * a, 6 * a]]),
                               [0], [0]) == 1
    with pytest.raises(ArithmeticError, match="span"):
        integer_matrix_rank(_buffer([[a, 3 * a], [2 * a, 6 * a - 1]]),
                            [0], [0])


def test_integer_rank_checks_the_last_slice():
    """A wrong entry planted in one of the last rows is found: rows are
    multiples of the first two until then."""
    m = 519
    base = np.array([[1, 0, 2, -1], [0, 1, 1, 3]], dtype=np.int64)
    A = np.array([[i % 5, i % 3 - 1] for i in range(m)],
                 dtype=np.int64) @ base
    A[:2] = base
    assert integer_matrix_rank(A, [0, 1], [0, 1]) == 2
    A[m - 3, 2] += 1
    with pytest.raises(ArithmeticError, match="span"):
        integer_matrix_rank(A, [0, 1], [0, 1])
    A[m - 3, 2] -= 1
    A[m - 1, 3] -= 1
    with pytest.raises(ArithmeticError, match="span"):
        integer_matrix_rank(A, [0, 1], [0, 1])


def _multiples():
    """Rows 0 and 1 name a 2x2 minor on columns 0 and 1; every other row
    is a combination of them, and row 4 is zero on the minor's columns."""
    base = [[1, 0, 2, -1, 5], [0, 1, 1, 3, -2]]
    coeffs = [(1, 0), (0, 1), (2, -1), (-3, 4), (0, 0), (5, 5)]
    return [[a * x + b * y for x, y in zip(*base)] for a, b in coeffs]


@pytest.mark.parametrize("code", ["b", "h", "i", "q"])
def test_integer_rank_planted_entry_off_the_minor_columns(code):
    rows = _multiples()
    assert integer_matrix_rank(_buffer(rows, code), [0, 1], [0, 1]) == 2
    for i, j in [(3, 4), (5, 2), (0, 3)]:
        wrong = [row[:] for row in rows]
        wrong[i][j] += 1
        with pytest.raises(ArithmeticError, match="span"):
            integer_matrix_rank(_buffer(wrong, code), [0, 1], [0, 1])


@pytest.mark.parametrize("code", ["b", "h", "i", "q"])
def test_integer_rank_planted_entry_in_a_row_zero_on_the_minor(code):
    """Row 4 has no entry in the minor's columns, so the combination it
    must equal is zero."""
    rows = _multiples()
    assert rows[4] == [0] * 5
    rows[4][3] = -1
    with pytest.raises(ArithmeticError, match="span"):
        integer_matrix_rank(_buffer(rows, code), [0, 1], [0, 1])


@pytest.mark.parametrize("code", ["b", "h", "i", "q"])
def test_integer_rank_fields_do_not_carry(code):
    """Entries at the range M = maxA of their type.  With the minor [0]
    (delta = 1, adj = [[1]]) the certificate's difference for row 1 is
    row 1 + M * row 0 = (0, -M^2, t).  For each field width w short of the
    bound's bit length, t = M^2 / 2^w makes that difference pack to 0 in
    w-bit fields: -M^2 carries into the next field and cancels t.  The
    minor is not maximal (the rank is 2), and the certificate says so at
    every such w."""
    M = 1 << 8 * array(code).itemsize - 1
    bound = 1 * 1 * M * 1 * M + 1 * M
    for w in range(1, bound.bit_length()):
        b, a = divmod(M * M >> w, M)
        rows = [[1, -M, b], [-M, 0, a]]
        diff = [x + M * y for x, y in zip(rows[1], rows[0])]
        assert diff == [0, -M * M, M * M >> w]
        assert sum(c << w * j for j, c in enumerate(diff)) == 0
        assert dense_rank_oracle(rows) == 2
        with pytest.raises(ArithmeticError, match="span"):
            integer_matrix_rank(_buffer(rows, code), [0], [0])


@pytest.mark.parametrize("M", [1, 127])
def test_integer_rank_fields_sized_from_the_data(M):
    """The fields are sized from the largest magnitude present (1 or 127
    here, not int8's 128): a row one unit off is still found, on the
    minor's columns and off them."""
    rows = [[M, 0, M, -M, M], [0, M, -M, M, 0], [M, M, 0, 0, M],
            [-M, 0, -M, M, -M], [0, 0, 0, 0, 0]]
    assert integer_matrix_rank(_buffer(rows, "b"), [0, 1], [0, 1]) == 2
    for i, j in [(2, 4), (3, 0), (4, 3)]:
        wrong = [row[:] for row in rows]
        wrong[i][j] += 1 if wrong[i][j] < 127 else -1
        assert dense_rank_oracle(wrong) == 3
        with pytest.raises(ArithmeticError, match="span"):
            integer_matrix_rank(_buffer(wrong, "b"), [0, 1], [0, 1])


def test_integer_rank_reads_the_buffer_in_place():
    """A transposed (non-contiguous) buffer is refused rather than copied;
    the certificate reads rows of the original in place."""
    A = np.array([[1, 2], [3, 4], [5, 6]], dtype=np.int64)
    with pytest.raises(TypeError, match="C-contiguous"):
        integer_matrix_rank(A.T, [0, 1], [0, 1])
    assert integer_matrix_rank(A, [0, 1], [0, 1]) == 2


def test_integer_rank_needs_signed_integers():
    with pytest.raises(TypeError):
        integer_matrix_rank(memoryview(bytes([1])).cast("B", (1, 1)),
                            [0], [0])
    with pytest.raises(TypeError):
        integer_matrix_rank(array("q", [1]), [0], [0])


def _koszul_square_complex():
    """Keys u (1,0), v (1,1), w (2,0): dv u = v and dh w = v."""
    key_bidegree = {"u": (1, 0), "v": (1, 1), "w": (2, 0)}
    dv = {"u": {"v": Fraction(1)}}
    dh = {"w": {"v": Fraction(1)}}
    return key_bidegree, dv, dh


def test_bigraded_pieces_keep_key_order():
    kb = {"b": (2, 1), "a": (1, 0), "c": (2, 1)}
    C = BigradedComplex(kb, {}, {}, (0, 1))
    assert C.pieces == {(2, 1): ["b", "c"], (1, 0): ["a"]}
    assert (C.dim(2, 1), C.dim(5, 5)) == (2, 0)


@pytest.mark.parametrize("dv, dh", [
    ({"u": {"w": Fraction(1)}}, {}),  # dv into the wrong weight
    ({}, {"w": {"u": Fraction(1)}}),  # dh into the wrong degree
    ({"u": {"zz": Fraction(1)}}, {}),  # an undeclared key
], ids=["dv-weight", "dh-degree", "undeclared"])
def test_bigraded_refuses_term_outside_target_piece(dv, dh):
    kb, _, _ = _koszul_square_complex()
    with pytest.raises(AssertionError, match="leaves its target piece"):
        BigradedComplex(kb, dv, dh, (0, 1))


def test_bigraded_validate_accepts_good_and_rejects_bad():
    kb, dv, dh = _koszul_square_complex()
    C = BigradedComplex(kb, dv, dh, (0, 1))
    C.validate()

    # corrupt: a second dv out of (1,1) makes dv^2 nonzero on u
    kb2 = dict(kb, x=(1, 2))
    dv2 = dict(dv, v={"x": Fraction(1)})
    C2 = BigradedComplex(kb2, dv2, dh, (0, 1))
    with pytest.raises(AssertionError, match="dv"):
        C2.validate()


def test_bigraded_validate_rejects_non_anticommuting():
    # dh dv u = dv dh u = y, so dv dh + dh dv = 2y on u
    kb = {"u": (2, 0), "v": (2, 1), "x": (1, 1), "y": (1, 2)}
    dv = {"u": {"v": Fraction(1)}, "x": {"y": Fraction(1)}}
    dh = {"u": {"x": Fraction(1)}, "v": {"y": Fraction(1)}}
    with pytest.raises(AssertionError, match="anticommutator"):
        BigradedComplex(kb, dv, dh, (0, 2)).validate()
    dh["v"] = {"y": Fraction(-1)}
    BigradedComplex(kb, dv, dh, (0, 2)).validate()


def test_total_homology_two_term():
    # 0 -> Q --id--> Q -> 0 is exact; a lone Q contributes 1
    kb, dv, dh = _koszul_square_complex()
    C = BigradedComplex(kb, dv, dh, (-1, 2))
    hom = total_homology(C, (0, 1))
    assert hom == {0: 1, 1: 0}  # (2,0)+(1,0) in degree 0; one dv + dh kills


def test_window_guard():
    kb, dv, dh = _koszul_square_complex()
    C = BigradedComplex(kb, dv, dh, (0, 1))
    with pytest.raises(CapTooSmall):
        total_homology(C, (0, 5))


def test_spectral_pages_collapse_on_zero_differential():
    kb = {"a": (1, 0), "b": (2, 1), "c": (2, 1)}
    C = BigradedComplex(kb, {}, {}, (0, 3))
    pages = spectral_pages(C, 3, window=(1, 2))
    for r in range(1, 4):
        assert pages[r] == {(2, 1): 2}


def _pages_from_definition(C, max_page, window):
    """E_r^{w,d} = Z_r^{w,d} / (Z_{r-1}^{w-1,d} + D Z_{r-1}^{w+r-1,d-1}) with
    Z_r^{w,d} = {x in F_w T^d : Dx in F_{w-r} T^{d+1}}, by dense kernels and
    spans of the key-indexed differentials; nothing shared with
    spectral_pages but the complex itself."""
    d_lo, d_hi = window
    weight = {k: w for k, (w, _) in C.key_bidegree.items()}
    basis = {d: [k for k, (_, dd) in C.key_bidegree.items() if dd == d]
             for d in range(d_lo - 1, d_hi + 2)}

    def D(d, x):
        """D of a dense vector over basis[d], dense over basis[d + 1]."""
        at = {k: i for i, k in enumerate(basis[d + 1])}
        y = [Fraction(0)] * len(basis[d + 1])
        for k, c in zip(basis[d], x):
            for of_key in (C.dv, C.dh):
                for k2, c2 in of_key.get(k, {}).items():
                    y[at[k2]] += c * c2
        return y

    def Z(r, w, d):
        cols = [i for i, k in enumerate(basis[d]) if weight[k] <= w]
        columns = [D(d, [Fraction(i == j) for i in range(len(basis[d]))])
                   for j in cols]
        rows = [[col[i] for col in columns]
                for i, k in enumerate(basis[d + 1]) if weight[k] > w - r]
        out = []
        for v in _dense_nullspace(rows, len(cols)):
            x = [Fraction(0)] * len(basis[d])
            for j, c in zip(cols, v):
                x[j] = c
            out.append(x)
        return out

    pages = []
    for r in range(max_page + 1):
        page = {}
        for d in range(d_lo, d_hi + 1):
            for w in C.weights():
                top = Z(r, w, d)
                if r == 0:
                    bottom = Z(0, w - 1, d)
                else:
                    bottom = Z(r - 1, w - 1, d) + [
                        D(d - 1, y) for y in Z(r - 1, w + r - 1, d - 1)]
                rank = dense_rank_oracle(top)
                assert dense_rank_oracle(top + bottom) == rank  # bottom <= top
                dim = rank - dense_rank_oracle(bottom)
                if dim:
                    page[(w, d)] = dim
        pages.append(page)
    return pages


def _zigzag_complex():
    """x (3,0), u (2,0), y (2,1), t (1,1) with dh x = -y, dv u = y,
    dh u = t: E_1 = E_2 is x and t, and d_2 [x] = [D(x + u)] = [t] kills
    both, so E_3 = 0."""
    kb = {"x": (3, 0), "u": (2, 0), "y": (2, 1), "t": (1, 1)}
    dv = {"u": {"y": Fraction(1)}}
    dh = {"x": {"y": Fraction(-1)}, "u": {"t": Fraction(1)}}
    return BigradedComplex(kb, dv, dh, (-1, 2))


def test_spectral_pages_zigzag_has_d2():
    C = _zigzag_complex()
    C.validate()
    e1 = {(3, 0): 1, (1, 1): 1}
    pages = spectral_pages(C, 4, window=(0, 1))
    assert pages == [
        {(3, 0): 1, (2, 0): 1, (2, 1): 1, (1, 1): 1}, e1, e1, {}, {}]
    assert _pages_from_definition(C, 4, (0, 1)) == pages


_rng = random.Random(9)
_RANDOM = [random_presentation(_rng) for _ in range(4)]
_BUILDERS = {"E": (build_E, (8, 14)), "G": (build_G, (4, 10)),
             "harrison": (harrison_shuffle_model, (8, 14))}


_CASES = ["cp2", "sullivan_s2"] + [
    f"{b}-{i}" for i in range(len(_RANDOM)) for b in _BUILDERS]


def _case_complex(case):
    """The cp2 or Sullivan S^2 word model, or builder b over random
    presentation i for case "b-i"."""
    if case in ("cp2", "sullivan_s2"):
        return build_E(load_presentation(f"{case}.alg"), 6, 6).complex
    b, i = case.split("-")
    builder, caps = _BUILDERS[b]
    return builder(_RANDOM[int(i)], *caps).complex


@pytest.mark.parametrize("case", _CASES)
def test_spectral_pages_match_definition(case):
    """The corner-rank pages equal the pages computed from the definition
    on the builders' complexes: the cp2 and Sullivan S^2 word models and
    three builders over four random presentations, through three pages past
    the weight span (where spectral_pages stops computing)."""
    C = _case_complex(case)
    lo, hi = C.complete_degrees
    window = (lo + 1, hi - 1)
    weights = C.weights()
    last = weights[-1] - weights[0] + 3
    assert spectral_pages(C, last, window) \
        == _pages_from_definition(C, last, window)


@pytest.mark.parametrize("case", _CASES)
def test_total_homology_matches_dense_ranks(case):
    """dim H^d = dim T^d - rank D_d - rank D_(d-1), the ranks taken by the
    dense oracle on a layout of dv + dh made here (keys in key_bidegree
    order, not the complex's own)."""
    C = _case_complex(case)
    lo, hi = C.complete_degrees
    basis = {d: [k for k, (_, dd) in C.key_bidegree.items() if dd == d]
             for d in range(lo, hi + 1)}

    def rank(d):
        at = {k: i for i, k in enumerate(basis[d + 1])}
        rows = [[Fraction(0)] * len(basis[d]) for _ in basis[d + 1]]
        for j, k in enumerate(basis[d]):
            for of_key in (C.dv, C.dh):
                for k2, c in of_key.get(k, {}).items():
                    rows[at[k2]][j] += c
        return dense_rank_oracle(rows)

    window = (lo + 1, hi - 1)
    assert total_homology(C, window) == {
        d: len(basis[d]) - rank(d) - rank(d - 1)
        for d in range(window[0], window[1] + 1)}
