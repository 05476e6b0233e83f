from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecograph.errors import CapTooSmall
from liecograph.linalg import (
    BigradedComplex,
    Echelon,
    SparseMatrix,
    _dedup_rows,
    _exact_inverse,
    integer_matrix_rank,
    span_dimension,
    spectral_pages,
    total_homology,
)


def _dense_rank_oracle(rows):
    """Textbook fraction-free Gaussian elimination, independent of the
    SparseMatrix code path."""
    rows = [list(map(Fraction, r)) for r in rows]
    rank = 0
    col = 0
    ncols = len(rows[0]) if rows else 0
    while rank < len(rows) and col < ncols:
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


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
    expect = _dense_rank_oracle(rows)
    assert M.rank() == expect
    assert _to_sparse([list(col) for col in zip(*rows)]).rank() == expect


def _sparse_rows(rows):
    return [{j: Fraction(v) for j, v in enumerate(r) if v} for r in rows]


@settings(max_examples=120, deadline=None)
@given(small_matrix, st.data())
def test_echelon_matches_oracle(rows, data):
    ech = Echelon(track=True)
    for t, row in enumerate(_sparse_rows(rows)):
        ech.insert(row, t)
    assert len(ech) == _dense_rank_oracle(rows)
    rref = ech.rref()
    for c, row in rref.items():
        assert row[c] == 1
        assert all(p == c or p not in row for p in rref)
    for row in _sparse_rows(rows):
        residual, _ = ech.reduce(row)
        assert residual == {}
    ncols = len(rows[0])
    v = {j: Fraction(x) for j, x in enumerate(data.draw(
        st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols))) if x}
    residual, coeffs = ech.reduce(v)
    assert all(c not in residual for c in rref)
    total = dict(residual)
    for t, f in coeffs.items():
        for j, x in enumerate(rows[t]):
            total[j] = total.get(j, 0) + f * x
    assert {j: x for j, x in total.items() if x} == v


def test_exact_inverse():
    S = [[2, 1], [1, 1]]
    assert _exact_inverse(S) == [[1, -1], [-1, 2]]
    with pytest.raises(ZeroDivisionError):
        _exact_inverse([[1, 2], [2, 4]])


@settings(max_examples=120, deadline=None)
@given(small_matrix)
def test_kernel_vectors_annihilated(rows):
    M = _to_sparse(rows)
    ker = M.kernel()
    assert len(ker) == M.cols - M.rank()
    for v in ker:
        assert M.apply(v) == {}
    assert span_dimension(ker) == len(ker)


@settings(max_examples=100, deadline=None)
@given(small_matrix)
def test_integer_rank_certified(rows):
    A = np.array(rows, dtype=np.int64)
    assert integer_matrix_rank(A) == _dense_rank_oracle(rows)


def test_dedup_rows_preserves_rank():
    rng = np.random.default_rng(5)
    A = rng.integers(-3, 4, size=(6, 7))
    stacked = np.vstack([A, A, -A, np.zeros((3, 7), dtype=A.dtype)])
    D = _dedup_rows(stacked)
    assert D.shape[0] <= A.shape[0] + 1  # dedup may keep an all-zero-free set
    assert integer_matrix_rank(D) == _dense_rank_oracle(A.tolist())


def test_matrix_algebra():
    A = _to_sparse([[1, 2], [3, 4]])
    assert A.apply({0: Fraction(1), 1: Fraction(1)}) == {0: Fraction(3),
                                                         1: Fraction(7)}


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
    # T^0 = u (weight 1) then w (weight 2); T^1 = v
    assert C.total_differential(0).entries == {(0, 0): 1, (0, 1): 1}
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
