from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liecograph.errors import CapTooSmall
from liecograph.linalg import (
    BasedSpace,
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
    assert M.transpose().rank() == expect


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
    B = _to_sparse([[0, 1], [1, 0]])
    assert A.mul(B).entries == _to_sparse([[2, 1], [4, 3]]).entries
    assert A.add(A.scale(-1)).is_zero()
    assert SparseMatrix.identity(2).mul(A).entries == A.entries
    assert A.apply({0: Fraction(1), 1: Fraction(1)}) == {0: Fraction(3),
                                                         1: Fraction(7)}


def test_based_space_rejects_duplicates():
    with pytest.raises(ValueError):
        BasedSpace(["a", "a"])


def _koszul_square_complex():
    """Two-variable model: pieces (1,0), (1,1), (2,1) with dv the identity on
    weight 1 and dh mapping (2,1) into (1,2) (absent), kept zero; checks run
    on declared pieces only."""
    pieces = {
        (1, 0): BasedSpace(["u"]),
        (1, 1): BasedSpace(["v"]),
        (2, 0): BasedSpace(["w"]),
    }
    dv = {(1, 0): SparseMatrix(1, 1, {(0, 0): Fraction(1)})}
    dh = {(2, 0): SparseMatrix(1, 1, {(0, 0): Fraction(1)})}
    return pieces, dv, dh


def test_bigraded_validate_accepts_good_and_rejects_bad():
    pieces, dv, dh = _koszul_square_complex()
    C = BigradedComplex(pieces, dv, dh, (0, 1))
    C.validate()

    # corrupt: make dv out of (1,0) land where a second dv is also nonzero
    pieces2 = dict(pieces)
    pieces2[(1, 2)] = BasedSpace(["x"])
    dv2 = dict(dv)
    dv2[(1, 1)] = SparseMatrix(1, 1, {(0, 0): Fraction(1)})
    C2 = BigradedComplex(pieces2, dv2, dh, (0, 1))
    with pytest.raises(AssertionError, match="dv"):
        C2.validate()


def test_total_homology_two_term():
    # 0 -> Q --id--> Q -> 0 is exact; a lone Q contributes 1
    pieces, dv, dh = _koszul_square_complex()
    C = BigradedComplex(pieces, dv, dh, (-1, 2))
    hom = total_homology(C, (0, 1))
    assert hom == {0: 1, 1: 0}  # (2,0)+(1,0) in degree 0; one dv + dh kills


def test_window_guard():
    pieces, dv, dh = _koszul_square_complex()
    C = BigradedComplex(pieces, dv, dh, (0, 1))
    with pytest.raises(CapTooSmall):
        total_homology(C, (0, 5))


def test_spectral_pages_collapse_on_zero_differential():
    pieces = {
        (1, 0): BasedSpace(["a"]),
        (2, 1): BasedSpace(["b", "c"]),
    }
    C = BigradedComplex(pieces, {}, {}, (0, 3))
    pages = spectral_pages(C, 3, window=(1, 2))
    for r in range(1, 4):
        assert pages[r] == {(2, 1): 2}
