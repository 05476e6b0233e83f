"""Exact linear algebra over Q.

`Echelon` is the single exact elimination kernel: every rank, exact inverse
and quotient normal form over Q in the package is a row reduction through
it, fraction-free on primitive integer rows.  `integer_matrix_rank`
certifies the rank of a large integer matrix on a nonsingular minor its
caller names, inverted over one denominator (`_exact_inverse`).  On top sit sparse matrices (rank only)
and bigraded complexes: basis keys in (weight, degree) pieces with two
anticommuting degree-+1 differentials held once, as key-indexed sparse
columns.  Total homology and the spectral-sequence page dimensions for the
weight filtration, both in a degree window the caller names, are ranks of
corners of the total differential D = dv + dh, read from the key maps and
memoised on the complex; there is no coordinate layout.

Everything is Python integers and Fractions; no float is ever formed.  The
rank certificate packs each row of its matrix into one integer, a field per
column wide enough for an explicit bound, so it is exact at any magnitude.
"""

import sys
from bisect import bisect_right
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import compress
from math import gcd, lcm
from operator import mul

from .errors import CapTooSmall

__all__ = [
    "Echelon",
    "SparseMatrix",
    "integer_matrix_rank",
    "BigradedComplex",
    "total_homology",
    "spectral_pages",
]


def add_into(acc, key, val):
    """acc[key] += val (a new key takes val as is), dropping a zero sum."""
    s = acc.get(key)
    s = val if s is None else s + val
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


class Echelon:
    """Sparse rows {col: int} in semi-echelon form: each row is primitive
    (the gcd of its entries is 1), its pivot is its smallest column and the
    pivot entry is positive.  Columns are any mutually comparable keys.

    Elimination is fraction-free (Bareiss 1968): a vector, scaled by the lcm
    of its denominators, clears column c against the row with pivot entry p
    as vec <- a*vec - b*row, where a = p/g, b = f/g, g = gcd(p, f) and f is
    the vector's entry at c; one integer denominator for the vector records
    the scaling.  `reduce` returns exact Fractions.  The min-first pivots
    and the fully reduced residual depend only on the row space."""

    def __init__(self):
        self.rows = {}  # pivot col -> row

    def __len__(self):
        return len(self.rows)

    def _eliminate(self, vec, full):
        """Clear pivot columns of vec in ascending column order.  Returns
        (ivec, den, free): ivec/den is the reduced vector with ivec integral,
        and free is the smallest non-pivot column left when not `full`
        (elimination stops there), else None."""
        den = lcm(*(v.denominator for v in vec.values()))
        vec = {k: v.numerator * (den // v.denominator) for k, v in vec.items()}
        heap = list(vec)
        heapify(heap)
        while heap:
            c = heappop(heap)
            f = vec.get(c)
            if not f:
                continue  # cancelled, or a repeated heap entry
            row = self.rows.get(c)
            if row is None:
                if full:
                    continue
                return vec, den, c
            p = row[c]
            g = gcd(p, f)
            a, b = p // g, f // g
            if a != 1:
                den *= a
                for k in vec:
                    vec[k] *= a
            for k, v in row.items():
                s = vec.get(k)
                if s is None:
                    heappush(heap, k)
                    s = 0
                s -= b * v
                if s:
                    vec[k] = s
                else:
                    del vec[k]
        return vec, den, None

    def insert(self, row):
        """Add a row; returns its new pivot column, or None if the row lies
        in the span of the rows already present."""
        vec, _, c = self._eliminate(row, full=False)
        if c is None:
            return None
        g = gcd(*vec.values())
        if vec[c] < 0:
            g = -g
        self.rows[c] = {k: v // g for k, v in vec.items()}
        return c

    def reduce(self, vec):
        """The residual of vec modulo the rows: zero at every pivot column,
        and vec minus it lies in the row span."""
        vec, den, _ = self._eliminate(vec, full=True)
        return {k: Fraction(v, den) for k, v in vec.items()}


class SparseMatrix:
    """rows x cols matrix over Q; entries stored as given (ints or Fractions)
    in {(i, j): value}, zeros never stored."""

    def __init__(self, rows, cols, entries=None):
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise ValueError(f"entry ({i},{j}) out of bounds")
                if v:
                    self.entries[(i, j)] = v

    def rank(self):
        """Exact rank by incremental row elimination."""
        rows = {}
        for (i, j), v in self.entries.items():
            rows.setdefault(i, {})[j] = v
        ech = Echelon()
        for row in rows.values():
            ech.insert(row)
        return len(ech)

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"


# ---------------------------------------------------------------------------
# certified rank of an integer matrix on a named minor

def _exact_inverse(S):
    """(adj, delta) with S^-1 = adj / delta, adj integral and delta > 0 the
    least common denominator, for a square integer matrix S (a list of
    lists).  S goes into an Echelon beside unit tag columns n + i; reducing
    e_j leaves minus row j of S^-1 on the tag columns.  Raises
    ZeroDivisionError if S is singular (a pivot falls on a tag column)."""
    n, ech = len(S), Echelon()
    for i, row in enumerate(S):
        row = {j: x for j, x in enumerate(row) if x}
        if ech.insert({**row, n + i: 1}) >= n:
            raise ZeroDivisionError("singular matrix")
    rows = [ech._eliminate({j: 1}, full=True)[:2] for j in range(n)]
    delta = lcm(*(den for _, den in rows))
    adj = [[-vec.get(n + k, 0) * (delta // den) for k in range(n)]
           for vec, den in rows]
    g = gcd(delta, *(x for row in adj for x in row))
    return [[x // g for x in row] for row in adj], delta // g


# 1 on a byte with its top bit set: read on an entry's most significant
# byte, 1 when the entry is negative
_SIGN = bytes(b >> 7 for b in range(256))


def integer_matrix_rank(A, rows, cols):
    """Exact Q-rank of an integer matrix A, certified on the minor
    S = A[rows, cols] that the caller names.  A is a 2-D buffer of signed
    integers: a memoryview such as PairingMatrix.quotient, or a numpy
    integer array.

    Lower bound: S has an exact inverse, so rank >= len(rows).  Upper bound:
    every row of A is a Q-combination of the rows `rows`, checked as the
    integer identity delta * A[i] == sum_k A[i, cols[k]] * B[k] for every
    row i, with B = adj @ A[rows], adj = delta * S^-1 and delta the common
    denominator of S^-1.  Each row is packed into one int, entry j in the
    j-th field of W bits (Kronecker substitution), so each side is one
    integer per row.  Every entry of A is at most maxA, the largest
    magnitude its type holds, so every entry of the difference of the two
    sides is at most the explicit bound r^2 maxA^2 max|adj| + delta maxA;
    W holds the bound and a sign bit, so the packed difference is 0 only
    when every entry is, at any magnitude.  Raises ArithmeticError if S is
    singular or if the identity fails (S is not a maximal nonsingular
    minor); it never returns an uncertified number."""
    A = memoryview(A)
    if A.ndim != 2 or A.format not in tuple("bhilqn"):
        raise TypeError("integer_matrix_rank needs a 2-D buffer of signed "
                        f"integers, not {A.ndim}-D of {A.format!r}")
    rows, cols = list(rows), list(cols)
    r = len(rows)
    if len(cols) != r:
        raise ArithmeticError(f"minor of {r} rows and {len(cols)} columns")
    C, k = A.shape[1], A.itemsize
    raw = A.tobytes()
    flat = memoryview(raw).cast(A.format)
    try:
        adj, delta = _exact_inverse(
            [[flat[i * C + j] for j in cols] for i in rows])
    except ZeroDivisionError:
        raise ArithmeticError("the named minor is singular") from None
    maxA = 1 << 8 * k - 1
    maxadj = max((abs(x) for row in adj for x in row), default=0)
    bound = r * r * maxA * maxadj * maxA + delta * maxA
    m = (bound.bit_length() + 8) // 8  # bytes per field, W = 8m

    def packed(i):
        """Row i as sum_j A[i, j] * 2^(W*j): its bytes spread into the low
        bytes of the fields, less 2^(8k) in each field whose entry is
        negative."""
        row = raw[i * C * k:(i + 1) * C * k]
        if sys.byteorder == "big":
            # entries little-endian, in reverse column order, the same for
            # every row: the identity holds column by column either way
            row = row[::-1]
        fields, signs = bytearray(C * m), bytearray(C * m)
        for t in range(k):
            fields[t::m] = row[t::k]
        signs[::m] = row[k - 1::k].translate(_SIGN)
        return (int.from_bytes(fields, "little")
                - (int.from_bytes(signs, "little") << 8 * k))

    span = [packed(i) for i in rows]
    B = [sum(a * p for a, p in zip(arow, span) if a) for arow in adj]
    for i in range(A.shape[0]):
        a = list(map(flat[i * C:(i + 1) * C].__getitem__, cols))
        if delta * packed(i) != sum(map(mul, compress(a, a), compress(B, a))):
            raise ArithmeticError(
                "a row lies outside the span of the named minor's rows")
    return r


# ---------------------------------------------------------------------------
# bigraded complexes

def _apply(of_key, vec, out):
    """Accumulate the key map of_key applied to the key vector vec into out."""
    for k, c in vec.items():
        for k2, c2 in of_key.get(k, {}).items():
            add_into(out, k2, c * c2)
    return out


class BigradedComplex:
    """Basis keys in pieces (weight w >= 1, degree d >= 0) with two
    differentials held once, as key-indexed sparse columns: dv[key] =
    {key2: coeff} lands in (w, d+1) and dh[key] in (w-1, d+1).  Each piece
    lists its keys in the order of key_bidegree (key -> (w, d)).

    `complete_degrees` is the inclusive degree range within which every
    contributing piece is present (cap metadata recorded by the builder);
    reporting operations refuse windows outside it rather than silently
    truncating."""

    def __init__(self, key_bidegree, dv, dh, complete_degrees):
        self.key_bidegree = key_bidegree
        self.dv = dv
        self.dh = dh
        self.complete_degrees = tuple(complete_degrees)
        self._degree_keys, self._ranks = {}, {}  # degree_keys, rank memos
        self.pieces = {}  # (w, d) -> [keys]
        for key, bd in key_bidegree.items():
            self.pieces.setdefault(bd, []).append(key)
        for of_key, dw in ((dv, 0), (dh, -1)):
            for key, terms in of_key.items():
                w, d = key_bidegree[key]
                for k2 in terms:
                    if key_bidegree.get(k2) != (w + dw, d + 1):
                        raise AssertionError(
                            f"differential term leaves its target piece: "
                            f"{key} ({w},{d}) -> {k2} {key_bidegree.get(k2)}")

    def dim(self, w, d):
        return len(self.pieces.get((w, d), ()))

    def weights(self):
        return sorted({w for (w, _) in self.pieces})

    def check_window(self, d_lo, d_hi):
        lo, hi = self.complete_degrees
        if d_lo < lo or d_hi > hi:
            raise CapTooSmall(
                f"window [{d_lo}, {d_hi}] exceeds guaranteed-complete degree "
                f"range [{lo}, {hi}]; rebuild with larger caps"
            )

    def validate(self):
        """Entry-exact check of dv^2 = 0, dh^2 = 0, dv dh + dh dv = 0 on every
        piece present.  Raises AssertionError with the offending bidegree."""
        dv, dh = self.dv, self.dh
        for (w, d), keys in self.pieces.items():
            for name, f in (("dv^2", dv), ("dh^2", dh)):
                assert not any(_apply(f, f.get(k, {}), {}) for k in keys), (
                    f"{name} != 0 at (w={w}, d={d})")
            assert not any(
                _apply(dh, dv.get(k, {}), _apply(dv, dh.get(k, {}), {}))
                for k in keys), f"anticommutator != 0 at (w={w}, d={d})"

    # -- total complex -----------------------------------------------------

    def degree_keys(self, d):
        """The keys of T^d = sum over w of piece (w, d), weights ascending
        (each piece in its own order), and their weights; kept per degree."""
        if d not in self._degree_keys:
            keys = [k for w in self.weights()
                    for k in self.pieces.get((w, d), ())]
            weights = [self.key_bidegree[k][0] for k in keys]
            self._degree_keys[d] = keys, weights
        return self._degree_keys[d]

    def count(self, d, w=None):
        """|F_w T^d|: the number of degree-d keys of weight <= w (all of
        T^d when w is None)."""
        keys, weights = self.degree_keys(d)
        return len(keys) if w is None else bisect_right(weights, w)

    def rank(self, d, a=None, b=None):
        """Rank of D = dv + dh from the degree-d keys of weight <= a to the
        degree-(d+1) keys of weight > b (all of D by default).  One row per
        target key holds the coefficients of the source keys by position in
        degree_keys(d); the rows go in sparsest first, which keeps the
        elimination's fill-in down.  Memoised by the key sets it reads,
        (d, |F_a T^d|, |F_b T^(d+1)|)."""
        n, m = self.count(d, a), 0 if b is None else self.count(d + 1, b)
        if (d, n, m) not in self._ranks:
            kb, rows = self.key_bidegree, {}
            for j, key in enumerate(self.degree_keys(d)[0][:n]):
                for of_key in (self.dv, self.dh):
                    for k2, c in of_key.get(key, {}).items():
                        if c and (b is None or kb[k2][0] > b):
                            rows.setdefault(k2, {})[j] = c
            ech = Echelon()
            for row in sorted(rows.values(), key=len):
                ech.insert(row)
            self._ranks[(d, n, m)] = len(ech)
        return self._ranks[(d, n, m)]


def total_homology(C, window):
    """dims of H^d of the total complex for d in window = (d_lo, d_hi)."""
    d_lo, d_hi = window
    C.check_window(d_lo - 1, d_hi + 1)
    out = {}
    for d in range(d_lo, d_hi + 1):
        out[d] = C.count(d) - C.rank(d - 1) - C.rank(d)
        assert out[d] >= 0
    return out


def spectral_pages(C, max_page, window):
    """Page dimensions E^0..E^max_page of the weight-filtration spectral
    sequence in the degrees window = (d_lo, d_hi); each page maps (w, d) ->
    dim (zero dims omitted).  A page at degree d looks at chains in degrees
    d-1 and d+1, so C must be complete from d_lo - 1 to d_hi + 1.

    Each dimension is a rank of a corner of D = dv + dh read from the key
    maps: rho(d, a, b) = C.rank(d, a, b) is the rank of D from F_a T^d to
    the weights > b of T^(d+1), and end(d, w) = C.count(d, w) = |F_w T^d|.
    dim Z_r^{w,d} = end(d, w) - rho(d, w, w-r); modulo Z_{r-1}^{w-1,d},
    D Z_{r-1}^{w+r-1,d-1} adds the rank of D mod F_{w-1} on the kernel of D
    mod F_w, which is rho(d-1, w+r-1, w-1) - rho(d-1, w+r-1, w).

    d_r lowers the weight by r, so it vanishes once r exceeds the weight
    span: the pages after E^(span+1) are that same page dict."""
    d_lo, d_hi = window
    C.check_window(d_lo - 1, d_hi + 1)
    pages = [{(w, d): len(keys) for (w, d), keys in C.pieces.items()
              if d_lo <= d <= d_hi}]
    weights = C.weights()
    end, rho = C.count, C.rank
    span = weights[-1] - weights[0] if weights else 0
    for r in range(1, min(max_page, span + 1) + 1):
        page = {}
        for d in range(d_lo, d_hi + 1):
            for w in weights:
                if not end(d, w):
                    continue
                dim = (end(d, w) - rho(d, w, w - r)
                       - end(d, w - 1) + rho(d, w - 1, w - r)
                       - rho(d - 1, w + r - 1, w - 1)
                       + rho(d - 1, w + r - 1, w))
                assert dim >= 0
                if dim:
                    page[(w, d)] = dim
        pages.append(page)
    return pages + [pages[-1]] * (max_page + 1 - len(pages))
