"""Exact linear algebra over Q.

`Echelon` is the single exact elimination kernel: every rank, inverse,
coordinate extraction and quotient normal form over Q in the package is a
row reduction through it.  `integer_matrix_rank` is the certified numpy path
for large integer matrices.  On top sit sparse matrices with Fraction
entries (rank only) and bigraded complexes: basis keys in (weight, degree)
pieces with two anticommuting degree-+1 differentials held once, as
key-indexed sparse columns.  Total homology and the spectral-sequence page
dimensions for the weight filtration are ranks of blocks of the total
differential, which lays the pieces of each degree out by ascending weight.

No floating point ever enters a result: the numpy fast path is used only for
modular candidate discovery and for integer matrix products whose entries are
proven (by explicit magnitude bounds) to be exactly representable.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd

from .errors import CapTooSmall

__all__ = [
    "Echelon",
    "SparseMatrix",
    "integer_matrix_rank",
    "BigradedComplex",
    "total_homology",
    "spectral_pages",
]


_ZERO = Fraction(0)


def add_into(acc, key, val):
    """acc[key] += val in a sparse dict, dropping the key when it cancels."""
    s = acc.get(key, _ZERO) + val
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


class Echelon:
    """Sparse rows {col: Fraction} in semi-echelon form: each row's pivot is
    its smallest column and the pivot entry is 1.  Columns are any mutually
    comparable keys.

    With track=True each row also carries its expression {tag: coeff} over
    the tags of the inserted rows, and `reduce` returns the coefficients of a
    vector over those tags.  Since the min-first pivot set depends only on
    the row space, the pivots, the fully reduced residual and the
    coordinates over an independent set of inserted rows do not depend on
    insertion order or on how far rows are reduced."""

    def __init__(self, track=False):
        self.rows = {}  # pivot col -> row
        self.exprs = {} if track else None  # pivot col -> {tag: coeff}

    def __len__(self):
        return len(self.rows)

    def __contains__(self, col):
        return col in self.rows

    def _eliminate(self, vec, full):
        """Subtract pivot rows from a copy of vec in ascending column order.
        Returns (vec, coeffs, free): free is the smallest non-pivot column
        left when not `full` (elimination stops there), else None."""
        vec = dict(vec)
        coeffs = {} if self.exprs is not None else None
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
                return vec, coeffs, c
            for k, v in row.items():
                if k not in vec:
                    heappush(heap, k)
                add_into(vec, k, -f * v)
            if coeffs is not None:
                for t, e in self.exprs[c].items():
                    add_into(coeffs, t, f * e)
        return vec, coeffs, None

    def insert(self, row, tag=None):
        """Add a row; returns its new pivot column, or None if the row lies
        in the span of the rows already present."""
        vec, coeffs, c = self._eliminate(row, full=False)
        if c is None:
            return None
        inv = Fraction(1) / vec[c]
        self.rows[c] = {k: inv * v for k, v in vec.items()}
        if coeffs is not None:
            expr = {t: -e for t, e in coeffs.items()}
            add_into(expr, tag, Fraction(1))
            self.exprs[c] = {t: inv * e for t, e in expr.items()}
        return c

    def reduce(self, vec):
        """(residual, coeffs): vec = sum of coeffs[t] * (row tagged t) +
        residual, with the residual zero at every pivot column.  coeffs is
        None unless tracking."""
        vec, coeffs, _ = self._eliminate(vec, full=True)
        return vec, coeffs


class SparseMatrix:
    """rows x cols matrix over Q; entries stored as {(i, j): Fraction},
    zeros never stored."""

    def __init__(self, rows, cols, entries=None):
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise ValueError(f"entry ({i},{j}) out of bounds")
                v = Fraction(v)
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
# certified rank for large integer matrices (numpy-backed)

_PRIMES_23 = [8388593, 8388587, 8388581, 8388571, 8388547, 8388539, 8388473,
              8388461, 8388451, 8388403, 8388379, 8388373, 8388319, 8388301,
              8388287, 8388239, 8388203, 8388143, 8388137, 8388101]


def _modp_pivots(A, p, chunk=2048):
    """Row/column indices of a pivot set of A mod p (incremental RREF).
    Returns (pivot_rows, pivot_cols) in insertion order."""
    import numpy as np

    nrows, ncols = A.shape
    E = np.zeros((0, ncols), dtype=np.int64)  # RREF rows mod p
    pivrows, pivcols = [], []
    for lo in range(0, nrows, chunk):
        B = A[lo:lo + chunk].astype(np.int64) % p
        if pivcols:
            coeff = B[:, pivcols]
            B = (B - (coeff @ E) % p) % p
        nz = np.flatnonzero(B.any(axis=1))
        for k in nz:
            row = B[k].copy()
            # re-reduce (earlier rows in this chunk may have added pivots)
            for idx in range(len(pivcols)):
                c = pivcols[idx]
                if row[c]:
                    row = (row - row[c] * E[idx]) % p
            if not row.any():
                continue
            c = int(np.flatnonzero(row)[0])
            row = (row * pow(int(row[c]), p - 2, p)) % p
            if len(pivcols):
                f = E[:, c].copy()
                E = (E - np.outer(f, row)) % p
            E = np.vstack([E, row[None, :]])
            pivrows.append(lo + int(k))
            pivcols.append(c)
    return pivrows, pivcols


def _exact_inverse(S):
    """Exact inverse of a square matrix given as a list of lists of
    ints/Fractions.  Raises ZeroDivisionError if singular."""
    ech = Echelon(track=True)
    for i, row in enumerate(S):
        if ech.insert({j: Fraction(x) for j, x in enumerate(row) if x},
                      i) is None:
            raise ZeroDivisionError("singular matrix")
    # row j of the inverse holds the coordinates of e_j over the rows of S
    inv = []
    for j in range(len(S)):
        _, coeffs = ech.reduce({j: Fraction(1)})
        inv.append([coeffs.get(i, _ZERO) for i in range(len(S))])
    return inv


def _grow_pivots_exact(A, pivrows, extra_rows):
    """Extend an independent row set with exact elimination over Q."""
    ech = Echelon()
    keep_rows, keep_cols = [], []
    for i in pivrows + extra_rows:
        c = ech.insert({j: Fraction(int(v)) for j, v in enumerate(A[i]) if v})
        if c is not None:
            keep_rows.append(i)
            keep_cols.append(c)
    return keep_rows, keep_cols


def _dedup_rows(A):
    """Drop zero rows and rows that repeat an earlier row up to sign; this
    never changes the row space."""
    import numpy as np

    seen = set()
    keep = []
    for i in range(A.shape[0]):
        row = A[i]
        key = row.tobytes()
        if key in seen:
            continue
        if not row.any():
            continue
        seen.add(key)
        seen.add((-row).tobytes())
        keep.append(i)
    if len(keep) == A.shape[0]:
        return A
    return np.ascontiguousarray(A[keep])


def integer_matrix_rank(A, chunk=2048):
    """Exact Q-rank of an integer numpy matrix, certified.

    Pivot candidates are found mod p (cheap); the lower bound is certified by
    exactly inverting the pivot submatrix S, and the upper bound by exactly
    verifying that every row is a Q-combination of the pivot rows (integer
    identity delta * A == (A[:,C] @ adj) @ A[R] with adj = delta * S^-1 and
    delta the common denominator of S^-1, evaluated either in
    overflow-checked int64/float64 or multi-modularly with enough primes to
    exceed the explicit magnitude bound)."""
    import numpy as np

    A = np.ascontiguousarray(A)
    assert np.issubdtype(A.dtype, np.integer)
    nrows, ncols = A.shape
    if nrows == 0 or ncols == 0:
        return 0
    maxA = int(np.abs(A).max())
    if maxA == 0:
        return 0
    A = _dedup_rows(A)
    nrows = A.shape[0]

    p0 = _PRIMES_23[0]
    pivrows, pivcols = _modp_pivots(A, p0, chunk=chunk)

    for _attempt in range(8):
        r = len(pivrows)
        S = [[int(A[i, j]) for j in pivcols] for i in pivrows]
        Sinv = _exact_inverse(S)  # S nonsingular certifies rank >= r
        den = 1
        for row in Sinv:
            for x in row:
                den = den * x.denominator // gcd(den, x.denominator)
        delta = den
        adj = [[int(x * delta) for x in row] for row in Sinv]
        maxadj = max((abs(x) for row in adj for x in row), default=0)

        bound_w = r * maxA * maxadj
        bound = r * bound_w * maxA + abs(delta) * maxA

        R = A[pivrows].astype(np.int64)
        bad = _verify_membership(A, pivcols, adj, delta, R, bound, chunk)
        if bad is None:
            return r
        # mod-p discovery missed something (vanishing minor); grow exactly
        pivrows, pivcols = _grow_pivots_exact(A, pivrows, [bad])
    raise ArithmeticError("rank certification failed to converge")


def _verify_membership(A, pivcols, adj, delta, R, bound, chunk):
    """Check delta*A == (A[:,C] @ adj) @ R exactly.  Returns an offending row
    index, or None if the identity holds."""
    import numpy as np

    nrows = A.shape[0]
    r = len(pivcols)
    if bound < 2 ** 62:
        adj_np = np.array(adj, dtype=np.int64)
        for lo in range(0, nrows, chunk):
            Ach = A[lo:lo + chunk].astype(np.int64)
            W = Ach[:, pivcols] @ adj_np
            T = W @ R
            diff = T - delta * Ach
            if diff.any():
                return lo + int(np.flatnonzero(diff.any(axis=1))[0])
        return None
    # multi-modular
    need = 2 * bound + 1
    primes, prod = [], 1
    for p in _PRIMES_23:
        primes.append(p)
        prod *= p
        if prod >= need:
            break
    if prod < need:
        raise ArithmeticError("prime pool too small for certification bound")
    for p in primes:
        adj_p = np.array([[x % p for x in row] for row in adj], dtype=np.int64)
        Rp = R % p
        dp = delta % p
        for lo in range(0, nrows, chunk):
            Ach = A[lo:lo + chunk].astype(np.int64) % p
            W = (Ach[:, pivcols] @ adj_p) % p
            T = (W @ Rp) % p
            diff = (T - dp * Ach) % p
            if diff.any():
                bad = lo + int(np.flatnonzero(diff.any(axis=1))[0])
                return bad
    return None


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

    def total_offsets(self, d):
        """Coordinate layout of T^d = sum over w of piece (w, d):
        returns ({w: offset}, total_dim), weights ascending."""
        offs, t = {}, 0
        for w in self.weights():
            n = self.dim(w, d)
            if n:
                offs[w] = t
                t += n
        return offs, t

    def total_differential(self, d):
        """SparseMatrix T^d -> T^{d+1} for D = dv + dh; a key's coordinate is
        its piece's weight offset plus its position in the piece."""
        offs_d, nd = self.total_offsets(d)
        offs_t, nt = self.total_offsets(d + 1)
        row = {k: off + i for w, off in offs_t.items()
               for i, k in enumerate(self.pieces[(w, d + 1)])}
        entries = {}
        for w, off in offs_d.items():
            for j, key in enumerate(self.pieces[(w, d)]):
                for of_key in (self.dv, self.dh):
                    for k2, c in of_key.get(key, {}).items():
                        entries[(row[k2], off + j)] = c
        return SparseMatrix(nt, nd, entries)


def total_homology(C, window):
    """dims of H^d of the total complex for d in window = (d_lo, d_hi)."""
    d_lo, d_hi = window
    C.check_window(d_lo - 1, d_hi + 1)
    ranks = {}
    for d in range(d_lo - 1, d_hi + 1):
        ranks[d] = C.total_differential(d).rank()
    out = {}
    for d in range(d_lo, d_hi + 1):
        _, nd = C.total_offsets(d)
        out[d] = nd - ranks[d] - ranks[d - 1]
        assert out[d] >= 0
    return out


def spectral_pages(C, max_page, window=None):
    """Page dimensions E^0..E^max_page of the weight-filtration spectral
    sequence; each page maps (w, d) -> dim (zero dims omitted).

    window restricts reported degrees; defaults to the guaranteed range
    shrunk by one on each side (each page at degree d looks at chains in
    degrees d-1 and d+1).

    Each dimension is a rank of a corner block of D_d: F_a T^d is a column
    prefix and the weights > b a row suffix of T^{d+1} (pieces ascend in
    weight), and rho(d, a, b) is the rank of that block.  dim Z_r^{w,d} =
    |F_w T^d| - rho(d, w, w-r); modulo Z_{r-1}^{w-1,d}, D Z_{r-1}^{w+r-1,d-1}
    adds the rank of D mod F_{w-1} on the kernel of D mod F_w, which is
    rho(d-1, w+r-1, w-1) - rho(d-1, w+r-1, w).

    d_r lowers the weight by r, so it vanishes once r exceeds the weight
    span: the pages after E^(span+1) are that same page dict."""
    if window is None:
        lo, hi = C.complete_degrees
        window = (lo + 1, hi - 1)
    d_lo, d_hi = window
    C.check_window(d_lo - 1, d_hi + 1)
    pages = [{(w, d): len(keys) for (w, d), keys in C.pieces.items()
              if d_lo <= d <= d_hi}]
    weights = C.weights()
    Ds = {d: C.total_differential(d) for d in range(d_lo - 1, d_hi + 1)}
    layout = {d: C.total_offsets(d) for d in range(d_lo - 1, d_hi + 2)}
    ranks = {}

    def end(d, w):
        """Length of F_w T^d: the coordinates of weights <= w."""
        offs, total = layout[d]
        return next((o for wp, o in offs.items() if wp > w), total)

    def rho(d, a, b):
        """Rank of D_d from the columns of weight <= a to the rows of
        weight > b."""
        key = (d, end(d, a), end(d + 1, b))
        if key not in ranks:
            D, col_end, row_start = Ds[d], key[1], key[2]
            ranks[key] = SparseMatrix(
                D.rows - row_start, col_end,
                {(i - row_start, j): v for (i, j), v in D.entries.items()
                 if j < col_end and i >= row_start}).rank()
        return ranks[key]

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
