"""Exact dense linear algebra over prime fields GF(p).

Matrices are immutable, tiny (at most 32 x 32) and stored as flat row-major
tuples of ints reduced mod p.  Everything is plain integer arithmetic:
determinism and exactness matter more than speed at this scale.

Column independence has two elimination kernels and one hyperplane pass,
so that questions about many column subsets never build a matrix per
subset.  `column_bases` lists the independent r-sets of an r x n matrix in
`combinations` order, by one of two paths picked from p, n and r alone:

- `_dfs_bases` walks the column subsets as a DFS that carries a partially
  row-reduced copy of the matrix.  Taking column j picks the first
  remaining row that is nonzero at j as j's pivot row and clears column j
  from the other remaining rows, so every taken column is zero on the
  remaining rows; a later column is then independent of the taken ones iff
  some remaining row is nonzero at it.  A branch is dropped as soon as that
  fails or too few columns remain, and a caller that stops reading stops
  the walk.  It answers every field and every shape.
- `_hyperplane_bases` answers an r x n matrix over GF(2)/GF(3) in one
  pass: an r-set is a basis iff it lies in no hyperplane, and the
  hyperplanes are the zero sets of the (p^r - 1)/(p - 1) normals, each a
  few bitwise operations on column masks.  It pays only when the
  normals and its 2^n-bit ints cost less than the DFS's C(n + 1, r) nodes;
  `_hyperplanes_pay` is that rule.  It runs to the end before the first set
  is read.

`independent_columns` tests one short list by keeping an independent set as
normalised (pivot, vector) pairs (`_absorb`): vector[pivot] == 1, and each
stored vector is zero at every earlier pivot, so reducing a new column
against them in order leaves it zero at every pivot, and it is independent
iff the remainder is nonzero.  `rank` and `independent_prefix` absorb rows alike.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from math import comb
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .bitset import _bit_bytes, _down_closure, size_masks
from .errors import FieldMismatch, IndexOutOfRange, MatrixTooLarge, NotPrime
from .frozen import Frozen

MAX_DIM = 32


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class FieldPrime(Frozen):
    """Immutable: a prime field GF(p) with 2 <= p < 2**16."""

    p: int

    def __init__(self, p: int):
        if not (2 <= p < 2 ** 16) or not _is_prime(p):
            raise NotPrime(f"{p} is not a prime in [2, 2^16)")
        self.__dict__["p"] = p


@lru_cache(maxsize=8)  # p comes from the input, so the memo has a bound
def field(p: int) -> FieldPrime:
    return FieldPrime(p)


def check_shape(rows: int, cols: int) -> None:
    """Raise MatrixTooLarge for a shape past MAX_DIM, before any entry is built."""
    if rows < 0 or cols < 0 or rows > MAX_DIM or cols > MAX_DIM:
        raise MatrixTooLarge(f"{rows}x{cols} exceeds {MAX_DIM}x{MAX_DIM}")


class GFMatrix(Frozen):
    """Immutable rows x cols matrix over GF(p), entries row-major in [0, p)."""

    field: FieldPrime
    rows: int
    cols: int
    entries: tuple[int, ...]

    def __init__(self, field: FieldPrime, rows: int, cols: int, entries: tuple[int, ...]):
        self.__post_init__(field, rows, cols, entries)

    def __post_init__(self, field, rows, cols, entries):
        check_shape(rows, cols)
        if len(entries) != rows * cols:
            raise IndexOutOfRange("entry count does not match shape")
        if entries and (min(entries) < 0 or max(entries) >= field.p):
            raise IndexOutOfRange("entry not reduced mod p")
        self.__dict__.update(field=field, rows=rows, cols=cols, entries=entries)

    @property
    def p(self) -> int:
        return self.field.p

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def row_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]


def matrix(p: int, rows: Sequence[Sequence[int]], cols: int | None = None) -> GFMatrix:
    """Build a GFMatrix from row lists, reducing entries mod p.

    `cols` is only needed for matrices with zero rows.
    """
    f = field(p)
    nrows = len(rows)
    if nrows == 0:
        if cols is None:
            raise IndexOutOfRange("column count required for an empty matrix")
        return GFMatrix(f, 0, cols, ())
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise IndexOutOfRange("ragged rows")
    return GFMatrix(f, nrows, ncols, tuple(e % p for r in rows for e in r))


def identity(p: int, n: int) -> GFMatrix:
    return matrix(p, [[1 if i == j else 0 for j in range(n)] for i in range(n)], cols=n)


def zero(p: int, rows: int, cols: int) -> GFMatrix:
    return GFMatrix(field(p), rows, cols, (0,) * (rows * cols))


def transpose(a: GFMatrix) -> GFMatrix:
    return matrix(a.p, [list(a.col(j)) for j in range(a.cols)], cols=a.rows)


def matmul(a: GFMatrix, b: GFMatrix) -> GFMatrix:
    if a.p != b.p:
        raise FieldMismatch("matmul needs a common field")
    if a.cols != b.rows:
        raise IndexOutOfRange("inner dimensions differ")
    p = a.p
    rows = []
    for i in range(a.rows):
        ra = a.row(i)
        rows.append(
            [sum(ra[k] * b.at(k, j) for k in range(a.cols)) % p for j in range(b.cols)]
        )
    return matrix(p, rows, cols=b.cols)


def vstack(a: GFMatrix, b: GFMatrix) -> GFMatrix:
    if a.p != b.p:
        raise FieldMismatch("vstack needs a common field")
    if a.cols != b.cols:
        raise IndexOutOfRange("column counts differ")
    return GFMatrix(a.field, a.rows + b.rows, a.cols, a.entries + b.entries)


def prefix_rows(a: GFMatrix, d: int) -> GFMatrix:
    """The top d rows of a; a itself when d is its row count."""
    if not (0 <= d <= a.rows):
        raise IndexOutOfRange(f"prefix {d} of a {a.rows}-row matrix")
    if d == a.rows:
        return a
    return GFMatrix(a.field, d, a.cols, a.entries[: d * a.cols])


def select_cols(a: GFMatrix, cols: Iterable[int]) -> GFMatrix:
    """The submatrix on the given columns, in the order given."""
    idx = list(cols)
    if any(not (0 <= j < a.cols) for j in idx):
        raise IndexOutOfRange("column index out of range")
    rows = [[a.at(i, j) for j in idx] for i in range(a.rows)]
    return matrix(a.p, rows, cols=len(idx))


def rref(a: GFMatrix) -> tuple[GFMatrix, tuple[int, ...]]:
    """Reduced row echelon form: (R, pivot columns), with R row-equivalent
    to a and its zero rows last."""
    p = a.p
    work = a.row_lists()
    pivots: list[int] = []
    r = 0
    for c in range(a.cols):
        pivot = next((i for i in range(r, a.rows) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = pow(work[r][c], p - 2, p)
        work[r] = [(x * inv) % p for x in work[r]]
        for i in range(a.rows):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [(x - f * y) % p for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return matrix(p, work, cols=a.cols), tuple(pivots)


def rank(a: GFMatrix) -> int:
    basis: list[tuple[int, list[int]]] = []
    return sum(_absorb(basis, a.row(i), a.p) for i in range(a.rows))


def independent_prefix(a: GFMatrix) -> int:
    """How many leading rows of a are independent: a[:d] has full rank d iff
    d <= independent_prefix(a).  One `_absorb` pass, to the first dependent row."""
    basis: list[tuple[int, list[int]]] = []
    return next((i for i in range(a.rows) if not _absorb(basis, a.row(i), a.p)), a.rows)


def is_nonsingular(a: GFMatrix) -> bool:
    """True for square matrices of full rank; the 0x0 matrix is nonsingular."""
    return a.rows == a.cols and rank(a) == a.rows


def _absorb(basis: list[tuple[int, list[int]]], v: Sequence[int], p: int) -> bool:
    """Reduce v against basis; if a nonzero remainder is left, append it
    normalised and return True, else return False (v is in the span)."""
    for piv, b in basis:
        f = v[piv]
        if f:
            v = [(x - f * y) % p for x, y in zip(v, b)]
    for piv, x in enumerate(v):
        if x:
            inv = pow(x, p - 2, p)
            basis.append((piv, [y * inv % p for y in v]))
            return True
    return False


def independent_columns(p: int, vectors: Iterable[Sequence[int]]) -> bool:
    """True iff the vectors (equal length, entries in [0, p)) are linearly
    independent over GF(p); the empty list is independent."""
    basis: list[tuple[int, list[int]]] = []
    return all(_absorb(basis, v, p) for v in vectors)


def column_bases(a: GFMatrix) -> Iterator[int]:
    """Bit masks of the independent r-subsets of a's columns, r = a.rows,
    as an iterator, in `combinations(range(a.cols), r)` order.  With
    independent rows these are the bases of the column matroid; dependent
    rows yield nothing and a 0-row matrix yields the empty set.

    Over GF(2)/GF(3) on a shape where `_hyperplanes_pay` holds the answer
    comes from `_hyperplane_bases` in one pass, before the first mask is
    read; every other shape is answered lazily by `_dfs_bases`."""
    if _hyperplanes_pay(a.p, a.cols, a.rows):
        return iter(_hyperplane_bases(a.p, a.cols, [a.row(i) for i in range(a.rows)]))
    return _dfs_bases(a)


def _hyperplanes_pay(p: int, n: int, r: int) -> bool:
    """Whether `_hyperplane_bases` beats `_dfs_bases` on an r x n matrix
    over GF(p), judged from the shape alone.

    On a matrix whose r-sets are mostly bases the DFS visits
    sum_k C(n - r + k, k) = C(n + 1, r) nodes, each a row reduction.  In
    the same unit, measured over GF(2)/GF(3) shapes up to 20 columns, the
    hyperplane pass costs about 1/r per normal, (p^r - 1)/(p - 1) of them,
    1/48 per bit of its 2^n-bit ints and 12 per call.  r <= 2 always stays
    on the DFS, and so does a narrow question on a wide matrix, such as
    r = 5 of 20 columns, where the 2^n term decides.  Past 21 columns the
    2^n-byte table would pass 2 MB, so those stay on the DFS too."""
    if p not in (2, 3) or r < 3 or n > _HYPERPLANE_MAX_COLS:
        return False
    normals = (p ** r - 1) // (p - 1)
    return normals // r + (1 << n) // 48 + 12 <= comb(n + 1, r)


def _dfs_bases(a: GFMatrix) -> Iterator[int]:
    """`column_bases` as a DFS over the columns.

    Each DFS node holds the rows not yet used as pivots, with every taken
    column eliminated from them, so a set is complete once no row remains:
    a push costs O(rows * n), and a candidate column is tested by reading
    one entry per remaining row.  A branch is dropped at the first column
    that fails, so a caller that stops early pays only for the sets it
    read."""
    p, n = a.p, a.cols

    def walk(start: int, mask: int, rows: list[Sequence[int]]) -> Iterator[int]:
        if not rows:
            yield mask
            return
        for j in range(start, n - len(rows) + 1):
            for pivot in rows:
                if pivot[j]:
                    break
            else:
                continue  # column j lies in the span of the taken columns
            inv = pow(pivot[j], p - 2, p)
            rest = []
            for row in rows:
                if row is pivot:
                    continue
                f = row[j]
                if f:
                    f = f * inv % p
                    row = [(x - f * y) % p for x, y in zip(row, pivot)]
                rest.append(row)
            yield from walk(j + 1, mask | 1 << j, rest)

    return walk(0, 0, [a.row(i) for i in range(a.rows)])


# `_hyperplane_bases` caps: the widest matrix it takes, and the most
# elements whose r-sets it reads through one memoized `_lex_reader`
_HYPERPLANE_MAX_COLS = 21
_LEX_TABLE_COLS = 12


def _hyperplane_bases(p: int, n: int, rows: list[Sequence[int]]) -> list[int]:
    """The bases of the column matroid of the r x n matrix with these rows
    over GF(2) or GF(3), r >= 1, in `combinations(range(n), r)` order.

    An r-set of columns is a basis iff it spans the column space, that is
    iff it lies in no hyperplane (Oxley, Matroid Theory), and the
    hyperplanes are the zero sets {j : x.c_j = 0} of the normals x.  Those
    come from `_zero_sets` and are down-closed in a 2^n-bit int by
    `bitset._down_closure`, which also builds `Matroid.independent_bits`,
    so the r-sets left unmarked are the bases.
    If the rows are dependent, some normal is zero on every column,
    everything is marked and nothing is returned, as the DFS returns
    nothing.

    The read-out splits each set into its elements below w = n - m, with
    m = min(n, _LEX_TABLE_COLS), and the rest.  Sets whose low parts differ
    are in the order `_subset_order(w)` puts those parts in, and sets with
    the same low part in the order of their high parts, which
    `_lex_reader(m, k)` lists; so each low part costs one strided slice of
    the one-byte-per-set table and one memoized read of it."""
    r = len(rows)
    marks = _down_closure(n, _zero_sets(p, n, rows))
    free = _bit_bytes(((1 << (1 << n)) - 1) ^ marks, n)
    m = min(n, _LEX_TABLE_COLS)
    w = n - m
    if w == 0:
        sets, read = _lex_reader(n, r)
        return list(compress(sets, read(free)))
    highs = {}  # per high-part size k: its sets shifted into place, and their reader
    for k in range(max(r - w, 0), min(m, r) + 1):
        sets, read = _lex_reader(m, k)
        highs[k] = ([s << w for s in sets], read)
    out: list[int] = []
    for low in _subset_order(w):
        high = highs.get(r - low.bit_count())
        if high:
            placed, read = high
            out += map(low.__or__, compress(placed, read(free[low :: 1 << w])))
    return out


def _zero_sets(p: int, n: int, rows: list[Sequence[int]]) -> list[int]:
    """The zero set of every normal x (leading coordinate 1) of the rows,
    as column masks, with the products x.c_j bit-sliced over the columns.

    Over GF(2) a product vector is the mask of columns where it is 1, and
    adding a row is an XOR.  Over GF(3) it is the pair (ones, twos) of
    masks; adding (b1, b2) to (a1, a2) takes
    t = (a1 | b2) ^ (a2 | b1), ones = (a2 | b2) ^ t, twos = (a1 | b1) ^ t,
    and twice a row swaps its masks.  For each leading row, the products
    are doubled (tripled) by each later row in turn."""
    full = (1 << n) - 1
    out: list[int] = []
    if p == 2:
        masks = [sum(1 << j for j, x in enumerate(row) if x) for row in rows]
        for lead, first in enumerate(masks):
            dots = [first]
            for b in masks[lead + 1 :]:
                dots += [d ^ b for d in dots]
            out += [full ^ d for d in dots]
        return out
    ones = [sum(1 << j for j, x in enumerate(row) if x == 1) for row in rows]
    twos = [sum(1 << j for j, x in enumerate(row) if x == 2) for row in rows]
    for lead in range(len(rows)):
        dots = [(ones[lead], twos[lead])]
        for b1, b2 in zip(ones[lead + 1 :], twos[lead + 1 :]):
            more = []
            for a1, a2 in dots:
                t = (a1 | b2) ^ (a2 | b1)
                more.append(((a2 | b2) ^ t, (a1 | b1) ^ t))
                t = (a1 | b1) ^ (a2 | b2)
                more.append(((a2 | b1) ^ t, (a1 | b2) ^ t))
            dots += more
        out += [full ^ (a1 | a2) for a1, a2 in dots]
    return out


@lru_cache(maxsize=_HYPERPLANE_MAX_COLS - _LEX_TABLE_COLS + 1)
def _subset_order(w: int) -> tuple[int, ...]:
    """Every subset of {0..w-1}, each set before those that lack the least
    element of their symmetric difference: the sets holding 0 first."""
    if w == 0:
        return (0,)
    rest = _subset_order(w - 1)
    return tuple(1 | s << 1 for s in rest) + tuple(s << 1 for s in rest)


@lru_cache(maxsize=(_LEX_TABLE_COLS + 1) * (_LEX_TABLE_COLS + 2) // 2)
def _lex_reader(m: int, k: int) -> tuple[tuple[int, ...], itemgetter]:
    """`size_masks(m, k)` and an itemgetter that reads a table at those
    masks in that order, for m <= _LEX_TABLE_COLS: C(m, k) masks, 8,191
    over all (m, k).  One index more keeps the read a tuple when there is
    one mask; `compress` stops at the end of the masks."""
    sets = tuple(size_masks(m, k))
    return sets, itemgetter(*sets, 0)


def kernel_basis(a: GFMatrix) -> list[tuple[int, ...]]:
    """Canonical basis of the right kernel, one vector per free column.

    Derived from the RREF with free columns taken in increasing index
    order, so the output is reproducible.
    """
    p = a.p
    r, pivots = rref(a)
    pivot_set = set(pivots)
    free = [j for j in range(a.cols) if j not in pivot_set]
    basis = []
    for f in free:
        v = [0] * a.cols
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = (-r.at(i, f)) % p
        basis.append(tuple(v))
    return basis
