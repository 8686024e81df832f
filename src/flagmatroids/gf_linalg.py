"""Exact dense linear algebra over prime fields GF(p).

Matrices are immutable, tiny (at most 32 x 32) and stored as flat row-major
tuples of ints reduced mod p.  Everything is plain integer arithmetic:
determinism and exactness matter more than speed at this scale.

Column independence has two elimination kernels, so that questions about
many column subsets never build a matrix per subset.  `column_bases` walks
the column subsets in `combinations` order as a DFS that carries a partially
row-reduced copy of the matrix.  Taking column j picks the first remaining
row that is nonzero at j as j's pivot row and clears column j from the other
remaining rows, so every taken column is zero on the remaining rows; a later
column is then independent of the taken ones iff some remaining row is
nonzero at it.  A branch is dropped as soon as that fails or too few columns
or rows remain.  `independent_columns` tests one short list by keeping an
independent set as normalised (pivot, vector) pairs (`_absorb`):
vector[pivot] == 1, and each stored vector is zero at every earlier pivot,
so reducing a new column against them in order leaves it zero at every
pivot, and it is independent iff the remainder is nonzero.  `rank` absorbs
the rows the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import (
    FieldMismatch,
    IndexOutOfRange,
    MatrixTooLarge,
    NotPrime,
    RankDeficient,
)

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


@dataclass(frozen=True)
class FieldPrime:
    """A prime field GF(p) with 2 <= p < 2**16."""

    p: int

    def __post_init__(self):
        if not (2 <= self.p < 2 ** 16) or not _is_prime(self.p):
            raise NotPrime(f"{self.p} is not a prime in [2, 2^16)")


@lru_cache(maxsize=8)  # p comes from the input, so the memo has a bound
def field(p: int) -> FieldPrime:
    return FieldPrime(p)


def check_shape(rows: int, cols: int) -> None:
    """Raise MatrixTooLarge for a shape past MAX_DIM, before any entry is built."""
    if rows < 0 or cols < 0 or rows > MAX_DIM or cols > MAX_DIM:
        raise MatrixTooLarge(f"{rows}x{cols} exceeds {MAX_DIM}x{MAX_DIM}")


@dataclass(frozen=True)
class GFMatrix:
    """Immutable rows x cols matrix over GF(p), entries row-major in [0, p)."""

    field: FieldPrime
    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        check_shape(self.rows, self.cols)
        if len(self.entries) != self.rows * self.cols:
            raise IndexOutOfRange("entry count does not match shape")
        if any(not (0 <= e < self.field.p) for e in self.entries):
            raise IndexOutOfRange("entry not reduced mod p")

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


def drop_col(a: GFMatrix, j: int) -> GFMatrix:
    return select_cols(a, [c for c in range(a.cols) if c != j])


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


def column_bases(a: GFMatrix, r: int) -> Iterator[int]:
    """Bit masks of the independent r-subsets of a's columns, lazily, in
    `combinations(range(a.cols), r)` order.  With r == rank(a) these are the
    bases of the column matroid; r > rank(a) yields nothing and r == 0
    yields the empty set.

    Each DFS node holds the rows not yet used as pivots, with every taken
    column eliminated from them: a push costs O(rows * n), and a candidate
    column is tested by reading one entry per remaining row."""
    p, n = a.p, a.cols

    def walk(start: int, mask: int, need: int, rows: list[Sequence[int]]) -> Iterator[int]:
        if need == 0:
            yield mask
            return
        if need > len(rows):
            return
        for j in range(start, n - need + 1):
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
            yield from walk(j + 1, mask | 1 << j, need - 1, rest)

    return walk(0, 0, r, [a.row(i) for i in range(a.rows)])


def row_space_echelon(a: GFMatrix) -> tuple[tuple[int, ...], ...]:
    """Canonical basis of the row space: nonzero rows of the RREF."""
    r, pivots = rref(a)
    return tuple(r.row(i) for i in range(len(pivots)))


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


def nested_kernel_chain(a: GFMatrix, levels: Sequence[int]) -> list[tuple[int, ...]]:
    """Vectors x_1..x_{n-d_1} whose prefixes span the nested prefix kernels.

    levels must be strictly increasing with d_k <= rows and every prefix
    a[:d] of full rank d.  For each level d_i the first n - d_i vectors form
    a basis of ker(a[:d_i]); the chain is built from the deepest kernel
    outward, extending with canonical kernel vectors.
    """
    if not levels or any(x >= y for x, y in zip(levels, levels[1:])):
        raise IndexOutOfRange("levels must be strictly increasing and nonempty")
    if levels[-1] > a.rows or levels[0] < 0:
        raise IndexOutOfRange("level outside row range")
    for d in levels:
        if rank(prefix_rows(a, d)) != d:
            raise RankDeficient(f"prefix {d} has rank below {d}")
    p = a.p
    chain: list[tuple[int, ...]] = []
    # the span of `chain` in the column kernel's (pivot, vector) form
    span: list[tuple[int, list[int]]] = []
    for d in reversed(levels):
        target = a.cols - d
        for v in kernel_basis(prefix_rows(a, d)):
            if len(chain) == target:
                break
            if _absorb(span, v, p):
                chain.append(v)
        if len(chain) != target:
            raise RankDeficient(f"kernel extension failed at prefix {d}")
    return chain
