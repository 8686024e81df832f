"""Representations of flag matroids over prime fields.

A representation is a full-row-rank matrix plus strictly increasing levels
(the layer ranks); a set F is feasible iff |F| is a level and the square
prefix minor on F's columns is nonsingular.  Level 0 is allowed and simply
contributes the empty feasible set, which is how rank-0 bottom layers (for
instance from graphic chains with a single-cell partition) are carried.

Decision procedures for GF(2)/GF(3) come in three mutually cross-checking
routes: forbidden flag minors; the lift-witness route, which builds the
unique candidate representation of each witness matroid
(`matroid_representation`; binary and ternary matroids are uniquely
representable), decides by checking it once, and stitches the pair
matrices into an explicit certificate (one linear-time solve per shared
layer finds the column scaling that aligns its two matrices); and a
level-by-level search for a representing matrix, one depth-first walk over
the layers for every prime in SEARCH_FIELDS, which backtracks only over
GF(5)/GF(7) and is bounded by a budget of bands.  In the witness route
that one check is all a layer pair gets on a "yes"; the fully checked
`lifts_majors.elementary_witness` runs only on a failing pair, before a
"no", and only the final certificate is validated and compared with the
flag.  Matroid-level excluded minors
(`matroid_core.is_binary`/`is_ternary`) are not used here; they remain an
independent cross-check of `matroid_representation`.

`decide` is the only code that composes these routes.  By default a full
flag goes to the witness route first: it is polynomial and its "yes"
carries the certificate.  The forbidden-minor search runs only after a
"no", to name the excluded minor; if it finds none the two
characterizations disagree, which is a fault (`InternalError`).  A flag
that is not full is decided by the level-by-level search; its fillings,
each decided by the witness route alone, run only as the cross-check of
`--method all`.  Every answer is a `RepresentabilityDecision`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product, zip_longest
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from . import flag_core as fl
from . import gf_linalg as gl
from . import lifts_majors as lm
from . import matroid_core as mc
from .bitset import elements_of, mask_of
from .errors import (
    BadRank,
    BudgetExhausted,
    FieldMismatch,
    FieldTooSmall,
    GroundSetMismatch,
    InternalError,
    InvalidInput,
    LastLayer,
    LevelCollapse,
    NoTransform,
    NotFull,
    RankDeficientPrefix,
    SingleLevel,
)
from .frozen import Frozen
from .lifts_majors import MajorStructure, is_full, verify_major

SEARCH_FIELDS = (2, 3, 5, 7)


class FlagRepresentation(Frozen):
    """Immutable: full-row-rank matrix plus the levels d_1 < ... < d_k = row count."""

    matrix: gl.GFMatrix
    levels: tuple[int, ...]

    def __init__(self, matrix: gl.GFMatrix, levels: tuple[int, ...]):
        if not levels or any(x >= y for x, y in zip(levels, levels[1:])):
            raise RankDeficientPrefix("levels must be strictly increasing and nonempty")
        if levels[0] < 0 or levels[-1] != matrix.rows:
            raise RankDeficientPrefix("top level must equal the row count")
        for d in levels:
            if gl.rank(gl.prefix_rows(matrix, d)) != d:
                raise RankDeficientPrefix(f"prefix {d} is rank deficient", level=d)
        self.__dict__.update(matrix=matrix, levels=levels)

    @property
    def p(self) -> int:
        return self.matrix.p

    @property
    def n(self) -> int:
        return self.matrix.cols


def flag_from_matrix(a: gl.GFMatrix, levels: Sequence[int]) -> fl.FlagMatroid:
    """The flag matroid whose layers are the column matroids of the row
    prefixes at the given levels: `FlagRepresentation` checks each prefix's
    rank, and `represented_flag` lists their column bases."""
    lv = tuple(levels)
    if lv and (min(lv) < 0 or max(lv) > a.rows):
        raise RankDeficientPrefix("levels outside the row range")
    return represented_flag(FlagRepresentation(gl.prefix_rows(a, lv[-1] if lv else 0), lv))


def represented_flag(rep: FlagRepresentation) -> fl.FlagMatroid:
    """The flag of the prefixes' column bases, listed once `FlagMatroid` has checked n."""
    prefixes = [gl.prefix_rows(rep.matrix, d) for d in rep.levels]
    return fl.FlagMatroid(rep.n, (b for a in prefixes for b in gl.column_bases(a)))


def represents(rep: FlagRepresentation, fm: fl.FlagMatroid) -> bool:
    """True iff rep represents fm, the same answer as
    `represented_flag(rep) == fm`: the ground sets and levels agree and each
    level's prefix has exactly its layer's bases.  It checks fm's layers in
    place, with no flag built or validated for rep."""
    return (
        rep.n == fm.n
        and rep.levels == fm.cardinalities
        and all(_level_matches(rep.matrix, m) for m in fm.layers)
    )


# --- constructions --------------------------------------------------------------

def uniform_flag_representation(r: int, n: int, p: int) -> FlagRepresentation:
    """Representation of the rank-r uniform flag on n elements.

    For r >= 2 this is the r x n Vandermonde matrix on nodes 0..n-1, which
    needs p >= n; for r <= 1 a constant row works over any field.  Levels
    are 1..r (the empty set rides along at level 0 only when r = 0).
    """
    if not (0 <= r <= n):
        raise BadRank(f"rank {r} outside 0..{n}")
    gl.field(p)
    if r >= 2 and p < n:
        raise FieldTooSmall(f"GF({p}) has fewer than {n} elements", p=p, n=n)
    gl.check_shape(r, n)
    if r == 0:
        return FlagRepresentation(gl.matrix(p, [], cols=n), (0,))
    if r == 1:
        return FlagRepresentation(gl.matrix(p, [[1] * n]), (1,))
    rows = [[pow(j, i, p) for j in range(n)] for i in range(r)]
    return FlagRepresentation(gl.matrix(p, rows), tuple(range(1, r + 1)))


def dual_representation(rep: FlagRepresentation) -> FlagRepresentation:
    """Representation of the dual flag, built from the nested kernel chain."""
    n = rep.n
    chain = gl.nested_kernel_chain(rep.matrix, rep.levels)
    b = gl.matrix(rep.p, [list(v) for v in chain], cols=n)
    levels = tuple(n - d for d in reversed(rep.levels))
    out = FlagRepresentation(b, levels)
    if not represents(out, fl.flag_dual(represented_flag(rep))):
        raise InternalError("dual construction mismatch")  # pragma: no cover
    return out


def delete_representation(rep: FlagRepresentation, e: int) -> FlagRepresentation:
    """Representation of the flag with column e deleted.

    Levels whose layer had e as a coloop collapse; collapses are always an
    upper tail of the level list, so the repair drops those levels and the
    rows above the last survivor.  If everything collapses the set-system
    minor is empty and there is nothing to represent.
    """
    before = represented_flag(rep)
    try:
        expected = fl.flag_delete(before, e)
    except fl.EmptyResult as exc:
        raise LevelCollapse("deletion empties the flag; no repair exists") from exc
    a2 = gl.drop_col(rep.matrix, e)
    kept = [d for d in rep.levels if gl.rank(gl.prefix_rows(a2, d)) == d]
    if not kept:
        raise InternalError("every level collapsed")  # pragma: no cover
    out = FlagRepresentation(gl.prefix_rows(a2, kept[-1]), tuple(kept))
    if not represents(out, expected):
        raise InternalError("no level repair matches the set-system minor")  # pragma: no cover
    return out


def contract_representation(rep: FlagRepresentation, e: int) -> FlagRepresentation:
    """Representation of the contraction, by one elimination step.

    Row t, the first row nonzero at e, clears e from the rows below it;
    dropping row t and column e then leaves, in the top d - 1 rows, layer d
    contracted by e, for each level d > t.  In a level d <= t, e is a loop:
    no feasible set of that layer contains e, so the level vanishes.
    """
    try:
        expected = fl.flag_contract(represented_flag(rep), e)
    except fl.EmptyResult as exc:
        raise LevelCollapse("contraction empties the flag") from exc
    p, rows = rep.p, rep.matrix.row_lists()
    t = next(i for i, row in enumerate(rows) if row[e])
    pivot = rows.pop(t)
    inv = pow(pivot[e], p - 2, p)
    # rows above t are zero at e, so clearing e from every row changes none of them
    rows = [
        [(x - row[e] * inv * y) % p for j, (x, y) in enumerate(zip(row, pivot)) if j != e]
        for row in rows
    ]
    levels = tuple(d - 1 for d in rep.levels if d > t)
    out = FlagRepresentation(gl.matrix(p, rows, cols=rep.n - 1), levels)
    if not represents(out, expected):
        raise InternalError("contraction repair mismatch")  # pragma: no cover
    return out


def chop_representation(rep: FlagRepresentation, level: int) -> FlagRepresentation:
    """Same matrix, one level removed (rows trimmed when the top level goes)."""
    if level not in rep.levels:
        raise RankDeficientPrefix(f"no level {level}")
    if len(rep.levels) == 1:
        raise LastLayer("chopping the only level")
    kept = tuple(d for d in rep.levels if d != level)
    return FlagRepresentation(gl.prefix_rows(rep.matrix, kept[-1]), kept)


def major_from_representation(rep: FlagRepresentation) -> MajorStructure:
    """Major built by appending unit columns for the rows above d_1.

    Extra column j (1-based) is the unit vector of row d_1 + j; block X_i
    holds the extras whose rows lie between d_i and d_{i+1}, so contracting
    the blocks above level i and deleting those below reproduces layer i.
    """
    lv = rep.levels
    if len(lv) < 2:
        raise SingleLevel("a single-level flag needs no major")
    d1, dk = lv[0], lv[-1]
    s = dk - d1
    n = rep.n
    rows = []
    for i in range(dk):
        extra = [1 if i == d1 + j else 0 for j in range(s)]
        rows.append(list(rep.matrix.row(i)) + extra)
    aprime = gl.matrix(rep.p, rows)
    q = mc.linear_matroid(aprime)
    blocks = []
    for i in range(len(lv) - 1):
        blocks.append(
            tuple(n + j for j in range(s) if lv[i] < d1 + j + 1 <= lv[i + 1])
        )
    major = MajorStructure(q, tuple(blocks), matrix=aprime)
    if not verify_major(q, major.blocks, represented_flag(rep)):
        raise InternalError("major construction failed verification")  # pragma: no cover
    return major


# --- projective equivalence and stitching -----------------------------------------

def projectively_equivalent(a: gl.GFMatrix, b: gl.GFMatrix) -> bool:
    """Equal row spaces (after discarding dependent rows)."""
    if a.p != b.p:
        raise FieldMismatch("different fields")
    if a.cols != b.cols:
        raise GroundSetMismatch("different column counts")
    return gl.row_space_echelon(a) == gl.row_space_echelon(b)


def stitch_representations(
    rep_a: FlagRepresentation, rep_b: FlagRepresentation
) -> FlagRepresentation:
    """Extend rep_a of (M_1..M_k) by rep_b of (M_k, M_{k+1}).

    Over GF(2)/GF(3) the two matrices of the shared layer M_k differ only by
    row operations and column scaling (Brylawski and Lucas 1976).  With the
    column units s of `_column_scaling`, some T maps rep_b's top rows times
    diag(s) onto rep_a's matrix, so diag(T, I) @ rep_b @ diag(s) is rep_a's
    rows followed by rep_b's further rows times diag(s); that is returned,
    with no T built.  NoTransform when no scaling aligns the shared layer.
    """
    if rep_a.p != rep_b.p:
        raise FieldMismatch("different fields")
    if rep_a.n != rep_b.n:
        raise GroundSetMismatch("different ground sets")
    if len(rep_b.levels) != 2 or rep_b.levels[0] != rep_a.levels[-1]:
        raise NoTransform("second representation must cover (top of first, one more)")
    return FlagRepresentation(
        _stitch(rep_a.matrix, rep_b.matrix), rep_a.levels + (rep_b.levels[-1],)
    )


def _stitch(a: gl.GFMatrix, b: gl.GFMatrix) -> gl.GFMatrix:
    """a's rows followed by b's rows past a.rows, times the column scaling
    that aligns b's top a.rows rows with a (NoTransform when none does).
    Nothing is validated: prefix ranks are the caller's to check."""
    r1, p = a.rows, a.p
    s = _column_scaling(a, gl.prefix_rows(b, r1))
    if s is None:
        raise NoTransform("no column scaling aligns the shared layer")
    rows = a.row_lists() + [[x * f % p for x, f in zip(b.row(i), s)] for i in range(r1, b.rows)]
    return gl.matrix(p, rows, cols=a.cols)


def _column_scaling(a: gl.GFMatrix, b: gl.GFMatrix) -> Optional[list[int]]:
    """Column units s with b @ diag(s) of a's row space, or None; a and b
    are full-row-rank matrices of the same shape.

    Scaling keeps b's pivot columns B_0 < B_1 < ..., and with Xa, Xb the
    RREFs of a and b, entry (i, e) of the RREF of b @ diag(s) is
    Xb[i][e] s[e] / s[B_i].  So s must solve Xa[i][e] s[B_i] = Xb[i][e] s[e]
    for every entry.  A nonzero entry ties B_i to e, and s is fixed up to
    one unit per component of that support graph: the least row of each
    component gets s = 1, as do zero columns, which makes s's inverse on
    the pivot columns lexicographically least.  Every entry is then checked.
    """
    (xa, lead), (xb, lead_b) = gl.rref(a), gl.rref(b)
    if lead != lead_b or len(lead) != a.rows:
        return None
    if any(bool(x) != bool(y) for x, y in zip(xa.entries, xb.entries)):
        return None  # so every division below is by a nonzero entry
    p, r, n = a.p, a.rows, a.cols
    s = [0] * n
    for top, col in enumerate(lead):
        if s[col]:
            continue
        s[col], todo = 1, [top]
        while todo:
            i = todo.pop()
            for e in range(n):
                if xa.at(i, e) and not s[e]:
                    s[e] = xa.at(i, e) * s[lead[i]] * pow(xb.at(i, e), p - 2, p) % p
                    for j in range(r):
                        if xa.at(j, e) and not s[lead[j]]:
                            s[lead[j]] = xb.at(j, e) * s[e] * pow(xa.at(j, e), p - 2, p) % p
                            todo.append(j)
    s = [f or 1 for f in s]
    if any(
        (xa.at(i, e) * s[lead[i]] - xb.at(i, e) * s[e]) % p for i in range(r) for e in range(n)
    ):
        return None
    return s


# --- matroid representations over GF(2) and GF(3) -------------------------------------

def matroid_representation(m: mc.Matroid, p: int) -> Optional[gl.GFMatrix]:
    """The canonical GF(p) matrix whose column matroid is m, for p in (2, 3),
    or None when m is not representable over GF(p).

    Binary and ternary matroids are uniquely representable (Brylawski and
    Lucas 1976): a representation is fixed up to row operations and column
    scaling, so there is one candidate to build and check.  The
    lexicographically first basis B = {b_0 < b_1 < ...} becomes the
    identity, and entry (i, e) of another column is nonzero iff
    B - b_i + e is a basis.  Over GF(2) that fixes the matrix; over GF(3)
    `_ternary_signs` fixes the signs and `_least_row_signs` picks the
    canonical one of the 2^r row-sign choices: every column has leading
    entry 1 (loops are zero) and the columns, taken in increasing order,
    are each lexicographically least.  That is the first matrix an
    exhaustive column-by-column search in that order would find.  The
    candidate is checked once against the bases of m; by uniqueness a
    mismatch means that m is not representable over GF(p).
    """
    if p not in (2, 3):
        raise InvalidInput("unique representations need p in (2, 3)")
    r, n = m.rank, m.n
    if r == 0:
        return gl.matrix(p, [], cols=n)
    first, bases = m.bases[0], m.basis_set
    base = elements_of(first)
    rest = [e for e in range(n) if not first >> e & 1]

    def is_basis(rows: Sequence[int], cols: Sequence[int]) -> bool:
        """Whether the square submatrix on these rows and on these columns
        of `rest` is nonsingular: B with those rows' elements swapped for
        those columns' is a basis."""
        swapped = first ^ mask_of(base[i] for i in rows) | mask_of(rest[j] for j in cols)
        return swapped in bases

    entries = {(i, j): 1 for i in range(r) for j in range(len(rest)) if is_basis((i,), (j,))}
    if p == 3:
        _ternary_signs(entries, r, len(rest), is_basis)
        _least_row_signs(entries, r, len(rest))
    columns = {e: tuple(int(i == pos) for i in range(r)) for pos, e in enumerate(base)}
    for j, e in enumerate(rest):
        columns[e] = tuple(entries.get((i, j), 0) for i in range(r))
    out = gl.matrix(p, [[columns[e][i] for e in range(n)] for i in range(r)], cols=n)
    return out if _level_matches(out, m) else None


def _ternary_signs(
    entries: dict[tuple[int, int], int],
    r: int,
    c: int,
    is_basis: Callable[[Sequence[int], Sequence[int]], bool],
) -> None:
    """Give each GF(3) entry of the support its sign, in place.

    The support graph has row nodes 0..r-1 and column nodes r..r+c-1, with
    an edge i - r + j for each entry (i, j).  Entries are fixed one at a
    time, always one whose ends are nearest in the graph of the entries
    fixed so far (the first in sorted order among those).  An entry whose
    ends are not yet connected joins a spanning forest; rows and columns can
    be scaled so that the forest carries 1s, so it keeps its 1.  Any other
    entry closes a cycle with a shortest path between its ends, and the
    cycle has no chord in the whole support: a chord would be a shorter
    path, or an unfixed entry with nearer ends.  So the cycle's square
    submatrix has determinant ±1 ± 1, nonsingular for exactly one sign of
    the new entry, and `is_basis` says which.

    A pending entry is not an edge yet, so its ends are at distance 3 or
    more, and at 3 exactly when it closes a 4-cycle: when a row sharing a
    fixed column with row i (`near[i]`, a bitset) has a fixed entry in
    column j (`rows_at[j]`).  That is one AND per candidate.  Only when no
    pending entry is at distance 3 are breadth-first distances computed,
    from the column ends of the entries whose ends are already connected.
    """
    size = r + c
    fixed: list[list[int]] = [[] for _ in range(size)]
    rows_at, near = [0] * c, [0] * r
    root = list(range(size))

    def find(u: int) -> int:
        while root[u] != u:
            u = root[u]
        return u

    pending = sorted(entries)
    while pending:
        path = None
        pick = next((k for k, (i, j) in enumerate(pending) if near[i] & rows_at[j]), None)
        if pick is not None:
            i, j = pending.pop(pick)
            col = next(v for v in fixed[i] if rows_at[v - r] & rows_at[j])
            path = [i, col, next(u for u in fixed[col] if rows_at[j] >> u & 1)]
        else:
            close = [k for k, (i, j) in enumerate(pending) if find(i) == find(r + j)]
            if close:
                dist = {j: _bfs(fixed, r + j) for _, j in (pending[k] for k in close)}
                i, j = pending.pop(min(close, key=lambda k: dist[pending[k][1]][pending[k][0]]))
                path = [i]
                while dist[j][path[-1]] > 1:
                    u = path[-1]
                    path.append(next(v for v in fixed[u] if dist[j][v] == dist[j][u] - 1))
            else:
                i, j = pending.pop(0)
        if path is not None:
            rows = sorted(u for u in path if u < r)
            cols = sorted([u - r for u in path if u >= r] + [j])
            square = [[entries.get((a, b), 0) for a in rows] for b in cols]
            if gl.independent_columns(3, square) != is_basis(rows, cols):
                entries[i, j] = 2
        end = r + j
        fixed[i].append(end)
        fixed[end].append(i)
        rows_at[j] |= 1 << i
        for u in elements_of(rows_at[j]):
            near[u] |= rows_at[j]
        root[find(i)] = find(end)


def _bfs(adjacent: list[list[int]], start: int) -> list[int]:
    """Breadth-first distances from `start`; unreached nodes get len(adjacent)."""
    far = len(adjacent)
    dist = [far] * far
    dist[start], frontier = 0, [start]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adjacent[u]:
                if dist[v] == far:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def _least_row_signs(entries: dict[tuple[int, int], int], r: int, c: int) -> None:
    """Rescale the rows of a GF(3) matrix [I | X] (and restore I by scaling
    its columns) so that each column of X, in order, has leading entry 1 and
    is lexicographically least.

    A column's entries after scaling row i by the sign s_i and the column by
    its leading entry are x_i s_i x_lead s_lead.  Going down the column,
    each entry can be made 1 unless its row is already tied to the leading
    row by an earlier choice; ties are kept as a union-find over rows with
    the relative sign (0 for +1, 1 for -1) to the parent.
    """
    parent, flip = list(range(r)), [0] * r

    def find(i: int) -> tuple[int, int]:
        sign = 0
        while parent[i] != i:
            sign ^= flip[i]
            i = parent[i]
        return i, sign

    def negative(i: int, j: int) -> int:
        return int(entries[i, j] == 2)

    supports = [[i for i in range(r) if (i, j) in entries] for j in range(c)]
    for j, col in enumerate(supports):
        for i in col[1:]:
            (root_i, sign_i), (root_lead, sign_lead) = find(i), find(col[0])
            if root_i != root_lead:
                parent[root_i] = root_lead
                flip[root_i] = sign_i ^ sign_lead ^ negative(i, j) ^ negative(col[0], j)
    sign = [find(i)[1] for i in range(r)]
    for j, col in enumerate(supports):
        lead = negative(col[0], j) ^ sign[col[0]] if col else 0
        for i in col:
            entries[i, j] = 2 if negative(i, j) ^ sign[i] ^ lead else 1


# --- flag representation search ------------------------------------------------------

def _rref_bands(cur: gl.GFMatrix, nxt: mc.Matroid) -> Iterator[gl.GFMatrix]:
    """The matrices [cur; band], for the RREF bands of nxt.rank - cur.rows
    rows that the bases of the next layer `nxt` allow.

    A band is zero on cur's pivot columns P.  Bands come in a fixed order:
    band pivots Pb in `combinations` order, then the free cells, row by row
    and left to right, in `product` order.  The rule, with B = P | Pb and
    cur_P invertible:

    - [cur; band] on the columns B is [[cur_P, *], [0, I]], so its
      determinant is det(cur_P) != 0.  A pivot choice with B not in
      `nxt.basis_set` is skipped.
    - On the columns B - Pb_i + e the band block holds the unit columns of
      Pb - Pb_i and the band's column e, so the determinant is
      +-det(cur_P) * band[i][e].  The cell (i, e) is nonzero iff
      B - Pb_i + e is in `nxt.basis_set`.  A pivot choice that needs a
      nonzero left of a row's pivot is skipped; every other cell is fixed
      to 0 or ranges over 1..p-1.
    - On the columns B - Pb_i - Pb_k + e + f, for band rows i < k and
      columns e < f outside P and Pb, the band block holds the unit columns
      of Pb - Pb_i - Pb_k and the band's columns e and f, so the
      determinant is +-det(cur_P) * (band[i][e] band[k][f] -
      band[i][f] band[k][e]).  That 2x2 minor is nonzero iff the set is in
      `nxt.basis_set`.  It is tested as soon as its last cell, (k, f), is
      filled, and a failing cell cuts every band that shares the cells
      filled so far.  When (k, f) lies left of row k's pivot, so does
      (k, e), the minor is 0 and the set is no basis: by basis exchange
      B - Pb_k + e or B - Pb_k + f would be one, and the pivot choice would
      have been skipped.
    - A column that is zero in every row of cur has its first nonzero band
      cell fixed to 1.  Scaling such a column leaves cur unchanged and keeps
      the band in RREF, and a column is nonzero in cur after the level that
      scales it, so no representation is lost.

    So every band left out has a column matroid other than `nxt` (one that
    `_level_matches` rejects), or is a column scaling of a band that is
    kept.  The bands kept come in the same order as without the 2x2 rule.
    """
    p, n = cur.p, cur.cols
    g = nxt.rank - cur.rows
    bases = nxt.basis_set
    _, lead = gl.rref(cur)
    positions = [j for j in range(n) if j not in lead]
    zero = {j for j, e in enumerate(positions) if not any(cur.col(e))}
    pivot_mask = mask_of(lead)
    for pivots in combinations(range(len(positions)), g):
        full = pivot_mask | mask_of(positions[j] for j in pivots)
        if full not in bases:
            continue
        others = [j for j in range(len(positions)) if j not in pivots]
        nonzero = {
            (i, j): full ^ 1 << positions[pivots[i]] | 1 << positions[j] in bases
            for i in range(g)
            for j in others
        }
        if any(nz for (i, j), nz in nonzero.items() if j < pivots[i]):
            continue
        free_cells = [(i, j) for i, j in nonzero if j > pivots[i]]
        checks = _minor_checks(full, pivots, positions, others, free_cells, bases)
        first = {}
        for i, j in free_cells:
            if nonzero[i, j] and j in zero:
                first.setdefault(j, i)
        choices = [
            ((1,) if first.get(j) == i else range(1, p)) if nonzero[i, j] else (0,)
            for i, j in free_cells
        ]
        band = [0] * (g * n)
        for i in range(g):
            band[i * n + positions[pivots[i]]] = 1
        cells = [i * n + positions[j] for i, j in free_cells]
        for values in _checked_product(choices, checks, p):
            for k, v in zip(cells, values):
                band[k] = v
            yield gl.GFMatrix(cur.field, cur.rows + g, n, cur.entries + tuple(band))


def _minor_checks(
    full: int,
    pivots: tuple[int, ...],
    positions: list[int],
    others: list[int],
    free_cells: list[tuple[int, int]],
    bases: frozenset[int],
) -> list[list[tuple[int, int, int, bool]]]:
    """The 2x2 rule of `_rref_bands` for one pivot choice, as checks per
    free cell: cell t = (k, f) gets (a, b, c, want) for each row i < k and
    column e < f in `others`, where a, b, c index the cells (i, e), (i, f)
    and (k, e) in `free_cells`, or len(free_cells) for a cell left of its
    row's pivot (always 0), and `want` says whether
    full - Pb_i - Pb_k + e + f is a basis.  A cell (k, f) left of its
    row's pivot gets no check (see `_rref_bands`)."""
    slot = {cell: t for t, cell in enumerate(free_cells)}
    zero = len(free_cells)
    checks: list[list[tuple[int, int, int, bool]]] = [[] for _ in free_cells]
    for k in range(1, len(pivots)):
        for i in range(k):
            rest = full ^ 1 << positions[pivots[i]] ^ 1 << positions[pivots[k]]
            for e, f in combinations(others, 2):
                t = slot.get((k, f))
                if t is not None:
                    want = rest | 1 << positions[e] | 1 << positions[f] in bases
                    checks[t].append((slot.get((i, e), zero), slot.get((i, f), zero),
                                      slot.get((k, e), zero), want))
    return checks


def _checked_product(
    choices: list[Sequence[int]], checks: list[list[tuple[int, int, int, bool]]], p: int
) -> Iterator[tuple[int, ...]]:
    """The tuples x of `product(*choices)`, in its order, in which every
    check (a, b, c, want) of each position t holds: x_a x_t - x_b x_c is
    nonzero mod p iff `want`, where x at index len(choices) is 0.  A
    depth-first walk fills positions up to the last that has a check, and
    drops a prefix at its first failing position; the positions after it
    come from `product`."""
    size = len(choices)
    last = max((t for t in range(size) if checks[t]), default=-1)
    if last < 0:
        yield from product(*choices)
        return
    tails = choices[last + 1:]
    x = [0] * (size + 1)
    stack = [iter(choices[0])]
    while stack:
        t = len(stack) - 1
        for v in stack[t]:
            if all(bool((x[a] * v - x[b] * x[c]) % p) == want for a, b, c, want in checks[t]):
                break
        else:
            stack.pop()
            continue
        x[t] = v
        if t < last:
            stack.append(iter(choices[t + 1]))
            continue
        head = tuple(x[:t + 1])
        for tail in product(*tails):
            yield head + tail


def _level_matches(a: gl.GFMatrix, layer: mc.Matroid) -> bool:
    """True iff the column matroid of a's top r rows has exactly the bases
    of `layer`, a rank-r matroid.  On the DFS path of `gl.column_bases` it
    stops at the first mismatch; on the hyperplane path (wide GF(2)/GF(3)
    layers) every basis is found before the first is compared."""
    got = gl.column_bases(gl.prefix_rows(a, layer.rank))
    return all(b == want for b, want in zip_longest(got, layer.bases))


def search_representation(
    fm: fl.FlagMatroid, p: int, budget: int = 10000
) -> Optional[FlagRepresentation]:
    """Exhaustive search for a representation of fm over GF(p), a
    depth-first walk over the layers.

    Each layer extends the matrix found so far by the bands of
    `_rref_bands`.  A band whose stacked matrix has exactly the layer's
    bases is extended to the next layer; if that fails, the walk tries the
    next band.  Over GF(5)/GF(7) the bottom layer is a band over a 0-row
    matrix.  Over GF(2)/GF(3) it is `matroid_representation`'s matrix, and
    the first matching band is final: a binary or ternary layer's
    representations are unique up to row operations and column scaling
    (Brylawski and Lucas 1976), so any representation of the longer flag
    can be brought to extend the one found, and if it does not extend, no
    other band does.  `budget` caps the bands examined (else
    BudgetExhausted).
    """
    if p not in SEARCH_FIELDS:
        raise InvalidInput(f"search supports p in {SEARCH_FIELDS}")
    unique = p in (2, 3)
    layers = fm.layers
    if unique:
        cur = matroid_representation(layers[0], p)
        if cur is None:
            return None
        layers = layers[1:]
    else:
        cur = gl.matrix(p, [], cols=fm.n)
    examined = 0

    def extend(cur: gl.GFMatrix, depth: int) -> Optional[gl.GFMatrix]:
        nonlocal examined
        if depth == len(layers):
            return cur
        nxt = layers[depth]
        for cand in _rref_bands(cur, nxt):
            if examined >= budget:
                raise BudgetExhausted(f"{budget} bands examined")
            examined += 1
            if _level_matches(cand, nxt):
                found = extend(cand, depth + 1)
                if found is not None or unique:
                    return found
        return None

    mat = extend(cur, 0)
    if mat is None:
        return None
    rep = FlagRepresentation(mat, fm.cardinalities)
    if not represents(rep, fm):
        raise InternalError("search produced a wrong representation")  # pragma: no cover
    return rep


# --- forbidden-minor and witness routes ------------------------------------------------

class ForbiddenMinorWitness(NamedTuple):
    target_name: str
    target: fl.FlagMatroid
    contract: tuple[int, ...]
    delete: tuple[int, ...]
    chops: tuple[int, ...]
    bijection: tuple[int, ...]


class RepresentabilityDecision(NamedTuple):
    """A verdict over GF(p) and what certifies it: a representation on a
    "yes", a listed forbidden minor on a "no" of the minor search.  A "no"
    of the witness route, the search or the fillings carries neither.
    `representable` is None only from `is_representable_via_fillings`, when
    its budget ran out; `decide` never returns it (its search raises
    BudgetExhausted instead)."""

    p: int
    representable: Optional[bool]
    witness: Optional[ForbiddenMinorWitness] = None
    certificate: Optional[FlagRepresentation] = None

    @property
    def certified(self) -> bool:
        return self.witness is not None or self.certificate is not None


@lru_cache(maxsize=None)
def binary_forbidden_flags() -> tuple[tuple[str, fl.FlagMatroid], ...]:
    u24 = fl.from_sequence([mc.uniform(2, 4)])
    pair = fl.from_sequence([mc.uniform(1, 3), mc.uniform(2, 3)])
    return (("(U_{2,4})", u24), ("(U_{1,3},U_{2,3})", pair))


@lru_cache(maxsize=None)
def ternary_forbidden_flags() -> tuple[tuple[str, fl.FlagMatroid], ...]:
    """(R) and the pairwise non-isomorphic (R/e, R\\e) for the four excluded
    matroids of `mc._ternary_excluded`, named in its order; e ranges over
    elements that are neither loops nor coloops."""
    names = ("U_{2,5}", "U_{3,5}", "F_7", "F_7^*")
    out: list[tuple[str, fl.FlagMatroid]] = []
    for name, r in zip(names, mc._ternary_excluded()):
        out.append((f"({name})", fl.from_sequence([r])))
        pairs: list[fl.FlagMatroid] = []
        for e in range(r.n):
            if r.loops_mask >> e & 1 or r.coloops_mask >> e & 1:
                continue
            cand = fl.from_sequence([mc.contract(r, e), mc.delete(r, e)])
            if all(fl.flag_isomorphic(cand, seen) is None for seen in pairs):
                pairs.append(cand)
                out.append((f"({name}/e,{name}\\e)", cand))
    return tuple(out)


def forbidden_flags(p: int) -> tuple[tuple[str, fl.FlagMatroid], ...]:
    """The named excluded flag minors for representability over GF(p)."""
    if p == 2:
        return binary_forbidden_flags()
    if p == 3:
        return ternary_forbidden_flags()
    raise InvalidInput("forbidden-minor route supports p in (2, 3)")


def forbidden_minor_decision(fm: fl.FlagMatroid, p: int) -> RepresentabilityDecision:
    """Decide GF(2)/GF(3) representability of a full flag matroid by
    searching the fixed forbidden-minor list."""
    targets = forbidden_flags(p)
    if not is_full(fm):
        raise NotFull("forbidden-minor characterization needs a full flag")
    for name, target in targets:
        hit = fl.flag_has_minor(fm, target)
        if hit is not None:
            c, d, chops, bij = hit
            return RepresentabilityDecision(
                p, False, witness=ForbiddenMinorWitness(name, target, c, d, chops, bij)
            )
    return RepresentabilityDecision(p, True)


def _pair_matrix(rmat: gl.GFMatrix) -> gl.GFMatrix:
    """Matrix of (Q/x, Q\\x), levels (r - 1, r), from a representation of
    Q whose last column is x.

    Row-reduces so that column x becomes the last unit vector; dropping that
    column gives the pair's matrix, whose top rows represent the
    contraction.  Its prefix ranks are not checked here.
    """
    p, r, x = rmat.p, rmat.rows, rmat.cols - 1
    rows = [list(rmat.row(i)) for i in range(r)]
    pivot = max(i for i in range(r) if rows[i][x] % p)
    rows[pivot], rows[r - 1] = rows[r - 1], rows[pivot]
    inv = pow(rows[r - 1][x], p - 2, p)
    rows[r - 1] = [(v * inv) % p for v in rows[r - 1]]
    for i in range(r - 1):
        if rows[i][x]:
            f = rows[i][x]
            rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r - 1])]
    return gl.matrix(p, [row[:x] for row in rows], cols=x)


def witness_route_decision(fm: fl.FlagMatroid, p: int) -> RepresentabilityDecision:
    """Decide representability of a full flag via its lift witnesses:
    representable iff every witness matroid is, in which case stitching the
    per-pair representations yields an explicit certificate.

    Each consecutive pair (low, high) gets its witness family Q from
    `lifts_majors._coextension`, and `matroid_representation` builds and
    checks Q's unique candidate matrix; that one check is all a pair needs.
    When it passes, Q is a column matroid, hence a matroid; Q/x == low and
    Q\\x == high hold by construction; and a matroid's contraction is a
    quotient of its deletion, so high is a lift of low.  The same matrix
    then gives the pair's matrix.  Before a "no", the checked
    `elementary_witness` runs on the failing pair, so a faulty construction
    raises instead of answering.  The stitched matrices are validated once,
    as the final certificate, which `represents` checks against fm.
    """
    if p not in (2, 3):
        raise InvalidInput("witness route supports p in (2, 3)")
    if not is_full(fm):
        raise NotFull("witness route needs a full flag")
    layers = fm.layers
    if len(layers) == 1:
        a = matroid_representation(layers[0], p)
        if a is None:
            return RepresentabilityDecision(p, False)
        return RepresentabilityDecision(
            p, True, certificate=FlagRepresentation(a, (layers[0].rank,))
        )
    mat = None
    for low, high in zip(layers, layers[1:]):
        rmat = matroid_representation(lm._coextension(low, high), p)
        if rmat is None:
            lm.elementary_witness(low, high)
            return RepresentabilityDecision(p, False)
        pair = _pair_matrix(rmat)
        mat = pair if mat is None else _stitch(mat, pair)
    rep = FlagRepresentation(mat, fm.cardinalities)
    if not represents(rep, fm):
        raise InternalError("stitched certificate mismatch")  # pragma: no cover
    return RepresentabilityDecision(p, True, certificate=rep)


def is_representable_via_fillings(
    fm: fl.FlagMatroid, p: int, budget: int = 10000
) -> RepresentabilityDecision:
    """Tri-state decision for arbitrary flags: representable iff some
    filling is.  A "yes" carries the first representable filling's
    certificate with the filled-in levels chopped off; a "no" carries none,
    and when the bounded filling enumeration was cut short the answer is
    None.  Each filling is decided by the witness route alone, so no minor
    search runs and no minor certificate is made."""
    if p not in (2, 3):
        raise InvalidInput("filling route supports p in (2, 3)")
    search = lm.enumerate_fillings(fm, budget)
    for filling in search.fillings:
        cert = witness_route_decision(filling, p).certificate
        if cert is not None:
            for level in cert.levels:
                if level not in fm.cardinalities:
                    cert = chop_representation(cert, level)
            return RepresentabilityDecision(p, True, certificate=cert)
    return RepresentabilityDecision(p, False if search.complete else None)


# --- the decision ---------------------------------------------------------------------

# the routes `decide` runs, in order, per method, on a full flag and on
# one that is not full
_ROUTES = {
    "witness": (("witness", "minors"), ("search",)),
    "minors": (("minors", "witness"), ("search",)),
    "search": (("search",), ("search",)),
    "all": (("minors", "witness", "search"), ("search", "fillings")),
}


def decide(
    fm: fl.FlagMatroid, p: int, method: str = "witness", budget: int = 10000
) -> RepresentabilityDecision:
    """Decide whether fm is representable over GF(p), by `method`.

    "search" runs `search_representation` alone, for p in SEARCH_FIELDS.
    Under another method, p must be 2 or 3.  A flag that is not full is
    decided by `search_representation` too: binary and ternary layers are
    uniquely representable, so the walk's first matching band is final.
    Its "yes" carries the walk's matrix and its "no" no certificate; under
    "all" `is_representable_via_fillings` runs after it as a cross-check
    (its None, a budget that ran out, is no verdict).  A full flag runs
    the routes of `_ROUTES` in order, each called by its module-level
    name.  `budget` caps the bands the walk examines (else BudgetExhausted)
    and the subclasses the fillings examine.  Except under "all", the
    first decision that carries a certificate (a matrix, or a listed minor)
    ends the loop.  Routes whose verdicts disagree raise InternalError;
    otherwise the first certified decision is returned, or the first
    decision when none is certified.
    """
    if method not in _ROUTES:
        raise InvalidInput(f"unknown decision method {method!r}")
    if method != "search" and p not in (2, 3):
        raise InvalidInput(f"method {method!r} supports p in (2, 3)")
    routes = _ROUTES[method][not is_full(fm)]
    decisions = {}
    for route in routes:
        if route == "witness":
            decision = witness_route_decision(fm, p)
        elif route == "minors":
            decision = forbidden_minor_decision(fm, p)
        elif route == "fillings":
            decision = is_representable_via_fillings(fm, p, budget)
        else:
            rep = search_representation(fm, p, budget)
            decision = RepresentabilityDecision(p, rep is not None, certificate=rep)
        decisions[route] = decision
        if decision.certified and method != "all":
            break
    verdicts = {route: d.representable for route, d in decisions.items()}
    if len(set(verdicts.values()) - {None}) != 1:
        raise InternalError(f"decision routes disagree: {verdicts}")
    return next((d for d in decisions.values() if d.certified), decisions[routes[0]])
