"""Known answers computed from first principles, independent of flagmatroids.

Every check the benchmark makes compares the library's output with a value
computed here: GF(p) ranks by plain Gaussian elimination, matroids as basis
lists, flats from rank-by-bases, spanning forests by union-find.  Nothing in
this module imports the library under test.

Sets are bitmasks over the ground set {0..n-1}; a family is a frozenset of
masks.
"""

from __future__ import annotations

from itertools import combinations, permutations


def gf_rank(rows: list[list[int]], p: int) -> int:
    """Rank of a matrix over GF(p) (p prime), by row reduction."""
    work = [[x % p for x in row] for row in rows]
    rank = 0
    width = len(work[0]) if work else 0
    for c in range(width):
        pivot = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][c], p - 2, p)
        work[rank] = [x * inv % p for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][c]:
                f = work[i][c]
                work[i] = [(x - f * y) % p for x, y in zip(work[i], work[rank])]
        rank += 1
    return rank


def mask(elements) -> int:
    out = 0
    for e in elements:
        out |= 1 << e
    return out


def elements(m: int) -> list[int]:
    return [e for e in range(m.bit_length()) if m >> e & 1]


def family_of(sets) -> frozenset[int]:
    """Family of masks from a JSON list of element lists."""
    return frozenset(mask(s) for s in sets)


# --- flags from matrices -------------------------------------------------------


def matrix_layer(rows: list[list[int]], p: int, d: int) -> frozenset[int]:
    """Bases of the column matroid of the first d rows: the d-sets of columns
    whose d x d prefix minor is nonsingular."""
    n = len(rows[0])
    prefix = rows[:d]
    return frozenset(
        mask(cols)
        for cols in combinations(range(n), d)
        if gf_rank([[row[c] for c in cols] for row in prefix], p) == d
    )


def matrix_flag(rows: list[list[int]], p: int, levels) -> frozenset[int]:
    """Feasible family of the flag matroid of a matrix at the given levels."""
    out: set[int] = set()
    for d in levels:
        out |= matrix_layer(rows, p, d)
    return frozenset(out)


# --- matroids as basis families --------------------------------------------------


def layers_of(family) -> dict[int, frozenset[int]]:
    """Feasible family grouped by cardinality."""
    out: dict[int, set[int]] = {}
    for s in family:
        out.setdefault(s.bit_count(), set()).add(s)
    return {k: frozenset(v) for k, v in sorted(out.items())}


def is_basis_family(bases: frozenset[int]) -> bool:
    """Basis exchange: for B1, B2 and x in B1 - B2 some y in B2 - B1 makes
    B1 - x + y a basis."""
    if not bases or len({b.bit_count() for b in bases}) != 1:
        return False
    for b1 in bases:
        for b2 in bases:
            for x in elements(b1 & ~b2):
                if not any(
                    (b1 ^ (1 << x)) | (1 << y) in bases for y in elements(b2 & ~b1)
                ):
                    return False
    return True


def rank_by_bases(bases, s: int) -> int:
    return max((b & s).bit_count() for b in bases)


def flats(n: int, bases) -> frozenset[int]:
    """Sets S with r(S + e) > r(S) for every e outside S."""
    out = []
    for s in range(1 << n):
        r = rank_by_bases(bases, s)
        if all(
            rank_by_bases(bases, s | 1 << e) > r for e in range(n) if not s >> e & 1
        ):
            out.append(s)
    return frozenset(out)


def is_flag(n: int, family) -> bool:
    """Layered definition of a flag matroid: every layer is a basis family
    and each layer is a lift of the one below (every flat of the lower layer
    is a flat of the upper one)."""
    groups = list(layers_of(family).values())
    if not groups or not all(is_basis_family(g) for g in groups):
        return False
    flat_sets = [flats(n, g) for g in groups]
    return all(lo <= hi for lo, hi in zip(flat_sets, flat_sets[1:]))


# --- graphic flags ----------------------------------------------------------------


def _is_forest(edges, chosen: int, cell_of) -> bool:
    parent = {}

    def find(v):
        while parent.get(v, v) != v:
            v = parent[v]
        return v

    for e in elements(chosen):
        u, v = find(cell_of[edges[e][0]]), find(cell_of[edges[e][1]])
        if u == v:
            return False
        parent[u] = v
    return True


def graphic_flag(edges, partitions) -> frozenset[int]:
    """Feasible family of a graph's flag: per partition, the spanning forests
    of the quotient graph whose vertices are the partition's cells."""
    n = len(edges)
    out: set[int] = set()
    for cells in partitions:
        cell_of = {v: i for i, cell in enumerate(cells) for v in cell}
        forests = [
            m for k in range(n + 1) for m in map(mask, combinations(range(n), k))
            if _is_forest(edges, m, cell_of)
        ]
        top = max(f.bit_count() for f in forests)
        out |= {f for f in forests if f.bit_count() == top}
    return frozenset(out)


# --- minors, duals, isomorphism ---------------------------------------------------


def squeeze(m: int, removed: int, n: int) -> int:
    """Renumber the elements of m after dropping those in `removed`."""
    out, j = 0, 0
    for e in range(n):
        if removed >> e & 1:
            continue
        if m >> e & 1:
            out |= 1 << j
        j += 1
    return out


def flag_minor(n: int, family, contract: int, delete: int, chops) -> frozenset[int]:
    """Contract, delete, then drop the layers of the given cardinalities."""
    removed = contract | delete
    kept = frozenset(
        squeeze(f ^ contract, removed, n)
        for f in family
        if f & contract == contract and not f & delete
    )
    return frozenset(f for f in kept if f.bit_count() not in set(chops))


def relabel(family, perm) -> frozenset[int]:
    return frozenset(mask(perm[e] for e in elements(f)) for f in family)


def complements(n: int, family) -> frozenset[int]:
    full = (1 << n) - 1
    return frozenset(full ^ f for f in family)


def isomorphic(n: int, fam_a, fam_b) -> bool:
    """Brute force over bijections; only for the small forbidden flags."""
    if len(fam_a) != len(fam_b):
        return False
    sig_a = sorted(f.bit_count() for f in fam_a)
    if sig_a != sorted(f.bit_count() for f in fam_b):
        return False
    return any(relabel(fam_a, perm) == fam_b for perm in permutations(range(n)))


def major_layers(nq: int, bases, blocks, n: int) -> list[frozenset[int]]:
    """Layers of the flag a major defines: layer i is Q contracted by the
    blocks from i on and deleted by the blocks before i, restricted to the
    first n elements."""
    block_masks = [mask(b) for b in blocks]
    out = []
    for i in range(len(block_masks) + 1):
        contract = 0
        for bm in block_masks[i:]:
            contract |= bm
        delete = 0
        for bm in block_masks[:i]:
            delete |= bm
        over = [b ^ contract for b in bases if b & contract == contract]
        if not over:  # the blocks are dependent in Q: not a major
            return []
        top = max((b & ~delete).bit_count() for b in over)
        out.append(frozenset(b & ~delete for b in over if (b & ~delete).bit_count() == top))
    return out
