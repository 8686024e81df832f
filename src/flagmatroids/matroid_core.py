"""Matroids on ground sets {0..n-1}, stored by their basis family.

Subsets are int bit masks throughout.  Construction from a basis family is
cheap-checked only (shape, equal cardinality); the public constructors
(`matroid_from_bases`, `matroid_from_independent_sets`, JSON loading) run the
full exchange validation, while operations whose outputs are always
matroids (duals, minors, linear and graphic constructions) trust themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Optional

from . import gf_linalg as gl
from .bitset import (
    elements_of,
    iter_bits,
    mask_of,
    meet_counts,
    set_key,
    size_masks,
    squeeze,
)
from .errors import (
    AxiomViolation,
    BadRank,
    ConstructionFailed,
    IndexOutOfRange,
    OverlappingSets,
)

MAX_GROUND = 20
_ONE = ord("1")  # a set bit in the base-2 digit strings of flat_bits and coflat_bits


@dataclass(frozen=True)
class Matroid:
    """Ground-set size plus the canonical sorted tuple of basis masks.

    Derived data is computed on first use and cached on the instance:
    `independent_table` and `rank_table` (one entry per subset),
    `closure_table` (the closure of every subset), and two 2^n-bit ints,
    `flat_bits` (bit S set iff S is a flat) and `coflat_bits` (bit S set iff
    S is a flat of the dual), both read off the rank table, so no dual
    matroid is built to test duals.
    """

    n: int
    bases: tuple[int, ...]

    def __post_init__(self):
        if not (0 <= self.n <= MAX_GROUND):
            raise IndexOutOfRange(f"ground set size {self.n} outside 0..{MAX_GROUND}")
        if not self.bases:
            raise ConstructionFailed("a matroid has at least one basis")
        full = (1 << self.n) - 1
        size = self.bases[0].bit_count()
        for b in self.bases:
            if b & ~full:
                raise IndexOutOfRange("basis element outside the ground set")
            if b.bit_count() != size:
                raise ConstructionFailed("bases of unequal cardinality")

    @property
    def rank(self) -> int:
        return self.bases[0].bit_count()

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def basis_set(self) -> frozenset[int]:
        return frozenset(self.bases)

    @cached_property
    def independent_table(self) -> bytearray:
        """independent_table[mask] == 1 iff mask is independent."""
        table = bytearray(1 << self.n)
        for b in self.bases:
            table[b] = 1
        for mask in range((1 << self.n) - 1, 0, -1):
            if table[mask]:
                for e in iter_bits(mask):
                    table[mask ^ (1 << e)] = 1
        table[0] = 1
        return table

    @cached_property
    def rank_table(self) -> list[int]:
        """rank_table[mask] == rank of the subset mask."""
        ind = self.independent_table
        table = [0] * (1 << self.n)
        for mask in range(1, 1 << self.n):
            if ind[mask]:
                table[mask] = mask.bit_count()
            else:
                low = mask & -mask
                best = table[mask ^ low]
                for e in iter_bits(mask ^ low):
                    r = table[mask ^ (1 << e)]
                    if r > best:
                        best = r
                table[mask] = best
        return table

    @cached_property
    def loops_mask(self) -> int:
        used = 0
        for b in self.bases:
            used |= b
        return self.full_mask & ~used

    @cached_property
    def coloops_mask(self) -> int:
        common = self.full_mask
        for b in self.bases:
            common &= b
        return common

    @cached_property
    def closure_table(self) -> list[int]:
        """closure_table[mask] == mask plus every e with r(mask + e) == r(mask)."""
        table = self.rank_table
        bits = [1 << e for e in range(self.n)]
        out = []
        for mask, r in enumerate(table):
            cl = mask
            for bit in bits:
                if table[mask | bit] == r:
                    cl |= bit
            out.append(cl)
        return out

    @cached_property
    def flat_bits(self) -> int:
        """Bit S set iff S is a flat: r(S + e) > r(S) for every e outside S."""
        table = self.rank_table
        full = self.full_mask
        digits = bytearray(b"0") * len(table)
        for s, r in enumerate(table):
            rest = full ^ s
            while rest:
                low = rest & -rest
                if table[s | low] == r:
                    break
                rest ^= low
            else:
                digits[s] = _ONE
        return int(digits[::-1], 2)

    @cached_property
    def coflat_bits(self) -> int:
        """Bit S set iff S is a flat of the dual matroid.

        The dual rank is r*(S) = |S| - r(E) + r(E - S), so for e outside S,
        r*(S + e) - r*(S) = 1 + r(E - S - e) - r(E - S), which is positive
        iff r(E - S - e) == r(E - S).  S is a dual flat iff its complement T
        has r(T - e) == r(T) for every e in T.
        """
        table = self.rank_table
        full = self.full_mask
        digits = bytearray(b"0") * len(table)
        for t, r in enumerate(table):
            rest = t
            while rest:
                low = rest & -rest
                if table[t ^ low] != r:
                    break
                rest ^= low
            else:
                digits[full ^ t] = _ONE
        return int(digits[::-1], 2)

    @cached_property
    def flats(self) -> tuple[int, ...]:
        digits = format(self.flat_bits, "b")[::-1]
        out = [s for s, d in enumerate(digits) if d == "1"]
        return tuple(sorted(out, key=set_key))

    @cached_property
    def element_degrees(self) -> tuple[int, ...]:
        """Number of bases through each element."""
        return tuple(sum(1 for b in self.bases if b >> e & 1) for e in range(self.n))

    def is_independent(self, mask: int) -> bool:
        return bool(self.independent_table[mask])


def basis_exchange_witness(masks: Iterable[int]) -> Optional[tuple[int, int, int]]:
    """None if the equal-cardinality family satisfies basis exchange,
    else the first witness (B1, B2, x) in family order.

    Exchange asks, for B1 != B2 and x in B1 - B2, for some y in B2 - B1 with
    B1 - x + y in the family.  reach[S] is the mask of the y outside S with
    S + y in the family, built once from every member minus each of its
    elements.  A y in reach[B1 - x] & B2 is outside B1 - x and is not x
    (x is not in B2), so it lies in B2 - B1: an exchange for (B1, B2, x)
    exists iff reach[B1 - x] & B2 != 0.  As B1 is in the family, x itself
    is in reach[B1 - x], so the same test passes for every x in B1 & B2,
    and for every x when B1 == B2; running it over all x in B1 therefore
    finds the same first witness as running it over B1 - B2.
    """
    fam = list(masks)
    reach: dict[int, int] = {}
    for b in set(fam):
        for x in iter_bits(b):
            rest = b ^ 1 << x
            reach[rest] = reach.get(rest, 0) | 1 << x
    for b1 in fam:
        row = [(reach[b1 ^ 1 << x], x) for x in iter_bits(b1)]
        for b2 in fam:
            for can_reach, x in row:
                if not can_reach & b2:
                    return (b1, b2, x)
    return None


def matroid_from_bases(n: int, bases: Iterable[Iterable[int]]) -> Matroid:
    """Validated construction from explicit basis sets."""
    masks = sorted({mask_of(b) for b in bases}, key=set_key)
    m = Matroid(n, tuple(masks))
    witness = basis_exchange_witness(masks)
    if witness is not None:
        raise ConstructionFailed(
            "basis exchange fails",
            bases=tuple(elements_of(w) for w in witness[:2]),
            element=witness[2],
        )
    return m


def matroid_from_independent_sets(n: int, family: Iterable[Iterable[int]]) -> Matroid:
    """Validate the three independence axioms, then keep the maximal sets.

    Raises AxiomViolation(axiom, ...) with a concrete witness for the first
    failing axiom: 1 = empty set missing, 2 = not downward closed,
    3 = augmentation fails.
    """
    fam = sorted({mask_of(s) for s in family})
    fam_set = set(fam)
    if 0 not in fam_set:
        raise AxiomViolation(1, "empty set not independent")
    for s in fam:
        for e in iter_bits(s):
            if s ^ (1 << e) not in fam_set:
                raise AxiomViolation(
                    2, "family not downward closed",
                    superset=elements_of(s), subset=elements_of(s ^ (1 << e)),
                )
    by_size: dict[int, list[int]] = {}
    for s in fam:
        by_size.setdefault(s.bit_count(), []).append(s)
    for small in fam:
        for big in fam:
            if big.bit_count() <= small.bit_count():
                continue
            if not any(small | (1 << e) in fam_set for e in iter_bits(big & ~small)):
                raise AxiomViolation(
                    3, "augmentation fails",
                    smaller=elements_of(small), larger=elements_of(big),
                )
    top = max(s.bit_count() for s in fam)
    return Matroid(n, tuple(sorted(by_size[top], key=set_key)))


def uniform(r: int, n: int) -> Matroid:
    """The uniform matroid with all r-subsets of an n-set as bases."""
    if not (0 <= r <= n):
        raise BadRank(f"rank {r} outside 0..{n}")
    return Matroid(n, tuple(size_masks(n, r)))


def linear_matroid(a: gl.GFMatrix) -> Matroid:
    """Column matroid of a matrix over GF(p)."""
    n = a.cols
    if n > MAX_GROUND:
        raise IndexOutOfRange(f"too many columns ({n})")
    # column_bases yields in combinations order, which is set_key order
    return Matroid(n, tuple(gl.column_bases(a, gl.rank(a))))


# --- derived quantities -----------------------------------------------------

def _as_mask(m: Matroid, subset: int | Iterable[int]) -> int:
    mask = subset if isinstance(subset, int) else mask_of(subset)
    if mask & ~m.full_mask:
        raise IndexOutOfRange("subset outside the ground set")
    return mask


def rank_of(m: Matroid, subset: int | Iterable[int]) -> int:
    return m.rank_table[_as_mask(m, subset)]


def closure(m: Matroid, subset: int | Iterable[int]) -> int:
    return m.closure_table[_as_mask(m, subset)]


def first_unlifted(quot_bits: int, lift_bits: int) -> Optional[int]:
    """Least mask S with bit S set in quot_bits but not in lift_bits, or None.

    With flat bitsets this is the first flat of the quotient that is not a
    flat of the lift; every flat-based lift test reduces to this one AND.
    """
    missing = quot_bits & ~lift_bits
    return (missing & -missing).bit_length() - 1 if missing else None


def flats(m: Matroid) -> tuple[int, ...]:
    return m.flats


def circuits(m: Matroid) -> tuple[int, ...]:
    """Minimal dependent sets, sorted by (size, lex)."""
    ind = m.independent_table
    out = []
    for mask in range(1, 1 << m.n):
        if ind[mask]:
            continue
        if all(ind[mask ^ (1 << e)] for e in iter_bits(mask)):
            out.append(mask)
    return tuple(sorted(out, key=lambda s: (s.bit_count(), set_key(s))))


def loops(m: Matroid) -> tuple[int, ...]:
    return elements_of(m.loops_mask)


def parallel_classes(m: Matroid) -> tuple[tuple[int, ...], ...]:
    """Maximal classes of pairwise parallel non-loop elements."""
    table = m.rank_table
    nonloops = [e for e in range(m.n) if not m.loops_mask >> e & 1]
    classes: list[list[int]] = []
    for e in nonloops:
        for cls in classes:
            if table[(1 << cls[0]) | (1 << e)] == 1:
                cls.append(e)
                break
        else:
            classes.append([e])
    return tuple(tuple(c) for c in classes)


# --- duality and minors -----------------------------------------------------

def dual(m: Matroid) -> Matroid:
    full = m.full_mask
    return Matroid(m.n, tuple(sorted((full ^ b for b in m.bases), key=set_key)))


def _contract_masks(m: Matroid, cmask: int) -> list[int]:
    """Basis masks of m / cmask, still in the original indexing."""
    rc = m.rank_table[cmask]
    out = {b & ~cmask for b in m.bases if (b & cmask).bit_count() == rc}
    return sorted(out)


def _delete_masks(n: int, bases: list[int] | tuple[int, ...], dmask: int) -> list[int]:
    """Basis masks of the deletion, still in the original indexing."""
    best = max((b & ~dmask).bit_count() for b in bases)
    out = {b & ~dmask for b in bases if (b & ~dmask).bit_count() == best}
    return sorted(out)


def minor(m: Matroid, contract: int | Iterable[int], delete: int | Iterable[int]) -> Matroid:
    """Contract then delete; survivors are re-indexed order-preservingly."""
    cmask = _as_mask(m, contract)
    dmask = _as_mask(m, delete)
    if cmask & dmask:
        raise OverlappingSets("contract and delete sets intersect")
    masks = _contract_masks(m, cmask) if cmask else list(m.bases)
    if dmask:
        masks = _delete_masks(m.n, masks, dmask)
    removed = cmask | dmask
    squeezed = sorted({squeeze(b, removed) for b in masks}, key=set_key)
    return Matroid(m.n - removed.bit_count(), tuple(squeezed))


def delete(m: Matroid, e: int) -> Matroid:
    return minor(m, 0, _as_mask(m, [e]))


def contract(m: Matroid, e: int) -> Matroid:
    return minor(m, _as_mask(m, [e]), 0)


def minor_index_map(n: int, removed: int | Iterable[int]) -> tuple[int, ...]:
    """Surviving original indices, in re-indexed order."""
    rmask = removed if isinstance(removed, int) else mask_of(removed)
    return tuple(e for e in range(n) if not rmask >> e & 1)


# --- isomorphism and minor search --------------------------------------------

def is_isomorphic(m: Matroid, other: Matroid) -> Optional[tuple[int, ...]]:
    """Lexicographically least ground-set bijection mapping bases onto bases,
    or None.  Backtracking with degree/rank pruning."""
    if m.n != other.n or m.rank != other.rank or len(m.bases) != len(other.bases):
        return None
    if sorted(m.element_degrees) != sorted(other.element_degrees):
        return None
    n = m.n
    deg_m, deg_o = m.element_degrees, other.element_degrees
    rt_m, rt_o = m.rank_table, other.rank_table
    assigned: list[int] = []
    used = [False] * n

    def extend(depth: int) -> bool:
        if depth == n:
            return True
        for t in range(n):
            if used[t] or deg_o[t] != deg_m[depth]:
                continue
            assigned.append(t)
            used[t] = True
            ok = True
            # check every subset that includes the new element
            for sub in range(1 << depth):
                src = sub | (1 << depth)
                img = (1 << t)
                rest = sub
                i = 0
                while rest:
                    if rest & 1:
                        img |= 1 << assigned[i]
                    rest >>= 1
                    i += 1
                if rt_m[src] != rt_o[img]:
                    ok = False
                    break
            if ok and extend(depth + 1):
                return True
            assigned.pop()
            used[t] = False
        return False

    if extend(0):
        return tuple(assigned)
    return None


def has_minor_isomorphic_to(
    m: Matroid, target: Matroid
) -> Optional[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]]:
    """Exhaustive minor search, contracting exactly rank(m)-rank(target)
    independent elements; returns the lexicographically least witness
    (contract, delete, bijection) or None.

    Splits are screened by counting before any minor is built.  When C is
    independent, the bases of m/C\\D are the sets B - C for the bases B of m
    with B & (C|D) == C, and there is no such B exactly when deleting D
    lowers the rank.  So `meet_counts(m.bases, C|D)[C]` is 0 or the minor's
    basis count, and a split whose count is not len(target.bases) fails the
    rank or basis-count comparison `is_isomorphic` starts with.  The screen
    drops only those splits; the rest are tried in the same order as the
    plain (contract, delete) enumeration, so the witness is unchanged.
    """
    dr = m.rank - target.rank
    extra = m.n - target.n
    dd = extra - dr
    if dr < 0 or dd < 0:
        return None
    if m.n - m.rank < target.n - target.rank:
        return None
    target_bases = len(target.bases)
    splits = []
    for removed in size_masks(m.n, extra):
        for cmask, count in meet_counts(m.bases, removed).items():
            if count == target_bases and cmask.bit_count() == dr:
                splits.append((elements_of(cmask), elements_of(removed ^ cmask)))
    for c, d in sorted(splits):
        bij = is_isomorphic(minor(m, c, d), target)
        if bij is not None:
            return (c, d, bij)
    return None


# --- representability and graphicness ----------------------------------------

_FANO_ROWS = (
    (1, 1, 1, 1, 0, 0, 0),
    (1, 1, 0, 0, 1, 1, 0),
    (1, 0, 1, 0, 1, 0, 1),
)


def fano_matrix() -> gl.GFMatrix:
    """The 3x7 GF(2) matrix whose column matroid is the Fano plane."""
    return gl.matrix(2, [list(r) for r in _FANO_ROWS])


@lru_cache(maxsize=None)
def fano_matroid() -> Matroid:
    return linear_matroid(fano_matrix())


@lru_cache(maxsize=None)
def _binary_excluded() -> tuple[Matroid, ...]:
    return (uniform(2, 4),)


@lru_cache(maxsize=None)
def _ternary_excluded() -> tuple[Matroid, ...]:
    f7 = fano_matroid()
    return (uniform(2, 5), uniform(3, 5), f7, dual(f7))


@lru_cache(maxsize=None)
def _graphic_excluded() -> tuple[Matroid, ...]:
    # cycle_matroid lives in the graphic module, which imports this one;
    # import at call time to keep module loading acyclic.
    from .graphic import complete_bipartite, complete_graph, cycle_matroid

    f7 = fano_matroid()
    return (
        uniform(2, 4),
        f7,
        dual(f7),
        dual(cycle_matroid(complete_graph(5))),
        dual(cycle_matroid(complete_bipartite(3, 3))),
    )


def _free_of_minors(m: Matroid, excluded: tuple[Matroid, ...]) -> bool:
    return all(has_minor_isomorphic_to(m, t) is None for t in excluded)


def is_binary(m: Matroid) -> bool:
    return _free_of_minors(m, _binary_excluded())


def is_ternary(m: Matroid) -> bool:
    return _free_of_minors(m, _ternary_excluded())


def is_graphic(m: Matroid) -> bool:
    return _free_of_minors(m, _graphic_excluded())


# --- exhaustive enumeration ---------------------------------------------------

def enumerate_basis_families(n: int, r: int) -> Iterator[tuple[int, ...]]:
    """All exchange-valid nonempty families of r-subsets of {0..n-1}."""
    pool = size_masks(n, r)
    for pick in range(1, 1 << len(pool)):
        fam = tuple(pool[i] for i in range(len(pool)) if pick >> i & 1)
        if basis_exchange_witness(fam) is None:
            yield tuple(sorted(fam, key=set_key))


def enumerate_matroids(n: int) -> Iterator[Matroid]:
    """All labeled matroids on {0..n-1}, by brute force over basis families."""
    for r in range(n + 1):
        for fam in enumerate_basis_families(n, r):
            yield Matroid(n, fam)
