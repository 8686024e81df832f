"""Matroids on ground sets {0..n-1}, stored by their basis family.

Subsets are int bit masks throughout.  Construction stores the basis family
in `bitset.canonical` form, so equal families make equal matroids, and
checks only its shape and equal cardinality; `Matroid.is_matroid` decides
basis exchange by the local rank axiom on the rank levels.  The public
constructors (`matroid_from_bases`, JSON loading) run that test and take a
witness, the cached `exchange_witness`, only when it fails;
`matroid_from_independent_sets` checks the independence axioms as stated.
Operations whose outputs are always matroids (duals, minors, linear and
graphic constructions) trust themselves.

Isomorphism and minor search first compare sizes, ranks and basis counts,
and answer None when those rule a match out.  Isomorphism then runs
`bitset.family_bijection` on the basis sets of any two `Matroid`s (up to 21
elements).  Minor search runs the `flag_core` search on the one-layer basis
flags, so it takes at most MAX_GROUND = 20 elements, as flags do, and
raises IndexOutOfRange above that.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Collection, Iterable, Iterator, Optional

from . import gf_linalg as gl
from .bitset import (
    _bit_bytes,
    _down_closure,
    _element_bits,
    _size_bits,
    canonical,
    elements_of,
    family_bijection,
    iter_bits,
    mask_of,
    order_key,
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
from .frozen import Frozen

MAX_GROUND = 20  # the largest ground set of a loaded document or a flag
# A lift witness of a flag on n elements has n + 1 (lifts_majors), so a
# matroid built inside the library may have one element more.
MAX_MATROID_GROUND = MAX_GROUND + 1


class Matroid(Frozen):
    """Immutable: ground-set size plus the basis masks, stored in `canonical`
    form whatever iterable is given, so equal families make equal matroids.

    Derived data is computed on first use and cached on the instance.  The
    rank function is held as 2^n-bit ints: `independent_bits` (bit S set
    iff S is independent) and `rank_levels`, the r nested levels
    A_k = {S : r(S) >= k}.  Everything else is derived from them with
    O(n*r) shifts and ANDs: `independent_table` and `rank_table`, read-only
    `bytes` with one byte per subset, and `flat_bits` (bit S set iff S is a
    flat); `coflat_bits` is the `flat_bits` of a dual that is not kept.
    `is_matroid` (basis exchange) keeps the AND of the per-element
    `moved_bits` as `flat_bits` on a "yes"; the closures lift test, or
    `flat_bits` of an unchecked matroid, caches the tuple.
    `fundamental_cocircuits`, per basis B the masks of the e outside B that
    can replace each x in B, is read off the basis family alone; the bases
    lift test `unlifted_basis` ORs and ANDs these rows.
    """

    n: int
    bases: tuple[int, ...]

    def __init__(self, n: int, bases: Iterable[int]):
        self.__post_init__(n, bases)

    def __post_init__(self, n, bases):
        if not (0 <= n <= MAX_MATROID_GROUND):
            raise IndexOutOfRange(f"ground set size {n} outside 0..{MAX_MATROID_GROUND}")
        bases = canonical(bases)
        if not bases:
            raise ConstructionFailed("a matroid has at least one basis")
        if any(b >> n for b in bases):
            raise IndexOutOfRange("basis element outside the ground set")
        if bases[0].bit_count() != bases[-1].bit_count():
            raise ConstructionFailed("bases of unequal cardinality")
        self.__dict__.update(n=n, bases=bases)

    @property
    def rank(self) -> int:
        return self.bases[0].bit_count()

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @property  # built per read, so a layer held by the flag memo keeps no copy
    def basis_set(self) -> frozenset[int]:
        return frozenset(self.bases)

    @cached_property
    def independent_bits(self) -> int:
        """Bit S set iff S is independent: the down-closure of the bases."""
        return _down_closure(self.n, self.bases)

    @cached_property
    def rank_levels(self) -> tuple[int, ...]:
        """A_1..A_r: bit S of the k-th level is set iff r(S) >= k.

        A_k is the up-closure of the independent k-sets."""
        ind = self.independent_bits
        element_bits = _element_bits(self.n)
        out = []
        for level in _size_bits(self.n)[1:self.rank + 1]:
            up = ind & level
            for e, has in enumerate(element_bits):
                up |= (up & ~has) << (1 << e)
            out.append(up)
        return tuple(out)

    @cached_property
    def independent_table(self) -> bytes:
        """independent_table[mask] == 1 iff mask is independent."""
        return _bit_bytes(self.independent_bits, self.n)

    @cached_property
    def rank_table(self) -> bytes:
        """rank_table[mask] == rank of the subset mask: the number of levels
        holding it, summed one byte per subset (ranks never carry)."""
        total = sum(
            int.from_bytes(_bit_bytes(level, self.n), "little") for level in self.rank_levels
        )
        return total.to_bytes(1 << self.n, "little")

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
    def moved_bits(self) -> tuple[int, ...]:
        """Per element e, the 2^n-bit int with bit S set iff S holds e or
        r(S + e) > r(S): its clear bits are the S whose closure gains e.
        `_each_moved` builds them."""
        return tuple(self._each_moved())

    def _each_moved(self) -> Iterator[int]:
        """The `moved_bits` entries, one element at a time.

        For S without e, bit S of A_k >> 2^e is bit S + e of A_k, so S + e
        raises the rank iff some level holds S + e but not S."""
        levels = self.rank_levels
        for e, has in enumerate(_element_bits(self.n)):
            step = 1 << e
            raised = 0
            for level in levels:
                raised |= (level >> step) & ~level
            yield has | raised

    @cached_property
    def flat_bits(self) -> int:
        """Bit S set iff S is a flat: r(S + e) > r(S) for every e outside S."""
        flat = (1 << (1 << self.n)) - 1
        for moved in self.moved_bits:
            flat &= moved
        return flat

    @cached_property
    def is_matroid(self) -> bool:
        """True iff the bases satisfy basis exchange.

        r(S) = max |B & S| over the bases is 0 on the empty set, monotone and
        grows by at most one per element, so the family is a basis family
        iff r also satisfies the local rank axiom (Oxley, Matroid Theory,
        1.3): for S and e, f outside S, r(S + e) = r(S + f) = r(S) implies
        r(S + e + f) = r(S).  With stay_e = {S without e : r(S + e) = r(S)},
        bit S of stay_f >> 2^e is bit S + e of stay_f, so the axiom fails
        for e < f exactly at the bits of stay_e & stay_f & ~(stay_f >> 2^e).
        That is O(n^2) big-int ANDs and no loop over the bases.  Element f's
        moved bitset is built only once every pair below f has passed, so a
        family that fails early pays for few of them.  The stay and moved
        bitsets live only for this call; when every pair passed, the AND of
        the moved ones is kept as `flat_bits` beside the rank levels.
        """
        everything = (1 << (1 << self.n)) - 1
        flat = everything
        stay: list[int] = []
        for moved_f in self._each_moved():
            stay_f = everything ^ moved_f
            for e, stay_e in enumerate(stay):
                both = stay_e & stay_f
                if both & (stay_f >> (1 << e)) != both:
                    return False
            flat &= moved_f
            stay.append(stay_f)
        self.__dict__["flat_bits"] = flat
        return True

    @cached_property
    def exchange_witness(self) -> Optional[tuple[int, int, int]]:
        """None on a basis family, else `basis_exchange_witness` of the bases."""
        return None if self.is_matroid else basis_exchange_witness(self.bases)

    @cached_property
    def coflat_bits(self) -> int:
        """Bit S set iff S is a flat of the dual: its `flat_bits`."""
        return dual(self).flat_bits

    @cached_property
    def flats(self) -> tuple[int, ...]:
        digits = format(self.flat_bits, "b")[::-1]
        out = [s for s, d in enumerate(digits) if d == "1"]
        return tuple(sorted(out, key=elements_of))

    @cached_property
    def fundamental_cocircuits(self) -> tuple[tuple[int, ...], ...]:
        """Per basis B, in `bases` order, the row over x in {0..n-1} of the
        masks {e outside B : B - x + e is a basis}: the fundamental cocircuit
        C*(B, x) less x for x in B, empty for x outside B.  Row x of B is
        `_one_step_reach` of the bases at B - x, less x itself."""
        reach = _one_step_reach(self.bases)
        out = []
        for b in self.bases:
            row = [0] * self.n
            for x in iter_bits(b):
                row[x] = reach[b ^ 1 << x] ^ 1 << x
            out.append(tuple(row))
        return tuple(out)

    def is_independent(self, mask: int) -> bool:
        return bool(self.independent_table[mask])


def _one_step_reach(family: Iterable[int]) -> dict[int, int]:
    """reach[S], for each member less one element, is the mask of the y
    outside S with S + y in the family (of distinct masks)."""
    reach: dict[int, int] = {}
    for b in family:
        for x in iter_bits(b):
            rest = b ^ 1 << x
            reach[rest] = reach.get(rest, 0) | 1 << x
    return reach


def basis_exchange_witness(masks: Iterable[int]) -> Optional[tuple[int, int, int]]:
    """None if the equal-cardinality family satisfies basis exchange,
    else the first witness (B1, B2, x) in family order.

    Exchange asks, for B1 != B2 and x in B1 - B2, for some y in B2 - B1 with
    B1 - x + y in the family.  reach is `_one_step_reach` of the family,
    built once.  A y in reach[B1 - x] & B2 is outside B1 - x and is not x
    (x is not in B2), so it lies in B2 - B1: an exchange for (B1, B2, x)
    exists iff reach[B1 - x] & B2 != 0.  As B1 is in the family, x itself
    is in reach[B1 - x], so the same test passes for every x in B1 & B2,
    and for every x when B1 == B2; running it over all x in B1 therefore
    finds the same first witness as running it over B1 - B2.
    """
    fam = list(masks)
    reach = _one_step_reach(set(fam))
    for b1 in fam:
        row = [(reach[b1 ^ 1 << x], x) for x in iter_bits(b1)]
        for b2 in fam:
            for can_reach, x in row:
                if not can_reach & b2:
                    return (b1, b2, x)
    return None


def matroid_from_bases(n: int, bases: Iterable[Iterable[int] | int]) -> Matroid:
    """Validated construction from explicit basis sets, as element lists or masks."""
    m = Matroid(n, (b if isinstance(b, int) else mask_of(b) for b in bases))
    if not m.is_matroid:
        witness = m.exchange_witness
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
    return Matroid(n, (s for s in fam if s.bit_count() == top))


def uniform(r: int, n: int) -> Matroid:
    """The uniform matroid with all r-subsets of an n-set as bases."""
    if not (0 <= r <= n):
        raise BadRank(f"rank {r} outside 0..{n}")
    return Matroid(n, size_masks(n, r))


def linear_matroid(a: gl.GFMatrix) -> Matroid:
    """Column matroid of a matrix over GF(p).  A matrix with dependent rows
    is replaced by the nonzero rows of its RREF, which have the same column
    matroid, so `column_bases` is asked for full-width sets."""
    n = a.cols
    if n > MAX_GROUND:
        raise IndexOutOfRange(f"too many columns ({n})")
    r = gl.rank(a)
    if r < a.rows:
        a = gl.prefix_rows(gl.rref(a)[0], r)
    return Matroid(n, gl.column_bases(a))


# --- derived quantities -----------------------------------------------------

def _as_mask(m: Matroid, subset: int | Iterable[int]) -> int:
    mask = subset if isinstance(subset, int) else mask_of(subset)
    if mask & ~m.full_mask:
        raise IndexOutOfRange("subset outside the ground set")
    return mask


def rank_of(m: Matroid, subset: int | Iterable[int]) -> int:
    return m.rank_table[_as_mask(m, subset)]


def closure(m: Matroid, subset: int | Iterable[int]) -> int:
    """subset plus every e with r(subset + e) == r(subset)."""
    mask = _as_mask(m, subset)
    table = m.rank_table
    r = table[mask]
    return mask | mask_of(e for e in range(m.n) if table[mask | 1 << e] == r)


def first_unlifted(quot_bits: int, lift_bits: int) -> Optional[int]:
    """Least mask S with bit S set in quot_bits but not in lift_bits, or None.

    With flat bitsets this is the first flat of the quotient that is not a
    flat of the lift; every flat-based lift test reduces to this one AND.
    """
    missing = quot_bits & ~lift_bits
    return (missing & -missing).bit_length() - 1 if missing else None


def unlifted_basis(quot: Matroid, lift: Matroid) -> Optional[tuple[int, int]]:
    """The first (F, e), F a basis of lift and e outside F, for which no
    basis G of quot inside F has its fundamental circuit of e inside F's,
    or None.  This is axiom 2 between two layers of a flag and the "bases"
    lift test of `lifts_majors.is_lift`.

    x is in C(G, e) iff e is in C*(G, x), so with the cached
    `fundamental_cocircuits` rows `low` of G and `up` of F, G fails for
    every e in the OR over x in G of low[x] & ~up[x].  The e outside F that
    every G inside F fails for are the AND of those ORs; F's search stops
    once it is empty, and otherwise its lowest bit is the least such e."""
    full = lift.full_mask
    lower, lower_rows = quot.bases, quot.fundamental_cocircuits
    for f, up in zip(lift.bases, lift.fundamental_cocircuits):
        failing = full & ~f
        for g, low in zip(lower, lower_rows):
            if g & ~f:
                continue
            bad = 0
            for x in iter_bits(g):
                bad |= low[x] & ~up[x]
            failing &= bad
            if not failing:
                break
        if failing:
            return (f, (failing & -failing).bit_length() - 1)
    return None


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
    return canonical(out)


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
    return Matroid(m.n, (full ^ b for b in m.bases))


def _contract_masks(m: Matroid, cmask: int) -> set[int]:
    """Basis masks of m / cmask, still in the original indexing.

    r(C) is the largest |B & C| over the bases B, so contracting builds no
    rank table: one contraction of a 21-element witness would otherwise
    materialise 2^21 bytes to read one rank.
    """
    meets = [(b & cmask).bit_count() for b in m.bases]
    rc = max(meets)
    return {b & ~cmask for b, k in zip(m.bases, meets) if k == rc}


def _delete_masks(bases: Collection[int], dmask: int) -> set[int]:
    """Basis masks of the deletion, still in the original indexing."""
    best = max((b & ~dmask).bit_count() for b in bases)
    return {b & ~dmask for b in bases if (b & ~dmask).bit_count() == best}


def minor(m: Matroid, contract: int | Iterable[int], delete: int | Iterable[int]) -> Matroid:
    """Contract then delete; survivors are re-indexed order-preservingly."""
    cmask = _as_mask(m, contract)
    dmask = _as_mask(m, delete)
    if cmask & dmask:
        raise OverlappingSets("contract and delete sets intersect")
    masks = _contract_masks(m, cmask) if cmask else m.bases
    if dmask:
        masks = _delete_masks(masks, dmask)
    removed = cmask | dmask
    return Matroid(m.n - removed.bit_count(), (squeeze(b, removed) for b in masks))


def delete(m: Matroid, e: int) -> Matroid:
    return minor(m, 0, _as_mask(m, [e]))


def contract(m: Matroid, e: int) -> Matroid:
    return minor(m, _as_mask(m, [e]), 0)


# --- isomorphism and minor search --------------------------------------------

def is_isomorphic(m: Matroid, other: Matroid) -> Optional[tuple[int, ...]]:
    """Lexicographically least ground-set bijection mapping bases onto bases,
    or None.  Matroids that differ in size, rank or basis count are None at
    once; others are searched by `family_bijection` on their basis sets,
    for every `Matroid`, so up to MAX_MATROID_GROUND elements."""
    if (m.n, m.rank, len(m.bases)) != (other.n, other.rank, len(other.bases)):
        return None
    return family_bijection(m.n, m.bases, other.bases)


def has_minor_isomorphic_to(
    m: Matroid, target: Matroid
) -> Optional[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]]:
    """The first (contract, delete, bijection) in (contract, delete) order
    with m/C\\D isomorphic to target, or None.  A minor has no more elements,
    rank or corank than m, so a target larger in any of them is None at
    once; otherwise m needs at most MAX_GROUND elements, as for flags (else
    IndexOutOfRange).

    On basis flags the split (C, D) keeps the sets B - C for the bases B
    with B & (C|D) == C: the bases of m/C\\D when C is independent and
    deleting D keeps the rank, and no set otherwise.  A one-layer flag has
    nothing to chop, so the chops `flag_has_minor` returns are empty.
    """
    if target.n > m.n or target.rank > m.rank or target.n - target.rank > m.n - m.rank:
        return None
    # flag_core imports this module, so it is imported at call time
    from .flag_core import basis_flag, flag_has_minor

    hit = flag_has_minor(basis_flag(m), basis_flag(target))
    return None if hit is None else (hit[0], hit[1], hit[3])


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


# --- single-element extensions ----------------------------------------------

def _classes_by_closure(m: Matroid, k: int) -> dict[int, list[int]]:
    """The independent k-sets of m grouped by their closure (none for k < 0)."""
    ind = m.independent_table
    bits = [1 << e for e in range(m.n)]
    out: dict[int, list[int]] = {}
    for x in size_masks(m.n, k) if k >= 0 else ():
        if ind[x]:
            out.setdefault(x | sum(bit for bit in bits if not ind[x | bit]), []).append(x)
    return out


def elementary_quotients(m: Matroid, low: Optional[Matroid] = None) -> Iterator[tuple[int, ...]]:
    """The basis family of (m + e)/e for each extension m + e in which e is
    not a coloop, each once, and with `low` only those whose bases all span
    `low`, as a lift's must.  The extensions correspond to the linear
    subclasses H of m's hyperplanes, sets that hold every hyperplane through
    a coline that two members meet in (Crapo 1965; Oxley, Matroid Theory,
    7.2-7.3); the bases are the independent (r - 1)-sets with closure
    outside H.  H empty gives the free extension first, and all hyperplanes
    the loop, with no bases, last.  With `low`, H starts from the
    hyperplanes that do not span it.

    A hyperplane through the coline cl(Y) is cl(Y + e), e outside it.  The
    colines are kept as sets of hyperplanes: as masks over the hyperplanes
    they would take gigabytes for a rank-10 layer on 20 elements.  The
    subclasses come by next closure (Ganter), in increasing order of their
    masks: after `sub`, the closure of the start, j and sub's members above
    j, for the least j outside sub whose closure adds no member above j.
    """
    classes = list(_classes_by_closure(m, m.rank - 1).values())
    index = {x: i for i, cls in enumerate(classes) for x in cls}
    colines = []  # per coline on three or more hyperplanes, their indices
    for flat, (y, *_) in _classes_by_closure(m, m.rank - 2).items():
        over = frozenset(index[y | 1 << e] for e in range(m.n) if not flat >> e & 1)
        if len(over) > 2:
            colines.append(over)

    def closure(sub: int) -> int:
        members, size = set(elements_of(sub)), -1
        while size < len(members):
            size = len(members)
            for over in colines:
                if len(over & members) > 1:
                    members |= over
        return mask_of(members)

    start = sum(
        1 << i for i, cls in enumerate(classes)
        if low is not None and low.rank_table[cls[0]] < low.rank
    )
    sub = closure(start)
    while True:
        bits = format(sub, f"0{len(classes)}b")[::-1]
        yield tuple(x for cls, bit in zip(classes, bits) if bit == "0" for x in cls)
        for j in range(len(classes)):
            if sub >> j & 1:
                continue
            top = j + 1
            grown = closure(sub >> top << top | 1 << j | start)
            if grown >> top == sub >> top:
                sub = grown
                break
        else:
            return


def single_element_extensions(m: Matroid) -> Iterator[tuple[int, ...]]:
    """The basis family of every extension of m by the element m.n, each
    once: first the coloop extension, bases B + n, then m's bases plus
    X + n for the bases X of each of `elementary_quotients(m)`, the free
    extension first and n a loop last."""
    new = 1 << m.n
    yield tuple(b | new for b in m.bases)
    for quotient in elementary_quotients(m):
        yield m.bases + tuple(x | new for x in quotient)


def pick_key(m: Matroid) -> tuple[int, ...]:
    """Sorts matroids of one rank r and size n by pick integer, bit i set iff
    the i-th r-set of `size_masks(n, r)` is a basis: two differ first at the
    highest such set in one family only, and `order_key` ascends likewise."""
    return tuple(map(order_key, reversed(m.bases)))


def enumerate_matroids(n: int) -> Iterator[Matroid]:
    """All labeled matroids on {0..n-1}, by rank and then by `pick_key`,
    the order of a search over every family of r-sets.  Each extends
    exactly one matroid on {0..n-2}, its deletion of n - 1."""
    if n == 0:
        yield Matroid(0, (0,))
        return
    smaller = enumerate_matroids(n - 1)
    found = [Matroid(n, fam) for m in smaller for fam in single_element_extensions(m)]
    yield from sorted(found, key=lambda m: (m.rank, pick_key(m)))
