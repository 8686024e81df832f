"""Flag matroids as feasible-set systems, plus their minor/duality calculus.

A flag matroid stores its feasible family grouped by cardinality; the layers
are basis families of matroids forming a chain of nontrivial lifts (the
sequential representation).  Construction always re-validates the layered
conditions; the axiomatic checker `check_flag_axioms` is the independent
brute-force route used by tests and the CLI.

Each distinct layer is checked once: `_layer_check` memoizes its exchange
witness or, for a basis family, the checked `Matroid` that every flag's `layers`
share, with its `flat_bits` (2^n bits, 128 KB at n = 20), so a lift test is one
AND of two memoized bitsets.  Each memo holds at most MEMO_SIZE entries.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple, Optional, Sequence

from . import matroid_core as mc
from .bitset import (
    canonical,
    elements_of,
    iter_bits,
    mask_of,
    meet_counts,
    order_key,
    size_masks,
    squeeze,
)
from .errors import (
    EmptyInterval,
    EmptyResult,
    IndexOutOfRange,
    LastLayer,
    LayerNotMatroid,
    NotALift,
    OverlappingSets,
    RankCollision,
)
from .frozen import Frozen


def _split_key(cmask: int, dmask: int) -> int:
    """Sorts the (C, D) splits of one total size |C| + |D| in (|C|, C, D)
    order, C and D compared as element lists.  On at most 20 elements an
    `order_key` is below 21 << 24 < 2^29, so D's key never reaches C's."""
    return order_key(cmask) << 29 | order_key(dmask)


def _group_by_size(masks: Sequence[int]) -> list[tuple[int, tuple[int, ...]]]:
    """The layers of a family in `canonical` order: each layer is a slice
    of equal cardinality, sorted lexicographically."""
    out, start, end = [], 0, len(masks)
    while start < end:
        size = masks[start].bit_count()
        stop = bisect_right(masks, size, start, key=int.bit_count)
        out.append((size, tuple(masks[start:stop])))
        start = stop
    return out


# Counts entries, far above any working set; an entry grows with n and its caches.
MEMO_SIZE = 1 << 14


@lru_cache(maxsize=MEMO_SIZE)
def _layer_check(n: int, layer: tuple[int, ...]) -> tuple[Optional[tuple], Optional[mc.Matroid]]:
    """(None, checked Matroid) for a basis family, else (exchange witness, None)."""
    m = mc.Matroid(n, layer)
    return (None, m) if m.is_matroid else (mc.basis_exchange_witness(layer), None)


def layered_witness(n: int, family: Iterable[int]) -> Optional[tuple[str, object]]:
    """None if the family's layers are matroids chained by lifts, else the
    first failure: ("layer", (size, exchange witness)) or ("lift", (sizes, flat))."""
    return _canonical_layered_witness(n, canonical(family))


def _canonical_layered_witness(n: int, masks: tuple[int, ...]) -> Optional[tuple[str, object]]:
    """`layered_witness` of a family already in `canonical` form."""
    if not masks:
        return ("layer", (0, None))
    groups, layers = _group_by_size(masks), []
    for size, layer in groups:
        w, m = _layer_check(n, layer)
        if w is not None:
            return ("layer", (size, w))
        layers.append(m)
    for (s1, _), (s2, _), lower, upper in zip(groups, groups[1:], layers, layers[1:]):
        w = mc.first_unlifted(lower.flat_bits, upper.flat_bits)
        if w is not None:
            return ("lift", ((s1, s2), w))
    return None


class FlagMatroid(Frozen):
    """Immutable: ground-set size plus the feasible masks, in `canonical` form
    whatever iterable is given, so equal families make equal flags."""

    n: int
    feasible: tuple[int, ...]

    def __init__(self, n: int, feasible: Iterable[int]):
        self.__post_init__(n, feasible)

    def __post_init__(self, n, feasible):
        if not (0 <= n <= mc.MAX_GROUND):
            raise IndexOutOfRange(f"ground set size {n} outside 0..{mc.MAX_GROUND}")
        feasible = canonical(feasible)
        if not feasible:
            raise EmptyResult("a flag matroid needs at least one feasible set")
        if any(f >> n for f in feasible):
            raise IndexOutOfRange("feasible set outside the ground set")
        self.__dict__.update(n=n, feasible=feasible)
        bad = _canonical_layered_witness(n, feasible)
        if bad is None:
            return
        kind, payload = bad
        if kind == "layer":
            size, w = payload
            witness = None
            if w is not None:
                witness = {
                    "B1": elements_of(w[0]),
                    "B2": elements_of(w[1]),
                    "x": w[2],
                }
            raise LayerNotMatroid(
                f"cardinality-{size} layer fails basis exchange",
                size=size, witness=witness,
            )
        sizes, flat = payload
        raise NotALift(
            f"layer {sizes[1]} is not a lift of layer {sizes[0]}",
            sizes=sizes, flat=elements_of(flat),
        )

    @cached_property
    def cardinalities(self) -> tuple[int, ...]:
        return tuple(size for size, _ in _group_by_size(self.feasible))

    @cached_property
    def layers(self) -> tuple[mc.Matroid, ...]:
        """The sequential representation (M_1, ..., M_k): the memo's matroids."""
        return tuple(_layer_check(self.n, layer)[1] for _, layer in _group_by_size(self.feasible))

    @cached_property
    def feasible_set(self) -> frozenset[int]:
        return frozenset(self.feasible)


def flag_matroid(n: int, family: Iterable[Iterable[int]]) -> FlagMatroid:
    """Validated construction from explicit feasible sets."""
    return FlagMatroid(n, map(mask_of, family))


# --- the axiom system ---------------------------------------------------------

class AxiomReport(NamedTuple):
    ok: bool
    axiom: Optional[int] = None
    witness: Optional[dict] = None


@lru_cache(maxsize=MEMO_SIZE)
def _axiom1_witness(n: int, layer: tuple[int, ...]) -> Optional[tuple[int, int, int]]:
    """Witness (F, G, x) violating same-cardinality exchange, or None."""
    fam = set(layer)
    for f in layer:
        for g in layer:
            if f == g:
                continue
            for x in iter_bits(f & ~g):
                moved = g | (1 << x)
                if not any(moved ^ (1 << y) in fam for y in iter_bits(g & ~f)):
                    return (f, g, x)
    return None


def _unlifted_basis(
    lower: Sequence[int], lower_rows: Sequence[tuple[int, ...]],
    upper: Sequence[int], upper_rows: Sequence[tuple[int, ...]],
) -> Optional[tuple[int, int]]:
    """The first (F, e), F in upper and e outside F, for which no G in lower
    inside F has its fundamental circuit of e inside F's, or None.

    The rows are `mc.fundamental_circuits` of each family, so each G is
    tested with one AND.  This is axiom 2 between two layers
    (`_axiom2_witness`) and the "bases" test of `lifts_majors.is_lift`,
    lower being the quotient's bases and upper the lift's.
    """
    for f, row in zip(upper, upper_rows):
        inside = [low for g, low in zip(lower, lower_rows) if not g & ~f]
        for e, up in enumerate(row):
            # up is empty exactly for e in F
            if up and all(low[e] & ~up for low in inside):
                return (f, e)
    return None


@lru_cache(maxsize=MEMO_SIZE)
def _axiom2_witness(
    n: int, lower: tuple[int, ...], upper: tuple[int, ...]
) -> Optional[tuple[int, int]]:
    """`_unlifted_basis` of two layers."""
    return _unlifted_basis(
        lower, mc.fundamental_circuits(n, lower), upper, mc.fundamental_circuits(n, upper)
    )


def check_flag_axioms(n: int, family: Iterable[Iterable[int] | int]) -> AxiomReport:
    """Brute-force check of the two feasible-set axioms, exactly as stated."""
    masks = canonical(s if isinstance(s, int) else mask_of(s) for s in family)
    if not masks:
        return AxiomReport(False, axiom=0, witness={"reason": "empty family"})
    groups = _group_by_size(masks)
    for size, layer in groups:
        w = _axiom1_witness(n, layer)
        if w is not None:
            return AxiomReport(
                False, axiom=1,
                witness={"F": elements_of(w[0]), "G": elements_of(w[1]), "x": w[2]},
            )
    for (_, lower), (_, upper) in zip(groups, groups[1:]):
        w = _axiom2_witness(n, lower, upper)
        if w is not None:
            return AxiomReport(
                False, axiom=2, witness={"F": elements_of(w[0]), "e": w[1]},
            )
    return AxiomReport(True)


# --- constructions --------------------------------------------------------------

def from_feasible_sets(
    n: int, family: Iterable[Iterable[int] | int]
) -> tuple[FlagMatroid, tuple[mc.Matroid, ...]]:
    """Validate the layered conditions and return both views."""
    fm = FlagMatroid(n, (s if isinstance(s, int) else mask_of(s) for s in family))
    return fm, fm.layers


def from_sequence(matroids: Sequence[mc.Matroid]) -> FlagMatroid:
    """Union of the basis layers of a lift chain; inverse of from_feasible_sets."""
    if not matroids:
        raise EmptyResult("empty matroid sequence")
    n = matroids[0].n
    if any(m.n != n for m in matroids):
        raise IndexOutOfRange("matroids on different ground sets")
    ranks = [m.rank for m in matroids]
    if any(r2 <= r1 for r1, r2 in zip(ranks, ranks[1:])):
        raise RankCollision(f"ranks not strictly increasing: {ranks}")
    return FlagMatroid(n, (b for m in matroids for b in m.bases))


def flag_interval(m: mc.Matroid, s: int, r: int) -> FlagMatroid:
    """Feasible sets = independent and spanning sets of m with size in [s, r]."""
    if not (0 <= s <= r <= m.n):
        raise EmptyInterval(f"bad interval [{s}, {r}] for n={m.n}")
    table = m.rank_table
    top = m.rank
    fam = [
        mask
        for mask in range(1 << m.n)
        if s <= mask.bit_count() <= r
        and (table[mask] == mask.bit_count() or table[mask] == top)
    ]
    if not fam:
        raise EmptyInterval(f"no independent or spanning set of size in [{s}, {r}]")
    return FlagMatroid(m.n, fam)


def independent_flag(m: mc.Matroid) -> FlagMatroid:
    return flag_interval(m, 0, m.rank)


def basis_flag(m: mc.Matroid) -> FlagMatroid:
    """The one-layer flag of m's bases, equal to flag_interval(m, r, r)."""
    return FlagMatroid(m.n, m.bases)


def spanning_flag(m: mc.Matroid) -> FlagMatroid:
    return flag_interval(m, m.rank, m.n)


# --- minors and duality ----------------------------------------------------------

def flag_dual(fm: FlagMatroid) -> FlagMatroid:
    full = (1 << fm.n) - 1
    return FlagMatroid(fm.n, (full ^ f for f in fm.feasible))


def flag_delete(fm: FlagMatroid, e: int) -> FlagMatroid:
    return flag_minor(fm, (), (e,))


def flag_contract(fm: FlagMatroid, e: int) -> FlagMatroid:
    return flag_minor(fm, (e,), ())


def chop(fm: FlagMatroid, size: int) -> FlagMatroid:
    """Remove every feasible set of the given cardinality (one whole layer)."""
    cards = fm.cardinalities
    if size not in cards:
        raise IndexOutOfRange(f"no layer of cardinality {size}")
    if len(cards) == 1:
        raise LastLayer("chopping the only layer")
    return FlagMatroid(fm.n, tuple(f for f in fm.feasible if f.bit_count() != size))


def flag_minor(
    fm: FlagMatroid,
    contract: int | Iterable[int],
    delete: int | Iterable[int],
    chops: Iterable[int] = (),
) -> FlagMatroid:
    """Contract, delete, then chop.  Chop values refer to cardinalities in
    the flag after contraction and deletion.

    Element lists are checked against the ground set before their masks are
    built, so an element such as 10^8 costs no 10^8-bit int."""
    if any(isinstance(s, int) and s < 0 for s in (contract, delete)):
        raise IndexOutOfRange("negative element mask")
    c = set(elements_of(contract) if isinstance(contract, int) else contract)
    d = set(elements_of(delete) if isinstance(delete, int) else delete)
    if c & d:
        raise OverlappingSets("contract and delete sets intersect")
    if any(not 0 <= e < fm.n for e in c | d):
        raise IndexOutOfRange("element outside ground set")
    cmask, dmask = mask_of(c), mask_of(d)
    removed = cmask | dmask
    kept = [
        squeeze(f ^ cmask, removed)
        for f in fm.feasible
        if f & cmask == cmask and not f & dmask
    ]
    if not kept:
        raise EmptyResult("minor empties the feasible family")
    out = FlagMatroid(fm.n - removed.bit_count(), kept)
    for size in chops:
        out = chop(out, size)
    return out


def flag_rank(fm: FlagMatroid, subset: int | Iterable[int]) -> Optional[int]:
    """Max cardinality of a feasible subset of `subset`; None when no
    feasible set fits (undefined in the underlying theory)."""
    mask = subset if isinstance(subset, int) else mask_of(subset)
    if mask & ~((1 << fm.n) - 1):
        raise IndexOutOfRange("subset outside ground set")
    best = None
    for f in fm.feasible:
        if f & ~mask == 0:
            best = f.bit_count() if best is None else max(best, f.bit_count())
    return best


# --- isomorphism and minor search --------------------------------------------------

def _flag_degrees(fm: FlagMatroid) -> tuple[tuple[int, ...], ...]:
    """Per element, the tuple of per-layer membership counts."""
    groups = _group_by_size(fm.feasible)
    out = []
    for e in range(fm.n):
        bit = 1 << e
        out.append(tuple(sum(1 for s in layer if s & bit) for _, layer in groups))
    return tuple(out)


def flag_isomorphic(fm: FlagMatroid, other: FlagMatroid) -> Optional[tuple[int, ...]]:
    """Lexicographically least ground-set bijection carrying the feasible
    family onto the other's, or None."""
    if fm.n != other.n or fm.cardinalities != other.cardinalities:
        return None
    groups_a = _group_by_size(fm.feasible)
    groups_b = _group_by_size(other.feasible)
    if [(s, len(l)) for s, l in groups_a] != [(s, len(l)) for s, l in groups_b]:
        return None
    deg_a, deg_b = _flag_degrees(fm), _flag_degrees(other)
    if sorted(deg_a) != sorted(deg_b):
        return None
    n = fm.n
    fa, fb = fm.feasible_set, other.feasible_set
    assigned: list[int] = []
    used = [False] * n

    def extend(depth: int) -> bool:
        if depth == n:
            return True
        for t in range(n):
            if used[t] or deg_b[t] != deg_a[depth]:
                continue
            assigned.append(t)
            used[t] = True
            ok = True
            for sub in range(1 << depth):
                src = sub | (1 << depth)
                img = 1 << t
                rest = sub
                i = 0
                while rest:
                    if rest & 1:
                        img |= 1 << assigned[i]
                    rest >>= 1
                    i += 1
                if (src in fa) != (img in fb):
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


def relabel_flag(fm: FlagMatroid, perm: Sequence[int]) -> FlagMatroid:
    """Apply the ground-set bijection perm[i] -> image of i."""
    if sorted(perm) != list(range(fm.n)):
        raise IndexOutOfRange("not a permutation of the ground set")
    out = []
    for f in fm.feasible:
        m = 0
        for e in iter_bits(f):
            m |= 1 << perm[e]
        out.append(m)
    return FlagMatroid(fm.n, out)


def flag_has_minor(
    fm: FlagMatroid, target: FlagMatroid
) -> Optional[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]]:
    """Search for a minor isomorphic to `target`.

    Tries disjoint (contract, delete) splits of the right total size in
    (|C|, C, D) order, C and D compared as element lists (deletion-only
    first); the chop set is forced by the target's layer cardinalities.
    Returns (contract, delete, chops, bijection) for the first split that
    matches, or None.

    Splits are screened by counting before any minor is built.  Layer w of
    fm/C\\D holds one set f - C for each f in layer w + |C| of fm with
    f & (C|D) == C, so one `meet_counts` over the removed set C|D gives the
    layer sizes of every split with that removed set.  Every target layer is
    nonempty, and `flag_isomorphic` starts by comparing cardinalities and
    layer sizes, so a split whose count differs from the target's size on
    some target layer can never match.  The screen drops only those splits.

    The removed sets are walked in lexicographic order, so the deletion-only
    splits (C empty) that survive arrive in (|C|, C, D) order and lead it:
    each is tried at once, and a hit ends the walk.  Every other survivor is
    kept under one int, `_split_key(C, D)`, and they are tried after the walk
    in key order.  The first hit is therefore the first matching split of the
    plain (|C|, C, D) enumeration, and no minor is built after it.
    """
    n = fm.n
    total = n - target.n
    if total < 0:
        return None
    # each feasible set carries its cardinality above the ground set, so one
    # count per removed set keys every (C, layer) pair as C | size << n
    tagged = [f | f.bit_count() << n for f in fm.feasible]
    (w0, size0), *rest = [(w, len(layer)) for w, layer in _group_by_size(target.feasible)]
    want_cards = target.cardinalities

    def attempt(cmask: int, dmask: int, chops: tuple[int, ...]):
        c, d = elements_of(cmask), elements_of(dmask)
        bij = flag_isomorphic(flag_minor(fm, c, d, chops), target)
        return None if bij is None else (c, d, chops, bij)

    later = []
    for removed in size_masks(n, total):
        counts = meet_counts(tagged, removed | -1 << n)
        for key, count in counts.items():
            cmask = key & removed
            k = cmask.bit_count()
            if count != size0 or key >> n != w0 + k:
                continue
            if any(counts.get(cmask | (w + k) << n) != size for w, size in rest):
                continue
            chops = tuple(
                s - k for s in fm.cardinalities
                if s - k not in want_cards and cmask | s << n in counts
            )
            if cmask:
                dmask = removed ^ cmask
                later.append((_split_key(cmask, dmask), cmask, dmask, chops))
            else:  # deletion-only: the next split of the plain order
                hit = attempt(0, removed, chops)
                if hit is not None:
                    return hit
    later.sort()
    for _, cmask, dmask, chops in later:
        hit = attempt(cmask, dmask, chops)
        if hit is not None:
            return hit
    return None
