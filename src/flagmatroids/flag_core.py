"""Flag matroids as feasible-set systems, plus their minor/duality calculus.

A flag matroid stores its feasible family grouped by cardinality; the layers
are basis families of matroids forming a chain of nontrivial lifts (the
sequential representation).  Construction always re-validates the layered
conditions; the axiomatic checker `check_flag_axioms` decides by the same tests.

Each distinct layer is checked once: `_layer_check`, the module's one memo (at
most MEMO_SIZE entries), holds its `Matroid`, whose cached `is_matroid` says
whether it is a basis family and whose cached `exchange_witness` is computed
only when a failure is reported.  Every flag's `layers` share the memo's
matroids, with their `flat_bits` (2^n bits, 128 KB at n = 20), so a lift test
is one AND of two memoized bitsets.
Isomorphism screens by layer sizes, then runs `bitset.family_bijection`,
as matroid isomorphism does.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple, Optional, Sequence

from . import bitset
from . import matroid_core as mc
from .bitset import (
    _family_bits,
    canonical,
    elements_of,
    family_bijection,
    iter_bits,
    mask_of,
    squeeze,
)
from .errors import (
    EmptyInterval,
    EmptyResult,
    IndexOutOfRange,
    InternalError,
    LastLayer,
    LayerNotMatroid,
    NotALift,
    OverlappingSets,
    RankCollision,
)
from .frozen import Frozen


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
def _layer_check(n: int, layer: tuple[int, ...]) -> mc.Matroid:
    """The layer's one `Matroid`, so its cached `is_matroid` and
    `exchange_witness` are computed once per distinct layer."""
    return mc.Matroid(n, layer)


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
        m = _layer_check(n, layer)
        if not m.is_matroid:
            return ("layer", (size, m.exchange_witness))
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
            size, (b1, b2, x) = payload
            raise LayerNotMatroid(
                f"cardinality-{size} layer fails basis exchange",
                size=size, witness={"B1": elements_of(b1), "B2": elements_of(b2), "x": x},
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
        return tuple(_layer_check(self.n, layer) for _, layer in _group_by_size(self.feasible))


def flag_matroid(n: int, family: Iterable[Iterable[int]]) -> FlagMatroid:
    """Validated construction from explicit feasible sets."""
    return FlagMatroid(n, map(mask_of, family))


# --- the axiom system ---------------------------------------------------------

class AxiomReport(NamedTuple):
    ok: bool
    axiom: Optional[int] = None
    witness: Optional[dict] = None


def _axiom1_witness(layer: tuple[int, ...]) -> Optional[tuple[int, int, int]]:
    """Witness (F, G, x) violating same-cardinality exchange, or None."""
    fam = set(layer)
    for f in layer:
        for g in layer:
            for x in iter_bits(f & ~g):
                moved = g | (1 << x)
                if not any(moved ^ (1 << y) in fam for y in iter_bits(g & ~f)):
                    return (f, g, x)
    return None


def check_flag_axioms(n: int, family: Iterable[Iterable[int] | int]) -> AxiomReport:
    """The two feasible-set axioms: a layer satisfies axiom 1 iff it is a basis
    family and a pair axiom 2 iff it is a lift, as `_layer_check` decides.  Only
    the first failure is searched for a witness in the stated form; finding none
    is an InternalError.  A ground set outside 0..MAX_GROUND, or a set past it,
    is IndexOutOfRange."""
    if not (0 <= n <= mc.MAX_GROUND):
        raise IndexOutOfRange(f"ground set size {n} outside 0..{mc.MAX_GROUND}")
    masks = canonical(s if isinstance(s, int) else mask_of(s) for s in family)
    if not masks:
        return AxiomReport(False, axiom=0, witness={"reason": "empty family"})
    if max(masks) >> n:
        raise IndexOutOfRange("feasible set outside the ground set")
    layers = []
    for _, layer in _group_by_size(masks):
        m = _layer_check(n, layer)
        if not m.is_matroid:
            w = _axiom1_witness(layer)
            if w is None:
                raise InternalError("a layer that fails basis exchange satisfies axiom 1")
            witness = {"F": elements_of(w[0]), "G": elements_of(w[1]), "x": w[2]}
            return AxiomReport(False, axiom=1, witness=witness)
        layers.append(m)
    for quot, lift in zip(layers, layers[1:]):
        if quot.flat_bits & ~lift.flat_bits:
            w = mc.unlifted_basis(quot, lift)
            if w is None:
                raise InternalError("a pair that fails the flats lift test satisfies axiom 2")
            return AxiomReport(False, axiom=2, witness={"F": elements_of(w[0]), "e": w[1]})
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
    return flag_minor(fm, (), (), (size,))


def flag_minor(
    fm: FlagMatroid,
    contract: int | Iterable[int],
    delete: int | Iterable[int],
    chops: Iterable[int] = (),
) -> FlagMatroid:
    """Contract, delete, then chop.  Chop values refer to cardinalities in
    the flag after contraction and deletion and the chops before them; the
    chops are applied to the kept sets, so one flag is built and validated.

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
    sizes = list({f.bit_count() for f in kept})
    for size in chops:
        if size not in sizes:
            raise IndexOutOfRange(f"no layer of cardinality {size}")
        if len(sizes) == 1:
            raise LastLayer("chopping the only layer")
        sizes.remove(size)
    return FlagMatroid(fm.n - removed.bit_count(), (f for f in kept if f.bit_count() in sizes))


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

def flag_isomorphic(fm: FlagMatroid, other: FlagMatroid) -> Optional[tuple[int, ...]]:
    """Lexicographically least ground-set bijection carrying the feasible
    family onto the other's, or None: after the cardinality and layer-size
    screens, `family_bijection` over the two families."""
    sizes = [[len(layer) for _, layer in _group_by_size(f.feasible)] for f in (fm, other)]
    if fm.n != other.n or fm.cardinalities != other.cardinalities or sizes[0] != sizes[1]:
        return None
    return family_bijection(fm.n, fm.feasible, other.feasible)


def relabel_flag(fm: FlagMatroid, perm: Sequence[int]) -> FlagMatroid:
    """Apply the ground-set bijection perm[i] -> image of i."""
    if sorted(perm) != list(range(fm.n)):
        raise IndexOutOfRange("not a permutation of the ground set")
    return FlagMatroid(fm.n, (mask_of(perm[e] for e in elements_of(f)) for f in fm.feasible))


def flag_has_minor(
    fm: FlagMatroid, target: FlagMatroid
) -> Optional[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]]:
    """Search for a minor isomorphic to `target`.

    Tries disjoint (contract, delete) splits of the right total size in
    (|C|, C, D) order, C and D compared as element lists (deletion-only
    first); the chop set is forced by the target's layer cardinalities.
    Returns (contract, delete, chops, bijection) for the first split that
    matches, or None.

    Splits are screened by layer sizes before any minor is built.  Every
    target layer is nonempty, and `flag_isomorphic` starts by comparing
    cardinalities and layer sizes, so a split whose minor differs from the
    target in the size of some target layer can never match; the screen
    drops only those splits.

    One walk visits the splits in that order.  For k = 0, 1, ..., the C of
    size k are walked depth-first in lexicographic order, carrying the
    feasible sets that hold C: layer w of fm/C\\D has one set f - C for each
    of them of cardinality w + k that misses D.  Contracting more never adds
    a set, so a subtree is pruned as soon as some target layer w has fewer
    sets than the target's at cardinality w + k.  At a C of size k, `squeeze`
    re-indexes the kept sets f - C onto the m = n - k elements outside C,
    keeping their canonical order, and the D are walked depth-first in
    lexicographic order on 2^m-bit bitmaps of the layers at the target's
    cardinalities: deleting e takes each of them to `bits & ~has[e]`
    (`bitset._element_bits`), one AND per layer, so `bit_count` gives the
    target layer sizes of fm/C\\D.  Deleting more never adds a set, so this
    subtree too is pruned once a layer holds fewer sets than the target's.
    Each survivor D is mapped back through the elements outside C and tried
    at once, its chops the other layers of fm/C that keep a set missing D.
    The first hit is the first matching split of the plain enumeration, so
    no minor is built after it.
    """
    n = fm.n
    want_cards = target.cardinalities
    sizes = [len(layer) for _, layer in _group_by_size(target.feasible)]
    missing: dict[int, list[int]] = {}  # m -> the 2^m-bit families of the sets without e

    def deleting(cmask: int, kept: Sequence[int]):
        """The first hit among the splits (C, D) for this C, walking D on
        the kept sets re-indexed onto the elements outside C."""
        c, outside = elements_of(cmask), [e for e in range(n) if not cmask >> e & 1]
        m = len(outside)
        layers = dict(_group_by_size([squeeze(f ^ cmask, cmask) for f in kept] if cmask else kept))
        if m not in missing:
            full = (1 << (1 << m)) - 1
            # read through the module: this namespace holds no memo but the layer memo
            missing[m] = [full ^ has for has in bitset._element_bits(m)]
        without = missing[m]

        def walk(start: int, left: int, dmask: int, bits: list[int]):
            counts = [b.bit_count() for b in bits]
            if any(map(int.__lt__, counts, sizes)):
                return None
            if not left:
                if counts != sizes:
                    return None
                chops = tuple(
                    s for s, layer in layers.items()
                    if s not in want_cards and any(not f & dmask for f in layer)
                )
                d = tuple(outside[i] for i in elements_of(dmask))
                bij = flag_isomorphic(flag_minor(fm, c, d, chops), target)
                return None if bij is None else (c, d, chops, bij)
            for e in range(start, m - left + 1):
                hit = walk(e + 1, left - 1, dmask | 1 << e, [b & without[e] for b in bits])
                if hit is not None:
                    return hit
            return None

        # a target cardinality fm/C lacks is an empty layer, pruned at the root
        return walk(0, m - target.n, 0, [_family_bits(m, layers.get(w, ())) for w in want_cards])

    def contracting(k: int, start: int, cmask: int, kept: Sequence[int]):
        """The first hit among the splits whose C, of size k, extends cmask
        by elements from start on; kept holds the feasible sets holding cmask."""
        left = k - cmask.bit_count()
        if not left:
            return deleting(cmask, kept)
        for e in range(start, n - left + 1):
            held = tuple(f for f in kept if f >> e & 1)
            count = Counter(map(int.bit_count, held))
            if any(count[w + k] < size for w, size in zip(want_cards, sizes)):
                continue
            hit = contracting(k, e + 1, cmask | 1 << e, held)
            if hit is not None:
                return hit
        return None

    for k in range(n - target.n + 1):  # none when target is larger
        hit = contracting(k, 0, 0, fm.feasible)
        if hit is not None:
            return hit
    return None
