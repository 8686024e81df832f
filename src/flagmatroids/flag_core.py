"""Flag matroids as feasible-set systems, plus their minor/duality calculus.

A flag matroid stores its feasible family grouped by cardinality; the layers
are basis families of matroids forming a chain of nontrivial lifts (the
sequential representation).  Construction always re-validates the layered
conditions; the axiomatic checker `check_flag_axioms` is the independent
brute-force route used by tests and the CLI.

Layer and lift verdicts are memoized on the raw mask families, which makes
exhaustive sweeps over all families on a small ground set cheap; each memo
holds at most MEMO_SIZE entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import groupby
from typing import Iterable, Optional, Sequence

from . import matroid_core as mc
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
    EmptyInterval,
    EmptyResult,
    IndexOutOfRange,
    LastLayer,
    LayerNotMatroid,
    NotALift,
    OverlappingSets,
    RankCollision,
)


def _family_key(masks: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(set(masks), key=lambda s: (s.bit_count(), set_key(s))))


def _group_by_size(masks: Sequence[int]) -> list[tuple[int, tuple[int, ...]]]:
    """The layers of a canonical family.  masks must already be in
    `_family_key` order, so each layer is a slice of equal cardinality,
    sorted lexicographically."""
    out, start = [], 0
    for size, run in groupby(masks, int.bit_count):
        stop = start + sum(1 for _ in run)
        out.append((size, tuple(masks[start:stop])))
        start = stop
    return out


# Memo bound: far above the working set of any sweep or decision, yet finite.
MEMO_SIZE = 1 << 14


@lru_cache(maxsize=MEMO_SIZE)
def _layer_witness(n: int, layer: tuple[int, ...]) -> Optional[tuple[int, int, int]]:
    return mc.basis_exchange_witness(layer)


@lru_cache(maxsize=MEMO_SIZE)
def _lift_witness(n: int, lower: tuple[int, ...], upper: tuple[int, ...]) -> Optional[int]:
    """First flat of the lower layer matroid that is not a flat of the upper
    one, or None when the upper matroid is a lift of the lower."""
    return mc.first_unlifted(mc.Matroid(n, lower).flat_bits, mc.Matroid(n, upper).flat_bits)


def layered_witness(n: int, family: Iterable[int]) -> Optional[tuple[str, object]]:
    """None if the family's layers are matroids chained by lifts, else the
    first failure: ("layer", (size, exchange witness)) or ("lift", (sizes, flat))."""
    return _canonical_layered_witness(n, _family_key(family))


def _canonical_layered_witness(n: int, masks: tuple[int, ...]) -> Optional[tuple[str, object]]:
    """`layered_witness` of a family already in `_family_key` order."""
    if not masks:
        return ("layer", (0, None))
    groups = _group_by_size(masks)
    for size, layer in groups:
        w = _layer_witness(n, layer)
        if w is not None:
            return ("layer", (size, w))
    for (s1, lower), (s2, upper) in zip(groups, groups[1:]):
        w = _lift_witness(n, lower, upper)
        if w is not None:
            return ("lift", ((s1, s2), w))
    return None


@dataclass(frozen=True)
class FlagMatroid:
    """Ground-set size plus feasible masks sorted by (cardinality, lex)."""

    n: int
    feasible: tuple[int, ...]

    def __post_init__(self):
        if not (0 <= self.n <= mc.MAX_GROUND):
            raise IndexOutOfRange(f"ground set size {self.n} outside 0..{mc.MAX_GROUND}")
        if not self.feasible:
            raise EmptyResult("a flag matroid needs at least one feasible set")
        full = (1 << self.n) - 1
        if any(f & ~full for f in self.feasible):
            raise IndexOutOfRange("feasible set outside the ground set")
        if self.feasible != _family_key(self.feasible):
            raise IndexOutOfRange("feasible family not in canonical order")
        bad = _canonical_layered_witness(self.n, self.feasible)
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
        """The sequential representation (M_1, ..., M_k)."""
        return tuple(mc.Matroid(self.n, layer) for _, layer in _group_by_size(self.feasible))

    @cached_property
    def feasible_set(self) -> frozenset[int]:
        return frozenset(self.feasible)

    @property
    def top_rank(self) -> int:
        return self.cardinalities[-1]


def flag_matroid(n: int, family: Iterable[Iterable[int]]) -> FlagMatroid:
    """Validated construction from explicit feasible sets."""
    return FlagMatroid(n, _family_key(mask_of(s) for s in family))


# --- the axiom system ---------------------------------------------------------

@dataclass(frozen=True)
class AxiomReport:
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


@lru_cache(maxsize=MEMO_SIZE)
def _axiom2_witness(
    n: int, lower: tuple[int, ...], upper: tuple[int, ...]
) -> Optional[tuple[int, int]]:
    """Witness (F, e) for which no lower-layer G works, or None.

    The removal candidate f ranges over G+e (resp. F+e): removing an absent
    element is treated as a no-op and never compared.
    """
    lower_set = set(lower)
    upper_set = set(upper)
    full = (1 << n) - 1
    for f in upper:
        for e in iter_bits(full & ~f):
            fe = f | (1 << e)
            fset_upper = 0
            for x in iter_bits(fe):
                if fe ^ (1 << x) in upper_set:
                    fset_upper |= 1 << x
            ok = False
            for g in lower:
                if g & ~f:  # G must be a proper subset of F
                    continue
                ge = g | (1 << e)
                fset_lower = 0
                for x in iter_bits(ge):
                    if ge ^ (1 << x) in lower_set:
                        fset_lower |= 1 << x
                if fset_lower & ~fset_upper == 0:
                    ok = True
                    break
            if not ok:
                return (f, e)
    return None


def check_flag_axioms(n: int, family: Iterable[Iterable[int] | int]) -> AxiomReport:
    """Brute-force check of the two feasible-set axioms, exactly as stated."""
    masks = _family_key(
        s if isinstance(s, int) else mask_of(s) for s in family
    )
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
    fm = FlagMatroid(
        n, _family_key(s if isinstance(s, int) else mask_of(s) for s in family)
    )
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
    masks = [b for m in matroids for b in m.bases]
    return FlagMatroid(n, _family_key(masks))


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
    return FlagMatroid(m.n, _family_key(fam))


def independent_flag(m: mc.Matroid) -> FlagMatroid:
    return flag_interval(m, 0, m.rank)


def basis_flag(m: mc.Matroid) -> FlagMatroid:
    return flag_interval(m, m.rank, m.rank)


def spanning_flag(m: mc.Matroid) -> FlagMatroid:
    return flag_interval(m, m.rank, m.n)


# --- minors and duality ----------------------------------------------------------

def flag_dual(fm: FlagMatroid) -> FlagMatroid:
    full = (1 << fm.n) - 1
    return FlagMatroid(fm.n, _family_key(full ^ f for f in fm.feasible))


def flag_delete(fm: FlagMatroid, e: int) -> FlagMatroid:
    if not (0 <= e < fm.n):
        raise IndexOutOfRange(f"element {e} outside ground set")
    bit = 1 << e
    kept = [squeeze(f, bit) for f in fm.feasible if not f & bit]
    if not kept:
        raise EmptyResult(f"deleting {e} empties the feasible family")
    return FlagMatroid(fm.n - 1, _family_key(kept))


def flag_contract(fm: FlagMatroid, e: int) -> FlagMatroid:
    # literal (dual . delete . dual) unfolds to: keep sets through e, drop e
    if not (0 <= e < fm.n):
        raise IndexOutOfRange(f"element {e} outside ground set")
    bit = 1 << e
    kept = [squeeze(f ^ bit, bit) for f in fm.feasible if f & bit]
    if not kept:
        raise EmptyResult(f"contracting {e} empties the feasible family")
    return FlagMatroid(fm.n - 1, _family_key(kept))


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
    the flag after contraction and deletion."""
    cmask = contract if isinstance(contract, int) else mask_of(contract)
    dmask = delete if isinstance(delete, int) else mask_of(delete)
    if cmask & dmask:
        raise OverlappingSets("contract and delete sets intersect")
    full = (1 << fm.n) - 1
    if (cmask | dmask) & ~full:
        raise IndexOutOfRange("element outside ground set")
    removed = cmask | dmask
    kept = [
        squeeze(f ^ cmask, removed)
        for f in fm.feasible
        if f & cmask == cmask and not f & dmask
    ]
    if not kept:
        raise EmptyResult("minor empties the feasible family")
    out = FlagMatroid(fm.n - removed.bit_count(), _family_key(kept))
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
    return FlagMatroid(fm.n, _family_key(out))


def flag_has_minor(
    fm: FlagMatroid, target: FlagMatroid
) -> Optional[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]]:
    """Search for a minor isomorphic to `target`.

    Tries disjoint (contract, delete) splits of the right total size in
    lexicographic order (contraction-light first); the chop set is forced by
    the target's layer cardinalities.  Returns (contract, delete, chops,
    bijection) or None.

    Splits are screened by counting before any minor is built.  Layer w of
    fm/C\\D holds one set f - C for each f in layer w + |C| of fm with
    f & (C|D) == C, so one `meet_counts` over the removed set C|D gives the
    layer sizes of every split with that removed set.  Every target layer is
    nonempty, and `flag_isomorphic` starts by comparing cardinalities and
    layer sizes, so a split whose count differs from the target's size on
    some target layer can never match.  The screen drops only those splits;
    the rest are tried in the plain enumeration order, so the witness is
    unchanged.
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
    splits = []
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
            c, d = elements_of(cmask), elements_of(removed ^ cmask)
            splits.append((k, c, d, chops))
    for _, c, d, chops in sorted(splits):
        bij = flag_isomorphic(flag_minor(fm, c, d, chops), target)
        if bij is not None:
            return (c, d, chops, bij)
    return None
