"""Lift/quotient predicates, elementary lift witnesses, fillings and majors.

Conventions: when a matroid Q on E + X encodes a flag matroid with layers
(M_1..M_k), the ordered blocks X_1..X_{k-1} satisfy

    M_i = Q / (X_i + ... + X_{k-1}) \\ (X_1 + ... + X_{i-1})

so contracting everything gives the bottom layer and deleting everything the
top one.  Extra elements always sit above the flag's ground set: a witness
for a pair on {0..n-1} lives on {0..n} with the new element at index n.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, Optional, Sequence

from . import flag_core as fl
from . import gf_linalg as gl
from . import matroid_core as mc
from .bitset import elements_of, iter_bits, mask_of, set_key, size_masks
from .errors import (
    BudgetExhausted,
    ConstructionFailed,
    GroundSetMismatch,
    LiftCharacterizationMismatch,
    NotElementaryLift,
    NotFull,
)

LIFT_METHODS = ("flats", "duals", "closures", "bases")


@dataclass(frozen=True)
class LiftResult:
    ok: bool
    method: str
    witness: Optional[tuple] = None


def _flat_witness(quot_bits: int, lift_bits: int) -> Optional[tuple]:
    mask = mc.first_unlifted(quot_bits, lift_bits)
    return None if mask is None else ("flat", elements_of(mask))


def _lift_by_closures(lift: mc.Matroid, quot: mc.Matroid) -> Optional[tuple]:
    for mask, (up, down) in enumerate(zip(lift.closure_table, quot.closure_table)):
        if up & ~down:
            return ("subset", elements_of(mask))
    return None


def _fset(bases: frozenset[int], base: int, e: int) -> int:
    """Mask of elements f in base+e whose removal lands back in `bases`."""
    be = base | (1 << e)
    out = 0
    for f in iter_bits(be):
        if be ^ (1 << f) in bases:
            out |= 1 << f
    return out


def _lift_by_bases(lift: mc.Matroid, quot: mc.Matroid) -> Optional[tuple]:
    full = lift.full_mask
    lift_bases = lift.basis_set
    quot_bases = quot.basis_set
    for b in lift.bases:
        for e in iter_bits(full & ~b):
            upper = _fset(lift_bases, b, e)
            found = False
            for bq in quot.bases:
                if bq & ~b:
                    continue
                if _fset(quot_bases, bq, e) & ~upper == 0:
                    found = True
                    break
            if not found:
                return ("basis", elements_of(b), e)
    return None


def is_lift(lift: mc.Matroid, quot: mc.Matroid, method: str = "flats") -> LiftResult:
    """Is `lift` a lift of `quot` (equivalently, `quot` a quotient of `lift`)?

    method selects the characterization (Oxley, Matroid Theory, 7.3):

    - "flats", the definition: every flat of quot is a flat of lift.  The
      witness is the least flat of quot that is not one of lift, read from
      `quot.flat_bits & ~lift.flat_bits`.
    - "duals": quot* is a lift of lift*, so every flat of lift* is a flat
      of quot*.  Dual flats come from the corank r*(S) = |S| - r(E) +
      r(E - S) through `coflat_bits`; the witness is the least flat of
      lift* that is not one of quot*.
    - "closures": cl_lift(X) is a subset of cl_quot(X) for every X; the
      witness is the least X where it is not.
    - "bases": for every basis B of lift and e outside B there is a basis
      B' of quot inside B whose fundamental circuit of e lies inside the
      fundamental circuit of e in B; the witness is the first (B, e)
      without one.

    "all" evaluates the four and raises if they ever disagree.
    """
    if lift.n != quot.n:
        raise GroundSetMismatch("lift check needs a common ground set")
    if method == "all":
        results = {m: is_lift(lift, quot, m) for m in LIFT_METHODS}
        verdicts = {m: r.ok for m, r in results.items()}
        if len(set(verdicts.values())) != 1:
            raise LiftCharacterizationMismatch(
                f"characterizations disagree: {verdicts}", verdicts=verdicts
            )
        first = results["flats"]
        return LiftResult(first.ok, "all", first.witness)
    if method == "flats":
        w = _flat_witness(quot.flat_bits, lift.flat_bits)
    elif method == "duals":
        w = _flat_witness(lift.coflat_bits, quot.coflat_bits)
    elif method == "closures":
        w = _lift_by_closures(lift, quot)
    elif method == "bases":
        w = _lift_by_bases(lift, quot)
    else:
        raise ValueError(f"unknown method {method!r}")
    return LiftResult(w is None, method, w)


def verify_quotient_pair(q: mc.Matroid, x: Iterable[int], quot: mc.Matroid, lift: mc.Matroid) -> bool:
    """Check Q / X == quot and Q \\ X == lift structurally."""
    xmask = mask_of(x)
    if quot.n != lift.n or quot.n != q.n - xmask.bit_count():
        raise GroundSetMismatch("operands do not fit together")
    return mc.minor(q, xmask, 0) == quot and mc.minor(q, 0, xmask) == lift


# --- elementary witnesses ---------------------------------------------------

def elementary_witness(quot: mc.Matroid, lift: mc.Matroid) -> mc.Matroid:
    """The unique matroid Q on {0..n} with Q/n == quot and Q\\n == lift,
    for an elementary nontrivial lift pair."""
    if quot.n != lift.n:
        raise GroundSetMismatch("witness needs a common ground set")
    if lift.rank != quot.rank + 1:
        raise NotElementaryLift(f"rank gap is {lift.rank - quot.rank}, not 1")
    check = is_lift(lift, quot, "flats")
    if not check.ok:
        raise NotElementaryLift("second matroid is not a lift of the first",
                                witness=check.witness)
    n = quot.n
    xbit = 1 << n
    bases = list(lift.bases) + [b | xbit for b in quot.bases]
    if mc.basis_exchange_witness(bases) is not None:
        raise ConstructionFailed("witness family fails basis exchange")
    q = mc.Matroid(n + 1, tuple(sorted(bases, key=set_key)))
    if not verify_quotient_pair(q, [n], quot, lift):
        raise ConstructionFailed("witness minors do not reproduce the pair")
    return q


def enumerate_elementary_coextensions(quot: mc.Matroid, lift: mc.Matroid) -> list[mc.Matroid]:
    """All matroids Q on {0..n} with Q/n == quot and Q\\n == lift, by
    exhausting the candidate families.

    Any such Q has rank(lift): its bases avoiding n are exactly lift's bases
    and its bases through n are T + {n} for a family T of (rank-1)-subsets,
    which the contraction forces to be quot's bases.  Candidates where n
    would be a loop or coloop cannot produce a pair of distinct minors.
    """
    if quot.n != lift.n or lift.rank != quot.rank + 1:
        return []
    n = quot.n
    xbit = 1 << n
    pool = size_masks(n, quot.rank)
    want = set(quot.bases)
    hits = []
    for pick in range(1 << len(pool)):
        t = {pool[i] for i in range(len(pool)) if pick >> i & 1}
        if t != want:
            continue  # the contraction by n would not equal quot
        bases = list(lift.bases) + [b | xbit for b in sorted(t)]
        if mc.basis_exchange_witness(bases) is not None:
            continue
        q = mc.Matroid(n + 1, tuple(sorted(bases, key=set_key)))
        if verify_quotient_pair(q, [n], quot, lift):
            hits.append(q)
    return hits


@dataclass(frozen=True)
class LiftWitnessSequence:
    """One single-element coextension per consecutive layer pair."""

    witnesses: tuple[tuple[mc.Matroid, int], ...]


def is_full(fm: fl.FlagMatroid) -> bool:
    cards = fm.cardinalities
    return all(b == a + 1 for a, b in zip(cards, cards[1:]))


def lift_witness_sequence(fm: fl.FlagMatroid) -> LiftWitnessSequence:
    """The unique lift witness sequence of a full flag matroid."""
    if not is_full(fm):
        raise NotFull("lift witnesses need consecutive ranks")
    layers = fm.layers
    out = []
    for low, high in zip(layers, layers[1:]):
        out.append((elementary_witness(low, high), fm.n))
    return LiftWitnessSequence(tuple(out))


# --- fillings ----------------------------------------------------------------

@dataclass(frozen=True)
class FillingSearch:
    fillings: tuple[fl.FlagMatroid, ...]
    complete: bool


def _gap_candidates(low: mc.Matroid, high: mc.Matroid) -> list[int]:
    """Possible bases for a matroid one rank above `low`: independent in
    `high` and spanning in `low`."""
    r = low.rank + 1
    return [
        b
        for b in size_masks(low.n, r)
        if high.is_independent(b) and low.rank_table[b] == low.rank
    ]


def enumerate_fillings(fm: fl.FlagMatroid, budget: int = 10000) -> FillingSearch:
    """Bounded DFS over full flag matroids chopping down to `fm`.

    Every rank gap >= 2 is bridged by intermediate matroids built from
    subsets of the candidate bases; `budget` caps the number of candidate
    families examined, and exhaustion is reported on the result rather than
    silently returning a partial answer as a complete one.
    """
    layers = fm.layers
    remaining = budget
    truncated = False

    def bridge(low: mc.Matroid, high: mc.Matroid) -> list[tuple[mc.Matroid, ...]]:
        nonlocal remaining, truncated
        if high.rank - low.rank <= 1:
            return [()]
        pool = _gap_candidates(low, high)
        out = []
        for pick in range(1, 1 << len(pool)):
            if remaining <= 0:
                truncated = True
                break
            remaining -= 1
            fam = tuple(pool[i] for i in range(len(pool)) if pick >> i & 1)
            if mc.basis_exchange_witness(fam) is not None:
                continue
            mid = mc.Matroid(fm.n, tuple(sorted(fam, key=set_key)))
            if not is_lift(mid, low, "flats").ok or not is_lift(high, mid, "flats").ok:
                continue
            for tail in bridge(mid, high):
                out.append((mid,) + tail)
        return out

    per_gap = []
    for low, high in zip(layers, layers[1:]):
        per_gap.append(bridge(low, high))
    fillings = []
    for choice in product(*per_gap) if per_gap else [()]:
        chain: list[mc.Matroid] = [layers[0]]
        for mids, high in zip(choice, layers[1:]):
            chain.extend(mids)
            chain.append(high)
        fillings.append(fl.from_sequence(chain))
    return FillingSearch(tuple(fillings), not truncated)


# --- majors -------------------------------------------------------------------

@dataclass(frozen=True)
class MajorStructure:
    """A matroid on E + X plus the ordered partition of the extra elements."""

    matroid: mc.Matroid
    blocks: tuple[tuple[int, ...], ...]
    matrix: Optional[gl.GFMatrix] = None


def verify_major(q: mc.Matroid, blocks: Sequence[Iterable[int]], fm: fl.FlagMatroid) -> bool:
    """Check that q with the given ordered blocks is a major of fm."""
    layers = fm.layers
    k = len(layers)
    if len(blocks) != k - 1:
        return False
    block_masks = [mask_of(b) for b in blocks]
    xmask = 0
    for bm in block_masks:
        if bm & xmask:
            return False
        xmask |= bm
    extras = ((1 << q.n) - 1) ^ ((1 << fm.n) - 1)
    if q.n != fm.n + xmask.bit_count() or xmask != extras:
        return False
    if not q.is_independent(xmask):
        return False
    for i in range(k):
        contract = 0
        for bm in block_masks[i:]:
            contract |= bm
        delete = xmask ^ contract
        if mc.minor(q, contract, delete) != layers[i]:
            return False
    return True


def search_major(
    fm: fl.FlagMatroid, extra: Optional[int] = None, budget: int = 20000
) -> Optional[MajorStructure]:
    """Brute-force search for a major on fm.n + extra elements.

    Candidate basis families keep the top layer's bases on E and add bases
    through the extra elements; families are enumerated in a fixed order and
    the first verified major is returned.  Raises BudgetExhausted when the
    budget runs out before the space is covered.
    """
    layers = fm.layers
    ranks = [m.rank for m in layers]
    need = ranks[-1] - ranks[0]
    if extra is None:
        extra = need
    if extra != need:
        return None
    if extra == 0:
        return MajorStructure(layers[0], ())
    n = fm.n
    nq = n + extra
    xmask = ((1 << nq) - 1) ^ ((1 << n) - 1)
    top = ranks[-1]
    pool = [b for b in size_masks(nq, top) if b & xmask]
    block_sizes = [r2 - r1 for r1, r2 in zip(ranks, ranks[1:])]
    remaining = budget
    for pick in range(1, 1 << len(pool)):
        if remaining <= 0:
            raise BudgetExhausted(f"{budget} candidate families examined")
        remaining -= 1
        fam = [pool[i] for i in range(len(pool)) if pick >> i & 1]
        bases = list(layers[-1].bases) + fam
        if mc.basis_exchange_witness(bases) is not None:
            continue
        q = mc.Matroid(nq, tuple(sorted(bases, key=set_key)))
        if not q.is_independent(xmask):
            continue
        for blocks in _ordered_partitions(elements_of(xmask), block_sizes):
            if verify_major(q, blocks, fm):
                return MajorStructure(q, blocks)
    return None


def _ordered_partitions(
    elements: tuple[int, ...], sizes: Sequence[int]
) -> Iterable[tuple[tuple[int, ...], ...]]:
    """Ordered partitions of `elements` into blocks of the given sizes."""
    if not sizes:
        if not elements:
            yield ()
        return
    for first in combinations(elements, sizes[0]):
        rest = tuple(e for e in elements if e not in first)
        for tail in _ordered_partitions(rest, sizes[1:]):
            yield (first,) + tail
