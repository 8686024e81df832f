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
from typing import Iterable, NamedTuple, Optional, Sequence

from . import flag_core as fl
from . import gf_linalg as gl
from . import matroid_core as mc
from .bitset import elements_of, iter_bits, mask_of, size_masks
from .errors import (
    BudgetExhausted,
    GroundSetMismatch,
    InternalError,
    NotElementaryLift,
    NotFull,
)

class LiftResult(NamedTuple):
    ok: bool
    method: str
    witness: Optional[tuple] = None


def _flat_witness(quot_bits: int, lift_bits: int) -> Optional[tuple]:
    mask = mc.first_unlifted(quot_bits, lift_bits)
    return None if mask is None else ("flat", elements_of(mask))


def _lift_by_closures(lift: mc.Matroid, quot: mc.Matroid) -> Optional[tuple]:
    """cl_lift(X) holds some e that cl_quot(X) lacks iff e is outside X,
    r_lift(X + e) == r_lift(X) and r_quot(X + e) > r_quot(X): iff bit X is
    set in quot's moved bits of e and clear in lift's.  The least such X is
    the lowest set bit of their union over e."""
    bad = 0
    for up, down in zip(lift.moved_bits, quot.moved_bits):
        bad |= down & ~up
    return None if not bad else ("subset", elements_of((bad & -bad).bit_length() - 1))


def _lift_by_bases(lift: mc.Matroid, quot: mc.Matroid) -> Optional[tuple]:
    fe = fl._unlifted_basis(
        quot.bases, quot.fundamental_circuits, lift.bases, lift.fundamental_circuits
    )
    return None if fe is None else ("basis", elements_of(fe[0]), fe[1])


# method -> the witness that `lift` is not a lift of `quot`, or None
_LIFT_TESTS = {
    "flats": lambda lift, quot: _flat_witness(quot.flat_bits, lift.flat_bits),
    "duals": lambda lift, quot: _flat_witness(lift.coflat_bits, quot.coflat_bits),
    "closures": _lift_by_closures,
    "bases": _lift_by_bases,
}
LIFT_METHODS = tuple(_LIFT_TESTS)


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
      without one.  The circuits are read from `fundamental_circuits`.

    "all" evaluates the four; if they disagree that is a fault in the
    program, and InternalError is raised.
    """
    if lift.n != quot.n:
        raise GroundSetMismatch("lift check needs a common ground set")
    test = _LIFT_TESTS.get(method)
    if test is not None:
        w = test(lift, quot)
        return LiftResult(w is None, method, w)
    if method == "all":
        results = {m: is_lift(lift, quot, m) for m in LIFT_METHODS}
        verdicts = {m: r.ok for m, r in results.items()}
        if len(set(verdicts.values())) != 1:
            raise InternalError(f"characterizations disagree: {verdicts}", verdicts=verdicts)
        first = results["flats"]
        return LiftResult(first.ok, "all", first.witness)
    raise ValueError(f"unknown method {method!r}")


def verify_quotient_pair(q: mc.Matroid, x: Iterable[int], quot: mc.Matroid, lift: mc.Matroid) -> bool:
    """Check Q / X == quot and Q \\ X == lift structurally."""
    xmask = mask_of(x)
    if quot.n != lift.n or quot.n != q.n - xmask.bit_count():
        raise GroundSetMismatch("operands do not fit together")
    return mc.minor(q, xmask, 0) == quot and mc.minor(q, 0, xmask) == lift


# --- elementary witnesses ---------------------------------------------------

def _coextension(quot: mc.Matroid, lift: mc.Matroid) -> mc.Matroid:
    """The family Q on {0..n} of lift's bases and quot's bases plus n.

    Q/n == quot and Q\\n == lift by construction, for quot and lift of
    ranks r and r + 1: Q's bases avoiding n are lift's, and those through n,
    less n, are quot's.  Whether Q satisfies basis exchange is not checked.
    """
    xbit = 1 << quot.n
    return mc.Matroid(quot.n + 1, lift.bases + tuple(b | xbit for b in quot.bases))


def elementary_witness(quot: mc.Matroid, lift: mc.Matroid) -> mc.Matroid:
    """The unique matroid Q on {0..n} with Q/n == quot and Q\\n == lift,
    for an elementary nontrivial lift pair.

    Every step is checked: the pair by the flats lift test, the family
    built by `_coextension` by basis exchange, and its two minors against
    the pair (`verify_quotient_pair`).  Once the pair has passed the lift
    test, a failed check is a fault in the program (InternalError)."""
    if quot.n != lift.n:
        raise GroundSetMismatch("witness needs a common ground set")
    if lift.rank != quot.rank + 1:
        raise NotElementaryLift(f"rank gap is {lift.rank - quot.rank}, not 1")
    check = is_lift(lift, quot, "flats")
    if not check.ok:
        raise NotElementaryLift("second matroid is not a lift of the first",
                                witness=check.witness)
    n = quot.n
    q = _coextension(quot, lift)
    if not q.is_matroid:
        raise InternalError("witness family fails basis exchange")
    if not verify_quotient_pair(q, [n], quot, lift):
        raise InternalError("witness minors do not reproduce the pair")
    return q


def enumerate_elementary_coextensions(quot: mc.Matroid, lift: mc.Matroid) -> list[mc.Matroid]:
    """All matroids Q on {0..n} with Q/n == quot and Q\\n == lift: none, or
    the one family the pair forces.

    Any such Q has rank(lift): its bases avoiding n are exactly lift's bases
    and its bases through n are T + {n} for a family T of (rank-1)-subsets,
    which the contraction forces to be quot's bases.  So only that family is
    built (`_coextension`), and it is kept if it passes the pairwise basis-exchange test
    (`basis_exchange_witness`, not the rank-axiom test of
    `elementary_witness`) and its two minors are the pair.
    """
    if quot.n != lift.n or lift.rank != quot.rank + 1:
        return []
    q = _coextension(quot, lift)
    if mc.basis_exchange_witness(q.bases) is not None:
        return []
    return [q] if verify_quotient_pair(q, [quot.n], quot, lift) else []


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


def _gap_blocks(low: mc.Matroid, high: mc.Matroid) -> tuple[list[int], list[int]]:
    """The candidate bases one rank above `low`, and their blocks.

    The pool holds the (low.rank + 1)-sets independent in `high` and
    spanning in `low`, in `combinations` order.  The candidates with one
    `high`-closure (X plus every e with X + e dependent in `high`) form a
    block, the mask of their pool indices; the blocks come sorted by their
    highest pool index.
    """
    indep = high.independent_table
    spanning = low.rank_table
    bits = [1 << e for e in range(low.n)]
    pool: list[int] = []
    classes: dict[int, int] = {}
    for b in size_masks(low.n, low.rank + 1):
        if not indep[b] or spanning[b] != low.rank:
            continue
        key = b
        for bit in bits:
            if not indep[b | bit]:
                key |= bit
        classes[key] = classes.get(key, 0) | 1 << len(pool)
        pool.append(b)
    return pool, sorted(classes.values(), key=int.bit_length)


def enumerate_fillings(fm: fl.FlagMatroid, budget: int = 10000) -> FillingSearch:
    """Bounded DFS over full flag matroids chopping down to `fm`.

    Every rank gap >= 2 between layers `low` and `high` is bridged by the
    matroids Q of rank low.rank + 1 that are quotients of `high` and have
    `low` as a quotient, each followed by a bridge from Q to `high`.  Q's
    basis family is a union of closure classes of `high`, where a class is
    the set of `high`-independent (low.rank + 1)-sets with one
    `high`-closure (Oxley, Matroid Theory, 7.3):

    - Every flat of Q is a flat of `high`, so cl_Q(X) contains
      cl_high(X) and r_Q(X) = r_Q(cl_high(X)).  Two sets of a class are
      therefore both bases of Q or neither.
    - `low` is a quotient of Q, so every basis of Q spans `low` and lies
      in the pool of `_gap_blocks`.  `low` is a quotient of `high` as
      well, so by the same argument the sets of a class all span `low` or
      none does: every class lies wholly inside the pool or outside it.

    So only unions of the classes met by the pool (the blocks) are tried.
    With the pool numbered in `combinations` order, read a family as the
    integer whose bit i is set iff pool[i] is in it; the 2^|pool| - 1
    families in increasing order of that integer are the full search.
    Two unions of blocks differ first at the highest pool index in their
    symmetric difference, which is the top index of the highest block
    where they differ.  With the blocks sorted by their highest pool
    index, the selectors s = 1 .. 2^k - 1 over k blocks thus give the
    unions in that same increasing order.  The unions tried are a
    subsequence of the full search, and every family skipped fails the
    checks below, so whenever the full search would complete within the
    budget this search returns the same fillings in the same order.

    Each union still goes through basis exchange and both lift checks.
    `budget` caps the number of unions examined over all gaps, so a gap
    with k blocks costs at most 2^k - 1 of it (plus the bridges above
    each intermediate when the gap is 3 or more), and exhaustion is
    reported on the result rather than silently returning a partial
    answer as a complete one.
    """
    layers = fm.layers
    remaining = budget
    truncated = False

    def bridge(low: mc.Matroid, high: mc.Matroid) -> list[tuple[mc.Matroid, ...]]:
        nonlocal remaining, truncated
        if high.rank - low.rank <= 1:
            return [()]
        pool, blocks = _gap_blocks(low, high)
        out = []
        for select in range(1, 1 << len(blocks)):
            if remaining <= 0:
                truncated = True
                break
            remaining -= 1
            pick = 0
            for j in iter_bits(select):
                pick |= blocks[j]
            mid = mc.Matroid(fm.n, (pool[i] for i in iter_bits(pick)))
            if not mid.is_matroid:
                continue
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

    With one extra element the family that can verify is forced, so only
    the coextension of the two layers is built; it counts against the budget.
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
    if extra == 1:
        if budget <= 0:
            raise BudgetExhausted(f"{budget} candidate families examined")
        found = enumerate_elementary_coextensions(*layers)
        return MajorStructure(found[0], ((n,),)) if found else None
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
        q = mc.Matroid(nq, bases)
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
