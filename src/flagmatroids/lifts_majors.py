"""Lift/quotient predicates, elementary lift witnesses, fillings and majors.
Their searches take candidates from `matroid_core.single_element_extensions`
and `matroid_core.elementary_quotients`.

Conventions: when a matroid Q on E + X encodes a flag matroid with layers
(M_1..M_k), the ordered blocks X_1..X_{k-1} satisfy

    M_i = Q / (X_i + ... + X_{k-1}) \\ (X_1 + ... + X_{i-1})

so contracting everything gives the bottom layer and deleting everything the
top one.  Extra elements always sit above the flag's ground set: a witness
for a pair on {0..n-1} lives on {0..n} with the new element at index n.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, NamedTuple, Optional, Sequence

from . import flag_core as fl
from . import gf_linalg as gl
from . import matroid_core as mc
from .bitset import elements_of, mask_of
from .errors import (
    BudgetExhausted,
    GroundSetMismatch,
    InternalError,
    InvalidInput,
    NotElementaryLift,
    NotFull,
)

class LiftResult(NamedTuple):
    ok: bool
    method: str
    witness: Optional[tuple] = None


def _lift_by_flats(lift: mc.Matroid, quot: mc.Matroid) -> Optional[tuple]:
    mask = mc.first_unlifted(quot.flat_bits, lift.flat_bits)
    return None if mask is None else ("flat", elements_of(mask))


def _lift_by_duals(lift: mc.Matroid, quot: mc.Matroid) -> Optional[tuple]:
    mask = mc.first_unlifted(lift.coflat_bits, quot.coflat_bits)
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
    fe = mc.unlifted_basis(quot, lift)
    return None if fe is None else ("basis", elements_of(fe[0]), fe[1])


# method -> the witness that `lift` is not a lift of `quot`, or None
_LIFT_TESTS = {
    "flats": _lift_by_flats,
    "duals": _lift_by_duals,
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
      of quot*: the "flats" test on the duals' flats, `coflat_bits`.  The
      witness is the least flat of lift* that is not one of quot*.
    - "closures": cl_lift(X) is a subset of cl_quot(X) for every X; the
      witness is the least X where it is not.
    - "bases": for every basis B of lift and e outside B there is a basis
      B' of quot inside B whose fundamental circuit of e lies inside the
      fundamental circuit of e in B; the witness is the first (B, e)
      without one, read by `mc.unlifted_basis` as axiom 2 is, from the
      two matroids' cached fundamental-cocircuit rows with one OR over
      the elements of B' per pair (B, B').

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
    raise InvalidInput(f"unknown lift method {method!r}")


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


class LiftWitnessSequence(NamedTuple):
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

class FillingSearch(NamedTuple):
    fillings: tuple[fl.FlagMatroid, ...]
    complete: bool


def enumerate_fillings(fm: fl.FlagMatroid, budget: int = 10000) -> FillingSearch:
    """Bounded DFS over full flag matroids chopping down to `fm`.

    Each rank gap >= 2 between layers `low` and `high` is bridged top-down
    through the elementary quotients of `high` (Oxley, Matroid Theory, 7.3)
    whose bases all span `low`, as a lift's bases must; each that is a lift
    of `low` is bridged down to `low` in turn.  `budget` caps the quotient
    families examined over all gaps, one per linear subclass of the upper
    layer's hyperplanes.  Each is a nonempty union of the closure classes
    (sets with one closure in `high`) that span `low`, so a gap of two with
    k such classes costs at most 2^k - 1.  Exhaustion is reported on the
    result.  The fillings are sorted by the `mc.pick_key` of their layers,
    bottom-up: the order of a search over every family of candidate bases,
    one layer above the other.
    """
    layers = fm.layers
    remaining = budget
    truncated = False

    def bridge(low: mc.Matroid, high: mc.Matroid) -> list[tuple[mc.Matroid, ...]]:
        """The chains of layers above `low`, up to `high`, one rank apart."""
        nonlocal remaining, truncated
        if high.rank - low.rank <= 1:
            return [(high,)]
        out = []
        for bases in mc.elementary_quotients(high, low):
            if not bases:  # the last family: e a loop, no quotient
                break
            if remaining <= 0:
                truncated = True
                break
            remaining -= 1
            mid = mc.Matroid(fm.n, bases)
            if mc.first_unlifted(low.flat_bits, mid.flat_bits) is None:
                out.extend(below + (high,) for below in bridge(low, mid))
        return out

    per_gap = [bridge(low, high) for low, high in zip(layers, layers[1:])]
    chains = [(layers[0],) + sum(choice, ()) for choice in product(*per_gap)]
    chains.sort(key=lambda chain: [mc.pick_key(m) for m in chain])
    return FillingSearch(tuple(map(fl.from_sequence, chains)), not truncated)


# --- majors -------------------------------------------------------------------

class MajorStructure(NamedTuple):
    """A matroid on E + X plus the ordered partition of the extra elements."""

    matroid: mc.Matroid
    blocks: tuple[tuple[int, ...], ...]
    matrix: Optional[gl.GFMatrix] = None


def verify_major(q: mc.Matroid, blocks: Sequence[Iterable[int]], fm: fl.FlagMatroid) -> bool:
    """Check that q with the given ordered blocks is a major of fm."""
    layers = fm.layers
    if len(blocks) != len(layers) - 1:
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
    if all(xmask & ~b for b in q.bases):  # no basis holds every extra
        return False
    contract = xmask
    for layer, bm in zip(layers, block_masks + [0]):
        if mc.minor(q, contract, xmask ^ contract) != layer:
            return False
        contract ^= bm
    return True


def search_major(fm: fl.FlagMatroid, budget: int = 20000) -> Optional[MajorStructure]:
    """A major of fm, or None if it has none.  It has one extra element per
    rank between the bottom and top layers.

    With one extra element the major is forced: `elementary_witness` of
    the two layers, which counts against the budget.  Otherwise it is grown
    from the top layer by `mc.single_element_extensions`, depth first,
    adding n, n + 1, ... block by block from X_{k-1} down.
    Contracting the extras so far must lower the rank by one per extra and
    give a lift of the layer below the current block, and so that layer at
    the block's end.  `budget` caps the extensions examined (else
    BudgetExhausted); the grown major is checked by `verify_major`.
    """
    layers, ranks = fm.layers, fm.cardinalities
    n = fm.n
    if ranks[-1] - ranks[0] == 1:
        if budget <= 0:
            raise BudgetExhausted(f"{budget} candidate families examined")
        return MajorStructure(elementary_witness(*layers), ((n,),))
    # the block of each extra, in the order they are added
    block_of = [i for i in reversed(range(len(layers) - 1)) for _ in range(ranks[i + 1] - ranks[i])]
    remaining = budget

    def grow(q: mc.Matroid) -> Optional[mc.Matroid]:
        nonlocal remaining
        added = q.n - n
        if added == len(block_of):
            return q
        below = layers[block_of[added]]
        for fam in mc.single_element_extensions(q):
            if remaining <= 0:
                raise BudgetExhausted(f"{budget} extensions examined")
            remaining -= 1
            ext = mc.Matroid(q.n + 1, fam)
            low = mc.minor(ext, ext.full_mask >> n << n, 0)
            fits = low.rank == ranks[-1] - added - 1
            if fits and mc.first_unlifted(below.flat_bits, low.flat_bits) is None:
                if (found := grow(ext)) is not None:
                    return found
        return None

    q = grow(layers[-1])
    if q is None:
        return None
    blocks = tuple(
        tuple(n + t for t, b in enumerate(block_of) if b == i) for i in range(len(layers) - 1)
    )
    if not verify_major(q, blocks, fm):
        raise InternalError("the major search built a matroid that is not a major")
    return MajorStructure(q, blocks)
