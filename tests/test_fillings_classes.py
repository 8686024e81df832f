"""Differential, lemma and budget tests for the fillings bridge.

`lifts_majors.enumerate_fillings` bridges a rank gap top-down: the layer
below the upper one is an elementary quotient of it, one per linear
subclass of its hyperplanes, and the budget counts the subclasses examined.
The first search tried every subset of the candidate bases; it is kept below
as the reference.  Where the reference completes, the search must return the
same fillings in the same order; where the reference runs out of budget,
the search may get further, but it keeps every filling the reference found.
"""

import random
from itertools import combinations, product

from conftest import all_flags, random_prefix_chain_matrix
from flagmatroids import flag_core as fl
from flagmatroids import gf_linalg as gl
from flagmatroids import lifts_majors as lm
from flagmatroids import matroid_core as mc
from flagmatroids.bitset import elements_of, size_masks

BUDGETS = (3, 50, 10_000)


def candidate_pool(low, high):
    """The (low.rank + 1)-sets independent in `high` and spanning `low`."""
    return [
        b
        for b in size_masks(low.n, low.rank + 1)
        if high.is_independent(b) and low.rank_table[b] == low.rank
    ]


def reference_enumerate_fillings(fm, budget):
    """The search before closure classes: every rank gap >= 2 is bridged by
    all 2^|pool| - 1 subsets of the candidate bases, in increasing order of
    the subset's bit mask over the pool."""
    layers = fm.layers
    remaining = budget
    truncated = False

    def bridge(low, high):
        nonlocal remaining, truncated
        if high.rank - low.rank <= 1:
            return [()]
        pool = candidate_pool(low, high)
        out = []
        for pick in range(1, 1 << len(pool)):
            if remaining <= 0:
                truncated = True
                break
            remaining -= 1
            fam = tuple(pool[i] for i in range(len(pool)) if pick >> i & 1)
            if mc.basis_exchange_witness(fam) is not None:
                continue
            mid = mc.Matroid(fm.n, tuple(sorted(fam, key=elements_of)))
            if not lm.is_lift(mid, low, "flats").ok or not lm.is_lift(high, mid, "flats").ok:
                continue
            for tail in bridge(mid, high):
                out.append((mid,) + tail)
        return out

    per_gap = [bridge(low, high) for low, high in zip(layers, layers[1:])]
    fillings = []
    for choice in product(*per_gap) if per_gap else [()]:
        chain = [layers[0]]
        for mids, high in zip(choice, layers[1:]):
            chain.extend(mids)
            chain.append(high)
        fillings.append(fl.from_sequence(chain))
    return lm.FillingSearch(tuple(fillings), not truncated)


def prefix_flag(a, levels):
    return fl.from_sequence([mc.linear_matroid(gl.prefix_rows(a, d)) for d in levels])


def seeded_gap_flags(count, seed, max_n):
    """Prefix-chain flags over GF(2/3/5) with at least one rank gap >= 2.

    Gaps are at most 2 wide, or 3 when they start at rank 0: at n = 7 a
    gap from rank 1 to 4 exhausts a budget of 10,000 on both sides, and
    costs most of the test's time to show nothing."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = rng.choice([2, 3, 5])
        n = rng.randint(4, max_n)
        r = rng.randint(2, min(4, n))
        a = random_prefix_chain_matrix(rng, p, r, n)
        if a is None:
            continue
        inner = [d for d in range(1, r) if rng.random() < 0.3]
        levels = sorted({rng.choice([0, 1, 1]), *inner, r})
        gaps = [(b - a_, a_) for a_, b in zip(levels, levels[1:])]
        if max(gaps)[0] < 2 or any(g > 2 + (a_ == 0) for g, a_ in gaps):
            continue
        out.append(prefix_flag(a, levels))
    return out


def closure_class_count(low, high):
    """The number of distinct `high`-closures among the candidate bases of a
    gap, read from `matroid_core.closure`."""
    return len({mc.closure(high, b) for b in candidate_pool(low, high)})


def check_against_reference(fm, budget, tally):
    ref = reference_enumerate_fillings(fm, budget)
    got = lm.enumerate_fillings(fm, budget)
    if ref.complete:
        assert got == ref
        tally["same"] += 1
    elif got.complete:
        assert set(ref.fillings) <= set(got.fillings)
        tally["reached"] += 1


def test_same_fillings_as_the_subset_loop_on_every_non_full_flag_of_4_elements():
    tally = {"same": 0, "reached": 0}
    flags = [fm for n in range(5) for fm in all_flags(n) if not lm.is_full(fm)]
    assert len(flags) > 300
    for fm in flags:
        for budget in BUDGETS:
            check_against_reference(fm, budget, tally)
    assert tally["same"] > 0 and tally["reached"] > 0


def test_same_fillings_as_the_subset_loop_on_seeded_prefix_chains():
    tally = {"same": 0, "reached": 0}
    for fm in seeded_gap_flags(100, 12, max_n=7):
        for budget in BUDGETS:
            check_against_reference(fm, budget, tally)
    assert tally["same"] > 0 and tally["reached"] > 0


def test_quotient_rank_is_constant_on_closure_classes_of_the_lift():
    """r_Q(X) == r_Q(cl_H(X)) for every X, whenever H is a lift of Q.

    With Q an intermediate layer this says its bases are a union of
    closure classes of H; with Q the lower layer of the gap it says every
    class lies wholly inside or wholly outside the candidate pool."""
    pairs = 0
    for n in range(5):
        matroids = list(mc.enumerate_matroids(n))
        for q, h in product(matroids, repeat=2):
            if not lm.is_lift(h, q, "flats").ok:
                continue
            pairs += 1
            rank = q.rank_table
            assert all(rank[x] == rank[mc.closure(h, x)] for x in range(1 << n))
    assert pairs > 500


def linear_subclass_count(low, high):
    """The linear subclasses H of high's hyperplanes that the bridge over
    (low, high) examines, counted by trying every set of hyperplanes.

    H holds every hyperplane of `high` of rank below low.rank in `low`, and
    not all of them.  It is linear iff for any two of its hyperplanes that
    meet in a flat of rank r - 2, it holds every hyperplane through that
    flat."""
    r = high.rank
    independent = [x for x in size_masks(high.n, r - 1) if high.is_independent(x)]
    planes = sorted({mc.closure(high, x) for x in independent})
    forced = [h for h in planes if mc.rank_of(low, h) < low.rank]
    free = [h for h in planes if h not in forced]
    count = 0
    for pick in range((1 << len(free)) - 1):
        sub = set(forced) | {h for i, h in enumerate(free) if pick >> i & 1}
        count += all(
            h in sub
            for h1, h2 in combinations(sub, 2)
            if mc.rank_of(high, h1 & h2) == r - 2
            for h in planes
            if h & h1 & h2 == h1 & h2
        )
    return count


def test_a_single_gap_costs_one_family_per_union_of_closure_classes():
    """A gap of 2 with k classes among its candidates completes at budget
    2^k - 1, so the search examines no more than one union of classes per
    family.  It completes at a budget of the number of linear subclasses it
    examines, and not at one less.  Gaps with more than 10 classes are
    skipped to bound the test's time (over GF(5) a rank-4 layer on 7
    elements can have 23 planes)."""
    checked = 0
    for fm in seeded_gap_flags(40, 5, max_n=7):
        layers = fm.layers
        gaps = [(lo, hi) for lo, hi in zip(layers, layers[1:]) if hi.rank - lo.rank > 1]
        if len(gaps) != 1 or gaps[0][1].rank - gaps[0][0].rank != 2:
            continue
        k = closure_class_count(*gaps[0])
        if k > 10:
            continue
        assert lm.enumerate_fillings(fm, 2 ** k - 1).complete
        examined = linear_subclass_count(*gaps[0])
        assert 0 < examined <= 2 ** k - 1
        assert lm.enumerate_fillings(fm, examined).complete
        assert not lm.enumerate_fillings(fm, examined - 1).complete
        checked += 1
    assert checked > 20


def test_a_binary_rank_3_top_layer_needs_at_most_127_families():
    """Over GF(2) a rank-3 layer has at most 7 lines, so a gap (1, 3) has at
    most 7 closure classes however many candidate bases it has."""
    rng = random.Random(10)
    a = random_prefix_chain_matrix(rng, 2, 3, 10)
    fm = prefix_flag(a, (1, 3))
    assert len(candidate_pool(*fm.layers)) > 7
    assert not reference_enumerate_fillings(fm, 127).complete
    search = lm.enumerate_fillings(fm, 127)
    assert search.complete
    assert search == lm.enumerate_fillings(fm, 10 ** 6)
    assert search.fillings
