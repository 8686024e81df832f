"""Seeded inputs for the three workloads.

Each workload is a fixed cycle of strata (`DECIDE`, `ROUNDTRIP`, and the
sweep's op kinds).  A stratum fixes every property the library's cost and
route depend on: field, queried prime, ground-set size, levels, and the
expected verdict.  Only the instance inside a stratum depends on the seed,
so any seed gives the same mix, and a run that completes whole cycles sees
exactly the same shares of n, p, yes/no and full/non-full.

Instance `(cycle, slot)` is drawn from its own `random.Random`, seeded with
a string (hashed with SHA-512, so independent of PYTHONHASHSEED).  Expected
answers come from how an instance was built, never from the library:

* the flag of a GF(p) matrix is representable over GF(p);
* a graphic flag is regular, so representable over GF(2) and GF(3);
* four pairwise independent vectors planted in the top two rows make the
  rank-2 layer contain U_{2,4}, which is not binary; five (over GF(5))
  make it contain U_{2,5}, which is neither binary nor ternary.
"""

from __future__ import annotations

import random
from itertools import combinations

import oracle

# (kind, field of the matrix, queried p, n, levels).  "matrix" is a yes
# instance, "plant4"/"plant5" a no instance, "graphic" a graph bundle.
# The five costliest strata (yes answers at n = 8..10) cost about the same
# and are a fifth of the ops, so p90 falls inside their common spread.  For
# that, the GF(3) yes instance at n = 10 is a single rank-1 level: its minor
# search still runs to the end, but with levels (1, 2) it cost 2.5x the
# others and p90 sat on the edge between it and the rest.
DECIDE = (
    ("matrix", 2, 2, 6, (1, 2, 3)),
    ("plant4", 3, 2, 6, (2, 3)),
    ("matrix", 3, 3, 6, (2, 3, 4)),
    ("graphic", 0, 2, 6, None),
    ("matrix", 2, 2, 7, (2, 3, 4)),
    ("matrix", 2, 2, 6, (1, 3)),
    ("matrix", 3, 3, 7, (1, 2, 3)),
    ("plant5", 5, 3, 7, (2, 3)),
    ("matrix", 2, 2, 8, (2, 3)),
    ("graphic", 0, 3, 7, None),
    ("matrix", 3, 3, 6, (2, 4)),
    ("matrix", 2, 2, 9, (1, 2, 3)),
    ("plant4", 3, 2, 8, (1, 2, 3)),
    ("matrix", 3, 3, 8, (1, 2, 3)),
    ("matrix", 2, 2, 7, (1, 3)),
    ("matrix", 2, 2, 10, (1, 2)),
    ("plant5", 5, 3, 9, (1, 2, 3)),
    ("matrix", 3, 3, 9, (1, 2)),
    ("graphic", 0, 2, 8, None),
    ("plant4", 3, 2, 10, (2, 3, 4)),
    ("matrix", 3, 3, 10, (1,)),
    ("plant5", 5, 2, 10, (2, 3)),
)

# (field, n, levels); one op is from-matrix -> represent -> major -> dual.
# GF(5)/GF(7) sizes stay inside the column search's 2^24 guard.  The three
# costliest strata cost about the same and are a fifth of the ops, so p90
# falls inside their common spread rather than on the edge of one stratum.
# GF(3) stops at n = 9: at n = 10 the representation search either varies
# up to 5x between instances (levels from rank 1-3) or costs twice the other
# heavy strata (from rank 4), and either made p90 jump between seeds.
ROUNDTRIP = (
    (2, 6, (1, 2, 3)),
    (3, 6, (1, 2, 3)),
    (5, 6, (1, 2)),
    (2, 7, (1, 2)),
    (3, 7, (2, 3)),
    (7, 5, (1, 2)),
    (2, 8, (2, 3, 4)),
    (3, 8, (2, 3)),
    (5, 5, (1, 2)),
    (2, 9, (1, 2, 3)),
    (3, 9, (4, 5)),
    (7, 4, (1, 2)),
    (2, 10, (4, 5)),
    (2, 10, (5, 6)),
)

# Sweep op kinds: three lift rows per batch of axiom checks.
SWEEP = ("lift", "lift", "lift", "axioms")
AXIOM_BATCH = 800
SWEEP_N = 5
AXIOM_N = 4

CYCLES = {"decide": DECIDE, "roundtrip": ROUNDTRIP, "sweep": SWEEP}

# A non-full flag is drawn again until its rank gap has 7 or 8 candidate
# bases.  The filling search tries every subset of them, so its cost doubles
# with each candidate: across 3..13 candidates one stratum's ops ranged from
# 20 to 270 ms, and the mix would change with the seed.  Above 13 the CLI's
# default budget (10000 families) runs out and the answer is exit 3.
GAP_POOL = (7, 8)


def _rng(seed: int, workload: str, cycle: int, slot: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{cycle}:{slot}")


def _full_rank(rng: random.Random, p: int, r: int, n: int) -> list[list[int]]:
    while True:
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(r)]
        if oracle.gf_rank(rows, p) == r:
            return rows


def _planted(rng: random.Random, p: int, r: int, n: int, k: int) -> list[list[int]]:
    """Full-rank matrix whose top two rows hold k pairwise independent
    2-vectors in k random columns."""
    vectors = [(1, 0), (0, 1)] + [(1, a) for a in range(1, p)]
    while True:
        rows = _full_rank(rng, p, r, n)
        for c, (x, y) in zip(rng.sample(range(n), k), vectors[:k]):
            rows[0][c], rows[1][c] = x, y
        if oracle.gf_rank(rows, p) == r:
            return rows


def _gap_pool(rows, p: int, levels) -> int:
    """Candidate bases the filling search must bridge a rank gap of 2 with:
    sets of size low+1 independent in the upper layer and spanning the lower."""
    low, high = levels
    lower = oracle.matrix_layer(rows, p, low)
    upper = oracle.matrix_layer(rows, p, high)
    n = len(rows[0])
    return sum(
        1
        for s in map(oracle.mask, combinations(range(n), low + 1))
        if oracle.rank_by_bases(upper, s) == low + 1
        and oracle.rank_by_bases(lower, s) == low
    )


def _graphic_bundle(rng: random.Random, n: int) -> tuple[list, list]:
    """Connected multigraph on 4 vertices with n edges, and the chain of
    partitions {abc|d}, {ab|c|d}, {a|b|c|d} for a random vertex order, so
    the flag is full with ranks 1, 2, 3."""
    order = list(range(4))
    rng.shuffle(order)
    edges = [[order[rng.randrange(i)], order[i]] for i in range(1, 4)]
    while len(edges) < n:
        edges.append(rng.sample(range(4), 2))
    rng.shuffle(edges)
    a, b, c, d = order
    partitions = [[[a, b, c], [d]], [[a, b], [c], [d]], [[a], [b], [c], [d]]]
    return edges, partitions


def flag_doc(n: int, family) -> dict:
    feasible = sorted((oracle.elements(f) for f in family), key=lambda s: (len(s), s))
    return {"schema": "flag-matroid/1", "n": n, "feasible": feasible}


def decide_case(seed: int, cycle: int, slot: int) -> dict:
    kind, field, p, n, levels = DECIDE[slot]
    rng = _rng(seed, "decide", cycle, slot)
    case = {"kind": kind, "field": field, "p": p, "n": n, "levels": levels}
    if kind == "graphic":
        edges, partitions = _graphic_bundle(rng, n)
        case.update(
            expect=True, full=True, edges=edges, partitions=partitions,
            family=oracle.graphic_flag(edges, partitions),
        )
        return case
    if kind == "matrix":
        r = levels[-1]
        while True:
            rows = _full_rank(rng, field, r, n)
            if len(levels) != 2 or levels[1] - levels[0] < 2:
                break
            if GAP_POOL[0] <= _gap_pool(rows, field, levels) <= GAP_POOL[1]:
                break
        expect = True
    else:
        rows = _planted(rng, field, levels[-1], n, 4 if kind == "plant4" else 5)
        expect = False
    case.update(
        expect=expect,
        full=all(b == a + 1 for a, b in zip(levels, levels[1:])),
        rows=rows,
        family=oracle.matrix_flag(rows, field, levels),
    )
    return case


def roundtrip_case(seed: int, cycle: int, slot: int) -> dict:
    p, n, levels = ROUNDTRIP[slot]
    rng = _rng(seed, "roundtrip", cycle, slot)
    rows = _full_rank(rng, p, levels[-1], n)
    return {
        "p": p, "n": n, "levels": levels, "rows": rows,
        "layers": [oracle.matrix_layer(rows, p, d) for d in levels],
    }


def all_basis_families(n: int) -> list[frozenset[int]]:
    """Every matroid on n elements, by brute force over families of r-sets."""
    out = []
    for r in range(n + 1):
        pool = [oracle.mask(c) for c in combinations(range(n), r)]
        for pick in range(1, 1 << len(pool)):
            fam = frozenset(pool[i] for i in range(len(pool)) if pick >> i & 1)
            if oracle.is_basis_family(fam):
                out.append(fam)
    return out


def _random_flag(rng: random.Random, matroids, flats) -> frozenset[int]:
    """A chain of lifts: start at a random matroid, then repeatedly move to a
    random matroid of higher rank whose flats include the current ones."""
    i = rng.randrange(len(matroids))
    family = set(matroids[i])
    while rng.random() < 0.6:
        rank = next(iter(matroids[i])).bit_count()
        ups = [
            j for j, m in enumerate(matroids)
            if next(iter(m)).bit_count() > rank and flats[i] <= flats[j]
        ]
        if not ups:
            break
        i = rng.choice(ups)
        family |= matroids[i]
    return frozenset(family)


def axiom_batch(seed: int, cycle: int, slot: int, matroids, flats) -> list[list[int]]:
    """AXIOM_BATCH families over AXIOM_N elements: half valid flags, a
    quarter valid flags with one set toggled, a quarter random families."""
    rng = _rng(seed, "axioms", cycle, slot)
    batch = []
    for i in range(AXIOM_BATCH):
        kind = i % 4
        if kind == 3:
            fam = frozenset(s for s in range(1 << AXIOM_N) if rng.random() < 0.3)
        else:
            fam = _random_flag(rng, matroids, flats)
            if kind == 2:
                fam = fam ^ {rng.randrange(1 << AXIOM_N)}
        batch.append(sorted(fam))
    return batch


def lift_row(seed: int, cycle: int, slot: int, count: int) -> int:
    """Index of the matroid whose lift row this op checks."""
    return _rng(seed, "lift", cycle, slot).randrange(count)
