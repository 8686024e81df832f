"""Differential and count tests for the level-by-level representation search.

`representability.search_representation` walks the layers depth first:
it extends the representation of one layer to the next by a band of new
rows in RREF, and `_rref_bands` builds only the bands that the next
layer's bases allow.  A band pivot choice must complete cur's pivots to a
basis, a cell is nonzero iff swapping its column for its row's pivot gives
a basis, and a column that is zero in cur has its first nonzero band cell
fixed to 1.  Two references are kept, each the code the walk replaced, each
with the size guard under which it refused to search (`Refused`):

- `reference_search_levelwise`, the GF(2)/GF(3) loop that tries every RREF
  band in the same order and keeps the first match.  Wherever it answers,
  the walk must return exactly what it returns: the same matrix and
  levels, None, or the same exception.  Where it refuses, the walk must
  answer, and on a full flag agree with the witness route.
- `reference_search_columns`, the column backtracker that searched
  GF(5)/GF(7).  Wherever it answers, the walk must give the same verdict;
  its certificate may differ, and `search_representation` checks it with
  `represents`.

`unpruned_rref_bands` is `_rref_bands` without its 2x2 rule (a band's
2x2 minor on rows i < k and columns e < f is nonzero iff swapping both
rows' pivots for e and f gives a basis).  The bands `_rref_bands` yields
must be that sequence less only bands that `_level_matches` rejects.
"""

import random
from collections import Counter
from itertools import combinations, islice, product
from math import log2

from conftest import all_flags, random_prefix_chain_matrix
from flagmatroids import flag_core as fl
from flagmatroids import gf_linalg as gl
from flagmatroids import matroid_core as mc
from flagmatroids import representability as rp
from flagmatroids.bitset import mask_of
from flagmatroids.errors import BudgetExhausted, Error
from flagmatroids.lifts_majors import is_full


class Refused(Exception):
    """A reference search's size guard refused the flag."""


def reference_rref_bands(p, positions, g, n):
    """All g-row RREF matrices over the given coordinate positions, embedded
    as width-n rows (zero elsewhere), in a fixed deterministic order."""
    m = len(positions)
    if g == 0:
        yield ()
        return
    for pivots in combinations(range(m), g):
        free_cells = [
            (i, j)
            for i in range(g)
            for j in range(m)
            if j > pivots[i] and j not in pivots
        ]
        for values in product(range(p), repeat=len(free_cells)):
            rows = []
            for i in range(g):
                row = [0] * n
                row[positions[pivots[i]]] = 1
                rows.append(row)
            for (i, j), v in zip(free_cells, values):
                rows[i][positions[j]] = v
            yield tuple(tuple(r) for r in rows)


def reference_search_levelwise(fm, p):
    layers = fm.layers
    ranks = [m.rank for m in layers]
    n = fm.n
    cur = rp.matroid_representation(layers[0], p)
    if cur is None:
        return None
    for nxt in layers[1:]:
        target = nxt.rank
        g = target - cur.rows
        _, pivots = gl.rref(cur)
        positions = [j for j in range(n) if j not in pivots]
        if p ** (g * len(positions)) > 1 << 22:
            raise Refused(f"band space too large at rank {target}")
        found = None
        for band in reference_rref_bands(p, positions, g, n):
            cand = gl.vstack(cur, gl.matrix(p, [list(r) for r in band], cols=n))
            if rp._level_matches(cand, nxt):
                found = cand
                break
        if found is None:
            return None
        cur = found
    return rp.FlagRepresentation(cur, tuple(ranks))


def reference_search_columns(fm, p):
    """Backtracking over columns in lexicographic order with prefix pruning;
    complete for any prime via column-scaling canonicalization plus pinning
    the first feasible singleton's column to a unit vector."""
    levels = fm.cardinalities
    r = levels[-1]
    n = fm.n
    if r * max(n - 1, 1) * log2(p) > 24:
        raise Refused("column space exceeds 2^24")
    feas = frozenset(fm.feasible)
    unit_col = None
    if 1 in levels:
        singles = [j for j in range(n) if (1 << j) in feas]
        if singles:
            unit_col = singles[0]
    candidates = []
    for vec in product(range(p), repeat=r):
        lead = next((x for x in vec if x), None)
        if lead is None or lead == 1:
            candidates.append(vec)
    pos_levels = [d for d in levels if d > 0]
    cols = []

    def feasible_so_far():
        j = len(cols) - 1
        for d in pos_levels:
            if d > len(cols):
                break
            for combo in combinations(range(len(cols) - 1), d - 1):
                subset = combo + (j,)
                independent = gl.independent_columns(p, [cols[c][:d] for c in subset])
                if independent != (mask_of(subset) in feas):
                    return False
        return True

    def place(j):
        if j == n:
            return True
        pool = [tuple(1 if i == 0 else 0 for i in range(r))] if j == unit_col else candidates
        for vec in pool:
            cols.append(vec)
            if feasible_so_far() and place(j + 1):
                return True
            cols.pop()
        return False

    if not place(0):
        return None
    mat = gl.matrix(p, [[cols[j][i] for j in range(n)] for i in range(r)], cols=n)
    return rp.FlagRepresentation(mat, levels)


def outcome(search, fm, p):
    """A comparable summary: (entries, levels), None, the exception type,
    or "refused" when a reference's guard refuses."""
    try:
        rep = search(fm, p)
    except Refused:
        return "refused"
    except Error as exc:
        return type(exc)
    return None if rep is None else (rep.matrix.entries, rep.levels)


def kind(got):
    return "rep" if isinstance(got, tuple) else got


def assert_same_search(fm, p):
    """Over GF(2)/GF(3): the reference's outcome wherever it answers.  Where
    it refuses, the walk answers, and on a full flag its verdict is the
    witness route's.  Returns the reference's kind."""
    got = outcome(rp.search_representation, fm, p)
    want = outcome(reference_search_levelwise, fm, p)
    if want != "refused":
        assert got == want
    else:
        assert got is None or isinstance(got, tuple)
        if is_full(fm):
            assert (got is not None) == rp.witness_route_decision(fm, p).representable
    return kind(want)


def test_every_flag_on_four_elements_matches_the_reference():
    kinds = Counter(
        assert_same_search(fm, p) for n in range(5) for fm in all_flags(n) for p in (2, 3)
    )
    assert kinds["rep"] and kinds[None] and kinds["refused"]


def seeded_prefix_flags(seed, count, max_n=9):
    """Prefix-chain flags of random GF(2/3/5/7) matrices: random levels, with
    gaps between them and sometimes a level-0 bottom."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = rng.choice((2, 3, 5, 7))
        n = rng.randint(2, max_n)
        r = rng.randint(1, min(n, 5))
        a = random_prefix_chain_matrix(rng, p, r, n)
        if a is None:
            continue
        pool = list(range(r))
        levels = sorted(rng.sample(pool, rng.randint(0, len(pool)))) + [r]
        out.append(rp.flag_from_matrix(a, levels))
    return out


def test_seeded_prefix_flags_match_the_reference():
    kinds = Counter(
        assert_same_search(fm, p) for fm in seeded_prefix_flags(4096, 200) for p in (2, 3)
    )
    assert kinds["rep"] and kinds[None] and kinds["refused"]


def test_gf5_and_gf7_verdicts_match_the_column_backtracker():
    """Wherever the column backtracker answers, the walk gives its verdict.
    On flags on <= 4 elements the walk answers where it refused as well;
    elsewhere a refused flag may exhaust the walk's budget."""
    small = [fm for n in range(5) for fm in all_flags(n)]
    pairs = [fl.from_sequence([mc.uniform(1, n), mc.uniform(2, n)]) for n in range(3, 8)]
    kinds = Counter()
    for fm in small + pairs + seeded_prefix_flags(4096, 200):
        for p in (5, 7):
            want = outcome(reference_search_columns, fm, p)
            kinds[kind(want)] += 1
            if want == "refused":
                if fm.n <= 4:
                    got = outcome(rp.search_representation, fm, p)
                    assert got is None or isinstance(got, tuple)
            else:
                got = outcome(rp.search_representation, fm, p)
                assert isinstance(got, tuple) if want else got is None
    assert kinds["rep"] and kinds[None] and kinds["refused"]


def test_binary_full_flags_check_one_band_per_layer(monkeypatch):
    """A GF(2) band is fixed by its pivots, and the first pivot choice that
    the rule keeps is the RREF pivot set of the next layer's band, so each
    later layer is checked once.  The first check is `matroid_representation`
    testing the bottom layer's candidate.  The search's final check,
    `represents`, then checks the result once per level."""
    calls = []
    level_matches = rp._level_matches

    def counted(a, layer):
        calls.append(layer.rank)
        return level_matches(a, layer)

    monkeypatch.setattr(rp, "_level_matches", counted)
    rng = random.Random(2718)
    for _ in range(40):
        n = rng.randint(3, 12)
        r = rng.randint(2, min(n, 6))
        a = random_prefix_chain_matrix(rng, 2, r, n)
        if a is None:
            continue
        levels = list(range(1, r + 1))
        calls.clear()
        rep = rp.search_representation(rp.flag_from_matrix(a, levels), 2)
        assert rep is not None and rep.levels == tuple(levels)
        assert calls == levels + levels


def unpruned_rref_bands(cur, nxt):
    """`rp._rref_bands` as it was before the 2x2 rule: pivot choices and
    cells are pruned only by the bases that one swap reaches."""
    p, n = cur.p, cur.cols
    g = nxt.rank - cur.rows
    bases = nxt.basis_set
    _, lead = gl.rref(cur)
    positions = [j for j in range(n) if j not in lead]
    zero = {j for j, e in enumerate(positions) if not any(cur.col(e))}
    pivot_mask = mask_of(lead)
    for pivots in combinations(range(len(positions)), g):
        full = pivot_mask | mask_of(positions[j] for j in pivots)
        if full not in bases:
            continue
        nonzero = {
            (i, j): full ^ 1 << positions[pivots[i]] | 1 << positions[j] in bases
            for i in range(g)
            for j in range(len(positions))
            if j not in pivots
        }
        if any(nz for (i, j), nz in nonzero.items() if j < pivots[i]):
            continue
        free_cells = [(i, j) for i, j in nonzero if j > pivots[i]]
        first = {}
        for i, j in free_cells:
            if nonzero[i, j] and j in zero:
                first.setdefault(j, i)
        choices = [
            ((1,) if first.get(j) == i else range(1, p)) if nonzero[i, j] else (0,)
            for i, j in free_cells
        ]
        band = [0] * (g * n)
        for i in range(g):
            band[i * n + positions[pivots[i]]] = 1
        cells = [i * n + positions[j] for i, j in free_cells]
        for values in product(*choices):
            for k, v in zip(cells, values):
                band[k] = v
            yield gl.GFMatrix(cur.field, cur.rows + g, n, cur.entries + tuple(band))


def test_the_2x2_rule_drops_only_bands_that_fail(monkeypatch):
    """On every band call of the walk with a gap of 2 or more rows, on
    seeded prefix flags over GF(3), GF(5) and GF(7), the pruned sequence is the unpruned one less bands that `_level_matches`
    rejects, in the same order.  Both sequences are cut after `limit`
    bands; a kept band comes no later in the pruned sequence than in the
    unpruned one, so the cut prefixes still determine each other."""
    calls, real = [], rp._rref_bands

    def recorded(cur, nxt):
        calls.append((cur, nxt))
        return real(cur, nxt)

    monkeypatch.setattr(rp, "_rref_bands", recorded)
    limit = 2000
    for p in (3, 5, 7):
        calls.clear()
        for fm in seeded_prefix_flags(p, 80, max_n=7):
            try:
                rp.search_representation(fm, p, budget=300)
            except BudgetExhausted:
                pass
        pairs = [(cur, nxt) for cur, nxt in calls if nxt.rank - cur.rows >= 2]
        unpruned_total = pruned_total = 0
        for cur, nxt in pairs:
            unpruned = list(islice(unpruned_rref_bands(cur, nxt), limit))
            pruned = list(islice(real(cur, nxt), limit))
            kept = set(pruned)
            survivors = [band for band in unpruned if band in kept]
            assert survivors == pruned[: len(survivors)]
            if len(unpruned) < limit:
                assert survivors == pruned
            assert not any(rp._level_matches(band, nxt) for band in unpruned if band not in kept)
            unpruned_total += len(unpruned)
            pruned_total += len(pruned)
        assert len(pairs) >= 10 and pruned_total < unpruned_total, p


def standard_flag(q, n, r, levels, seed):
    """The flag of [I_r | A] over GF(q), A drawn row by row."""
    rng = random.Random(seed)
    a = [[rng.randrange(q) for _ in range(n - r)] for _ in range(r)]
    rows = [[int(i == j) for j in range(r)] + a[i] for i in range(r)]
    return rp.flag_from_matrix(gl.matrix(q, rows), levels)


def test_wide_gaps_are_decided_within_the_default_budget():
    """Without the 2x2 rule the GF(3) bands of these gaps number 32,768
    (both flags) and 262,144 ((U_{1,12}, U_{3,12})), past the default
    budget of 10,000."""
    def bands(fm, p):
        cur = rp.matroid_representation(fm.layers[0], p)
        return sum(1 for _ in rp._rref_bands(cur, fm.layers[1]))

    binary = standard_flag(2, 16, 5, (2, 5), 1)
    ternary = standard_flag(3, 12, 4, (1, 4), 2)
    uniform = fl.from_sequence([mc.uniform(1, 12), mc.uniform(3, 12)])
    assert (bands(binary, 3), bands(ternary, 3), bands(uniform, 3)) == (256, 64, 0)
    assert rp.decide(binary, 3).representable is False
    assert rp.is_representable_via_fillings(binary, 3).representable is False
    yes = rp.decide(ternary, 3)
    assert yes.representable and rp.represents(yes.certificate, ternary)
    assert rp.decide(uniform, 3).representable is False
