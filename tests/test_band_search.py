"""Differential and count tests for the GF(2)/GF(3) level-wise search.

`representability._search_levelwise` extends the representation of one
layer to the next by a band of new rows in RREF, and `_rref_bands` builds
only the bands that the next layer's bases allow: a band pivot choice must
complete cur's pivots to a basis, and a cell is nonzero iff swapping its
column for its row's pivot gives a basis.  The reference below is the loop
it replaced, which tries every RREF band in the same order.  The bands kept
are a subsequence of the reference's and every band dropped fails
`_level_matches`, so `search_representation` must return exactly what the
reference returns: the same matrix and levels, None, or the same
exception.
"""

import random
from collections import Counter
from itertools import combinations, product

from conftest import all_flags, random_prefix_chain_matrix
from flagmatroids import gf_linalg as gl
from flagmatroids import representability as rp
from flagmatroids.errors import Error, SearchSpaceTooLarge


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
        _, pivots, _ = gl.rref(cur)
        positions = [j for j in range(n) if j not in pivots]
        if p ** (g * len(positions)) > 1 << 22:
            raise SearchSpaceTooLarge(f"band space too large at rank {target}")
        found = None
        for band in reference_rref_bands(p, positions, g, n):
            cand = gl.vstack(cur, gl.matrix(p, [list(r) for r in band], cols=n))
            if rp._level_matches(cand, target, nxt):
                found = cand
                break
        if found is None:
            return None
        cur = found
    return rp.FlagRepresentation(cur, tuple(ranks))


def outcome(search, fm, p):
    """A comparable summary: (entries, levels), None, or the exception type."""
    try:
        rep = search(fm, p)
    except Error as exc:
        return type(exc)
    return None if rep is None else (rep.matrix.entries, rep.levels)


def assert_same_search(fm, p):
    got = outcome(rp.search_representation, fm, p)
    assert got == outcome(reference_search_levelwise, fm, p)
    return got


def kind(got):
    return "rep" if isinstance(got, tuple) else got


def test_every_flag_on_four_elements_matches_the_reference():
    kinds = Counter(
        kind(assert_same_search(fm, p)) for n in range(5) for fm in all_flags(n) for p in (2, 3)
    )
    assert kinds["rep"] and kinds[None]


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
        kind(assert_same_search(fm, p)) for fm in seeded_prefix_flags(4096, 200) for p in (2, 3)
    )
    assert kinds["rep"] and kinds[None] and kinds[SearchSpaceTooLarge]


def test_binary_full_flags_check_one_band_per_layer(monkeypatch):
    """A GF(2) band is fixed by its pivots, and the first pivot choice that
    the rule keeps is the RREF pivot set of the next layer's band, so each
    later layer is checked once.  The first check is `matroid_representation`
    testing the bottom layer's candidate.  The search's final check,
    `represents`, then checks the result once per level."""
    calls = []
    level_matches = rp._level_matches

    def counted(a, level, layer):
        calls.append(level)
        return level_matches(a, level, layer)

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
