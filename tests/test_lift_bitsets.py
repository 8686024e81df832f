"""Differential tests for the flat bitsets cached on `Matroid`.

`is_lift` reads `flat_bits`, `coflat_bits` and `closure_table`, and
`flag_core._lift_witness` reads `flat_bits`.  The references below are the
loops they replaced: one closure per subset for the "flats" and "closures"
methods, the "duals" method run on two freshly built dual matroids, the
per-subset `_lift_witness`, and the flats comprehension.  The cached
versions must return exactly what they return, witnesses included.
Hypothesis settings come from the `tier1` profile in conftest.py.
"""

import random
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from flagmatroids import flag_core as fl
from flagmatroids import gf_linalg as gl
from flagmatroids import lifts_majors as lm
from flagmatroids import matroid_core as mc
from flagmatroids.bitset import elements_of, iter_bits, set_key


def reference_closure(m, mask):
    table = m.rank_table
    r = table[mask]
    out = mask
    for e in range(m.n):
        bit = 1 << e
        if not mask & bit and table[mask | bit] == r:
            out |= bit
    return out


def reference_flats(m):
    out = [s for s in range(1 << m.n) if reference_closure(m, s) == s]
    return tuple(sorted(out, key=set_key))


def reference_by_flats(n, lift, quot):
    for mask in range(1 << n):
        if reference_closure(quot, mask) == mask and reference_closure(lift, mask) != mask:
            return ("flat", elements_of(mask))
    return None


def reference_by_closures(n, lift, quot):
    for mask in range(1 << n):
        if reference_closure(lift, mask) & ~reference_closure(quot, mask):
            return ("subset", elements_of(mask))
    return None


def reference_by_bases(n, lift, quot):
    def fset(bases, base, e):
        be = base | (1 << e)
        return sum(1 << f for f in iter_bits(be) if be ^ (1 << f) in bases)

    full = (1 << n) - 1
    for b in lift.bases:
        for e in iter_bits(full & ~b):
            upper = fset(lift.basis_set, b, e)
            if not any(
                fset(quot.basis_set, bq, e) & ~upper == 0
                for bq in quot.bases
                if not bq & ~b
            ):
                return ("basis", elements_of(b), e)
    return None


def reference_is_lift(lift, quot, method):
    n = lift.n
    if method == "flats":
        w = reference_by_flats(n, lift, quot)
    elif method == "duals":
        w = reference_by_flats(n, mc.dual(quot), mc.dual(lift))
    elif method == "closures":
        w = reference_by_closures(n, lift, quot)
    else:
        w = reference_by_bases(n, lift, quot)
    return lm.LiftResult(w is None, method, w)


def reference_lift_witness(n, lower, upper):
    low = mc.Matroid(n, lower)
    up = mc.Matroid(n, upper)
    for mask in range(1 << n):
        if reference_closure(low, mask) == mask and reference_closure(up, mask) != mask:
            return mask
    return None


def assert_pair_matches(lift, quot):
    # fresh objects, so no cached table is shared with an earlier pair
    lift, quot = mc.Matroid(lift.n, lift.bases), mc.Matroid(quot.n, quot.bases)
    for method in lm.LIFT_METHODS:
        assert lm.is_lift(lift, quot, method) == reference_is_lift(lift, quot, method), method
    n = lift.n
    assert fl._lift_witness(n, quot.bases, lift.bases) == reference_lift_witness(
        n, quot.bases, lift.bases
    )


@lru_cache(maxsize=None)
def matroids_on(n):
    return tuple(mc.enumerate_matroids(n))


def test_every_pair_on_4_elements():
    pool = matroids_on(4)
    assert len(pool) == 68
    for lift in pool:
        for quot in pool:
            assert_pair_matches(lift, quot)


def test_seeded_rows_on_5_elements():
    pool = matroids_on(5)
    assert len(pool) == 406
    rng = random.Random(4)
    for row in rng.sample(range(len(pool)), 25):
        for quot in pool:
            assert_pair_matches(pool[row], quot)


def test_cached_tables_match_references_on_5_elements():
    for m in matroids_on(4) + matroids_on(5):
        assert m.flats == reference_flats(m)
        assert m.coflat_bits == mc.dual(m).flat_bits
        assert m.closure_table == [reference_closure(m, s) for s in range(1 << m.n)]


@st.composite
def prefix_chain_pairs(draw):
    """Column matroids of two row prefixes of one matrix over GF(2/3/5),
    n <= 8.  The shorter prefix gives a quotient of the longer one, so the
    pair is a lift pair in one order and usually not in the other."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 8))
    rows = draw(st.integers(1, min(n, 5)))
    entries = draw(st.lists(st.integers(0, p - 1), min_size=rows * n, max_size=rows * n))
    a = gl.matrix(p, [entries[i * n:(i + 1) * n] for i in range(rows)])
    d1 = draw(st.integers(0, rows))
    d2 = draw(st.integers(d1, rows))
    quot = mc.linear_matroid(gl.prefix_rows(a, d1))
    lift = mc.linear_matroid(gl.prefix_rows(a, d2))
    return lift, quot


@settings(max_examples=120)
@given(prefix_chain_pairs())
def test_prefix_chain_pairs_match_references(pair):
    lift, quot = pair
    assert lm.is_lift(lift, quot).ok
    assert_pair_matches(lift, quot)
    assert_pair_matches(quot, lift)
    for m in pair:
        fresh = mc.Matroid(m.n, m.bases)
        assert fresh.flats == reference_flats(fresh)
