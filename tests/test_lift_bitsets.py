"""Differential tests for the lift tests on `Matroid`.

`is_lift` reads `flat_bits`, `coflat_bits`, `moved_bits` and
`fundamental_circuits`, and `mc.first_unlifted` on the `flat_bits` of the
checked matroids that `flag_core._layer_check` memoizes for each layer
gives a flag's lift witness.
The "bases" method runs `flag_core._unlifted_basis` on the fundamental
circuit rows cached on both matroids; the memoized `_axiom2_witness` runs
the same kernel on rows built for its raw layers by
`matroid_core.fundamental_circuits`, so one kernel serves the lift test and
axiom 2 of `check_flag_axioms`, and each G inside F costs one AND.  The
references below are the loops these replaced: one closure per subset for
the "flats" and "closures" methods, the "duals" method run on two freshly
built dual matroids, the per-subset lift witness, the flats
comprehension, and the basis-exchange loop that rebuilds both fundamental
circuits for every (F, e, G), which checks both the lift test and the
memoized `_axiom2_witness`.  The rows themselves are checked against the
unique circuit of `matroid_core.circuits` inside B + e.  The library must
return exactly what the references return, witnesses included.
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
from flagmatroids.bitset import elements_of, iter_bits, mask_of


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
    return tuple(sorted(out, key=elements_of))


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
    lift_bases, quot_bases = lift.basis_set, quot.basis_set
    for b in lift.bases:
        for e in iter_bits(full & ~b):
            upper = fset(lift_bases, b, e)
            if not any(
                fset(quot_bases, bq, e) & ~upper == 0
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
    lower = fl._layer_check(n, quot.bases)[1].flat_bits
    upper = fl._layer_check(n, lift.bases)[1].flat_bits
    assert mc.first_unlifted(lower, upper) == reference_lift_witness(n, quot.bases, lift.bases)
    by_bases = reference_by_bases(n, lift, quot)
    assert fl._axiom2_witness(n, quot.bases, lift.bases) == (
        None if by_bases is None else (mask_of(by_bases[1]), by_bases[2])
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
        subsets = range(1 << m.n)
        assert [mc.closure(m, s) for s in subsets] == [reference_closure(m, s) for s in subsets]
        assert m.fundamental_circuits == reference_fundamental_circuits(m)


def reference_fundamental_circuits(m):
    """Per basis B, C(B, e) as the one circuit inside B + e; empty for e in B."""
    circuits = mc.circuits(m)
    rows = []
    for b in m.bases:
        row = [0] * m.n
        for e in range(m.n):
            if not b >> e & 1:
                (row[e],) = [c for c in circuits if not c & ~(b | 1 << e)]
        rows.append(tuple(row))
    return tuple(rows)


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
