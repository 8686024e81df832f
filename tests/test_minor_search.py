"""Differential tests for the minor search.

`flag_has_minor` screens each (contract, delete) split by counting before
it builds a minor, and `has_minor_isomorphic_to` runs it on the one-layer
basis flags of two matroids.  The reference implementations below are the
plain loops that build and compare every candidate minor, flag minors for
the one and matroid minors of independent contraction sets for the other;
the searches must return exactly what they return, witness included.
Hypothesis settings come from the `tier1` profile in conftest.py.
"""

from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import all_flags
from flagmatroids import flag_core as fl
from flagmatroids import gf_linalg as gl
from flagmatroids import matroid_core as mc
from flagmatroids import representability as rp
from flagmatroids.bitset import mask_of
from flagmatroids.errors import EmptyResult, LastLayer

def reference_flag_has_minor(fm, target):
    total = fm.n - target.n
    if total < 0:
        return None
    want_cards = target.cardinalities
    for c_size in range(total + 1):
        for c in combinations(range(fm.n), c_size):
            cmask = mask_of(c)
            rest = [e for e in range(fm.n) if not cmask >> e & 1]
            for d in combinations(rest, total - c_size):
                try:
                    cand = fl.flag_minor(fm, cmask, mask_of(d))
                except EmptyResult:
                    continue
                cards = cand.cardinalities
                if not set(want_cards) <= set(cards):
                    continue
                chops = tuple(s for s in cards if s not in want_cards)
                try:
                    for s in chops:
                        cand = fl.chop(cand, s)
                except LastLayer:
                    continue
                bij = fl.flag_isomorphic(cand, target)
                if bij is not None:
                    return (c, d, chops, bij)
    return None


def reference_has_minor_isomorphic_to(m, target):
    dr = m.rank - target.rank
    extra = m.n - target.n
    dd = extra - dr
    if dr < 0 or dd < 0:
        return None
    if m.n - m.rank < target.n - target.rank:
        return None
    ind = m.independent_table
    target_bases = len(target.bases)
    for c in combinations(range(m.n), dr):
        cmask = mask_of(c)
        if not ind[cmask]:
            continue
        rest = [e for e in range(m.n) if not cmask >> e & 1]
        for d in combinations(rest, dd):
            cand = mc.minor(m, cmask, mask_of(d))
            if cand.rank != target.rank or len(cand.bases) != target_bases:
                continue
            bij = mc.is_isomorphic(cand, target)
            if bij is not None:
                return (c, d, bij)
    return None


FLAG_TARGETS = [t for _, t in rp.binary_forbidden_flags() + rp.ternary_forbidden_flags()]
MATROID_TARGETS = list(mc._ternary_excluded() + mc._graphic_excluded())


@st.composite
def prefix_full_matrices(draw, max_n=8):
    """A matrix over GF(2), GF(3) or GF(5) whose every row prefix has full
    rank; n = 4..max_n columns."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(4, max_n))
    r = draw(st.integers(1, min(4, n - 1)))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
            min_size=r, max_size=r,
        )
    )
    a = gl.matrix(p, rows, cols=n)
    assume(all(gl.rank(gl.prefix_rows(a, d)) == d for d in range(1, r + 1)))
    return a


def prefix_chain_flag(a):
    return fl.from_sequence(
        [mc.linear_matroid(gl.prefix_rows(a, d)) for d in range(1, a.rows + 1)]
    )


@settings(max_examples=60)
@given(prefix_full_matrices())
def test_flag_search_matches_reference_on_prefix_chains(a):
    fm = prefix_chain_flag(a)
    for target in FLAG_TARGETS:
        assert fl.flag_has_minor(fm, target) == reference_flag_has_minor(fm, target)


@settings(max_examples=80)
@given(prefix_full_matrices(max_n=10))
def test_matroid_search_matches_reference_on_linear_matroids(a):
    m = mc.linear_matroid(a)
    for target in MATROID_TARGETS:
        assert mc.has_minor_isomorphic_to(m, target) == reference_has_minor_isomorphic_to(
            m, target
        )


def test_flag_search_matches_reference_on_every_flag_of_4_elements():
    flags = all_flags(4)
    assert len(flags) == 3319
    targets = [t for t in FLAG_TARGETS if t.n <= 4]
    assert len(targets) == 4
    hits = 0
    for fm in flags:
        for target in targets:
            got = fl.flag_has_minor(fm, target)
            assert got == reference_flag_has_minor(fm, target)
            hits += got is not None
    assert hits > 0


def test_matroid_search_matches_reference_on_every_matroid_of_5_elements():
    targets = [t for t in MATROID_TARGETS if t.n <= 5]
    hits = 0
    for m in mc.enumerate_matroids(5):
        for target in targets:
            got = mc.has_minor_isomorphic_to(m, target)
            assert got == reference_has_minor_isomorphic_to(m, target)
            hits += got is not None
    assert hits > 0


@pytest.mark.parametrize("name, target", rp.ternary_forbidden_flags())
def test_flag_search_finds_each_forbidden_flag_in_itself(name, target):
    hit = fl.flag_has_minor(target, target)
    assert hit == reference_flag_has_minor(target, target)
    c, d, chops, bij = hit
    assert (c, d, chops) == ((), (), ())
    assert fl.relabel_flag(target, bij) == target
