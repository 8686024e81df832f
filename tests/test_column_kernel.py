"""Differential tests for the column elimination kernel and the exchange test.

`linear_matroid` and `representability._level_matches` enumerate column
bases with `gf_linalg.column_bases`, and `basis_exchange_witness` tests each
(B1, B2, x) with one AND against precomputed exchange masks.  The reference
implementations below are the plain loops they replaced: a rank
computation per column subset, a nonsingularity check per square minor, and
the pairwise search for an exchange element.  The fast versions must return
exactly what they return, witnesses included.  Hypothesis settings come
from the `tier1` profile in conftest.py.
"""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gf_matrices, oracle_rank_mod_p
from flagmatroids import gf_linalg as gl
from flagmatroids import matroid_core as mc
from flagmatroids import representability as rp
from flagmatroids.bitset import iter_bits, mask_of, set_key, size_masks


def reference_linear_matroid(a):
    r = gl.rank(a)
    bases = [
        mask_of(cols)
        for cols in combinations(range(a.cols), r)
        if gl.rank(gl.select_cols(a, cols)) == r
    ]
    return mc.Matroid(a.cols, tuple(sorted(bases, key=set_key)))


def reference_level_matches(a, level, layer):
    bases = layer.basis_set
    for cols in combinations(range(a.cols), level):
        sub = gl.select_cols(gl.prefix_rows(a, level), cols)
        if gl.is_nonsingular(sub) != (mask_of(cols) in bases):
            return False
    return True


def reference_basis_exchange_witness(masks):
    fam = list(masks)
    fam_set = set(fam)
    for b1 in fam:
        for b2 in fam:
            if b1 == b2:
                continue
            for x in iter_bits(b1 & ~b2):
                base = b1 ^ (1 << x)
                if not any(base | (1 << y) in fam_set for y in iter_bits(b2 & ~b1)):
                    return (b1, b2, x)
    return None


@settings(max_examples=150)
@given(gf_matrices())
def test_linear_matroid_matches_reference(a):
    assert mc.linear_matroid(a) == reference_linear_matroid(a)


@settings(max_examples=100)
@given(gf_matrices(max_n=7))
def test_column_bases_match_reference_at_every_size(a):
    for k in range(a.rows + 2):
        want = [
            mask_of(cols)
            for cols in combinations(range(a.cols), k)
            if oracle_rank_mod_p([[a.at(i, j) for j in cols] for i in range(a.rows)], a.p) == k
        ]
        assert list(gl.column_bases(a, k)) == want


@settings(max_examples=100)
@given(gf_matrices(), st.data())
def test_independent_columns_matches_rank(a, data):
    cols = data.draw(st.lists(st.integers(0, a.cols - 1), max_size=a.rows + 1))
    vectors = [a.col(j) for j in cols]
    want = oracle_rank_mod_p([[a.at(i, j) for j in cols] for i in range(a.rows)], a.p)
    assert gl.independent_columns(a.p, vectors) == (want == len(cols))


def _near_families(layer):
    """`layer` and rank-preserving changes of it: one basis dropped, one
    non-basis added, one swapped, and the uniform family."""
    n, r = layer.n, layer.rank
    bases = list(layer.bases)
    others = [s for s in size_masks(n, r) if s not in layer.basis_set]
    fams = [bases, size_masks(n, r)]
    if len(bases) > 1:
        fams += [bases[:-1], bases[1:]]
    if others:
        fams += [bases + others[:1], bases[1:] + others[-1:]]
    return [mc.Matroid(n, tuple(sorted(f, key=set_key))) for f in fams]


@settings(max_examples=150)
@given(gf_matrices(), st.data())
def test_level_matches_matches_reference(a, data):
    level = data.draw(st.integers(0, min(a.rows, a.cols)))
    own = reference_linear_matroid(gl.prefix_rows(a, level))
    if own.rank == level:
        assert rp._level_matches(a, level, own)
    else:
        own = mc.uniform(level, a.cols)
    for layer in _near_families(own):
        assert rp._level_matches(a, level, layer) == reference_level_matches(a, level, layer)


@settings(max_examples=300)
@given(st.data())
def test_exchange_witness_matches_reference_on_random_families(data):
    n = data.draw(st.integers(0, 7))
    r = data.draw(st.integers(0, n))
    pool = size_masks(n, r)
    picks = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12, unique=True))
    assert mc.basis_exchange_witness(picks) == reference_basis_exchange_witness(picks)


def test_exchange_witness_matches_reference_on_every_family_of_5_elements():
    matroids = 0
    for n in range(6):
        for r in range(n + 1):
            pool = size_masks(n, r)
            for pick in range(1, 1 << len(pool)):
                fam = [pool[i] for i in range(len(pool)) if pick >> i & 1]
                got = mc.basis_exchange_witness(fam)
                assert got == reference_basis_exchange_witness(fam)
                assert mc.basis_exchange_witness(fam[::-1]) == (
                    reference_basis_exchange_witness(fam[::-1])
                )
                matroids += n == 5 and got is None
    assert matroids == 406
