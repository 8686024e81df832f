"""Differential tests for the column elimination kernel and the exchange test.

`linear_matroid` and `representability._level_matches` enumerate column
bases with `gf_linalg.column_bases`, and `basis_exchange_witness` tests each
(B1, B2, x) with one AND against precomputed exchange masks.  The reference
implementations below are the plain loops they replaced: a rank
computation per column subset, a nonsingularity check per square minor, and
the pairwise search for an exchange element.  `column_bases` itself is also
checked against the DFS it replaced, which reduces every candidate column
against the taken ones with `_absorb`; it must yield the same masks in the
same order.  `representability.represents` must agree with comparing the
represented flag.  The fast versions must return exactly what they return,
witnesses included.  Hypothesis settings come from the `tier1` profile in
conftest.py.
"""

import random
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gf_matrices, oracle_rank_mod_p, random_representation
from flagmatroids import flag_core as fl
from flagmatroids import gf_linalg as gl
from flagmatroids import matroid_core as mc
from flagmatroids import representability as rp
from flagmatroids.bitset import elements_of, iter_bits, mask_of, size_masks
from flagmatroids.errors import RankDeficientPrefix


def reference_linear_matroid(a):
    r = gl.rank(a)
    bases = [
        mask_of(cols)
        for cols in combinations(range(a.cols), r)
        if gl.rank(gl.select_cols(a, cols)) == r
    ]
    return mc.Matroid(a.cols, tuple(sorted(bases, key=elements_of)))


def reference_column_bases(a, r):
    """The DFS that `column_bases` replaced: the taken columns are kept as
    (pivot, vector) pairs and each candidate column is reduced against all
    of them."""
    p, n = a.p, a.cols
    cols = [a.entries[j::n] for j in range(n)]
    basis = []

    def walk(start, mask):
        need = r - len(basis)
        if need == 0:
            yield mask
            return
        for j in range(start, n - need + 1):
            if gl._absorb(basis, cols[j], p):
                yield from walk(j + 1, mask | 1 << j)
                basis.pop()

    return walk(0, 0)


@st.composite
def kernel_matrices(draw):
    """`gf_matrices` plus up to two inserted rows, each zero or a nonzero
    multiple of a row already there."""
    a = draw(gf_matrices())
    p, rows = a.p, a.row_lists()
    for _ in range(draw(st.integers(0, 2))):
        if rows and draw(st.booleans()):
            src = draw(st.sampled_from(rows))
            scale = draw(st.integers(1, p - 1))
            row = [x * scale % p for x in src]
        else:
            row = [0] * a.cols
        rows.insert(draw(st.integers(0, len(rows))), row)
    return gl.matrix(p, rows, cols=a.cols)


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


@settings(max_examples=300)
@given(kernel_matrices())
def test_column_bases_yield_what_the_absorb_dfs_yields(a):
    for r in range(a.rows + 2):
        got = gl.column_bases(a, r)
        assert iter(got) is got
        assert list(got) == list(reference_column_bases(a, r))


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
    return [mc.Matroid(n, tuple(sorted(f, key=elements_of))) for f in fams]


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


def _flags_near(rep):
    """(kind, flag, a representation of it or None) for rep's own flag and
    flags that differ from it in one layer, in n, or in the levels (a level
    chopped, the top one too, or a level-0 bottom added or removed)."""
    a, levels = rep.matrix, rep.levels
    p, rows, n = a.p, a.rows, a.cols
    own = rp.represented_flag(rep)
    near = [("own", own, rep)]
    # adding a row of the next band to the last row of a band changes at most
    # that band's layer; changing the top row changes at most the top layer
    for i, d in enumerate(levels):
        if d == (levels[i - 1] if i else 0):
            continue
        rows2 = a.row_lists()
        if i + 1 < len(levels):
            rows2[d - 1] = [(x + y) % p for x, y in zip(rows2[d - 1], rows2[d])]
        else:
            rows2[d - 1] = [(x + j + 1) % p for j, x in enumerate(rows2[d - 1])]
        try:
            other = rp.FlagRepresentation(gl.matrix(p, rows2, cols=n), levels)
        except RankDeficientPrefix:
            continue
        near.append(("layer", rp.represented_flag(other), other))
    # an appended loop keeps every basis mask; only n differs
    with_loop = rp.FlagRepresentation(
        gl.matrix(p, [row + [0] for row in a.row_lists()], cols=n + 1), levels
    )
    near.append(("n", rp.represented_flag(with_loop), with_loop))
    try:
        near.append(("n", fl.flag_delete(own, n - 1), None))
    except fl.EmptyResult:
        pass
    if len(levels) > 1:
        for d in levels[:-1]:
            near.append(("levels", fl.chop(own, d), None))
        # without its top level, rep's flag is a prefix of own's levels
        lower = rp.FlagRepresentation(gl.prefix_rows(a, levels[-2]), levels[:-1])
        near.append(("levels", fl.chop(own, levels[-1]), lower))
    toggled = levels[1:] if levels[0] == 0 else (0,) + levels
    other = rp.FlagRepresentation(gl.prefix_rows(a, rows), toggled)
    near.append(("levels", rp.represented_flag(other), other))
    return near


def test_represents_agrees_with_comparing_the_represented_flag():
    """Every representation among the near flags is checked against every
    near flag; each kind of difference from rep's own flag must occur."""
    told_apart = {"layer": 0, "n": 0, "levels": 0}
    for seed in range(150):
        rng = random.Random(seed)
        rep = random_representation(rng, rng.choice([2, 3, 5, 7]), max_n=7)
        if seed % 3 == 0:
            rep = rp.FlagRepresentation(rep.matrix, (0,) + rep.levels)
        near = _flags_near(rep)
        own = near[0][1]
        for kind, fm, _ in near[1:]:
            if fm != own:
                told_apart[kind] += 1
                if kind == "layer":
                    assert sum(x != y for x, y in zip(own.layers, fm.layers)) == 1
        for r in (r for _, _, r in near if r is not None):
            for _, fm, _ in near:
                assert rp.represents(r, fm) == (rp.represented_flag(r) == fm)
    assert min(told_apart.values()) >= 100, told_apart
