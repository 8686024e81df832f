"""Differential tests for the column elimination kernel and the exchange test.

`linear_matroid` and `representability._level_matches` enumerate column
bases with `gf_linalg.column_bases`, and `basis_exchange_witness` tests each
(B1, B2, x) with one AND against precomputed exchange masks.  The reference
implementations below are the plain loops they replaced: a rank
computation per column subset, a nonsingularity check per square minor, and
the pairwise search for an exchange element.  `column_bases` itself is also
checked against the DFS it replaced, which reduces every candidate column
against the taken ones with `_absorb`; it must yield the same masks in the
same order.  It lists the column sets as large as the row count, the only
size its callers ask for.  That holds on both of its paths: the DFS, and
the hyperplane pass that a GF(2)/GF(3) matrix takes when
`gl._hyperplanes_pay` says so, which is checked on every such shape up to
12 columns, on the 20-column matrix of the CI smoke run, on shapes either
side of the selection rule, and through `_level_matches` on GF(3) bands
that it must reject.  `representability.represents` must agree with
comparing the represented flag.  The fast versions must return exactly
what they return, witnesses included.  Hypothesis settings come from the
`tier1` profile in conftest.py.
"""

import random
from collections import Counter
from itertools import combinations, islice

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    gf_matrices,
    oracle_rank_mod_p,
    random_prefix_chain_matrix,
    random_representation,
)
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
def test_column_bases_match_reference_at_the_row_count(a):
    k = a.rows
    want = [
        mask_of(cols)
        for cols in combinations(range(a.cols), k)
        if oracle_rank_mod_p([[a.at(i, j) for j in cols] for i in range(a.rows)], a.p) == k
    ]
    assert list(gl.column_bases(a)) == want


@settings(max_examples=300)
@given(kernel_matrices())
def test_column_bases_yield_what_the_absorb_dfs_yields(a):
    got = gl.column_bases(a)
    assert iter(got) is got
    assert list(got) == list(reference_column_bases(a, a.rows))


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
        assert rp._level_matches(a, own)
    else:
        own = mc.uniform(level, a.cols)
    for layer in _near_families(own):
        assert rp._level_matches(a, layer) == reference_level_matches(a, level, layer)


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


# --- the hyperplane path of column_bases ---------------------------------------

# [I_10 | A] over GF(2), the `m20.json` of the CI smoke run
M20 = [
    [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 1, 1, 0, 0],
    [0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 1, 1, 1],
    [0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 1],
    [0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1],
    [0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 1, 0, 0, 1, 0, 0, 1, 1],
    [0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 1, 1, 0],
]


def _variant(rng, p, r, n, kind):
    """A random r x n matrix over GF(p), changed as `kind` says: "zero"
    clears one or two columns, "parallel" makes a column a nonzero multiple
    of another, "dependent" makes a row a combination of the others."""
    rows = [[rng.randrange(p) for _ in range(n)] for _ in range(r)]
    if kind == "zero":
        for j in rng.sample(range(n), min(n, rng.randint(1, 2))):
            for row in rows:
                row[j] = 0
    elif kind == "parallel" and n > 1:
        j, k = rng.sample(range(n), 2)
        c = rng.randrange(1, p)
        for row in rows:
            row[k] = row[j] * c % p
    elif kind == "dependent":
        i = rng.randrange(r)
        coeffs = [rng.randrange(p) for _ in range(r)]
        rows[i] = [
            sum(c * row[j] for c, row in zip(coeffs, rows) if row is not rows[i]) % p
            for j in range(n)
        ]
    return gl.matrix(p, rows, cols=n)


def _assert_both_paths_match_the_reference(a):
    r = a.rows
    want = list(reference_column_bases(a, r))
    got = gl.column_bases(a)
    assert iter(got) is got
    assert list(got) == want
    assert gl._hyperplane_bases(a.p, a.cols, [a.row(i) for i in range(r)]) == want
    return want


def test_hyperplane_path_matches_the_reference_on_every_small_shape():
    """Every GF(2)/GF(3) shape with 3 <= r <= 7 and r <= n <= 12, r = n
    included, with zero columns, parallel columns and dependent rows.  Both
    sides of the selection rule occur, so `column_bases` runs both paths,
    and the hyperplane pass is also run directly on every shape."""
    rng = random.Random(2024)
    sides = Counter()
    for p in (2, 3):
        for r in range(3, 8):
            for n in range(r, 13):
                sides[gl._hyperplanes_pay(p, n, r)] += 1
                for kind in ("plain", "zero", "parallel", "dependent"):
                    a = _variant(rng, p, r, n, kind)
                    want = _assert_both_paths_match_the_reference(a)
                    if gl.rank(a) < r:
                        assert want == []
    assert sides[True] >= 40 and sides[False] >= 10, sides


@settings(max_examples=200)
@given(st.sampled_from([2, 3]), st.integers(3, 7), st.data())
def test_hyperplane_path_matches_the_reference_on_drawn_matrices(p, r, data):
    n = data.draw(st.integers(r, 12))
    kind = data.draw(st.sampled_from(["plain", "zero", "parallel", "dependent"]))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    _assert_both_paths_match_the_reference(_variant(rng, p, r, n, kind))


def test_dependent_rows_yield_nothing_on_the_hyperplane_path():
    a = gl.matrix(2, M20[:5] + [[(x + y) % 2 for x, y in zip(M20[0], M20[1])]])
    assert gl._hyperplanes_pay(2, 20, 6)
    assert list(gl.column_bases(a)) == []
    top = [[1, 0, 0, 1, 2, 1, 0, 2, 1], [0, 1, 0, 2, 1, 1, 1, 0, 2]]
    b = gl.matrix(3, top + [[(x + 2 * y) % 3 for x, y in zip(*top)]])
    assert gl._hyperplanes_pay(3, 9, 3) and gl.rank(b) == 2
    assert list(gl.column_bases(b)) == []


def test_selection_rule_sides():
    pay = gl._hyperplanes_pay
    # the wide strata of the benchmark, and the CI matrix's prefixes
    bulk = [(2, 11, 6), (2, 10, 5), (2, 10, 4), (3, 10, 5), (3, 9, 5), (3, 9, 4)]
    bulk += [(2, 20, 9), (2, 20, 10)]
    for shape in bulk:
        assert pay(*shape), shape
    # r <= 2, GF(5)/GF(7), a narrow question on a wide matrix, and past 21 columns
    dfs = [(2, 10, 2), (3, 9, 1), (5, 10, 5), (7, 10, 5), (2, 20, 5), (2, 22, 11), (3, 32, 16)]
    for shape in dfs:
        assert not pay(*shape), shape
    # the border at 20 columns (r = 5 / 6) and at 3 rows (n = 4 / 5)
    assert not pay(2, 20, 5) and pay(2, 20, 6)
    assert not pay(2, 4, 3) and pay(2, 5, 3)


def test_the_20_column_ci_matrix_on_both_sides_of_the_rule():
    """Level 10 of `m20.json` takes the hyperplane path, level 5 the DFS;
    both yield what the absorb DFS yields."""
    a = gl.matrix(2, M20)
    for level, bulk in ((10, True), (5, False)):
        assert gl._hyperplanes_pay(2, 20, level) is bulk
        prefix = gl.prefix_rows(a, level)
        got = gl.column_bases(prefix)
        assert iter(got) is got
        assert list(got) == list(reference_column_bases(prefix, level))


def test_level_matches_rejects_gf3_bands_as_the_reference_does():
    """The bands that the search builds over GF(3) from a 2-row
    representation toward a rank-5 layer on 9 elements, a hyperplane-path
    shape: the layer of a random matrix, and families one basis away from
    it.  `_level_matches` must accept a band iff its column bases are the
    layer's, and both answers must occur."""
    assert gl._hyperplanes_pay(3, 9, 5)
    rng = random.Random(35)
    told = Counter()
    while told[True] < 3 or told[False] < 50:
        a = random_prefix_chain_matrix(rng, 3, 5, 9)
        cur = gl.prefix_rows(a, 2)
        for layer in _near_families(reference_linear_matroid(a)):
            for band in islice(rp._rref_bands(cur, layer), 12):
                want = list(reference_column_bases(band, 5)) == list(layer.bases)
                assert rp._level_matches(band, layer) == want
                told[want] += 1


def test_linear_matroid_asks_for_full_width_sets_when_rows_are_dependent(monkeypatch):
    """A matrix with a repeated row is replaced by its nonzero RREF rows, so
    its column matroid also takes the hyperplane path, and is the matroid
    of the matrix without the repeat."""
    a = gl.matrix(2, M20[:6])
    want = mc.linear_matroid(a)
    calls = []
    hyperplane_bases = gl._hyperplane_bases

    def counted(p, n, rows):
        calls.append(len(rows))
        return hyperplane_bases(p, n, rows)

    monkeypatch.setattr(gl, "_hyperplane_bases", counted)
    assert mc.linear_matroid(gl.matrix(2, M20[:6] + M20[2:3])) == want
    assert calls == [6]
