"""Differential tests for the GF(2)/GF(3) representation construction.

`representability.matroid_representation` builds the one candidate matrix
that a binary or ternary matroid can have, in a canonical form, and checks
it once.  The reference below is the exhaustive backtracking search it
replaced: the lexicographically first basis is the identity, every other
column is the first vector (leading entry 1, loops zero) consistent with
the columns placed before it.  The construction must return exactly the
matrix the search returns, or None exactly when the search finds nothing.
The witness route decides its witness matroids with the construction, so
those verdicts are also checked against the excluded minors of
`matroid_core.is_binary`/`is_ternary`.  Hypothesis settings come from the
`tier1` profile in conftest.py.
"""

import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings

from conftest import gf_matrices, random_prefix_chain_matrix
from flagmatroids import gf_linalg as gl
from flagmatroids import lifts_majors as lm
from flagmatroids import matroid_core as mc
from flagmatroids import representability as rp
from flagmatroids.bitset import elements_of, mask_of
from flagmatroids.errors import InvalidInput


def reference_representation(m, p):
    """Exhaustive search for the canonical GF(p) matrix of m, or None."""
    r, n = m.rank, m.n
    if r == 0:
        return gl.matrix(p, [], cols=n)
    base = elements_of(m.bases[0])
    cols = {e: tuple(1 if i == pos else 0 for i in range(r)) for pos, e in enumerate(base)}
    rest = [e for e in range(n) if e not in cols]
    candidates = [
        vec for vec in product(range(p), repeat=r)
        if next((x for x in vec if x), 1) == 1
    ]
    rank_table = m.rank_table

    def consistent(e, decided):
        # every subset through e of size <= r must agree on independence
        others = [x for x in decided if x != e]
        for k in range(min(r, len(others) + 1)):
            for combo in combinations(others, k):
                subset = combo + (e,)
                want = rank_table[mask_of(subset)] == len(subset)
                if gl.independent_columns(p, [cols[c] for c in subset]) != want:
                    return False
        return True

    decided = list(base)

    def place(idx):
        if idx == len(rest):
            return True
        e = rest[idx]
        pool = [candidates[0]] if m.loops_mask >> e & 1 else candidates[1:]
        for vec in pool:
            cols[e] = vec
            decided.append(e)
            if consistent(e, decided) and place(idx + 1):
                return True
            decided.pop()
            del cols[e]
        return False

    if not place(0):
        return None
    return gl.matrix(p, [[cols[j][i] for j in range(n)] for i in range(r)], cols=n)


def test_every_matroid_up_to_five_elements_matches_the_search():
    seen = {2: [0, 0], 3: [0, 0]}
    count = 0
    for n in range(6):
        for m in mc.enumerate_matroids(n):
            count += 1
            for p in (2, 3):
                got = rp.matroid_representation(m, p)
                assert got == reference_representation(m, p), (m, p)
                seen[p][got is None] += 1
    assert count == 498
    # both verdicts occur over both fields, so a skipped check would show
    assert all(yes and no for yes, no in seen.values())


@settings(max_examples=200)
@given(gf_matrices(max_n=9))
def test_linear_matroids_match_the_search(a):
    m = mc.linear_matroid(a)
    for p in (2, 3):
        assert rp.matroid_representation(m, p) == reference_representation(m, p)


def test_ternary_signs_on_known_matroids(f7):
    # U(2,4) needs both signs; F_7 is binary only; the other three excluded
    # minors for GF(3) have no ternary matrix
    u24 = rp.matroid_representation(mc.uniform(2, 4), 3)
    assert u24.row_lists() == [[1, 0, 1, 1], [0, 1, 1, 2]]
    assert rp.matroid_representation(mc.uniform(2, 4), 2) is None
    assert rp.matroid_representation(f7, 3) is None
    assert mc.linear_matroid(rp.matroid_representation(f7, 2)) == f7
    for m in (mc.uniform(2, 5), mc.uniform(3, 5), mc.dual(f7)):
        assert rp.matroid_representation(m, 3) is None


def test_random_ternary_matrices_match_the_search():
    # in dense GF(3) matrices the signs fixed along the spanning forest are
    # now and then (one matroid in sixty here) not the canonical row-sign
    # choice, so only these cases show whether the rescaling picks it
    rng = random.Random(3)
    for _ in range(200):
        n, r = rng.randint(7, 9), rng.randint(3, 5)
        rows = [[rng.randrange(3) for _ in range(n)] for _ in range(r)]
        m = mc.linear_matroid(gl.matrix(3, rows))
        assert rp.matroid_representation(m, 3) == reference_representation(m, 3)
    rows = [
        [1, 0, 0, 2, 2, 0, 1], [0, 0, 0, 2, 2, 2, 2], [0, 2, 0, 2, 1, 2, 1], [1, 0, 2, 2, 1, 2, 1]
    ]
    m = mc.linear_matroid(gl.matrix(3, rows))
    want = [
        [1, 0, 0, 0, 0, 1, 1], [0, 1, 0, 0, 1, 0, 2], [0, 0, 1, 0, 1, 1, 0], [0, 0, 0, 1, 1, 1, 2]
    ]
    assert reference_representation(m, 3).row_lists() == want
    assert rp.matroid_representation(m, 3).row_lists() == want


@pytest.mark.parametrize("p", [0, 1, 5, 7])
def test_other_fields_are_rejected(p):
    with pytest.raises(InvalidInput):
        rp.matroid_representation(mc.uniform(1, 2), p)


def test_witness_matroid_verdicts_match_excluded_minors():
    rng = random.Random(606)
    verdicts = {2: set(), 3: set()}
    flags = 0
    while flags < 30:
        p = rng.choice([2, 3, 5])
        n = rng.randint(3, 8)
        r = rng.randint(2, min(n, 5))
        a = random_prefix_chain_matrix(rng, p, r, n)
        if a is None:
            continue
        fm = rp.flag_from_matrix(a, range(rng.randint(0, r - 1), r + 1))
        for q, _ in lm.lift_witness_sequence(fm).witnesses:
            binary = rp.matroid_representation(q, 2) is not None
            ternary = rp.matroid_representation(q, 3) is not None
            assert binary == mc.is_binary(q)
            assert ternary == mc.is_ternary(q)
            verdicts[2].add(binary)
            verdicts[3].add(ternary)
        flags += 1
    assert verdicts == {2: {True, False}, 3: {True, False}}
