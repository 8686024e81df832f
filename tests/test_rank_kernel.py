"""Differential tests for the bit-parallel rank kernel on `Matroid`.

`independent_table`, `rank_table` and `flat_bits` are built from the level
bitsets A_k = {S : r(S) >= k}, and `coflat_bits` is the dual's `flat_bits`.
The references below are the per-subset loops they replaced; the kernel
must return exactly what they return.  `tests/test_lift_bitsets.py` builds its references from
`m.rank_table`, so it cannot catch a wrong rank table; these can.
Hypothesis settings come from the `tier1` profile in conftest.py.
"""

import random
from math import comb

import pytest
from hypothesis import given, settings

from conftest import linear_matroids
from flagmatroids import matroid_core as mc
from flagmatroids.bitset import iter_bits


def reference_independent_table(m):
    table = bytearray(1 << m.n)
    for b in m.bases:
        table[b] = 1
    for mask in range((1 << m.n) - 1, 0, -1):
        if table[mask]:
            for e in iter_bits(mask):
                table[mask ^ (1 << e)] = 1
    table[0] = 1
    return table


def reference_rank_table(m):
    ind = reference_independent_table(m)
    table = [0] * (1 << m.n)
    for mask in range(1, 1 << m.n):
        if ind[mask]:
            table[mask] = mask.bit_count()
        else:
            low = mask & -mask
            best = table[mask ^ low]
            for e in iter_bits(mask ^ low):
                best = max(best, table[mask ^ (1 << e)])
            table[mask] = best
    return table


def reference_flat_bits(m, table):
    full = m.full_mask
    out = 0
    for s, r in enumerate(table):
        if all(table[s | 1 << e] != r for e in iter_bits(full ^ s)):
            out |= 1 << s
    return out


def reference_coflat_bits(m, table):
    full = m.full_mask
    out = 0
    for t, r in enumerate(table):
        if all(table[t ^ 1 << e] == r for e in iter_bits(t)):
            out |= 1 << (full ^ t)
    return out


def assert_kernel_matches(m):
    # a fresh object, so no table cached by an earlier test is read
    m = mc.Matroid(m.n, m.bases)
    table = reference_rank_table(m)
    assert m.independent_table == bytes(reference_independent_table(m))
    assert m.rank_table == bytes(table)
    assert m.flat_bits == reference_flat_bits(m, table)
    assert m.coflat_bits == reference_coflat_bits(m, table)


def test_every_matroid_on_at_most_5_elements():
    counts = []
    for n in range(6):
        pool = list(mc.enumerate_matroids(n))
        counts.append(len(pool))
        for m in pool:
            assert_kernel_matches(m)
    assert counts == [1, 2, 5, 16, 68, 406]


@pytest.mark.parametrize(
    "m",
    [
        mc.Matroid(0, (0,)),
        mc.uniform(0, 4),
        mc.Matroid(5, (0b01100, 0b10100, 0b11000)),
        mc.uniform(1, 1),
        mc.uniform(6, 6),
        mc.uniform(9, 9),
    ],
    ids=["empty", "rank0-loops4", "u23-plus-2-loops", "free1", "free6", "free9"],
)
def test_degenerate_matroids(m):
    assert_kernel_matches(m)


@settings(max_examples=80)
@given(linear_matroids())
def test_linear_matroids_match_references(m):
    assert_kernel_matches(m)


def test_cached_tables_are_read_only():
    m = mc.uniform(2, 4)
    with pytest.raises(TypeError):
        m.rank_table[3] = 9
    with pytest.raises(TypeError):
        m.independent_table[3] = 0
    assert mc.rank_of(m, 3) == 2
    assert m.is_independent(3)


@pytest.mark.parametrize("r, n", [(8, 16), (5, 14)])
def test_uniform_at_scale_against_closed_forms(r, n):
    # far past where the reference loops run in tier-1 time
    m = mc.uniform(r, n)
    rng = random.Random(n)
    for s in rng.sample(range(1 << n), 500):
        assert m.rank_table[s] == min(s.bit_count(), r)
        assert m.independent_table[s] == (s.bit_count() <= r)
    # the flats of U(r, n) are the sets of size < r and the ground set
    assert m.flat_bits.bit_count() == sum(comb(n, k) for k in range(r)) + 1
    # the dual of U(r, n) is U(n - r, n)
    assert m.coflat_bits == mc.uniform(n - r, n).flat_bits
    assert m.coflat_bits.bit_count() == sum(comb(n, k) for k in range(n - r)) + 1
