"""Differential tests for the table-driven mask kernels.

`bitset.elements_of` reads masks below 2^24 one byte at a time from a table,
`bitset.order_key` sums one table entry per byte, and
`flag_core._group_by_size` cuts a canonical family at its cardinality
boundaries by bisection, and `bitset.squeeze` shifts out one removed
position per step.  The references below are the implementations these
replaced: the lowest-bit loop, the `to_bytes`/`translate` formula, the
`groupby` walk and the per-bit re-indexing loop.  The library must return exactly what they return.
Negative masks raise instead of looping forever, and a negative element
is IndexOutOfRange at every entry point that takes element lists, through
`bitset.mask_of`.  The two byte tables are
built by doubling; the comprehensions they replaced are kept as references.
"""

import random
from itertools import groupby

import pytest

from conftest import random_flag
from flagmatroids import bitset
from flagmatroids import flag_core as fl
from flagmatroids import matroid_core as mc
from flagmatroids.bitset import canonical, elements_of, iter_bits, mask_of, order_key, squeeze
from flagmatroids.errors import IndexOutOfRange


def reference_elements_of(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


_REVERSED_COMPLEMENT = bytes(255 - int(f"{b:08b}"[::-1], 2) for b in range(256))


def reference_order_key(mask):
    low = mask.to_bytes(3, "little").translate(_REVERSED_COMPLEMENT)
    return mask.bit_count() << 24 | int.from_bytes(low, "big")


def reference_squeeze(mask, removed):
    out = 0
    shift = 0
    pos = 0
    rest = mask | removed
    while rest >> pos:
        bit = 1 << pos
        if removed & bit:
            shift += 1
        elif mask & bit:
            out |= 1 << (pos - shift)
        pos += 1
    return out


def reference_group_by_size(masks):
    out, start = [], 0
    for size, run in groupby(masks, int.bit_count):
        stop = start + sum(1 for _ in run)
        out.append((size, tuple(masks[start:stop])))
        start = stop
    return out


def test_byte_tables_match_their_comprehensions():
    byte_elements = tuple(
        tuple(tuple(8 * k + i for i in range(8) if b >> i & 1) for b in range(256))
        for k in range(3)
    )
    order_bytes = tuple(
        [b.bit_count() << 24 | (255 - int(f"{b:08b}"[::-1], 2)) << 8 * (2 - k) for b in range(256)]
        for k in range(3)
    )
    assert bitset._BYTE_ELEMENTS == byte_elements
    assert bitset._ORDER_BYTES == order_bytes


def seeded_masks(bits, count, seed):
    rng = random.Random(seed)
    return [rng.getrandbits(bits) for _ in range(count)]


def test_elements_of_matches_bit_loop():
    narrow = list(range(1 << 16)) + seeded_masks(24, 20000, 1)
    wide = [(1 << 24) + m for m in seeded_masks(24, 200, 2)] + seeded_masks(64, 200, 3)
    wide += [1 << 24, (1 << 25) - 1, 1 << 100, (1 << 100) | 5]
    for mask in narrow + wide:
        want = reference_elements_of(mask)
        assert elements_of(mask) == want, mask
        assert tuple(iter_bits(mask)) == want, mask


@pytest.mark.parametrize("mask", [-1, -2, -(1 << 24), -(1 << 24) - 1, -(1 << 40)])
def test_negative_masks_raise(mask):
    with pytest.raises(ValueError):
        elements_of(mask)
    with pytest.raises(ValueError):
        iter_bits(mask)
    with pytest.raises(IndexOutOfRange):
        order_key(mask)


def test_flag_minor_rejects_negative_masks():
    fm = fl.flag_matroid(3, [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)])
    with pytest.raises(IndexOutOfRange):
        fl.flag_minor(fm, -2, ())
    with pytest.raises(IndexOutOfRange):
        fl.flag_minor(fm, (), -1)


NEGATIVE_ELEMENT_CALLS = {
    "check_flag_axioms": lambda: fl.check_flag_axioms(2, [[-1]]),
    "from_feasible_sets": lambda: fl.from_feasible_sets(2, [[-1]]),
    "flag_matroid": lambda: fl.flag_matroid(2, [[-1]]),
    "matroid_from_bases": lambda: mc.matroid_from_bases(2, [[-1]]),
    "rank_of": lambda: mc.rank_of(mc.uniform(1, 2), [-1]),
    "flag_rank": lambda: fl.flag_rank(fl.flag_matroid(2, [[0], [1]]), [-1]),
}


@pytest.mark.parametrize("call", NEGATIVE_ELEMENT_CALLS.values(), ids=NEGATIVE_ELEMENT_CALLS)
def test_a_negative_element_is_out_of_range(call):
    with pytest.raises(IndexOutOfRange, match="^negative element -1$"):
        call()


def test_mask_of_passes_on_a_value_error_of_its_elements():
    def elements():
        yield 3
        raise ValueError("from the caller")

    with pytest.raises(ValueError, match="^from the caller$"):
        mask_of(elements())


def test_order_key_matches_to_bytes_formula():
    for mask in list(range(1 << 16)) + seeded_masks(24, 20000, 4) + [(1 << 24) - 1]:
        assert order_key(mask) == reference_order_key(mask), mask


@pytest.mark.parametrize("outside", [1 << 24, (1 << 24) | 3, 1 << 30, -1])
def test_family_key_rejects_sets_outside_every_flag(outside):
    with pytest.raises(IndexOutOfRange):
        canonical([1, 2, outside])
    with pytest.raises(IndexOutOfRange):
        fl.check_flag_axioms(3, [1, outside])


def test_group_by_size_matches_groupby():
    rng = random.Random(5)
    families = [(), (0,), tuple(range(1 << 4)), tuple(range(1 << 12))]
    for _ in range(300):
        n = rng.randint(1, 8)
        families.append(canonical(s for s in range(1 << n) if rng.random() < 0.3))
    for _ in range(40):
        families.append(random_flag(rng, rng.randint(3, 6)).feasible)
    for masks in families:
        masks = canonical(masks)
        assert fl._group_by_size(masks) == reference_group_by_size(masks)


def test_squeeze_matches_bit_loop():
    rng = random.Random(24)
    where = set()
    for _ in range(3000):
        n = rng.randint(1, 24)
        removed = rng.getrandbits(n) & rng.getrandbits(n)
        mask = rng.getrandbits(n) & ~removed
        assert squeeze(mask, removed) == reference_squeeze(mask, removed)
        if mask and removed:
            low, high = mask & -mask, 1 << mask.bit_length() - 1
            where |= {
                "below" if removed & (low - 1) else None,
                "between" if removed & (high - 1) & ~(low - 1) else None,
                "above" if removed & ~(2 * high - 1) else None,
            }
    assert where >= {"below", "between", "above"}
    assert squeeze(0b1011, 0) == 0b1011
    assert squeeze(0, 0b1111) == 0
