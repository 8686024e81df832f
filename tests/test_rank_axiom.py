"""The local rank axiom test `Matroid.is_matroid` and the one-int family order.

`is_matroid` must give the verdict of `basis_exchange_witness` on every
family: exhaustively on small ground sets, and on linear matroids with one
basis dropped or one non-basis added.  Callers that report a witness still
take it from `basis_exchange_witness`, so the error documents are pinned
here.  `bitset.canonical` must sort exactly as the (cardinality, element
list) key it replaced.  Hypothesis settings come from the `tier1` profile in
conftest.py.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import linear_matroids, random_prefix_chain_matrix
from flagmatroids import flag_core as fl
from flagmatroids import matroid_core as mc
from flagmatroids import representability as rp
from flagmatroids.bitset import canonical, elements_of, mask_of, size_masks
from flagmatroids.errors import ConstructionFailed, IndexOutOfRange, LayerNotMatroid


def verdict(n, fam):
    # a fresh object, so no verdict cached by an earlier test is read
    return mc.Matroid(n, tuple(fam)).is_matroid


def test_every_family_on_at_most_5_elements():
    count = 0
    for n in range(6):
        for r in range(n + 1):
            pool = size_masks(n, r)
            for pick in range(1, 1 << len(pool)):
                fam = [pool[i] for i in range(len(pool)) if pick >> i & 1]
                assert verdict(n, fam) == (mc.basis_exchange_witness(fam) is None), (n, fam)
                count += 1
    assert count == 2229


def test_empty_ground_set_and_rank_zero():
    assert verdict(0, [0])
    assert mc.uniform(0, 12).is_matroid
    assert mc.Matroid(12, (0b1010,)).is_matroid  # one basis, loops elsewhere


def test_large_families():
    assert mc.uniform(7, 14).is_matroid
    halves = [0b1111111, 0b1111111 << 7]
    assert not verdict(14, halves)
    assert mc.basis_exchange_witness(halves) is not None
    a = random_prefix_chain_matrix(random.Random(14), 2, 7, 14)
    fm = rp.flag_from_matrix(a, range(1, 8))
    assert all(layer.is_matroid for layer in fm.layers)


def test_flat_bits_are_kept_only_when_every_pair_passed(monkeypatch):
    """`is_matroid` builds an element's moved bitset only once the pairs
    below it have passed, and keeps their AND as `flat_bits` only for a
    basis family; it never caches the per-element `moved_bits`.  On every
    family on at most 4 elements the verdict is `basis_exchange_witness`'s,
    and `moved_bits`, `flat_bits` and the verdict read the same whichever of
    them is asked first."""
    for n in range(5):
        for r in range(n + 1):
            pool = size_masks(n, r)
            for pick in range(1, 1 << len(pool)):
                fam = [pool[i] for i in range(len(pool)) if pick >> i & 1]
                m = mc.Matroid(n, tuple(fam))
                ok = m.is_matroid
                assert ok == (mc.basis_exchange_witness(fam) is None), (n, fam)
                assert "moved_bits" not in vars(m)
                assert ("flat_bits" in vars(m)) == ok
                other = mc.Matroid(n, tuple(fam))
                assert other.moved_bits == m.moved_bits
                assert other.flat_bits == m.flat_bits
                assert other.is_matroid == ok
    built = []
    each_moved = mc.Matroid._each_moved

    def counted(self):
        for moved in each_moved(self):
            built.append(moved)
            yield moved

    monkeypatch.setattr(mc.Matroid, "_each_moved", counted)
    halves = mc.Matroid(14, (0b1111111, 0b1111111 << 7))
    assert not halves.is_matroid
    assert 0 < len(built) < 14 and "moved_bits" not in vars(halves)
    built.clear()
    assert mc.uniform(7, 14).is_matroid and len(built) == 14


def test_linear_matroids_with_one_basis_dropped_or_added():
    seen = set()

    @settings(max_examples=150)
    @given(linear_matroids(), st.data())
    def check(m, data):
        assert verdict(m.n, m.bases)
        families = []
        if len(m.bases) > 1:
            drop = data.draw(st.sampled_from(m.bases))
            families.append([b for b in m.bases if b != drop])
        basis_set = m.basis_set
        others = [s for s in size_masks(m.n, m.rank) if s not in basis_set]
        if others:
            families.append(list(m.bases) + [data.draw(st.sampled_from(others))])
        for fam in families:
            fam.sort(key=elements_of)
            got = verdict(m.n, fam)
            assert got == (mc.basis_exchange_witness(fam) is None), (m.n, fam)
            seen.add(got)

    check()
    assert seen == {True, False}


def old_order(mask):
    return mask.bit_count(), elements_of(mask)


def test_family_key_matches_the_element_list_order():
    rng = random.Random(21)
    for n in range(13):
        masks = list(range(1 << n))
        rng.shuffle(masks)
        assert list(canonical(masks)) == sorted(masks, key=old_order)
    masks = [rng.getrandbits(21) for _ in range(10**5)]
    assert list(canonical(masks)) == sorted(set(masks), key=old_order)


def test_feasible_out_of_order_or_repeated_is_canonicalised():
    fm = fl.independent_flag(mc.uniform(2, 4))
    feasible = list(fm.feasible)
    assert fl.FlagMatroid(4, tuple(feasible)) == fm
    for i in (1, 5, 4):  # inside a layer, inside a layer, across two layers
        swapped = feasible[:i] + [feasible[i + 1], feasible[i]] + feasible[i + 2:]
        assert fl.FlagMatroid(4, tuple(swapped)).feasible == fm.feasible
    for i in (0, 3, len(feasible) - 1):
        assert fl.FlagMatroid(4, tuple(feasible[:i + 1] + feasible[i:])).feasible == fm.feasible


def test_sets_beyond_the_key_width_are_an_input_error():
    with pytest.raises(IndexOutOfRange):
        fl.flag_matroid(30, [[25]])


def test_layer_not_matroid_witness_is_unchanged():
    layer = [b for b in mc.uniform(3, 6).bases if b not in (0b000111, 0b111000, 0b010101)]
    family = [elements_of(b) for b in mc.uniform(2, 6).bases + tuple(layer)]
    with pytest.raises(LayerNotMatroid) as info:
        fl.flag_matroid(6, family)
    assert info.value.payload == {
        "size": 3, "witness": {"B1": (0, 2, 3), "B2": (0, 1, 4), "x": 3},
    }
    assert fl.layered_witness(6, map(mask_of, family)) == (
        "layer", (3, mc.basis_exchange_witness(sorted(layer, key=elements_of))),
    )


def test_construction_failed_witness_is_unchanged():
    fano = mc.fano_matroid()
    bases = [elements_of(b) for b in fano.bases if b != 0b10101]
    with pytest.raises(ConstructionFailed) as info:
        mc.matroid_from_bases(7, bases)
    assert info.value.payload == {"bases": ((0, 1, 2), (0, 4, 5)), "element": 1}
