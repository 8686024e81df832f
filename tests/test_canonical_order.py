"""One canonical family order, applied by the constructors.

`Matroid` and `FlagMatroid` store `bitset.canonical` of whatever iterable
of masks they get: each set once, by cardinality, then lexicographic.  So a
basis or feasible family given shuffled or with repeats makes the same
object, with the same hash, and everything read off the stored order (such
as the canonical GF(2)/GF(3) matrix, built from the first basis) is the
same.  Hypothesis settings come from the `tier1` profile in conftest.py.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import linear_matroids, random_flag
from flagmatroids import flag_core as fl
from flagmatroids import matroid_core as mc
from flagmatroids import representability as rp
from flagmatroids.bitset import canonical
from flagmatroids.errors import ConstructionFailed


def shuffled_with_repeats(draw, family):
    """The family in a drawn order, with some of its sets repeated."""
    repeats = draw(st.lists(st.sampled_from(family), max_size=len(family)))
    return draw(st.permutations(list(family) + repeats))


def representations(m):
    return [rp.matroid_representation(m, p) for p in (2, 3)]


def test_reversed_bases_make_the_same_matroid():
    u23 = mc.uniform(2, 3)
    m = mc.Matroid(3, tuple(reversed(u23.bases)))
    assert m == u23 and hash(m) == hash(u23)
    assert m.bases == (0b011, 0b101, 0b110)
    assert rp.matroid_representation(m, 2) is not None
    assert mc.Matroid(3, u23.bases + u23.bases[:2]).bases == u23.bases


def test_canonical_dedupes_then_sorts_by_cardinality_then_elements():
    assert canonical([0b110, 0b001, 0b011, 0b110, 0, 0b101]) == (
        0, 0b001, 0b011, 0b101, 0b110,
    )
    assert canonical(iter(())) == ()


@pytest.mark.parametrize("bases", [(0b011, 0b001), (0b001, 0b011, 0b110), (0b011, 0b111, 0b101)])
def test_unequal_cardinalities_are_found_in_any_order(bases):
    # after the sort, the first and last bases have the least and most elements
    with pytest.raises(ConstructionFailed):
        mc.Matroid(3, bases)


@given(st.data())
def test_shuffled_or_repeated_bases_make_an_equal_matroid(data):
    m = data.draw(linear_matroids())
    family = shuffled_with_repeats(data.draw, m.bases)
    other = mc.Matroid(m.n, family)
    assert other == m and hash(other) == hash(m)
    assert other.bases == m.bases
    assert representations(other) == representations(m)


@given(st.integers(0, 2**32 - 1), st.data())
def test_shuffled_or_repeated_feasible_sets_make_an_equal_flag(seed, data):
    fm = random_flag(random.Random(seed), 5)
    family = shuffled_with_repeats(data.draw, fm.feasible)
    other = fl.FlagMatroid(fm.n, family)
    assert other == fm and hash(other) == hash(fm)
    assert other.feasible == fm.feasible
    assert other.layers == fm.layers
    assert [representations(m) for m in other.layers] == [
        representations(m) for m in fm.layers
    ]
