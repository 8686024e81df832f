import random
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import all_flags, random_flag, random_prefix_chain_matrix, reference_check_flag_axioms
from flagmatroids import flag_core as fl
from flagmatroids import matroid_core as mc
from flagmatroids import representability as rp
from flagmatroids.bitset import elements_of, mask_of
from flagmatroids.errors import (
    EmptyResult,
    Error,
    IndexOutOfRange,
    LastLayer,
    LayerNotMatroid,
    NotALift,
    RankCollision,
)


def all_subsets(n, max_size=None):
    top = n if max_size is None else max_size
    return [s for k in range(top + 1) for s in combinations(range(n), k)]


def test_check_flag_axioms_examples():
    assert fl.check_flag_axioms(3, all_subsets(3, 2)).ok
    assert fl.check_flag_axioms(2, [(0,), (0, 1)]).ok
    # recorded verdict for the mixed family: axiom 2 fails at F={1,2}, e=0,
    # matching the layered validator (layer {0},{1} is not lifted by {01},{12})
    report = fl.check_flag_axioms(3, [(0,), (1,), (0, 1), (1, 2)])
    assert not report.ok and report.axiom == 2
    assert report.witness == {"F": (1, 2), "e": 0}
    assert fl.layered_witness(3, [mask_of(s) for s in [(0,), (1,), (0, 1), (1, 2)]]) is not None


def test_axiom1_failure_witness():
    report = fl.check_flag_axioms(4, [(0, 1), (2, 3)])
    assert not report.ok and report.axiom == 1


def test_axiom_checker_computes_no_exchange_witness(monkeypatch):
    """`check_flag_axioms` reads only the layer's `is_matroid`: its axiom 1
    witness is searched for in the stated form, so the memo's exchange
    witness is never computed, even for a layer the memo has not seen."""
    def refuse(masks):
        raise AssertionError("exchange witness computed")

    monkeypatch.setattr(mc, "basis_exchange_witness", refuse)
    fl._layer_check.cache_clear()
    report = fl.check_flag_axioms(5, [(0,), (0, 1), (2, 3), (0, 1, 4)])
    assert report == (False, 1, {"F": (0, 1), "G": (2, 3), "x": 0})


@pytest.mark.parametrize(
    "n, family",
    [(2, [[0, 3]]), (2, [8]), (-1, [[0]]), (30, [[0]])],
    ids=["element-past-n", "mask-past-n", "negative-n", "n-past-max-ground"],
)
def test_check_flag_axioms_refuses_what_flag_matroid_refuses(n, family):
    # the checker answers only on the ground sets a FlagMatroid accepts
    with pytest.raises(IndexOutOfRange):
        fl.check_flag_axioms(n, family)
    with pytest.raises(IndexOutOfRange):
        fl.FlagMatroid(n, [s if isinstance(s, int) else mask_of(s) for s in family])


def test_from_feasible_sets_examples(f7):
    fm, layers = fl.from_feasible_sets(3, [s for s in all_subsets(3) if s])
    assert [m.rank for m in layers] == [1, 2, 3]
    assert layers == (mc.uniform(1, 3), mc.uniform(2, 3), mc.uniform(3, 3))

    single, layers2 = fl.from_feasible_sets(7, [elements_of(b) for b in f7.bases])
    assert layers2 == (f7,)

    fm3, layers3 = fl.from_feasible_sets(2, [(0,), (1,), (0, 1)])
    assert layers3 == (mc.uniform(1, 2), mc.uniform(2, 2))


def test_from_feasible_sets_layer_failure():
    with pytest.raises(LayerNotMatroid):
        fl.flag_matroid(4, [(0, 1), (2, 3)])
    with pytest.raises(NotALift):
        fl.flag_matroid(3, [(0,), (1,), (0, 1), (1, 2)])


def test_from_sequence_examples():
    fm = fl.from_sequence([mc.uniform(1, 3), mc.uniform(2, 3)])
    assert len(fm.feasible) == 6
    fm2 = fl.from_sequence([mc.uniform(2, 4)])
    assert len(fm2.feasible) == 6
    fm3 = fl.from_sequence([mc.uniform(0, 3), mc.uniform(2, 3)])
    assert sorted(f.bit_count() for f in fm3.feasible) == [0, 2, 2, 2]
    with pytest.raises(RankCollision):
        fl.from_sequence([mc.uniform(1, 3), mc.uniform(1, 3)])


def test_flag_interval_examples(f7):
    assert len(fl.independent_flag(mc.uniform(2, 4)).feasible) == 11
    assert len(fl.basis_flag(f7).feasible) == 28
    assert [elements_of(f) for f in fl.spanning_flag(mc.uniform(1, 2)).feasible] == [
        (0,), (1,), (0, 1),
    ]


def test_interval_flags_pass_axioms():
    rng = random.Random(2)
    for _ in range(10):
        m = mc.uniform(rng.randint(0, 3), rng.randint(3, 5))
        for fm in (fl.independent_flag(m), fl.basis_flag(m), fl.spanning_flag(m)):
            assert fl.check_flag_axioms(fm.n, fm.feasible).ok
        s = rng.randint(0, m.n)
        t = rng.randint(s, m.n)
        fm = fl.flag_interval(m, s, t)
        assert fl.check_flag_axioms(fm.n, fm.feasible).ok


def test_flag_dual_example():
    d = fl.flag_dual(fl.independent_flag(mc.uniform(2, 3)))
    assert d.layers == (mc.uniform(1, 3), mc.uniform(2, 3), mc.uniform(3, 3))


def test_chop_example():
    fm = fl.from_sequence([mc.uniform(1, 3), mc.uniform(2, 3), mc.uniform(3, 3)])
    assert fl.chop(fm, 2).layers == (mc.uniform(1, 3), mc.uniform(3, 3))
    with pytest.raises(LastLayer):
        fl.chop(fl.basis_flag(mc.uniform(2, 3)), 2)


def sequential_chops(out, chops):
    """The chop loop `flag_minor` ran after contraction and deletion: one
    validated flag per chop."""
    for size in chops:
        cards = out.cardinalities
        if size not in cards:
            raise IndexOutOfRange(f"no layer of cardinality {size}")
        if len(cards) == 1:
            raise LastLayer("chopping the only layer")
        out = fl.FlagMatroid(out.n, tuple(f for f in out.feasible if f.bit_count() != size))
    return out


def test_chops_match_the_sequential_loop(monkeypatch):
    # every flag on at most 4 elements, every split with |C u D| <= 1 and
    # every run of at most two chops over sizes 0..n, absent sizes and
    # repeats included: the same flag or the same error, one flag built
    built = []
    post_init = fl.FlagMatroid.__post_init__

    def counted(self, n, feasible):
        built.append(n)
        post_init(self, n, feasible)

    def outcome(minor, *args):
        try:
            return minor(*args)
        except Error as exc:
            return type(exc), str(exc)

    monkeypatch.setattr(fl.FlagMatroid, "__post_init__", counted)
    for n in range(5):
        splits = [((), ())] + [s for e in range(n) for s in (((e,), ()), ((), (e,)))]
        sizes = range(n + 1)
        runs = [()] + [(a,) for a in sizes] + [(a, b) for a in sizes for b in sizes]
        for fm in all_flags(n):
            for c, d in splits:
                minor = outcome(fl.flag_minor, fm, c, d)
                for chops in runs:
                    want = minor
                    if isinstance(minor, fl.FlagMatroid):
                        want = outcome(sequential_chops, minor, chops)
                    built.clear()
                    got = outcome(fl.flag_minor, fm, c, d, chops)
                    assert got == want
                    assert len(built) == isinstance(got, fl.FlagMatroid)


def test_flag_delete_example():
    out = fl.flag_delete(fl.basis_flag(mc.uniform(2, 3)), 0)
    assert out == fl.basis_flag(mc.uniform(2, 2))


def test_flag_delete_empty():
    with pytest.raises(EmptyResult):
        fl.flag_delete(fl.basis_flag(mc.uniform(2, 2)), 0)


def test_contract_is_dual_delete_dual():
    rng = random.Random(4)
    for _ in range(30):
        fm = random_flag(rng, 5)
        e = rng.randrange(fm.n)
        try:
            direct = fl.flag_contract(fm, e)
        except EmptyResult:
            direct = None
        try:
            composed = fl.flag_dual(fl.flag_delete(fl.flag_dual(fm), e))
        except EmptyResult:
            composed = None
        assert direct == composed


def test_coloop_layer_discrepancy():
    # bottom layer has basis {0} only, so 0 is a coloop of it; the
    # set-system deletion of 0 then empties the feasible family even though
    # matroid-level deletion would not.
    m1 = mc.Matroid(2, (1,))
    fm = fl.from_sequence([m1, mc.uniform(2, 2)])
    with pytest.raises(EmptyResult):
        fl.flag_delete(fm, 0)


def test_flag_minor_examples():
    fm = fl.from_sequence([mc.uniform(1, 3), mc.uniform(2, 3)])
    assert fl.flag_minor(fm, 0, 0) == fm
    contracted = fl.flag_minor(fm, mask_of([0]), 0)
    assert contracted.layers == (mc.uniform(0, 2), mc.uniform(1, 2))


def test_flag_minor_commutes():
    rng = random.Random(6)
    checked = 0
    while checked < 25:
        fm = random_flag(rng, 6)
        if fm.n < 3:
            continue
        x, y = rng.sample(range(fm.n), 2)
        try:
            a = fl.flag_delete(fl.flag_contract(fm, y), x if x < y else x - 1)
            b = fl.flag_contract(fl.flag_delete(fm, x), y if y < x else y - 1)
        except EmptyResult:
            continue
        assert a == b
        checked += 1


def test_dual_involution_and_layer_reversal():
    rng = random.Random(8)
    for _ in range(50):
        fm = random_flag(rng, 6)
        d = fl.flag_dual(fm)
        assert fl.flag_dual(d) == fm
        assert d.layers == tuple(mc.dual(m) for m in reversed(fm.layers))


def test_deletion_compatibility_without_coloops():
    rng = random.Random(10)
    checked = 0
    while checked < 25:
        fm = random_flag(rng, 5)
        layers = fm.layers
        candidates = [
            e
            for e in range(fm.n)
            if all(not m.coloops_mask >> e & 1 for m in layers)
        ]
        if not candidates:
            continue
        e = rng.choice(candidates)
        out = fl.flag_delete(fm, e)
        assert out.layers == tuple(mc.delete(m, e) for m in layers)
        checked += 1


def test_contraction_compatibility_without_loops():
    # dual statement of the deletion compatibility: when e is a loop of no
    # layer, the contraction's layers are the matroid contractions
    rng = random.Random(12)
    checked = 0
    while checked < 25:
        fm = random_flag(rng, 5)
        layers = fm.layers
        candidates = [
            e for e in range(fm.n) if all(not m.loops_mask >> e & 1 for m in layers)
        ]
        if not candidates:
            continue
        e = rng.choice(candidates)
        out = fl.flag_contract(fm, e)
        assert out.layers == tuple(mc.contract(m, e) for m in layers)
        checked += 1


def test_flag_rank_examples():
    iu24 = fl.independent_flag(mc.uniform(2, 4))
    assert fl.flag_rank(iu24, mask_of([0])) == 1
    assert fl.flag_rank(iu24, mask_of(range(4))) == 2
    assert fl.flag_rank(fl.basis_flag(mc.uniform(2, 3)), mask_of([0])) is None


def test_flag_isomorphic():
    fm = fl.independent_flag(mc.uniform(2, 3))
    rotated = fl.relabel_flag(fm, [1, 2, 0])
    assert fl.flag_isomorphic(fm, rotated) is not None
    # a genuinely asymmetric example recovers the permutation
    m = mc.Matroid(3, (3,))  # single basis {0,1}; 2 is a loop
    bf = fl.basis_flag(m)
    moved = fl.relabel_flag(bf, [2, 1, 0])
    bij = fl.flag_isomorphic(bf, moved)
    assert bij is not None
    assert fl.relabel_flag(bf, bij) == moved


def test_flag_isomorphic_maps_a_relabelled_eighteen_element_flag():
    """A full GF(3) flag on 18 elements with levels 1..5, against a seeded
    relabelling of itself: the bijection found carries one onto the other."""
    rng = random.Random(1818)
    fm = rp.flag_from_matrix(random_prefix_chain_matrix(rng, 3, 5, 18), range(1, 6))
    other = fl.relabel_flag(fm, rng.sample(range(18), 18))
    bij = fl.flag_isomorphic(fm, other)
    assert bij is not None
    assert fl.relabel_flag(fm, bij) == other


def test_flag_has_minor_examples(f7):
    tgt = fl.from_sequence([mc.uniform(1, 3), mc.uniform(2, 3)])
    hit = fl.flag_has_minor(fl.independent_flag(mc.uniform(2, 4)), tgt)
    assert hit == ((), (0,), (0,), (0, 1, 2))
    u24flag = fl.from_sequence([mc.uniform(2, 4)])
    assert fl.flag_has_minor(fl.basis_flag(f7), u24flag) is None


def test_flag_has_minor_witness_replays():
    fm = fl.independent_flag(mc.uniform(2, 4))
    tgt = fl.from_sequence([mc.uniform(1, 3), mc.uniform(2, 3)])
    c, d, chops, bij = fl.flag_has_minor(fm, tgt)
    minor = fl.flag_minor(fm, c, d, chops)
    assert fl.relabel_flag(minor, bij) == tgt


def test_cryptomorphism_exhaustive_n3():
    n = 3
    sets = list(range(1 << n))
    for pick in range(1, 1 << len(sets)):
        fam = [sets[i] for i in range(len(sets)) if pick >> i & 1]
        report = fl.check_flag_axioms(n, fam)
        assert report == reference_check_flag_axioms(n, fam)
        assert report.ok == (fl.layered_witness(n, fam) is None)


@st.composite
def axiom_families(draw):
    """(n, family) over 5-7 elements: random sets, or a seeded flag with one
    set toggled, so both axioms fail and hold often."""
    if draw(st.booleans()):
        n = draw(st.integers(5, 7))
        return n, draw(st.lists(st.integers(0, (1 << n) - 1), max_size=40))
    rng = random.Random(draw(st.integers(0, 2**32)))
    fm = random_flag(rng, 7)
    while fm.n < 5:
        fm = random_flag(rng, 7)
    return fm.n, set(fm.feasible) ^ {draw(st.integers(0, (1 << fm.n) - 1))}


@given(axiom_families())
def test_check_flag_axioms_matches_the_stated_axioms(case):
    n, family = case
    report = fl.check_flag_axioms(n, family)
    assert report == reference_check_flag_axioms(n, family)
    assert report.ok == (fl.layered_witness(n, family) is None)


def test_every_memo_is_bounded():
    memos = [f for f in vars(fl).values() if hasattr(f, "cache_info")]
    assert {f.__name__ for f in memos} == {"_layer_check"}
    for f in memos:
        assert f.cache_info().maxsize is not None, f.__name__
