"""Differential tests for the minor search.

`flag_has_minor` screens each (contract, delete) split by its layer sizes
before it builds a minor, walking C on the feasible sets that hold it and D
on layer bitmaps of the contraction, and `has_minor_isomorphic_to` runs it
on the one-layer basis flags of two matroids.  The reference implementations below are the
plain loops that build and compare every candidate minor, flag minors for
the one and matroid minors of independent contraction sets for the other;
the searches must return exactly what they return, witness included.
Hypothesis settings come from the `tier1` profile in conftest.py.
"""

import random
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import all_flags
from flagmatroids import flag_core as fl
from flagmatroids import gf_linalg as gl
from flagmatroids import matroid_core as mc
from flagmatroids import representability as rp
from flagmatroids.bitset import elements_of, mask_of, size_masks
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


# --- seeded flags with known first hits ---------------------------------------------

def u2k_planted_matrix(rng, p, r, n, k):
    """A rank-r matrix over GF(p) whose top two rows hold k pairwise
    independent 2-vectors in k random columns, so its rank-2 prefix has a
    U_{2,k} restriction."""
    vectors = [(1, 0), (0, 1)] + [(1, a) for a in range(1, p)]
    while True:
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(r)]
        for c, (x, y) in zip(rng.sample(range(n), k), vectors[:k]):
            rows[0][c], rows[1][c] = x, y
        a = gl.matrix(p, rows)
        if gl.rank(a) == r:
            return a


def planted_flags(count, seed):
    """(flag, lists asked): U_{2,4} planted over GF(3) is asked for the
    binary list, U_{2,5} planted over GF(5) for both lists."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        k = 4 + i % 2
        levels = rng.choice([(2, 3), (1, 2, 3), (2, 3, 4)])
        a = u2k_planted_matrix(rng, 3 if k == 4 else 5, levels[-1], rng.randint(8, 10), k)
        lists = (2,) if k == 4 else (2, 3)
        out.append((rp.flag_from_matrix(a, levels), lists))
    return out


def test_flag_search_matches_reference_on_planted_flags():
    """Each listed target up to the first hit, as `forbidden_minor_decision`
    asks them; every first hit deletes only."""
    cases = planted_flags(12, 83)
    assert {fm.n for fm, _ in cases} == {8, 9, 10}
    for fm, lists in cases:
        for p in lists:
            for _, target in rp.forbidden_flags(p):
                got = fl.flag_has_minor(fm, target)
                assert got == reference_flag_has_minor(fm, target)
                if got is not None:
                    assert got[0] == ()
                    break
            else:
                raise AssertionError(f"no listed minor over GF({p})")


def fano_with_a_point_on_a_line(perm):
    """F_7 with an eighth point placed on one of its lines, relabelled by
    perm.  Deleting a point off that line keeps 28 bases, as F_7 has, but
    leaves a 4-point line, so a deletion-only split passes the layer-size
    screen and is not F_7; deleting the eighth point gives F_7 back."""
    f7 = mc.fano_matroid()
    lines = [s for s in size_masks(7, 3) if not f7.independent_table[s]]
    four = lines[0] | 1 << 7
    bases = [b for b in size_masks(8, 3) if b not in lines and b & four != b]
    m = mc.Matroid(8, [mask_of(perm[e] for e in elements_of(b)) for b in bases])
    assert m.is_matroid
    return m


def test_a_failed_deletion_survivor_does_not_end_the_walk(monkeypatch):
    """The only listed targets not fixed by their layer sizes are F_7, F_7^*
    and their pairs, so these flags are built around F_7."""
    built = []
    real_minor = fl.flag_minor

    def counting_minor(*args):
        built.append(args[1:3])
        return real_minor(*args)

    monkeypatch.setattr(fl, "flag_minor", counting_minor)
    target = dict(rp.ternary_forbidden_flags())["(F_7)"]
    rng = random.Random(89)
    failed_first = 0
    for _ in range(6):
        m = fano_with_a_point_on_a_line(rng.sample(range(8), 8))
        for fm in (fl.basis_flag(m), fl.independent_flag(m)):
            built.clear()
            got = fl.flag_has_minor(fm, target)
            assert got == reference_flag_has_minor(fm, target)
            assert len(got[1]) == 1 and got[0] == ()
            failed_first += len(built) > 1
    assert failed_first >= 4


def test_flag_search_matches_reference_where_the_first_hit_contracts():
    """F_7^* in the duals of the flags above, where the deleted point is
    contracted, and binary prefix chains [I_r | A] asked for F_7, F_7^* and
    their pairs, drawn until four first hits contract."""
    targets = dict(rp.ternary_forbidden_flags())
    rng = random.Random(89)
    for _ in range(3):
        fm = fl.basis_flag(mc.dual(fano_with_a_point_on_a_line(rng.sample(range(8), 8))))
        got = fl.flag_has_minor(fm, targets["(F_7^*)"])
        assert got == reference_flag_has_minor(fm, targets["(F_7^*)"])
        assert len(got[0]) == 1 and got[1] == ()
    rng = random.Random(97)
    contracted = 0
    for _ in range(200):
        r, n = rng.choice([4, 5]), rng.randint(8, 9)
        rows = [[int(i == j) for j in range(r)] + [rng.randrange(2) for _ in range(n - r)]
                for i in range(r)]
        fm = rp.flag_from_matrix(gl.matrix(2, rows), range(1, r + 1))
        for name, target in targets.items():
            if "F_7" in name:
                got = fl.flag_has_minor(fm, target)
                if got is not None and got[0]:
                    assert got == reference_flag_has_minor(fm, target)
                    contracted += 1
        if contracted >= 4:
            break
    assert contracted >= 4


def test_flag_search_matches_reference_on_larger_binary_flags():
    """Binary [I_r | A] full flags on 9, 10 and 11 elements against every
    ternary target.  Some first hits contract an element below a deleted
    one, so the walk finds D on the elements outside C under other labels
    and must map it back to fm's."""
    rng = random.Random(16)
    kinds = []
    for n in (9, 10, 11):
        r = rng.choice([4, 5])
        rows = [[int(i == j) for j in range(r)] + [rng.randrange(2) for _ in range(n - r)]
                for i in range(r)]
        fm = rp.flag_from_matrix(gl.matrix(2, rows), range(1, r + 1))
        for _, target in rp.ternary_forbidden_flags():
            got = fl.flag_has_minor(fm, target)
            assert got == reference_flag_has_minor(fm, target)
            if got is None:
                kinds.append("no")
            elif not got[0]:
                kinds.append("delete")
            else:
                kinds.append("relabelled" if max(got[1], default=-1) > got[0][0] else "contract")
    assert kinds.count("relabelled") >= 4 and {"no", "delete", "contract"} <= set(kinds)
