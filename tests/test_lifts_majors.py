import json
import random
from itertools import combinations

import pytest

from conftest import all_flags, enumerate_elementary_coextensions
from flagmatroids import flag_core as fl
from flagmatroids import graphic as gr
from flagmatroids import jsonio as io
from flagmatroids import lifts_majors as lm
from flagmatroids import matroid_core as mc
from flagmatroids.bitset import mask_of
from flagmatroids.errors import (
    BudgetExhausted,
    InternalError,
    InvalidInput,
    NotElementaryLift,
    NotFull,
)


def test_is_lift_examples():
    assert lm.is_lift(mc.uniform(2, 3), mc.uniform(1, 3), "all").ok
    assert lm.is_lift(mc.uniform(2, 3), mc.uniform(2, 3), "all").ok
    res = lm.is_lift(mc.uniform(1, 3), mc.uniform(2, 3), "all")
    assert not res.ok


def test_is_lift_all_raises_when_a_method_disagrees(monkeypatch):
    lift, quot = mc.uniform(2, 3), mc.uniform(1, 3)
    monkeypatch.setitem(lm._LIFT_TESTS, "closures", lambda lift, quot: ("subset", ()))
    with pytest.raises(InternalError, match="characterizations disagree"):
        lm.is_lift(lift, quot, "all")


def test_is_lift_refuses_an_unknown_method():
    """An unknown method is an input error, as it is for `decide`."""
    with pytest.raises(InvalidInput, match="^unknown lift method 'rank'$"):
        lm.is_lift(mc.uniform(2, 3), mc.uniform(1, 3), "rank")


def test_is_lift_methods_agree_n4():
    pool = list(mc.enumerate_matroids(4))
    for a in pool:
        for b in pool:
            verdicts = {m: lm.is_lift(a, b, m).ok for m in lm.LIFT_METHODS}
            assert len(set(verdicts.values())) == 1, (a, b, verdicts)


def test_verify_quotient_pair_examples():
    u35 = mc.uniform(3, 5)
    assert lm.verify_quotient_pair(u35, [3, 4], mc.uniform(1, 3), mc.uniform(3, 3))
    # brute-force check of the U_{2,5} contraction: two elements of a rank-2
    # uniform matroid leave rank 0
    u25 = mc.uniform(2, 5)
    assert lm.verify_quotient_pair(u25, [3, 4], mc.uniform(0, 3), mc.uniform(2, 3))
    q = mc.uniform(2, 4)
    assert lm.verify_quotient_pair(q, [], q, q)


def test_elementary_witness_examples():
    q = lm.elementary_witness(mc.uniform(1, 3), mc.uniform(2, 3))
    assert mc.is_isomorphic(q, mc.uniform(2, 4)) is not None
    q2 = lm.elementary_witness(mc.uniform(0, 2), mc.uniform(1, 2))
    assert mc.is_isomorphic(q2, mc.uniform(1, 3)) is not None
    with pytest.raises(NotElementaryLift):
        lm.elementary_witness(mc.uniform(1, 3), mc.uniform(3, 3))


def test_elementary_witness_round_trip():
    rng = random.Random(13)
    found = 0
    while found < 20:
        from conftest import random_gf_matrix

        q0 = mc.linear_matroid(random_gf_matrix(rng, rng.choice([2, 3]), 3, 5))
        e = rng.randrange(q0.n)
        if q0.loops_mask >> e & 1 or q0.coloops_mask >> e & 1:
            continue
        quot, lift = mc.contract(q0, e), mc.delete(q0, e)
        if lift.rank != quot.rank + 1:
            continue
        # move e to the top index so the witness convention applies
        perm = [i if i < e else i - 1 for i in range(q0.n)]
        perm[e] = q0.n - 1
        relabeled = mc.Matroid(
            q0.n,
            tuple(
                sorted(
                    (mask_of(perm[x] for x in _bits(b)) for b in q0.bases),
                    key=lambda s: tuple(_bits(s)),
                )
            ),
        )
        assert lm.elementary_witness(quot, lift) == relabeled
        found += 1


def _bits(mask):
    out = []
    e = 0
    while mask >> e:
        if mask >> e & 1:
            out.append(e)
        e += 1
    return tuple(out)


def test_coextension_uniqueness_pair():
    hits = enumerate_elementary_coextensions(mc.uniform(1, 3), mc.uniform(2, 3))
    assert len(hits) == 1
    assert hits[0] == lm.elementary_witness(mc.uniform(1, 3), mc.uniform(2, 3))


def _coextensions_by_exhaustion(quot, lift):
    """Reference: try every family of (rank - 1)-subsets as the bases
    through the new element, 2^C(n, rank - 1) picks."""
    from flagmatroids.bitset import elements_of, size_masks

    if quot.n != lift.n or lift.rank != quot.rank + 1:
        return []
    n = quot.n
    pool = size_masks(n, quot.rank)
    hits = []
    for pick in range(1 << len(pool)):
        through = [pool[i] | 1 << n for i in range(len(pool)) if pick >> i & 1]
        bases = list(lift.bases) + through
        if mc.basis_exchange_witness(bases) is not None:
            continue
        q = mc.Matroid(n + 1, tuple(sorted(bases, key=elements_of)))
        if lm.verify_quotient_pair(q, [n], quot, lift):
            hits.append(q)
    return hits


def test_coextensions_match_exhaustion_on_four_elements():
    # every ordered pair of matroids on 4 elements, lifts or not
    pool = list(mc.enumerate_matroids(4))
    found = 0
    for quot in pool:
        for lift in pool:
            hits = enumerate_elementary_coextensions(quot, lift)
            assert hits == _coextensions_by_exhaustion(quot, lift), (quot, lift)
            found += len(hits)
    assert found > 0


def _coextensions_by_extension_walk(quot, lift):
    """Reference: every single-element extension of lift, built as a
    matroid on n + 1 elements and kept if its contraction by n is quot."""
    if quot.n != lift.n or lift.rank != quot.rank + 1:
        return []
    n = quot.n
    found = (mc.Matroid(n + 1, fam) for fam in mc.single_element_extensions(lift))
    return [q for q in found if mc.minor(q, 1 << n, 0) == quot]


def test_coextensions_match_the_extension_walk():
    # every ordered pair of matroids on at most 4 elements, lifts or not
    pairs = found = 0
    for n in range(5):
        pool = list(mc.enumerate_matroids(n))
        for quot in pool:
            for lift in pool:
                hits = enumerate_elementary_coextensions(quot, lift)
                assert hits == _coextensions_by_extension_walk(quot, lift), (quot, lift)
                pairs += 1
                found += len(hits)
    assert pairs == 4910 and found > 0
    quot, lift = mc.uniform(2, 7), mc.uniform(3, 7)
    hits = enumerate_elementary_coextensions(quot, lift)
    assert hits == _coextensions_by_extension_walk(quot, lift) and len(hits) == 1


def test_coextension_at_seven_elements_builds_one_family():
    # the candidate pool has C(7, 3) = 35 sets, 2^35 families to exhaust
    quot, lift = mc.uniform(3, 7), mc.uniform(4, 7)
    assert enumerate_elementary_coextensions(quot, lift) == [lm.elementary_witness(quot, lift)]
    # one basis {0, 1, 2}, the rest loops: rank 3, but {3..6} is a flat
    # of it and not of U_{4,7}
    loops = mc.Matroid(7, (mask_of([0, 1, 2]),))
    assert loops.rank == 3 and not lm.is_lift(lift, loops).ok
    assert enumerate_elementary_coextensions(loops, lift) == []


def test_lift_witness_sequence():
    chain = fl.from_sequence([mc.uniform(1, 3), mc.uniform(2, 3), mc.uniform(3, 3)])
    seq = lm.lift_witness_sequence(chain)
    assert len(seq.witnesses) == 2
    assert mc.is_isomorphic(seq.witnesses[0][0], mc.uniform(2, 4)) is not None
    assert mc.is_isomorphic(seq.witnesses[1][0], mc.uniform(3, 4)) is not None

    single = fl.basis_flag(mc.uniform(2, 4))
    assert lm.lift_witness_sequence(single).witnesses == ()

    with pytest.raises(NotFull):
        lm.lift_witness_sequence(fl.from_sequence([mc.uniform(1, 3), mc.uniform(3, 3)]))


def test_witness_non_uniqueness_at_gap_two():
    """(U13, U33) admits several single witnesses: U_{3,5} (cf. the worked
    major example) and the one-element deletion of M(K4)."""
    u13, u33 = mc.uniform(1, 3), mc.uniform(3, 3)
    u35 = mc.uniform(3, 5)
    assert lm.verify_quotient_pair(u35, [3, 4], u13, u33)
    mk4_del = mc.delete(gr.cycle_matroid(gr.complete_graph(4)), 5)
    assert lm.verify_quotient_pair(mk4_del, [1, 2], u13, u33)
    assert mc.is_isomorphic(u35, mk4_del) is None


def test_is_full():
    assert lm.is_full(fl.from_sequence([mc.uniform(1, 3), mc.uniform(2, 3)]))
    assert not lm.is_full(fl.from_sequence([mc.uniform(1, 3), mc.uniform(3, 3)]))


def test_enumerate_fillings_examples():
    g = fl.from_sequence([mc.uniform(1, 3), mc.uniform(3, 3)])
    search = lm.enumerate_fillings(g, budget=5000)
    assert search.complete
    mids = {f.layers[1] for f in search.fillings}
    assert mc.uniform(2, 3) in mids
    named = mc.Matroid(3, (mask_of([0, 1]), mask_of([0, 2])))
    assert named in mids
    for f in search.fillings:
        assert lm.is_full(f)
        assert fl.check_flag_axioms(f.n, f.feasible).ok

    full = fl.from_sequence([mc.uniform(1, 3), mc.uniform(2, 3)])
    assert lm.enumerate_fillings(full, 100).fillings == (full,)


def test_enumerate_fillings_budget_flag():
    g = fl.from_sequence([mc.uniform(1, 4), mc.uniform(4, 4)])
    search = lm.enumerate_fillings(g, budget=3)
    assert not search.complete


def test_enumerate_fillings_matches_unpruned():
    """Cross-check the candidate pruning against a fully unpruned
    enumeration over all matroids of the intermediate rank (n <= 4)."""
    cases = [
        fl.from_sequence([mc.uniform(0, 3), mc.uniform(2, 3)]),
        fl.from_sequence([mc.uniform(1, 4), mc.uniform(3, 4)]),
        fl.from_sequence([mc.uniform(0, 4), mc.uniform(2, 4)]),
    ]
    for fm in cases:
        low, high = fm.layers
        pruned = {f.layers[1] for f in lm.enumerate_fillings(fm, 10 ** 6).fillings}
        unpruned = {
            mid
            for mid in mc.enumerate_matroids(fm.n)
            if mid.rank == low.rank + 1
            and lm.is_lift(mid, low, "flats").ok
            and lm.is_lift(high, mid, "flats").ok
        }
        assert pruned == unpruned


def test_verify_major_worked_example():
    chain = fl.from_sequence([mc.uniform(1, 3), mc.uniform(2, 3), mc.uniform(3, 3)])
    u35 = mc.uniform(3, 5)
    assert lm.verify_major(u35, [(3,), (4,)], chain)
    # U_{3,5} is symmetric in the extras, so both orders pass here
    assert lm.verify_major(u35, [(4,), (3,)], chain)


def test_verify_major_block_order_matters():
    """On an asymmetric major (the K4 graphic one) only the correct block
    order verifies."""
    from itertools import permutations

    k4 = gr.multigraph(4, [(0, 1), (0, 3), (0, 2), (1, 3), (1, 2), (3, 2)])
    chain = gr.chain_of(
        4, [[[0, 1, 2, 3]], [[0, 1, 3], [2]], [[0, 1], [2], [3]], [[0], [1], [2], [3]]]
    )
    fm = gr.graphic_flag(k4, chain)
    _, major = gr.graphic_major(k4, chain)
    assert lm.verify_major(major.matroid, major.blocks, fm)
    outcomes = {
        perm: lm.verify_major(major.matroid, perm, fm)
        for perm in permutations(major.blocks)
    }
    assert outcomes[major.blocks]
    assert sum(outcomes.values()) == 1


def test_verify_major_rejects_wrong_flag():
    chain2 = fl.from_sequence([mc.uniform(1, 3), mc.uniform(2, 3)])
    assert not lm.verify_major(mc.uniform(3, 5), [(3,), (4,)], chain2)


def test_search_major_finds_and_verifies():
    g = fl.from_sequence([mc.uniform(1, 3), mc.uniform(3, 3)])
    major = lm.search_major(g, budget=200000)
    assert major is not None
    assert lm.verify_major(major.matroid, major.blocks, g)


def test_search_major_budget():
    g = fl.from_sequence([mc.uniform(1, 4), mc.uniform(4, 4)])
    with pytest.raises(BudgetExhausted):
        lm.search_major(g, budget=2)


def _ordered_partitions(elements, sizes):
    """Ordered partitions of `elements` into blocks of the given sizes."""
    if not sizes:
        if not elements:
            yield ()
        return
    for first in combinations(elements, sizes[0]):
        rest = tuple(e for e in elements if e not in first)
        for tail in _ordered_partitions(rest, sizes[1:]):
            yield (first,) + tail


def _major_by_brute_force(fm, budget):
    """Reference: the first `budget` families of top-rank sets meeting the
    extra elements, in pick order, each with every ordered partition of
    the extras into blocks."""
    from flagmatroids.bitset import elements_of, size_masks

    layers = fm.layers
    ranks = [m.rank for m in layers]
    n, nq = fm.n, fm.n + ranks[-1] - ranks[0]
    xmask = ((1 << nq) - 1) ^ ((1 << n) - 1)
    pool = [b for b in size_masks(nq, ranks[-1]) if b & xmask]
    sizes = [r2 - r1 for r1, r2 in zip(ranks, ranks[1:])]
    for pick in range(1, min(1 << len(pool), budget + 1)):
        bases = list(layers[-1].bases) + [pool[i] for i in range(len(pool)) if pick >> i & 1]
        if mc.basis_exchange_witness(bases) is not None:
            continue
        q = mc.Matroid(nq, bases)
        if not q.is_independent(xmask):
            continue
        for blocks in _ordered_partitions(elements_of(xmask), sizes):
            if lm.verify_major(q, blocks, fm):
                return lm.MajorStructure(q, blocks)
    return None


def test_multi_element_majors_verify_on_every_flag_of_3_elements():
    """The tree search finds a major that verifies for every flag on at
    most 3 elements with two or more extra elements, and so for every one
    where the family loop finds one.  That loop gets a budget of 500
    families: on these flags a budget of 20,000 finds no further major."""
    flags = [fm for n in range(4) for fm in all_flags(n)]
    flags = [fm for fm in flags if fm.cardinalities[-1] - fm.cardinalities[0] > 1]
    assert len(flags) == 99
    by_loop = 0
    for fm in flags:
        major = lm.search_major(fm)
        assert major is not None and lm.verify_major(major.matroid, major.blocks, fm), fm
        by_loop += _major_by_brute_force(fm, 500) is not None
    assert by_loop == 62


def _one_element_major_by_brute_force(fm):
    """Reference: the search loop over every family of top-rank sets through
    the new element n, in pick order, for a flag of two layers a rank apart."""
    from flagmatroids.bitset import elements_of, size_masks

    quot, lift = fm.layers
    n = fm.n
    pool = [b for b in size_masks(n + 1, lift.rank) if b >> n & 1]
    for pick in range(1, 1 << len(pool)):
        bases = list(lift.bases) + [pool[i] for i in range(len(pool)) if pick >> i & 1]
        if mc.basis_exchange_witness(bases) is not None:
            continue
        q = mc.Matroid(n + 1, tuple(sorted(bases, key=elements_of)))
        if q.is_independent(1 << n) and lm.verify_major(q, [(n,)], fm):
            return lm.MajorStructure(q, ((n,),))
    return None


def test_one_element_majors_match_brute_force_on_four_elements():
    checked = 0
    for n in range(1, 5):
        pool = list(mc.enumerate_matroids(n))
        for quot in pool:
            for lift in pool:
                if lift.rank != quot.rank + 1:
                    continue
                if fl.layered_witness(n, quot.bases + lift.bases) is not None:
                    continue
                fm = fl.from_sequence([quot, lift])
                major = lm.search_major(fm)
                assert major is not None
                assert major == _one_element_major_by_brute_force(fm), fm
                checked += 1
    assert checked == 313


def test_one_element_majors_are_the_elementary_witnesses():
    """For each matroid m on at most 5 elements and each elementary quotient
    q of m, the major of the flag (q, m) is `elementary_witness(q, m)`."""
    checked = 0
    for n in range(1, 6):
        for m in mc.enumerate_matroids(n):
            for fam in mc.elementary_quotients(m):
                if not fam:  # the last family: e a loop, no quotient
                    break
                q = mc.Matroid(n, fam)
                major = lm.search_major(fl.from_sequence([q, m]))
                assert major == lm.MajorStructure(lm.elementary_witness(q, m), ((n,),)), (q, m)
                checked += 1
    assert checked == 3308


def test_one_element_major_counts_against_the_budget():
    fm = fl.from_sequence([mc.uniform(1, 15), mc.uniform(2, 15)])
    with pytest.raises(BudgetExhausted):
        lm.search_major(fm, budget=0)
    major = lm.search_major(fm, budget=1)
    assert major.matroid == mc.uniform(2, 16) and major.blocks == ((15,),)
    assert lm.verify_major(major.matroid, major.blocks, fm)


def test_search_major_trivial():
    """A one-layer flag is its own major: the search returns the top layer
    at once and spends no budget, and `verify_major` finds the extras (none)
    in a basis without building q's independence table."""
    single = fl.basis_flag(mc.uniform(2, 4))
    major = lm.search_major(single)
    assert major is not None and major.matroid == mc.uniform(2, 4)
    fm = fl.basis_flag(mc.uniform(3, 20))
    for budget in (20000, 0):
        assert lm.search_major(fm, budget) == lm.MajorStructure(fm.layers[0], ())
    q = mc.uniform(3, 20)
    assert lm.verify_major(q, (), fm)
    assert "independent_bits" not in q.__dict__ and "independent_table" not in q.__dict__


def test_verify_major_refuses_a_loop_as_the_extra():
    """The extras must lie in one basis: adding element 3 as a loop to the
    top layer of (U_{1,3}, U_{2,3}) gives the right deletion but no major."""
    fm = fl.from_sequence([mc.uniform(1, 3), mc.uniform(2, 3)])
    looped = mc.Matroid(4, mc.uniform(2, 3).bases)
    assert not lm.verify_major(looped, [(3,)], fm)
    assert "independent_bits" not in looped.__dict__
    assert lm.verify_major(mc.uniform(2, 4), [(3,)], fm)


def test_elementary_witness_refuses_a_family_that_fails_basis_exchange(
    capture, corpus, monkeypatch
):
    """`_coextension` is trusted to build a basis family; when it does not,
    the checked witness raises, and the `witness` verb exits 4."""
    def two_disjoint_bases(quot, lift):
        return mc.Matroid(quot.n + 1, (0b0011, 0b1100))

    monkeypatch.setattr(lm, "_coextension", two_disjoint_bases)
    with pytest.raises(InternalError, match="witness family fails basis exchange"):
        lm.elementary_witness(mc.uniform(1, 3), mc.uniform(2, 3))
    code, out, _ = capture("witness", corpus["chain3.json"])
    assert (code, json.loads(out)) == (4, {
        "error": "InternalError", "detail": "witness family fails basis exchange",
    })


def test_search_major_refuses_a_grown_matroid_that_is_not_a_major(capture, corpus, monkeypatch):
    """The search trusts `single_element_extensions` to extend the matroid it
    is given; extensions of the uniform matroid of the top layer's rank
    instead pass every pruning test but delete to the wrong top layer, and
    `verify_major` catches it: InternalError, and `major search` exits 4."""
    layers = [mc.Matroid(4, (0,)), mc.Matroid(4, (1, 2, 4)), mc.Matroid(4, (3, 5, 6))]
    fm = fl.from_sequence(layers)
    real = mc.single_element_extensions
    monkeypatch.setattr(mc, "single_element_extensions", lambda q: real(mc.uniform(q.rank, q.n)))
    with pytest.raises(InternalError, match="the major search built a matroid that is not a"):
        lm.search_major(fm)
    code, out, _ = capture("major", "search", corpus["write"]("loopy.json", io.flag_json(fm)))
    assert (code, json.loads(out)) == (4, {
        "error": "InternalError", "detail": "the major search built a matroid that is not a major",
    })
