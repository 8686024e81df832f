import inspect
import random
from itertools import combinations, permutations

import pytest

from conftest import (
    FANO_ROWS,
    oracle_independent_columns,
    oracle_matroid_rank,
    random_flag,
    random_gf_matrix,
)
from flagmatroids import flag_core as fl
from flagmatroids import gf_linalg as gl
from flagmatroids import matroid_core as mc
from flagmatroids.bitset import elements_of, mask_of, size_masks
from flagmatroids.errors import AxiomViolation, BadRank, ConstructionFailed, OverlappingSets


def masksets(m):
    return [set(elements_of(b)) for b in m.bases]


def test_from_independent_sets_u23():
    fam = [s for k in range(3) for s in combinations(range(3), k)]
    m = mc.matroid_from_independent_sets(3, fam)
    assert m == mc.uniform(2, 3)
    assert len(m.bases) == 3


def test_from_independent_sets_hereditary_failure():
    with pytest.raises(AxiomViolation) as err:
        mc.matroid_from_independent_sets(2, [(), (0,), (0, 1)])
    assert err.value.axiom == 2
    assert err.value.payload["superset"] == (0, 1)


def test_from_independent_sets_u24():
    fam = [s for k in range(3) for s in combinations(range(4), k)]
    m = mc.matroid_from_independent_sets(4, fam)
    assert m == mc.uniform(2, 4)
    assert len(m.bases) == 6


def test_from_independent_sets_missing_empty():
    with pytest.raises(AxiomViolation) as err:
        mc.matroid_from_independent_sets(2, [(0,)])
    assert err.value.axiom == 1


def test_from_independent_sets_augmentation_failure():
    # {0} cannot be augmented from {1,2} even though both are independent
    with pytest.raises(AxiomViolation) as err:
        mc.matroid_from_independent_sets(3, [(), (0,), (1,), (2,), (1, 2)])
    assert err.value.axiom == 3


def test_uniform():
    assert mc.uniform(0, 3).bases == (0,)
    assert len(mc.uniform(2, 4).bases) == 6
    assert len(mc.uniform(3, 5).bases) == 10
    with pytest.raises(BadRank):
        mc.uniform(4, 3)


def test_matroid_from_bases_rejects_exchange_failure():
    with pytest.raises(ConstructionFailed):
        mc.matroid_from_bases(4, [(0, 1), (2, 3)])


def test_linear_matroid_fano(fano, f7):
    # oracle: count independent triples among the 35 column triples
    expected = [
        set(c)
        for c in combinations(range(7), 3)
        if oracle_independent_columns(FANO_ROWS, c, 2)
    ]
    assert len(expected) == 28
    assert masksets(f7) == sorted(expected, key=sorted)
    assert f7.rank == 3


def test_linear_matroid_u24_over_gf3():
    a = gl.matrix(3, [[0, 1, 1, 1], [1, 0, 1, 2]])
    assert mc.linear_matroid(a) == mc.uniform(2, 4)


def test_linear_matroid_zero():
    assert mc.linear_matroid(gl.zero(2, 1, 3)) == mc.uniform(0, 3)


def test_rank_closure_circuits_flats(f7):
    u24 = mc.uniform(2, 4)
    assert mc.closure(u24, mask_of([0])) == mask_of([0])
    assert sorted(elements_of(c) for c in mc.circuits(u24)) == [
        (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
    ]
    assert len(f7.flats) == 16
    sizes = sorted(f.bit_count() for f in f7.flats)
    assert sizes == [0] + [1] * 7 + [3] * 7 + [7]


def test_rank_of_matches_oracle():
    rng = random.Random(5)
    for _ in range(20):
        a = random_gf_matrix(rng, 2, 3, rng.randint(1, 5))
        m = mc.linear_matroid(a)
        bases = [elements_of(b) for b in m.bases]
        for mask in range(1 << m.n):
            assert mc.rank_of(m, mask) == oracle_matroid_rank(bases, elements_of(mask))


def test_dual_delete_contract(f7):
    u24 = mc.uniform(2, 4)
    assert mc.dual(u24) == u24
    assert mc.contract(u24, 0) == mc.uniform(1, 3)
    f7d = mc.dual(f7)
    assert f7d.rank == 4 and f7d.n == 7
    assert mc.dual(f7d) == f7


def test_minor_examples(f7):
    assert mc.minor(f7, 0, 0) == f7
    assert mc.minor(mc.uniform(3, 5), [4], [3]) == mc.uniform(2, 3)


def test_minor_k4_contraction():
    from flagmatroids import graphic as gr

    mk4 = gr.cycle_matroid(gr.complete_graph(4))
    out = mc.contract(mk4, 0)
    assert out.n == 5 and out.rank == 2


def test_contraction_builds_no_rank_table(f7):
    q = mc.Matroid(f7.n, f7.bases)  # fresh, so nothing is cached on it yet
    # {1, 3, 5} is a line of the Fano plane; the other four points are
    # parallel in the contraction
    assert mc.minor(q, [1, 3, 5], 0) == mc.uniform(1, 4)
    assert "rank_table" not in vars(q) and "rank_levels" not in vars(q)


def test_minor_rejects_overlap():
    with pytest.raises(OverlappingSets):
        mc.minor(mc.uniform(2, 4), [0], [0])


def test_minor_order_independent():
    rng = random.Random(9)
    for _ in range(20):
        m = mc.linear_matroid(random_gf_matrix(rng, 3, 3, 6))
        c, d = rng.randrange(6), rng.randrange(6)
        if c == d:
            continue
        one = mc.minor(m, [c], [d])
        via_contract_first = mc.minor(mc.contract(m, c), 0, [d - 1 if d > c else d])
        via_delete_first = mc.minor(mc.delete(m, d), [c - 1 if c > d else c], 0)
        assert one == via_contract_first == via_delete_first


def test_duality_identities():
    for n in (3, 4):
        for m in mc.enumerate_matroids(n):
            assert mc.dual(mc.dual(m)) == m
            for e in range(m.n):
                assert mc.contract(m, e) == mc.dual(mc.delete(mc.dual(m), e))
                assert mc.delete(m, e).rank in (m.rank - 1, m.rank)
                assert mc.contract(m, e).rank == m.rank - mc.rank_of(m, mask_of([e]))


def test_is_isomorphic(f7, fano):
    assert mc.is_isomorphic(mc.uniform(2, 4), mc.uniform(2, 4)) == (0, 1, 2, 3)
    assert mc.is_isomorphic(mc.uniform(2, 4), mc.uniform(2, 5)) is None
    perm = (3, 0, 5, 1, 6, 2, 4)
    shuffled = mc.linear_matroid(gl.select_cols(fano, perm))
    bij = mc.is_isomorphic(shuffled, f7)
    assert bij is not None
    # the found bijection maps bases onto bases
    f7_bases = f7.basis_set
    for b in shuffled.bases:
        assert mask_of(bij[e] for e in elements_of(b)) in f7_bases


def first_bijection(n, family, other):
    """The first permutation in `permutations` order carrying the family of
    masks onto the other, or None."""
    target = set(other)
    for perm in permutations(range(n)):
        if {mask_of(perm[e] for e in elements_of(s)) for s in family} == target:
            return perm
    return None


def test_isomorphisms_are_the_first_bijection_in_permutation_order():
    rng = random.Random(8128)
    for n in range(5):
        pool = list(mc.enumerate_matroids(n))
        for m in pool:
            perm = rng.sample(range(n), n)
            relabeled = mc.Matroid(n, tuple(sorted(
                (mask_of(perm[e] for e in elements_of(b)) for b in m.bases), key=elements_of
            )))
            for other in [relabeled] + [o for o in pool if o.rank == m.rank]:
                assert mc.is_isomorphic(m, other) == first_bijection(n, m.bases, other.bases)
    previous = None
    for _ in range(300):
        fm = random_flag(rng, 4)
        others = [fl.relabel_flag(fm, rng.sample(range(fm.n), fm.n))]
        if previous is not None and previous.n == fm.n:
            others.append(previous)
        for other in others:
            assert fl.flag_isomorphic(fm, other) == first_bijection(
                fm.n, fm.feasible, other.feasible
            )
        previous = fm


def test_size_screens_answer_as_the_basis_flag_searches():
    """`is_isomorphic` and `has_minor_isomorphic_to` answer None from sizes,
    ranks and basis counts before they build any flag; every answer must be
    what the flag searches give on the two basis flags."""
    rng = random.Random(6174)

    def random_matroid():
        p, rows, cols = rng.choice((2, 3, 5)), rng.randint(1, 4), rng.randint(1, 7)
        return mc.linear_matroid(random_gf_matrix(rng, p, rows, cols))

    screened = {"isomorphic": 0, "minor": 0}
    found = {"isomorphic": 0, "minor": 0}
    for _ in range(250):
        m = random_matroid()
        removed = rng.sample(range(m.n), rng.randint(0, m.n - 1))
        cut = rng.randint(0, len(removed))
        sub = mc.minor(m, removed[:cut], removed[cut:])
        uniform = mc.uniform(rng.randint(0, 3), rng.randint(3, 5))
        others = [random_matroid(), sub, mc.dual(sub), uniform]
        perm = rng.sample(range(m.n), m.n)
        others.append(mc.Matroid(m.n, tuple(sorted(
            (mask_of(perm[e] for e in elements_of(b)) for b in m.bases), key=elements_of
        ))))
        fm = fl.basis_flag(m)
        for other in others:
            fo = fl.basis_flag(other)
            want = fl.flag_isomorphic(fm, fo)
            assert mc.is_isomorphic(m, other) == want
            screened["isomorphic"] += (m.n, m.rank, len(m.bases)) != (
                other.n, other.rank, len(other.bases)
            )
            found["isomorphic"] += want is not None
            hit = fl.flag_has_minor(fm, fo)
            want = None if hit is None else (hit[0], hit[1], hit[3])
            assert mc.has_minor_isomorphic_to(m, other) == want
            screened["minor"] += (
                other.n > m.n or other.rank > m.rank or other.n - other.rank > m.n - m.rank
            )
            found["minor"] += want is not None
    assert all(screened.values()) and all(found.values()), (screened, found)


def test_has_minor(f7):
    assert mc.has_minor_isomorphic_to(f7, mc.uniform(2, 4)) is None
    hit = mc.has_minor_isomorphic_to(mc.uniform(2, 5), mc.uniform(2, 4))
    assert hit == ((), (0,), (0, 1, 2, 3))
    from flagmatroids import graphic as gr

    mk4 = gr.cycle_matroid(gr.complete_graph(4))
    assert mc.has_minor_isomorphic_to(mk4, mc.uniform(2, 4)) is None


def test_has_minor_witness_replays():
    target = mc.uniform(2, 4)
    u35 = mc.uniform(3, 5)
    hit = mc.has_minor_isomorphic_to(u35, target)
    assert hit == ((0,), (), (0, 1, 2, 3))
    c, d, bij = hit
    minor = mc.minor(u35, c, d)
    target_bases = target.basis_set
    for b in minor.bases:
        assert mask_of(bij[e] for e in elements_of(b)) in target_bases


def test_fixture_classifications(f7):
    assert mc.is_binary(f7)
    assert not mc.is_ternary(f7)
    assert not mc.is_binary(mc.uniform(2, 4))
    assert mc.is_ternary(mc.uniform(2, 4))


def test_binary_soundness_on_gf2_matrices():
    rng = random.Random(17)
    for _ in range(25):
        m = mc.linear_matroid(random_gf_matrix(rng, 2, rng.randint(1, 3), rng.randint(1, 6)))
        assert mc.is_binary(m)


def test_binary_oracle_equivalence_up_to_n5():
    from flagmatroids.representability import matroid_representation

    for n in range(6):
        for m in mc.enumerate_matroids(n):
            assert mc.is_binary(m) == (matroid_representation(m, 2) is not None)


def test_circuits_determine_matroid():
    for m in mc.enumerate_matroids(4):
        circuits = [elements_of(c) for c in mc.circuits(m)]
        independent = [
            s
            for mask in range(1 << m.n)
            for s in [elements_of(mask)]
            if not any(set(c) <= set(s) for c in circuits)
        ]
        assert mc.matroid_from_independent_sets(m.n, independent) == m


def test_loops_and_parallel_classes():
    a = gl.matrix(2, [[0, 1, 1, 0], [0, 0, 0, 1]])
    m = mc.linear_matroid(a)
    assert mc.loops(m) == (0,)
    classes = mc.parallel_classes(m)
    assert sorted(map(sorted, classes)) == [[1, 2], [3]]


def test_enumerate_matroids_counts():
    # labeled matroid counts on 0..6 elements (OEIS A058673)
    counts = [sum(1 for _ in mc.enumerate_matroids(n)) for n in range(7)]
    assert counts == [1, 2, 5, 16, 68, 406, 3807]


def reference_enumerate_basis_families(n, r):
    """All exchange-valid nonempty families of r-subsets of {0..n-1}, by
    trying each of the 2^C(n, r) - 1 families in order of its pick integer
    (bit i set iff the i-th r-set of `size_masks` is in it)."""
    pool = size_masks(n, r)
    for pick in range(1, 1 << len(pool)):
        fam = tuple(pool[i] for i in range(len(pool)) if pick >> i & 1)
        if mc.basis_exchange_witness(fam) is None:
            yield fam


def test_extensions_start_with_the_coloop_and_end_with_the_loop():
    # rank 0 has no hyperplanes: coloop, then loop
    assert [mc.Matroid(3, fam) for fam in mc.single_element_extensions(mc.uniform(0, 2))] == [
        mc.Matroid(3, (4,)), mc.uniform(0, 3)
    ]
    # U_{1,1}: coloop, free (parallel to 0), loop
    got = [mc.Matroid(2, fam) for fam in mc.single_element_extensions(mc.uniform(1, 1))]
    assert got == [mc.uniform(2, 2), mc.uniform(1, 2), mc.Matroid(2, (1,))]
    # U_{2,3}: coloop, free, on one of the three points, loop
    got = [mc.Matroid(4, fam) for fam in mc.single_element_extensions(mc.uniform(2, 3))]
    coloop = mc.Matroid(4, (b | 8 for b in mc.uniform(2, 3).bases))
    assert len(got) == 6 and got[:2] == [coloop, mc.uniform(2, 4)]
    assert got[-1] == mc.Matroid(4, mc.uniform(2, 3).bases)
    assert all(mc.delete(m, 3) == mc.uniform(2, 3) for m in got)


def test_extensions_give_the_matroids_of_the_family_search_in_its_order():
    for n in range(6):
        families = [fam for r in range(n + 1) for fam in reference_enumerate_basis_families(n, r)]
        expected = [mc.Matroid(n, fam) for fam in families]
        assert list(mc.enumerate_matroids(n)) == expected


def test_every_memo_is_bounded():
    memos = [f for f in vars(mc).values() if hasattr(f, "cache_info")]
    assert {f.__name__ for f in memos} >= {"_element_bits", "_size_bits", "fano_matroid"}
    for f in memos:
        # a memo without arguments holds one entry; any other needs a bound
        if inspect.signature(f.__wrapped__).parameters:
            assert f.cache_info().maxsize is not None, f.__name__
