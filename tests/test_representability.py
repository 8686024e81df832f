import json
import random
import re
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    all_flags,
    oracle_rank_mod_p,
    random_flag,
    random_full_flag,
    random_gf_matrix,
    random_prefix_chain_matrix,
    random_representation,
)
from flagmatroids import flag_core as fl
from flagmatroids import gf_linalg as gl
from flagmatroids import jsonio as io
from flagmatroids import lifts_majors as lm
from flagmatroids import matroid_core as mc
from flagmatroids import representability as rp
from flagmatroids.bitset import mask_of
from flagmatroids.errors import (
    FieldTooSmall,
    IndexOutOfRange,
    InternalError,
    LastLayer,
    NoTransform,
    NotFull,
    RankDeficientPrefix,
    SingleLevel,
)

GAP_MAJOR_GF2 = [[1, 1, 1, 0, 0], [0, 1, 1, 1, 0], [0, 0, 1, 0, 1]]
GAP_MAJOR_GF3 = [[1, 1, 1, 0, 0], [0, 1, 2, 1, 0], [0, 1, 1, 0, 1]]


def test_flag_from_matrix_examples(fano, f7):
    a = gl.matrix(3, [[1, 1, 1], [0, 1, 2]])
    fm = rp.flag_from_matrix(a, (1, 2))
    assert fm == fl.chop(fl.independent_flag(mc.uniform(2, 3)), 0)

    assert rp.flag_from_matrix(fano, (3,)) == fl.basis_flag(f7)

    nested = rp.flag_from_matrix(gl.identity(2, 3), (1, 2, 3))
    assert nested.feasible == (mask_of([0]), mask_of([0, 1]), mask_of([0, 1, 2]))


def test_flag_from_matrix_consecutive_levels_is_full():
    a = gl.matrix(5, [[1, 1, 1, 1], [0, 1, 2, 3], [0, 1, 4, 4]])
    fm = rp.flag_from_matrix(a, (1, 2, 3))
    assert lm.is_full(fm)
    assert [m.rank for m in fm.layers] == [1, 2, 3]


def reference_represented_flag(rep):
    """The construction `represented_flag` replaced: one linear matroid per
    prefix, chained by `from_sequence`."""
    return fl.from_sequence([mc.linear_matroid(gl.prefix_rows(rep.matrix, d)) for d in rep.levels])


def test_represented_flag_matches_the_linear_matroid_chain():
    rng = random.Random(27)
    reps = []
    for p in (2, 3, 5, 7):
        reps += [random_representation(rng, p) for _ in range(15)]
        a = random_prefix_chain_matrix(rng, p, 3, 6)
        reps += [rp.FlagRepresentation(a, (0, 3)), rp.FlagRepresentation(a, (0, 1, 2, 3))]
    reps += [rp.uniform_flag_representation(0, 3, p) for p in (2, 3, 5, 7)]
    assert any(rep.levels[0] == 0 for rep in reps)
    for rep in reps:
        assert rp.represented_flag(rep) == reference_represented_flag(rep), rep


def test_flag_representation_validates():
    with pytest.raises(Exception):
        rp.FlagRepresentation(gl.matrix(2, [[0, 0], [1, 0]]), (1, 2))


def test_uniform_flag_representation():
    rep = rp.uniform_flag_representation(2, 4, 5)
    assert rep.matrix.row_lists() == [[1, 1, 1, 1], [0, 1, 2, 3]]
    assert rep.levels == (1, 2)
    want = fl.chop(fl.independent_flag(mc.uniform(2, 4)), 0)
    assert rp.represented_flag(rep) == want

    for n, p in ((1, 2), (6, 2), (8, 5), (3, 7)):
        ones = rp.uniform_flag_representation(1, n, p)
        assert (ones.matrix.row_lists(), ones.levels) == ([[1] * n], (1,))

    with pytest.raises(FieldTooSmall):
        rp.uniform_flag_representation(2, 4, 3)

    zero = rp.uniform_flag_representation(0, 3, 2)
    assert rp.represented_flag(zero) == fl.basis_flag(mc.uniform(0, 3))


def test_uniform_representation_every_subset_feasible():
    for r, n, p in ((2, 4, 5), (3, 5, 5), (2, 5, 7)):
        rep = rp.uniform_flag_representation(r, n, p)
        fm = rp.represented_flag(rep)
        for k in range(1, r + 1):
            for cols in combinations(range(n), k):
                assert mask_of(cols) in fm.feasible


def test_decide_agrees_on_a_flag_and_its_dual():
    """fm is representable over GF(p) iff its dual is, and a representation
    of fm maps through `dual_representation` to one of the dual: every
    flag on at most 3 elements and 200 seeded flags on 4, by the default
    routes over GF(2)/GF(3) and by the band walk over GF(5)/GF(7), where
    every one of them is representable."""
    flags = [fm for n in range(4) for fm in all_flags(n)]
    flags += random.Random(31).sample(all_flags(4), 200)
    for fm in flags:
        dual = fl.flag_dual(fm)
        for p, method in ((2, "witness"), (3, "witness"), (5, "search"), (7, "search")):
            got = rp.decide(fm, p, method)
            assert got.representable == rp.decide(dual, p, method).representable, (fm, p)
            assert got.representable or p < 5, (fm, p)
            if got.representable:
                assert rp.represents(rp.dual_representation(got.certificate), dual), (fm, p)


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1))
def test_decide_has_one_verdict_on_a_flag_and_its_dual(seed):
    """Representability over GF(p) is closed under duality, so every method
    must give a seeded flag on at most 5 elements, full or not, and its dual
    the same verdict."""
    fm = random_flag(random.Random(seed), 5)
    dual = fl.flag_dual(fm)
    runs = [(p, method) for p in (2, 3) for method in ("witness", "minors", "all")]
    runs += [(5, "search"), (7, "search")]
    for p, method in runs:
        got = rp.decide(fm, p, method).representable
        assert got == rp.decide(dual, p, method).representable, (p, method)


@pytest.mark.parametrize("ranks, n", [
    ((1, 2), 6), ((2, 3), 6), ((1, 2, 3), 6), ((2,), 7), ((1, 2), 7),
])
def test_search_refuses_a_uniform_flag_and_its_dual_over_gf5(ranks, n):
    """Uniform flags that GF(5) cannot represent, and their duals: the
    "no" side of duality as an oracle for the walk's backtracking.  For
    example, U_{2,7} needs 7 of the 6 points of the projective line, and
    (U_{1,6},U_{2,6}) needs 6 points off the one where the first row is 0."""
    fm = fl.from_sequence([mc.uniform(r, n) for r in ranks])
    for flag in (fm, fl.flag_dual(fm)):
        assert rp.decide(flag, 5, "search").representable is False, (ranks, n, flag)


DUAL_NAMES = {"U_{2,5}": "U_{3,5}", "U_{3,5}": "U_{2,5}", "F_7": "F_7^*", "F_7^*": "F_7"}


def dual_forbidden_minor_witness(fm, w):
    """The witness for flag_dual(fm) that w maps to.  (fm/C\\D)* is
    fm*/D\\C, a layer of size k on m elements has its complements at size
    m - k, and relabelling commutes with duality, so the bijection stays.
    Both lists are closed under duality: the binary targets are self-dual,
    and U_{2,5} and U_{3,5}, F_7 and F_7^* swap, in their pairs too."""
    m = fm.n - len(w.contract) - len(w.delete)
    name = re.sub(r"U_\{[23],5\}|F_7\^\*|F_7", lambda x: DUAL_NAMES[x[0]], w.target_name)
    chops = tuple(sorted(m - k for k in w.chops))
    return w._replace(target_name=name, target=fl.flag_dual(w.target),
                      contract=w.delete, delete=w.contract, chops=chops)


def planted_no_flag(rng, q, k, n, levels):
    """The flag of a full-rank GF(q) matrix whose top two rows hold k
    pairwise independent columns, so its rank-2 layer has U_{2,k} as a
    restriction: not binary for k = 4, not ternary for k = 5."""
    r = levels[-1]
    vectors = [(1, 0), (0, 1)] + [(1, a) for a in range(1, q)]
    while True:
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(r)]
        for c, (x, y) in zip(rng.sample(range(n), k), vectors[:k]):
            rows[0][c], rows[1][c] = x, y
        a = gl.matrix(q, rows)
        if gl.rank(a) == r:
            return rp.flag_from_matrix(a, levels)


def test_forbidden_minor_certificates_map_to_the_dual(capture, tmp_path):
    """Duality as an oracle for "no" certificates: the certificate of each
    seeded full "no" flag, and of its dual, mapped by
    `dual_forbidden_minor_witness`, validates for the other flag, which
    `decide` also calls a "no".  Planted U_{2,4} over GF(2) and U_{2,5} over
    GF(3); the 3-element (U_{1,3}, U_{2,3}) over GF(2); U_{2,5} (GF(3) has
    4 projective points), (U_{1,4}, U_{2,4}) (and 3 affine ones) and Fano
    flags over GF(3).  Every listed name is met."""
    f7 = mc.linear_matroid(mc.fano_matrix())
    cases = [(2, fl.from_sequence([mc.uniform(1, 3), mc.uniform(2, 3)])),
             (3, fl.from_sequence([mc.uniform(2, 5)])),
             (3, fl.from_sequence([mc.uniform(1, 4), mc.uniform(2, 4)])),
             (3, fl.from_sequence([f7])),
             (3, fl.from_sequence([mc.contract(f7, 0), mc.delete(f7, 0)]))]
    for seed in range(1, 8):
        rng = random.Random(seed)
        for p, q, n, levels in ((2, 3, 6, (2, 3)), (2, 3, 8, (1, 2, 3)), (2, 3, 9, (2, 3, 4)),
                                (3, 5, 7, (2, 3)), (3, 5, 8, (1, 2, 3)), (3, 5, 9, (2, 3, 4))):
            cases.append((p, planted_no_flag(rng, q, p + 2, n, levels)))
    names = set()
    for i, (p, fm) in enumerate(cases):
        for flag, dual in ((fm, fl.flag_dual(fm)), (fl.flag_dual(fm), fm)):
            witness = dual_forbidden_minor_witness(flag, rp.decide(flag, p).witness)
            names.add(witness.target_name)
            path = tmp_path / f"dual{i}.json"
            path.write_text(json.dumps(io.forbidden_minor_certificate(p, dual, witness)))
            code, out, _ = capture("validate", str(path))
            assert (code, json.loads(out)["valid"]) == (0, True), (p, flag, witness)
            assert rp.decide(dual, p).representable is False, (p, flag)
    assert names == {name for p in (2, 3) for name, _ in rp.forbidden_flags(p)}


def test_dual_representation_examples(fano):
    rep = rp.FlagRepresentation(gl.matrix(3, [[0, 1, 1, 1], [1, 0, 1, 2]]), (2,))
    d = rp.dual_representation(rep)
    assert mc.linear_matroid(d.matrix) == mc.uniform(2, 4)

    rep2 = rp.FlagRepresentation(gl.matrix(3, [[1, 1, 1], [0, 1, 2]]), (1, 2))
    d2 = rp.dual_representation(rep2)
    assert rp.represented_flag(d2) == fl.flag_dual(rp.represented_flag(rep2))

    fano_rep = rp.FlagRepresentation(fano, (3,))
    df = rp.dual_representation(fano_rep)
    assert mc.is_isomorphic(mc.linear_matroid(df.matrix), mc.dual(mc.linear_matroid(fano))) is not None


def test_dual_representation_involution():
    rng = random.Random(23)
    for _ in range(30):
        rep = random_representation(rng, rng.choice([2, 3]), max_n=5)
        dd = rp.dual_representation(rp.dual_representation(rep))
        assert rp.represented_flag(dd) == rp.represented_flag(rep)
        assert dd.levels == rep.levels
        # double annihilator: the level prefixes span the same row spaces
        for d in rep.levels:
            assert rp.projectively_equivalent(
                gl.prefix_rows(dd.matrix, d), gl.prefix_rows(rep.matrix, d)
            )


def test_dual_representation_zero_level():
    # dual of the empty stack on the rank-0 flag is the full-rank identity
    rep = rp.FlagRepresentation(gl.matrix(2, [], cols=3), (0,))
    d = rp.dual_representation(rep)
    assert d.levels == (3,)
    assert rp.represented_flag(d) == fl.basis_flag(mc.uniform(3, 3))
    back = rp.dual_representation(d)
    assert back.levels == (0,)


def test_dual_representation_checks_each_level_against_the_dual_layer(monkeypatch):
    """The self-check compares the dual's prefixes with the duals of rep's
    layers: unit vectors in place of the kernel vectors still make a valid
    representation, but not of the dual flag, and the call raises."""
    rep = rp.uniform_flag_representation(2, 4, 5)

    def units(a):
        return [tuple(int(j == f) for j in range(a.cols)) for f in range(a.rows, a.cols)]

    monkeypatch.setattr(gl, "kernel_basis", units)
    with pytest.raises(InternalError, match="dual construction mismatch"):
        rp.dual_representation(rep)


def test_dual_representation_builds_no_flag():
    """The self-check reads column bases only: no `FlagMatroid` is built, so
    the layer memo gains no entry."""
    fl._layer_check.cache_clear()
    rng = random.Random(37)
    for p in (2, 3, 5, 7):
        rep = random_representation(rng, p, max_n=8)
        rp.dual_representation(rep)
        assert fl._layer_check.cache_info().currsize == 0, rep


def test_dual_representation_refuses_more_than_twenty_columns():
    rep = rp.FlagRepresentation(gl.matrix(2, [[1] * 21]), (1,))
    with pytest.raises(IndexOutOfRange, match=r"^ground set size 21 outside 0\.\.20$"):
        rp.dual_representation(rep)


def assert_rows_are_a_kernel_chain(rep, dual):
    """For each level d of rep, the first n - d rows of dual's matrix span
    the kernel of rep's d-row prefix: they are independent and it kills
    them."""
    n, p = rep.n, rep.p
    rows = dual.matrix.row_lists()
    assert len(rows) == n - rep.levels[0]
    assert gl.independent_columns(p, rows)
    for d in rep.levels:
        prefix = gl.prefix_rows(rep.matrix, d)
        for v in rows[: n - d]:
            col = gl.matrix(p, [[x] for x in v], cols=1)
            assert not any(gl.matmul(prefix, col).entries)


def test_dual_kernel_chain_trivial():
    dual = rp.dual_representation(rp.FlagRepresentation(gl.identity(2, 1), (1,)))
    assert (dual.matrix.rows, dual.matrix.cols, dual.levels) == (0, 1, (0,))


def test_dual_kernel_chain_vandermonde():
    rep = rp.FlagRepresentation(gl.matrix(5, [[1, 1, 1, 1], [0, 1, 2, 3]]), (1, 2))
    dual = rp.dual_representation(rep)
    assert dual.levels == (2, 3)
    assert_rows_are_a_kernel_chain(rep, dual)
    # the third row leaves the kernel of the whole matrix
    col = gl.matrix(5, [[x] for x in dual.matrix.row(2)], cols=1)
    assert any(gl.matmul(rep.matrix, col).entries)


def test_dual_kernel_chain_fano(fano):
    rep = rp.FlagRepresentation(fano, (1, 2, 3))
    dual = rp.dual_representation(rep)
    assert dual.levels == (4, 5, 6)
    assert_rows_are_a_kernel_chain(rep, dual)


def reference_kernel_chain(a, levels):
    """The chain built level by level from the deepest prefix outward, each
    prefix's canonical kernel vectors absorbed until the chain has n - d."""
    chain, span = [], []
    for d in reversed(levels):
        for v in gl.kernel_basis(gl.prefix_rows(a, d)):
            if len(chain) == a.cols - d:
                break
            if gl._absorb(span, v, a.p):
                chain.append(v)
    return chain


def test_dual_representation_rows_are_the_reference_chain():
    """Seeded validated representations over GF(2/3/5/7) with up to 8
    columns, level 0 included: the dual's rows are the reference chain and
    its levels the complements."""
    rng = random.Random(3636)
    made = zero = 0
    while made < 1200:
        p = rng.choice([2, 3, 5, 7])
        n = rng.randint(1, 8)
        r = rng.randint(0, n)
        a = random_prefix_chain_matrix(rng, p, r, n) if r else gl.matrix(p, [], cols=n)
        if a is None:
            continue
        levels = tuple(sorted(rng.sample(range(r), rng.randint(0, r)))) + (r,)
        dual = rp.dual_representation(rp.FlagRepresentation(a, levels))
        assert dual.matrix == gl.matrix(p, reference_kernel_chain(a, levels), cols=n)
        assert dual.levels == tuple(n - d for d in reversed(levels))
        made += 1
        zero += levels[0] == 0
    assert 200 < zero < 1000


def test_chop_representation():
    rep3 = rp.FlagRepresentation(gl.matrix(5, [[1] * 4, [0, 1, 2, 3], [0, 1, 4, 4]]), (1, 2, 3))
    chopped = rp.chop_representation(rep3, 2)
    assert chopped.levels == (1, 3)
    assert rp.represented_flag(chopped) == fl.chop(rp.represented_flag(rep3), 2)
    with pytest.raises(LastLayer):
        rp.chop_representation(rp.uniform_flag_representation(1, 3, 2), 1)


def test_prefix_ranks_match_one_rank_per_level():
    """`independent_prefix` decides every level's prefix rank at once: on
    random matrices, some with a row that combines earlier rows,
    `FlagRepresentation` refuses the least rank-deficient level, as one
    rank per level does."""
    rng = random.Random(2020)
    for _ in range(2000):
        p = rng.choice([2, 3, 5, 7])
        rows, cols = rng.randint(0, 5), rng.randint(1, 6)
        entries = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
        if rows >= 2 and rng.random() < 0.5:
            i = rng.randrange(1, rows)
            entries[i] = [
                sum(rng.randrange(p) * entries[k][j] for k in range(i)) % p for j in range(cols)
            ]
        a = gl.matrix(p, entries, cols=cols)
        levels = tuple(sorted(rng.sample(range(rows), rng.randint(0, rows)))) + (rows,)
        full = [oracle_rank_mod_p(entries[:d], p) == d for d in range(rows + 1)]
        assert gl.independent_prefix(a) == (full.index(False) - 1 if False in full else rows)
        deficient = next((d for d in levels if not full[d]), None)
        if deficient is None:
            assert rp.FlagRepresentation(a, levels).levels == levels
            continue
        with pytest.raises(RankDeficientPrefix) as exc:
            rp.FlagRepresentation(a, levels)
        assert exc.value.payload["level"] == deficient


def test_major_from_representation_reproduces_known_major():
    base = gl.matrix(2, [[1, 1, 1], [0, 1, 1], [0, 0, 1]])
    rep = rp.FlagRepresentation(base, (1, 3))
    major = rp.major_from_representation(rep)
    assert major.matrix.row_lists() == GAP_MAJOR_GF2
    assert lm.verify_major(major.matroid, major.blocks, rp.represented_flag(rep))
    assert major.blocks == ((3, 4),)


def test_major_from_representation_vandermonde():
    rep = rp.uniform_flag_representation(3, 3, 5)
    major = rp.major_from_representation(rep)
    assert major.matroid.n == 5
    assert lm.verify_major(major.matroid, major.blocks, rp.represented_flag(rep))
    assert [len(b) for b in major.blocks] == [1, 1]

    with pytest.raises(SingleLevel):
        rp.major_from_representation(rp.uniform_flag_representation(1, 4, 2))


def test_known_gap_majors_pairwise_distinct():
    g = fl.from_sequence([mc.uniform(1, 3), mc.uniform(3, 3)])
    q2 = mc.linear_matroid(gl.matrix(2, GAP_MAJOR_GF2))
    q3 = mc.linear_matroid(gl.matrix(3, GAP_MAJOR_GF3))
    u35 = mc.uniform(3, 5)
    assert lm.verify_major(q2, [(3, 4)], g)
    assert lm.verify_major(q3, [(3, 4)], g)
    assert lm.verify_major(u35, [(3, 4)], g)
    assert mc.is_isomorphic(q2, q3) is None
    assert mc.is_isomorphic(q2, u35) is None
    assert mc.is_isomorphic(q3, u35) is None


def test_projectively_equivalent():
    rng = random.Random(31)
    b = gl.matrix(3, [[1, 0, 2, 1], [0, 1, 1, 1]])
    m = gl.matrix(3, [[2, 1], [1, 1]])
    assert rp.projectively_equivalent(gl.matmul(m, b), b)
    assert not rp.projectively_equivalent(b, gl.matrix(3, [[1, 0, 0, 0], [0, 1, 0, 0]]))
    # two full-rank GF(2) representations of one binary matroid share a row space
    a1 = rp.matroid_representation(mc.fano_matroid(), 2)
    while True:
        t = random_gf_matrix(rng, 2, 3, 3)
        if gl.is_nonsingular(t):
            break
    assert rp.projectively_equivalent(gl.matmul(t, a1), a1)
    assert not rp.projectively_equivalent(gl.matrix(2, [[1, 1]]), gl.matrix(2, [[1, 0], [0, 1]]))


def test_stitch_representations():
    # binary prefix flags sharing the middle layer
    a = gl.identity(2, 3)
    m1 = mc.linear_matroid(gl.prefix_rows(a, 1))
    m2 = mc.linear_matroid(gl.prefix_rows(a, 2))
    m3 = mc.uniform(3, 3)
    rep_a = rp.FlagRepresentation(gl.prefix_rows(a, 2), (1, 2))
    rep_b = rp.FlagRepresentation(a, (2, 3))
    out = rp.stitch_representations(rep_a, rep_b)
    assert out.levels == (1, 2, 3)
    assert rp.represented_flag(out) == fl.from_sequence([m1, m2, m3])


def test_stitch_representations_gf3_chain():
    # stitch two independently found GF(3) representations of uniform pairs
    pair_a = rp.search_representation(fl.from_sequence([mc.uniform(1, 3), mc.uniform(2, 3)]), 3)
    pair_b = rp.search_representation(fl.from_sequence([mc.uniform(2, 3), mc.uniform(3, 3)]), 3)
    out = rp.stitch_representations(pair_a, pair_b)
    assert rp.represented_flag(out) == fl.from_sequence(
        [mc.uniform(1, 3), mc.uniform(2, 3), mc.uniform(3, 3)]
    )


def test_match_column_scaling_gf3():
    # a shared layer whose column 2 is doubled has another row space, and
    # still stitches: the scaling is absorbed into rep_b's new row
    a = gl.matrix(3, [[0, 1, 1, 1], [1, 0, 1, 2]])
    scaled = gl.matrix(3, [[0, 1, 2, 1], [1, 0, 2, 2], [0, 0, 1, 1]])
    assert not rp.projectively_equivalent(a, gl.prefix_rows(scaled, 2))
    out = rp.stitch_representations(
        rp.FlagRepresentation(a, (2,)), rp.FlagRepresentation(scaled, (2, 3))
    )
    assert out.matrix.row_lists() == a.row_lists() + [[0, 0, 2, 1]]
    assert out.levels == (2, 3)


def _reference_scaling(a, b):
    """Every column scaling s with b @ diag(s) of a's row space, found by
    trying all of them, and the least one by its inverse on a's pivot
    columns, then by s."""
    p = a.p
    pivots = gl.rref(a)[1]
    valid = []
    for s in product(range(1, p), repeat=a.cols):
        bs = gl.matrix(p, [[x * f for x, f in zip(b.row(i), s)] for i in range(b.rows)])
        if rp.projectively_equivalent(bs, a):
            valid.append(s)
    return valid, min(valid, key=lambda s: ([pow(s[c], p - 2, p) for c in pivots], s))


def _sparse_full_rank(rng, p, r, n):
    """A random r x n matrix of rank r over GF(p), mostly zeros, with a
    zero column; its support graph often splits into components."""
    while True:
        rows = [[rng.randrange(1, p) if rng.random() < 0.35 else 0 for _ in range(n)]
                for _ in range(r)]
        zero = rng.randrange(n)
        for row in rows:
            row[zero] = 0
        a = gl.matrix(p, rows)
        if gl.rank(a) == r:
            return a


@pytest.mark.parametrize("p, n, tries", [(3, 7, 30), (5, 5, 12)])
def test_stitch_matches_brute_force_scaling(p, n, tries):
    rng = random.Random(1500 + p)
    split = 0
    for _ in range(tries):
        r = rng.randint(1, 3)
        a = _sparse_full_rank(rng, p, r, n)
        while True:
            t = random_gf_matrix(rng, p, r, r)
            if gl.is_nonsingular(t):
                break
        units = [rng.randrange(1, p) for _ in range(n)]
        moved = gl.matmul(t, a)
        top = [[x * f for x, f in zip(moved.row(i), units)] for i in range(r)]
        extra = [rng.randrange(p) for _ in range(n)]
        b = gl.matrix(p, top + [extra])
        if gl.rank(b) != r + 1:
            continue
        valid, s = _reference_scaling(a, gl.prefix_rows(b, r))
        loops = sum(not any(a.col(e)) for e in range(n))
        split += len(valid) > (p - 1) ** (1 + loops)  # several components
        out = rp.stitch_representations(
            rp.FlagRepresentation(a, (r,)), rp.FlagRepresentation(b, (r, r + 1))
        )
        assert out.levels == (r, r + 1)
        assert out.matrix.row_lists() == a.row_lists() + [
            [x * f % p for x, f in zip(extra, s)]
        ]
    assert split >= 5


def test_stitch_rejects_different_shared_layers():
    # rep_b's bottom layer is U(1,3), rep_a's top layer has a loop at 2
    rep_a = rp.FlagRepresentation(gl.matrix(3, [[1, 1, 0]]), (1,))
    rep_b = rp.FlagRepresentation(gl.matrix(3, [[1, 1, 1], [0, 1, 2]]), (1, 2))
    with pytest.raises(NoTransform):
        rp.stitch_representations(rep_a, rep_b)
    # a has columns 0 and 1 parallel, b has a loop at 2
    rep_a = rp.FlagRepresentation(gl.matrix(3, [[1, 1, 0], [0, 0, 1]]), (2,))
    rep_b = rp.FlagRepresentation(gl.identity(3, 3), (2, 3))
    with pytest.raises(NoTransform):
        rp.stitch_representations(rep_a, rep_b)
    # same pivots and support, but a's columns 2 and 3 are parallel and b's are not
    rep_a = rp.FlagRepresentation(gl.matrix(3, [[1, 0, 1, 1], [0, 1, 1, 1]]), (2,))
    b = gl.matrix(3, [[1, 0, 1, 1], [0, 1, 1, 2], [0, 0, 1, 0]])
    rep_b = rp.FlagRepresentation(b, (2, 3))
    with pytest.raises(NoTransform):
        rp.stitch_representations(rep_a, rep_b)


def test_matroid_representation_oracle_equivalence():
    for n in range(5):
        for m in mc.enumerate_matroids(n):
            has2 = rp.matroid_representation(m, 2) is not None
            has3 = rp.matroid_representation(m, 3) is not None
            assert has2 == mc.is_binary(m)
            assert has3 == mc.is_ternary(m)


def test_search_representation_known_cases(f7):
    iu23 = fl.chop(fl.independent_flag(mc.uniform(2, 3)), 0)
    assert rp.search_representation(iu23, 2) is None
    got = rp.search_representation(fl.basis_flag(mc.uniform(2, 4)), 3)
    assert got is not None and mc.linear_matroid(got.matrix) == mc.uniform(2, 4)
    assert rp.search_representation(fl.basis_flag(f7), 3) is None
    assert rp.search_representation(fl.basis_flag(f7), 2) is not None


def test_search_representation_gap_and_zero_level():
    gap = fl.from_sequence([mc.uniform(0, 4), mc.uniform(2, 4)])
    found = rp.search_representation(gap, 3)
    assert found is not None and rp.represented_flag(found) == gap
    assert found.levels == (0, 2)
    assert rp.search_representation(gap, 2) is None

    small = fl.from_sequence([mc.uniform(0, 3), mc.uniform(2, 3)])
    got = rp.search_representation(small, 2)
    assert got is not None and rp.represented_flag(got) == small


def test_forbidden_minor_decisions(f7):
    pair = fl.from_sequence([mc.uniform(1, 3), mc.uniform(2, 3)])
    d = rp.forbidden_minor_decision(pair, 2)
    assert not d.representable and d.witness.target_name == "(U_{1,3},U_{2,3})"

    bf7 = fl.basis_flag(f7)
    d2 = rp.decide(bf7, 2)
    assert d2.representable
    assert rp.represented_flag(d2.certificate) == bf7
    d3 = rp.decide(bf7, 3)
    assert not d3.representable and d3.witness.target_name == "(F_7)"

    small = fl.from_sequence([mc.uniform(1, 2), mc.uniform(2, 2)])
    d4 = rp.decide(small, 2)
    assert d4.representable and rp.represented_flag(d4.certificate) == small

    # both full-flag routes refuse a flag that is not full; `decide` sends
    # such a flag to the band walk instead, whose verdict is the fillings'
    gap = fl.from_sequence([mc.uniform(1, 3), mc.uniform(3, 3)])
    for route in (rp.witness_route_decision, rp.forbidden_minor_decision):
        with pytest.raises(NotFull):
            route(gap, 2)
    got = rp.decide(gap, 2)
    assert got.representable == rp.is_representable_via_fillings(gap, 2).representable
    assert got.certificate == rp.search_representation(gap, 2)


def test_witness_route_matches_minors_route():
    rng = random.Random(37)
    for _ in range(40):
        fm = random_full_flag(rng, 4)
        for p in (2, 3):
            assert (
                rp.witness_route_decision(fm, p).representable
                == rp.forbidden_minor_decision(fm, p).representable
            )


def test_ternary_forbidden_list_shape():
    targets = rp.ternary_forbidden_flags()
    names = [name for name, _ in targets]
    assert len([n for n in names if "/e" not in n]) == 4
    # transitivity of the four excluded matroids leaves one pair each
    assert len(names) == 8


def test_ternary_forbidden_flags_pinned_to_the_four_excluded_matroids():
    """The names and flags of the list, built from the four excluded
    ternary matroids written out here: (R), then (R/e, R\\e) for each e
    that is neither a loop nor a coloop, up to flag isomorphism."""
    f7 = mc.fano_matroid()
    named = (
        ("U_{2,5}", mc.uniform(2, 5)),
        ("U_{3,5}", mc.uniform(3, 5)),
        ("F_7", f7),
        ("F_7^*", mc.dual(f7)),
    )
    want = []
    for name, r in named:
        want.append((f"({name})", fl.from_sequence([r])))
        pairs = []
        for e in range(r.n):
            if r.loops_mask >> e & 1 or r.coloops_mask >> e & 1:
                continue
            cand = fl.from_sequence([mc.contract(r, e), mc.delete(r, e)])
            if all(fl.flag_isomorphic(cand, seen) is None for seen in pairs):
                pairs.append(cand)
                want.append((f"({name}/e,{name}\\e)", cand))
    assert rp.ternary_forbidden_flags() == tuple(want)
    assert [name for name, _ in want] == [
        "(U_{2,5})", "(U_{2,5}/e,U_{2,5}\\e)", "(U_{3,5})", "(U_{3,5}/e,U_{3,5}\\e)",
        "(F_7)", "(F_7/e,F_7\\e)", "(F_7^*)", "(F_7^*/e,F_7^*\\e)",
    ]


def test_fillings_route(f7):
    g = fl.from_sequence([mc.uniform(1, 3), mc.uniform(3, 3)])
    out = rp.is_representable_via_fillings(g, 2)
    assert out.representable is True
    assert rp.represented_flag(out.certificate) == g

    bad = fl.chop(fl.independent_flag(mc.uniform(2, 4)), 0)
    assert rp.is_representable_via_fillings(bad, 2).representable is False

    full = fl.basis_flag(f7)
    assert rp.is_representable_via_fillings(full, 3).representable is False
    assert rp.is_representable_via_fillings(full, 2).representable is True

    unknown = rp.is_representable_via_fillings(
        fl.from_sequence([mc.uniform(1, 4), mc.uniform(4, 4)]), 2, budget=2
    )
    assert unknown.representable is None


def test_certificates_reproduce_input():
    rng = random.Random(41)
    for _ in range(25):
        fm = random_full_flag(rng, 4)
        for p in (2, 3):
            decision = rp.forbidden_minor_decision(fm, p)
            if decision.representable:
                cert = rp.witness_route_decision(fm, p).certificate
                assert rp.represented_flag(cert) == fm
