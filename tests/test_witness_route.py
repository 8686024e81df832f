"""Differential tests for the witness route's one-check-per-pair pipeline.

`representability.witness_route_decision` builds each pair's witness
family once and checks it once, through its candidate matrix; the checked
`lifts_majors.elementary_witness` runs only before a "no".  The references
below are the route it replaced, which built every witness through
`lift_witness_sequence` and validated every pair and every stitched
intermediate, and the signing rule with its all-pairs distance table.  The
route, with its one-pass signing, must return exactly what that route
returns with the two-step signing it replaced (a forest that falls out of
the nearest-first order, then a row re-signing to the canonical form): the
verdict, the certificate matrix and its levels.
"""

import json
import random

import pytest

from conftest import random_prefix_chain_matrix
from flagmatroids import flag_core as fl
from flagmatroids import gf_linalg as gl
from flagmatroids import lifts_majors as lm
from flagmatroids import matroid_core as mc
from flagmatroids import representability as rp
from flagmatroids.errors import InternalError

RD = rp.RepresentabilityDecision


def distance_table_signs(entries, r, c, is_basis, forest):
    """Fix the `forest` entries, in order, with their 1s, then every other
    entry, the one with the nearest ends first, by an all-pairs distance
    table rebuilt after every entry it fixes; an entry whose ends are not
    connected keeps its 1."""
    size = r + c
    far = 2 * size
    dist = [[0 if u == v else far for v in range(size)] for u in range(size)]
    fixed = [[] for _ in range(size)]

    def fix(i, end):
        from_i, from_end = dist[i][:], dist[end][:]
        for u in range(size):
            via_i, via_end = dist[u][i] + 1, dist[u][end] + 1
            dist[u] = [min(d, via_i + e, via_end + f) for d, e, f in zip(dist[u], from_end, from_i)]
        fixed[i].append(end)
        fixed[end].append(i)

    for i, j in forest:
        fix(i, r + j)
    pending = sorted(set(entries) - set(forest))
    while pending:
        i, j = min(pending, key=lambda edge: dist[edge[0]][r + edge[1]])
        pending.remove((i, j))
        end = r + j
        if dist[i][end] < far:
            path = [i]
            while path[-1] != end:
                u = path[-1]
                path.append(next(v for v in fixed[u] if dist[v][end] == dist[u][end] - 1))
            rows = sorted(u for u in path if u < r)
            cols = sorted(u - r for u in path if u >= r)
            square = [[entries.get((a, b), 0) for a in rows] for b in cols]
            if gl.independent_columns(3, square) != is_basis(rows, cols):
                entries[i, j] = 2
        fix(i, end)


def reference_ternary_signs(entries, r, c, is_basis):
    """The one-pass signing rule: the column-major spanning forest (each
    entry, column by column and down each column, that joins two components
    of the entries before it) keeps its 1s, then the distance table."""
    label, forest = list(range(r + c)), []
    for i, j in sorted(entries, key=lambda edge: (edge[1], edge[0])):
        a, b = label[i], label[r + j]
        if a != b:
            forest.append((i, j))
            label = [a if x == b else x for x in label]
    distance_table_signs(entries, r, c, is_basis, forest)


def reference_old_ternary_signs(entries, r, c, is_basis):
    """The signing rule the one pass replaced: no forest first, so the
    entries that keep their 1 fall out of the nearest-first order."""
    distance_table_signs(entries, r, c, is_basis, ())


def least_row_signs(entries, r, c):
    """The canonicalisation that ran after the replaced rule: rescale the
    rows of [I | X] (and restore I by scaling its columns) so that each
    column of X, in order, has leading entry 1 and is lexicographically
    least, with a union-find over rows holding the relative sign (0 for +1,
    1 for -1) to the parent."""
    parent, flip = list(range(r)), [0] * r

    def find(i):
        sign = 0
        while parent[i] != i:
            sign ^= flip[i]
            i = parent[i]
        return i, sign

    def negative(i, j):
        return int(entries[i, j] == 2)

    supports = [[i for i in range(r) if (i, j) in entries] for j in range(c)]
    for j, col in enumerate(supports):
        for i in col[1:]:
            (root_i, sign_i), (root_lead, sign_lead) = find(i), find(col[0])
            if root_i != root_lead:
                parent[root_i] = root_lead
                flip[root_i] = sign_i ^ sign_lead ^ negative(i, j) ^ negative(col[0], j)
    sign = [find(i)[1] for i in range(r)]
    for j, col in enumerate(supports):
        lead = negative(col[0], j) ^ sign[col[0]] if col else 0
        for i in col:
            entries[i, j] = 2 if negative(i, j) ^ sign[i] ^ lead else 1


def old_canonical_signs(entries, r, c, is_basis):
    """The replaced two-step signing: the old rule, then `least_row_signs`."""
    reference_old_ternary_signs(entries, r, c, is_basis)
    least_row_signs(entries, r, c)


def reference_pair(rmat, x):
    """The pair's validated representation, as the replaced route built it."""
    p, r = rmat.p, rmat.rows
    rows = [list(rmat.row(i)) for i in range(r)]
    pivot = max(i for i in range(r) if rows[i][x] % p)
    rows[pivot], rows[r - 1] = rows[r - 1], rows[pivot]
    inv = pow(rows[r - 1][x], p - 2, p)
    rows[r - 1] = [(v * inv) % p for v in rows[r - 1]]
    for i in range(r - 1):
        if rows[i][x]:
            f = rows[i][x]
            rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r - 1])]
    pair_rows = [row[:x] + row[x + 1 :] for row in rows]
    return rp.FlagRepresentation(gl.matrix(p, pair_rows, cols=rmat.cols - 1), (r - 1, r))


def reference_route(fm, p):
    """Every witness by the checked `lift_witness_sequence`, every pair and
    every stitched intermediate validated."""
    layers = fm.layers
    if len(layers) == 1:
        a = rp.matroid_representation(layers[0], p)
        if a is None:
            return RD(p, False)
        return RD(p, True, certificate=rp.FlagRepresentation(a, (layers[0].rank,)))
    pairs = []
    for q, x in lm.lift_witness_sequence(fm).witnesses:
        rmat = rp.matroid_representation(q, p)
        if rmat is None:
            return RD(p, False)
        pairs.append(reference_pair(rmat, x))
    rep = pairs[0]
    for pair in pairs[1:]:
        rep = rp.stitch_representations(rep, pair)
    assert rp.represents(rep, fm)
    return RD(p, True, certificate=rep)


def seeded_full_flags(seed, count, sizes):
    """Full flags of random GF(2)/GF(3)/GF(5) prefix-chain matrices, with n
    drawn from `sizes` and consecutive levels from a random bottom rank."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        q, n = rng.choice((2, 3, 5)), rng.choice(sizes)
        r = rng.randint(1, min(n - 1, 6))
        a = random_prefix_chain_matrix(rng, q, r, n)
        if a is not None:
            out.append(rp.flag_from_matrix(a, range(rng.randint(0, r - 1), r + 1)))
    return out


def assert_routes_agree(flags, monkeypatch):
    verdicts = set()
    for fm in flags:
        for p in (2, 3):
            got = rp.witness_route_decision(fm, p)
            with monkeypatch.context() as patch:
                patch.setattr(rp, "_ternary_signs", old_canonical_signs)
                want = reference_route(fm, p)
            assert got == want
            verdicts.add((p, got.representable))
    return verdicts


def test_route_matches_the_reference_on_seeded_flags(monkeypatch):
    # n = 3..14, weighted toward small flags; every (p, verdict) pair occurs
    flags = seeded_full_flags(16, 1000, [3, 4, 5, 6, 7, 8] * 4 + [9, 10, 11] * 2 + [12, 13, 14])
    assert assert_routes_agree(flags, monkeypatch) == {(2, True), (2, False), (3, True), (3, False)}


def test_route_matches_the_reference_on_twenty_elements(monkeypatch):
    flags = seeded_full_flags(17, 4, [16, 18, 20])
    assert len(assert_routes_agree(flags, monkeypatch)) >= 2


def cycle_support(k):
    """The 2k-cycle: row i meets columns i and i + 1 (mod k)."""
    return {(i, i): 1 for i in range(k)} | {(i, (i + 1) % k): 1 for i in range(k)}


def theta_support(k):
    """Two paths of k rows each from row 0 to column 0, sharing only those
    ends, so every cycle has 4k - 2 nodes; 2k - 1 rows and columns."""
    out = {}
    for first in (1, k):
        rows = [0] + list(range(first, first + k - 1))
        cols = list(range(first, first + k - 1)) + [0]
        for t, col in enumerate(cols):
            out[rows[t], col] = 1
            if t + 1 < k:
                out[rows[t + 1], col] = 1
    return out


def matrix_basis_test(rng, support, r, c):
    """`is_basis` of a GF(3) matrix [I | X], X on `support` with random signs."""
    x = [[0] * c for _ in range(r)]
    for i, j in support:
        x[i][j] = rng.choice((1, 2))
    return lambda rows, cols: gl.independent_columns(3, [[x[a][b] for a in rows] for b in cols])


def arbitrary_basis_test(seed):
    """A predicate that is no matroid's: a seeded coin per (rows, cols)."""
    return lambda rows, cols: random.Random(f"{seed}{rows}{cols}").random() < 0.5


def assert_same_signs(support, r, c, is_basis):
    got, want = dict(support), dict(support)
    rp._ternary_signs(got, r, c, is_basis)
    reference_ternary_signs(want, r, c, is_basis)
    assert got == want
    return got


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_signs_on_long_cycles_match_the_reference(k):
    rng = random.Random(k)
    for support, r, c in ((cycle_support(k), k, k), (theta_support(k), 2 * k - 1, 2 * k - 1)):
        for trial in range(8):
            assert_same_signs(support, r, c, matrix_basis_test(rng, support, r, c))
            assert_same_signs(support, r, c, arbitrary_basis_test(f"{k}-{trial}"))


def test_signs_on_random_supports_match_the_reference():
    rng = random.Random(5)
    negative = 0
    for trial in range(300):
        r, c = rng.randint(1, 7), rng.randint(1, 8)
        density = rng.choice((0.25, 0.5, 0.8))
        support = {(i, j): 1 for i in range(r) for j in range(c) if rng.random() < density}
        for is_basis in (matrix_basis_test(rng, support, r, c), arbitrary_basis_test(trial)):
            negative += 2 in assert_same_signs(support, r, c, is_basis).values()
    assert negative > 100


def test_one_pass_signs_are_the_old_signs_canonicalised():
    # on matroid predicates the signing is unique once the forest carries
    # 1s, so the one pass gives what the old rule and its row re-signing gave
    rng = random.Random(34)
    cases = [(cycle_support(k), k, k) for k in (3, 4, 5, 6)]
    cases += [(theta_support(k), 2 * k - 1, 2 * k - 1) for k in (3, 4, 5, 6)]
    for _ in range(300):
        r, c = rng.randint(1, 7), rng.randint(1, 8)
        density = rng.choice((0.25, 0.5, 0.8))
        cases.append(({(i, j): 1 for i in range(r) for j in range(c) if rng.random() < density}, r, c))
    negative = 0
    for support, r, c in cases:
        is_basis = matrix_basis_test(rng, support, r, c)
        got, want = dict(support), dict(support)
        rp._ternary_signs(got, r, c, is_basis)
        old_canonical_signs(want, r, c, is_basis)
        assert got == want
        negative += 2 in got.values()
    assert negative > 100


def count_checked_witnesses(monkeypatch, fm, p):
    calls = []
    checked = lm.elementary_witness

    def spy(quot, lift):
        calls.append((quot, lift))
        return checked(quot, lift)

    monkeypatch.setattr(lm, "elementary_witness", spy)
    return rp.witness_route_decision(fm, p), len(calls)


def test_checked_witness_runs_only_before_a_no(monkeypatch):
    rng = random.Random(8)
    a = random_prefix_chain_matrix(rng, 2, 4, 9)
    fm = rp.flag_from_matrix(a, (1, 2, 3, 4))
    yes, calls = count_checked_witnesses(monkeypatch, fm, 2)
    assert yes.representable and calls == 0
    no, calls = count_checked_witnesses(monkeypatch, rp.binary_forbidden_flags()[1][1], 2)
    assert not no.representable and calls == 1


def test_a_constructor_that_drops_a_basis_makes_the_no_path_raise(monkeypatch):
    # (U_{1,4}, U_{2,4}) over GF(2): its witness U_{2,5} is not binary, and
    # without one basis it still is not (two elements become parallel), so
    # the route reaches its "no" and the checked witness must refuse
    fm = fl.from_sequence([mc.uniform(1, 4), mc.uniform(2, 4)])
    assert not rp.witness_route_decision(fm, 2).representable
    build = lm._coextension

    def drop_first_basis(quot, lift):
        q = build(quot, lift)
        return mc.Matroid(q.n, q.bases[1:])

    monkeypatch.setattr(lm, "_coextension", drop_first_basis)
    with pytest.raises(InternalError):
        rp.witness_route_decision(fm, 2)


def test_a_stitch_that_changes_a_lower_prefix_makes_the_yes_path_raise(
    capture, corpus, monkeypatch
):
    """The certificate is built by `_stitch`; a stitch whose result adds its
    last row to its first keeps every prefix's rank but changes the lower
    layers, so `represents` refuses it: InternalError, and
    `is-representable --method witness` exits 4."""
    fm = fl.from_sequence([mc.uniform(1, 3), mc.uniform(2, 3), mc.uniform(3, 3)])
    assert rp.witness_route_decision(fm, 3).representable
    stitch = rp._stitch

    def skewed(a, b):
        rows = stitch(a, b).row_lists()
        rows[0] = [(x + y) % a.p for x, y in zip(rows[0], rows[-1])]
        return gl.matrix(a.p, rows)

    monkeypatch.setattr(rp, "_stitch", skewed)
    with pytest.raises(InternalError, match="stitched certificate mismatch"):
        rp.witness_route_decision(fm, 3)
    argv = ("is-representable", corpus["chain3.json"], "--p", "3", "--method", "witness")
    code, out, _ = capture(*argv)
    assert (code, json.loads(out)) == (4, {
        "error": "InternalError", "detail": "stitched certificate mismatch",
    })
