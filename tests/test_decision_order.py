"""The order in which flags are decided, and the order of the minor walk.

`representability.decide` composes the decision routes.  By default a full
flag is decided by the witness route; the forbidden-minor search runs only
to certify a "no".  The compositions it replaced (minor search first,
witness route for the certificate; witness route first; the CLI's choice
between search, fillings and the full-flag routes) are kept below as
references: the full-flag decisions, fillings and CLI output must not
change.  A flag that is not full is now decided by the band walk, so its
reference is the walk's decision, whose verdict must be the fillings'.
`flag_has_minor` walks the contraction sets C and, under each, the
deletion sets D, pruning by layer sizes, and it must build exactly as many
minors as the plain (|C|, C, D) enumeration of the surviving splits needs
to reach its hit.
"""

import random
from itertools import combinations

import pytest

from conftest import all_flags, random_full_flag, random_prefix_chain_matrix
from flagmatroids import flag_core as fl
from flagmatroids import gf_linalg as gl
from flagmatroids import jsonio as io
from flagmatroids import matroid_core as mc
from flagmatroids import representability as rp
from flagmatroids.bitset import mask_of
from flagmatroids.lifts_majors import enumerate_fillings, is_full
from test_minor_search import fano_with_a_point_on_a_line, reference_flag_has_minor

FLAG_TARGETS = [t for _, t in rp.binary_forbidden_flags() + rp.ternary_forbidden_flags()]


def minors_first_decision(fm, p):
    """The minors-first composition: the forbidden-minor search decides, the
    witness route certifies a "yes"."""
    decision = rp.forbidden_minor_decision(fm, p)
    if not decision.representable:
        return decision
    cert = rp.witness_route_decision(fm, p).certificate
    return rp.RepresentabilityDecision(p, True, certificate=cert)


def witness_first_decision(fm, p):
    """The witness-first composition: the witness route decides, and only a
    "no" runs the minor search, whose listed minor certifies it."""
    decision = rp.witness_route_decision(fm, p)
    if decision.representable:
        return decision
    minors = rp.forbidden_minor_decision(fm, p)
    assert not minors.representable
    return minors


def minors_first_fillings(fm, p, budget=10000):
    """The fillings loop as it was: each filling decided minors-first."""
    search = enumerate_fillings(fm, budget)
    for filling in search.fillings:
        if rp.forbidden_minor_decision(filling, p).representable:
            cert = rp.witness_route_decision(filling, p).certificate
            for level in cert.levels:
                if level not in fm.cardinalities:
                    cert = rp.chop_representation(cert, level)
            return rp.RepresentabilityDecision(p, True, certificate=cert)
    return rp.RepresentabilityDecision(p, False if search.complete else None)


def walk_decision(fm, p):
    rep = rp.search_representation(fm, p)
    return rp.RepresentabilityDecision(p, rep is not None, certificate=rep)


def composed_decision(fm, p, method):
    """The choice the CLI made between the representation search and the
    full-flag compositions, per `--method`; a flag that is not full gets
    the walk's decision, which must have the fillings' verdict."""
    if method == "search":
        return walk_decision(fm, p)
    if not is_full(fm):
        decision = walk_decision(fm, p)
        assert decision.representable == minors_first_fillings(fm, p).representable
        return decision
    if method == "witness":
        return witness_first_decision(fm, p)
    decision = minors_first_decision(fm, p)
    if method == "all":
        assert (rp.search_representation(fm, p) is not None) == decision.representable
    return decision


def planted_matrix(rng):
    """A prefix-full matrix over GF(5) whose first two rows carry five
    pairwise independent columns, so its rank-2 layer has a U_{2,5}
    restriction and the flag is neither binary nor ternary."""
    n, r = rng.randint(5, 8), rng.randint(2, 4)
    while True:
        rows = [row + [rng.randrange(5) for _ in range(n - 5)]
                for row in ([1, 0, 1, 1, 1], [0, 1, 1, 2, 3])]
        rows += [[rng.randrange(5) for _ in range(n)] for _ in range(r - 2)]
        a = gl.matrix(5, rows, cols=n)
        if all(gl.rank(gl.prefix_rows(a, d)) == d for d in range(1, r + 1)):
            return a


def seeded_flags(count, seed):
    """(flag, p) pairs: prefix chains over GF(2/3/5) and planted flags, each
    with levels lo..r, on at most 8 elements."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        if len(out) % 4 == 3:
            a = planted_matrix(rng)
        else:
            field = rng.choice([2, 3, 5])
            n = rng.randint(3, 8)
            a = random_prefix_chain_matrix(rng, field, rng.randint(1, min(4, n - 1)), n)
            if a is None:
                continue
        lo = rng.randint(0, a.rows - 1)
        fm = rp.flag_from_matrix(a, range(lo, a.rows + 1))
        out.append((fm, rng.choice([2, 3])))
    return out


SEEDED = seeded_flags(40, 9)


def test_seeded_flags_give_both_verdicts():
    verdicts = {rp.witness_route_decision(fm, p).representable for fm, p in SEEDED}
    assert verdicts == {True, False}


def test_default_route_writes_what_the_minors_route_writes(capture, corpus):
    paths = [(corpus[name], p) for name in ("iu23.json", "bf7.json", "chain3.json", "gap.json")
             for p in (2, 3)]
    paths += [(corpus["write"](f"seeded{i}.json", io.flag_json(fm)), p)
              for i, (fm, p) in enumerate(SEEDED)]
    codes = set()
    for path, p in paths:
        default = capture("is-representable", path, "--p", str(p))
        minors = capture("is-representable", path, "--p", str(p), "--method", "minors")
        assert default[:2] == minors[:2]
        codes.add(default[0])
    assert codes == {0, 1}


def test_represent_writes_what_the_search_method_writes(capture, corpus):
    files = [path for name, path in corpus.items() if name.endswith(".json")]
    codes = set()
    for path in files:
        for p in ("2", "3"):
            represent = capture("represent", path, "--p", p)
            search = capture("is-representable", path, "--p", p, "--method", "search")
            assert represent[:2] == search[:2]
            codes.add(represent[0])
    assert codes == {0, 1, 2}


def test_full_decisions_match_the_minors_first_composition(f7):
    rng = random.Random(53)
    flags = [fm for fm, _ in SEEDED] + [random_full_flag(rng, 6) for _ in range(30)]
    flags += [fl.basis_flag(f7), fl.independent_flag(mc.uniform(2, 4))]
    seen = set()
    for fm in flags:
        for p in (2, 3):
            got = rp.decide(fm, p)
            assert got == minors_first_decision(fm, p)
            seen.add(got.representable)
    assert seen == {True, False}


def gapped_flags(count, seed):
    """Flags that are not full: a full flag with a middle layer chopped."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        fm = random_full_flag(rng, 6)
        if len(fm.cardinalities) >= 3:
            out.append(fl.chop(fm, rng.choice(fm.cardinalities[1:-1])))
    return out


def test_fillings_route_matches_the_minors_first_loop():
    flags = gapped_flags(20, 59)
    assert not any(is_full(fm) for fm in flags)
    verdicts = set()
    for fm in flags:
        for p in (2, 3):
            got = rp.is_representable_via_fillings(fm, p)
            assert got == minors_first_fillings(fm, p)
            verdicts.add(got.representable)
    assert {True, False} <= verdicts


def test_decide_matches_the_compositions_it_replaced():
    flags = SEEDED + [(fm, p) for fm in gapped_flags(8, 71) for p in (2, 3)]
    assert {is_full(fm) for fm, _ in flags} == {True, False}
    for method in ("witness", "minors", "search", "all"):
        verdicts = set()
        for fm, p in flags:
            got = rp.decide(fm, p, method)
            assert got == composed_decision(fm, p, method)
            verdicts.add(got.representable)
        assert {True, False} <= verdicts
    with pytest.raises(rp.InvalidInput, match="unknown decision method"):
        rp.decide(SEEDED[0][0], 2, "fastest")


def test_the_walk_decides_every_small_flag_that_is_not_full():
    """Every flag on <= 4 elements that is not full, over GF(2) and GF(3):
    the default route (the band walk) has the fillings' verdict, and each
    "yes" certificate represents its flag."""
    flags = [fm for n in range(5) for fm in all_flags(n) if not is_full(fm)]
    verdicts = set()
    for p in (2, 3):
        for fm in flags:
            got = rp.decide(fm, p)
            assert got.representable == rp.is_representable_via_fillings(fm, p).representable
            assert got.witness is None
            if got.representable:
                assert rp.represents(got.certificate, fm)
            verdicts.add(got.representable)
    assert verdicts == {True, False}


def test_all_cross_checks_the_walk_with_the_fillings(monkeypatch):
    """On a flag that is not full only "all" runs the fillings.  Their
    verdict must be the walk's; their None (budget spent) is no verdict,
    and the walk's own BudgetExhausted is raised as under "search"."""
    gap = fl.from_sequence([mc.uniform(1, 3), mc.uniform(3, 3)])
    walk = walk_decision(gap, 2)
    assert walk.representable
    real = rp.is_representable_via_fillings

    def refused(fm, p, budget):
        raise AssertionError("fillings outside --method all")

    monkeypatch.setattr(rp, "is_representable_via_fillings", refused)
    for method in ("witness", "minors", "search"):
        assert rp.decide(gap, 2, method) == walk
    monkeypatch.setattr(rp, "is_representable_via_fillings", real)
    assert rp.decide(gap, 2, "all") == walk
    monkeypatch.setattr(rp, "is_representable_via_fillings",
                        lambda fm, p, budget: rp.RepresentabilityDecision(p, None))
    assert rp.decide(gap, 2, "all") == walk
    monkeypatch.setattr(rp, "is_representable_via_fillings",
                        lambda fm, p, budget: rp.RepresentabilityDecision(p, False))
    with pytest.raises(rp.InternalError, match="decision routes disagree"):
        rp.decide(gap, 2, "all")
    for method in ("witness", "all"):
        with pytest.raises(rp.BudgetExhausted):
            rp.decide(gap, 2, method, budget=0)
    with pytest.raises(rp.InvalidInput, match="supports p in"):
        rp.decide(gap, 5)


def test_a_yes_runs_no_minor_search(monkeypatch, f7):
    def forbidden(fm, target):
        raise AssertionError("minor search on a 'yes' answer")

    monkeypatch.setattr(fl, "flag_has_minor", forbidden)
    bf7 = fl.basis_flag(f7)
    assert rp.decide(bf7, 2).representable
    gap = fl.from_sequence([mc.uniform(1, 3), mc.uniform(3, 3)])
    assert rp.decide(gap, 2).representable is True
    # a "no" of the filling route needs no minor certificate either
    bad = fl.chop(fl.independent_flag(mc.uniform(2, 4)), 0)
    assert rp.is_representable_via_fillings(bad, 2).representable is False


def test_a_no_without_a_listed_minor_is_a_fault(monkeypatch, f7):
    monkeypatch.setattr(fl, "flag_has_minor", lambda fm, target: None)
    with pytest.raises(rp.InternalError, match="decision routes disagree"):
        rp.decide(fl.basis_flag(f7), 3)


# --- the split walk of flag_has_minor ------------------------------------------------

def surviving_splits(fm, target):
    """Every (C, D) split that passes the layer-size screen, in (|C|, C, D)
    order: for each target layer (w, size), exactly `size` feasible sets of
    cardinality w + |C| contain C and miss D."""
    total = fm.n - target.n
    layers = [(w, sum(1 for f in target.feasible if f.bit_count() == w))
              for w in target.cardinalities]
    out = []
    for k in range(total + 1):
        for c in combinations(range(fm.n), k):
            cmask = mask_of(c)
            rest = [e for e in range(fm.n) if e not in c]
            for d in combinations(rest, total - k):
                removed = cmask | mask_of(d)
                if all(
                    sum(1 for f in fm.feasible
                        if f.bit_count() == w + k and f & removed == cmask) == size
                    for w, size in layers
                ):
                    out.append((c, d))
    return out


def walk_cases():
    """Seeded flags on at most 7 elements, and the one-element deletions of
    F_7 with a point on a line: some keep F_7's 28 bases around a 4-point
    line, a deletion-only survivor that is not F_7."""
    rng = random.Random(61)
    fms = [fm for fm, _ in SEEDED if fm.n <= 7]
    fms += [random_full_flag(rng, 7) for _ in range(20)]
    m = fano_with_a_point_on_a_line(range(8))
    fms += [fl.basis_flag(mc.delete(m, e)) for e in range(8)]
    return [(fm, t) for fm in fms for t in FLAG_TARGETS if t.n <= fm.n]


def test_the_walk_builds_one_minor_per_split_up_to_the_hit(monkeypatch):
    """The survivors are built in (|C|, C, D) order up to the hit, and a
    "no" builds every survivor."""
    built = []
    real_minor = fl.flag_minor

    def counting_minor(*args):
        built.append(args[1:3])
        return real_minor(*args)

    monkeypatch.setattr(fl, "flag_minor", counting_minor)
    kinds = set()
    for fm, target in walk_cases():
        survivors = surviving_splits(fm, target)
        expected = reference_flag_has_minor(fm, target)
        built.clear()
        hit = fl.flag_has_minor(fm, target)
        assert hit == expected
        if hit is None:
            assert built == survivors
            kinds.add("no")
            continue
        position = survivors.index(hit[:2])
        assert built == survivors[: position + 1]
        if hit[0]:
            if sum(1 for c, _ in survivors if c) >= 2:
                kinds.add("contract, order matters")
        else:
            kinds.add("delete")
    assert kinds == {"no", "contract, order matters", "delete"}
