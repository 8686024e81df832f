"""Shared fixtures: brute-force oracles, seeded random generators, every
flag on a few elements (`all_flags`), every elementary coextension of a
pair (`enumerate_elementary_coextensions`), the flag axioms as stated
(`reference_check_flag_axioms`), and the CLI harness (`capture` runs
one verb in-process, `corpus` writes the small documents the CLI tests
read).

The oracle helpers here deliberately avoid the library's linear algebra and
matroid code paths so that expected values in tests are computed
independently of the functions they check.
"""

from __future__ import annotations

import json
import random
from itertools import combinations

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from flagmatroids import cli
from flagmatroids import flag_core as fl
from flagmatroids import gf_linalg as gl
from flagmatroids import graphic as gr
from flagmatroids import jsonio as io
from flagmatroids import lifts_majors as lm
from flagmatroids import matroid_core as mc
from flagmatroids.bitset import canonical, elements_of
from flagmatroids.representability import FlagRepresentation

# Every property test is deterministic: examples come from a fixed
# derandomized stream, so a failure reproduces and tier-1 never flakes.
settings.register_profile(
    "tier1",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("tier1")

FANO_ROWS = [
    [1, 1, 1, 1, 0, 0, 0],
    [1, 1, 0, 0, 1, 1, 0],
    [1, 0, 1, 0, 1, 0, 1],
]


def oracle_rank_mod_p(rows, p):
    """Gaussian elimination written from scratch for test oracles."""
    work = [list(r) for r in rows]
    rank = 0
    cols = len(work[0]) if work else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(work)) if work[i][c] % p), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][c], p - 2, p)
        work[rank] = [x * inv % p for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][c] % p:
                f = work[i][c]
                work[i] = [(a - f * b) % p for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def oracle_independent_columns(rows, cols_idx, p):
    sub = [[r[j] for j in cols_idx] for r in rows]
    return oracle_rank_mod_p(sub, p) == len(cols_idx)


def oracle_matroid_rank(bases, subset):
    """Max intersection with a basis-generated independent set, by brute force."""
    best = 0
    for b in bases:
        for k in range(len(subset), -1, -1):
            for sub in combinations(subset, k):
                if set(sub) <= set(b):
                    best = max(best, k)
                    break
            else:
                continue
            break
    return best


@pytest.fixture(scope="session")
def fano():
    return gl.matrix(2, FANO_ROWS)


@pytest.fixture(scope="session")
def f7(fano):
    return mc.linear_matroid(fano)


# --- CLI fixtures ------------------------------------------------------------------

@pytest.fixture()
def capture(capsys):
    def run(*args):
        code = cli.run(list(args))
        out = capsys.readouterr()
        return code, out.out, out.err

    return run


@pytest.fixture()
def corpus(tmp_path):
    files = {}

    def write(name, doc):
        path = tmp_path / name
        path.write_text(io.dumps(doc) if isinstance(doc, dict) else doc)
        files[name] = str(path)
        return files[name]

    write("iu23.json", io.flag_json(fl.chop(fl.independent_flag(mc.uniform(2, 3)), 0)))
    write("bf7.json", io.flag_json(fl.basis_flag(mc.fano_matroid())))
    write("chain3.json", io.flag_json(
        fl.from_sequence([mc.uniform(1, 3), mc.uniform(2, 3), mc.uniform(3, 3)])
    ))
    write("gap.json", io.flag_json(fl.from_sequence([mc.uniform(1, 3), mc.uniform(3, 3)])))
    write("fano.json", io.matrix_json(mc.fano_matrix()))
    write("u24.json", io.matroid_json(mc.uniform(2, 4)))
    write("u24b.json", io.matroid_json(mc.uniform(2, 4)))
    write("bad_family.json", json.dumps({"n": 3, "feasible": [[0], [1], [0, 1], [1, 2]]}))
    k4 = gr.multigraph(4, [(0, 1), (0, 3), (0, 2), (1, 3), (1, 2), (3, 2)])
    chain = gr.chain_of(
        4, [[[0, 1, 2, 3]], [[0, 1, 3], [2]], [[0, 1], [2], [3]], [[0], [1], [2], [3]]]
    )
    write("k4bundle.json", io.graphic_bundle_json(k4, chain))
    write("config.json", io.config_json(gr.reference_counterexample_config()))
    files["write"] = write
    files["dir"] = tmp_path
    return files


@st.composite
def gf_matrices(draw, max_n=10):
    """A matrix over GF(2/3/5/7) with 0..5 rows and 1..max_n columns.

    Columns are fresh, zero, or a nonzero multiple of an earlier column, and
    the last row is sometimes the sum of the first two, so rank-deficient
    matrices, loops and parallel classes all occur.
    """
    p = draw(st.sampled_from([2, 3, 5, 7]))
    rows = draw(st.integers(0, 5))
    n = draw(st.integers(1, max_n))
    cols: list[list[int]] = []
    for j in range(n):
        kind = draw(st.sampled_from(["fresh", "zero", "copy"] if j else ["fresh", "zero"]))
        if kind == "fresh":
            cols.append(draw(st.lists(st.integers(0, p - 1), min_size=rows, max_size=rows)))
        elif kind == "zero":
            cols.append([0] * rows)
        else:
            src = draw(st.integers(0, j - 1))
            scale = draw(st.integers(1, p - 1))
            cols.append([x * scale % p for x in cols[src]])
    if rows >= 3 and draw(st.booleans()):
        for c in cols:
            c[-1] = (c[0] + c[1]) % p
    return gl.matrix(p, [[c[i] for c in cols] for i in range(rows)], cols=n)


@st.composite
def linear_matroids(draw):
    """Column matroids over GF(2/3/5) on n <= 10 columns.  Each column is
    fresh, zero, a repeat of an earlier column or a nonzero multiple of
    one, so loops and parallel classes are common."""
    p = draw(st.sampled_from([2, 3, 5]))
    rows = draw(st.integers(1, 5))
    n = draw(st.integers(1, 10))
    cols = []
    for _ in range(n):
        kind = draw(st.sampled_from(["fresh", "zero", "repeat", "scaled"]))
        if kind == "zero":
            cols.append([0] * rows)
        elif kind == "fresh" or not cols:
            cols.append(draw(st.lists(st.integers(0, p - 1), min_size=rows, max_size=rows)))
        else:
            base = draw(st.sampled_from(cols))
            c = 1 if kind == "repeat" else draw(st.integers(1, p - 1))
            cols.append([c * x % p for x in base])
    return mc.linear_matroid(gl.matrix(p, [list(r) for r in zip(*cols)]))


def random_gf_matrix(rng: random.Random, p: int, rows: int, cols: int) -> gl.GFMatrix:
    return gl.matrix(p, [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)])


def random_prefix_chain_matrix(rng: random.Random, p: int, r: int, n: int, tries: int = 200):
    """A random r x n matrix over GF(p) whose every row prefix has full rank."""
    for _ in range(tries):
        a = random_gf_matrix(rng, p, r, n)
        if all(gl.rank(gl.prefix_rows(a, d)) == d for d in range(1, r + 1)):
            return a
    return None


def random_representation(rng: random.Random, p: int, max_n: int = 6):
    """A random valid flag representation (random levels over a prefix-full
    matrix)."""
    while True:
        n = rng.randint(2, max_n)
        r = rng.randint(1, min(n, 4))
        a = random_prefix_chain_matrix(rng, p, r, n)
        if a is None:
            continue
        pool = list(range(1, r))
        k = rng.randint(0, len(pool))
        levels = tuple(sorted(rng.sample(pool, k))) + (r,)
        return FlagRepresentation(a, levels)


def random_multigraph(rng: random.Random, vertices: int, edges: int) -> gr.MultiGraph:
    out = []
    for _ in range(edges):
        u = rng.randrange(vertices)
        v = rng.randrange(vertices)
        out.append((u, v))
    return gr.multigraph(vertices, out)


def random_connected_multigraph(rng: random.Random, vertices: int, extra: int) -> gr.MultiGraph:
    edges = [(rng.randrange(i), i) for i in range(1, vertices)]
    for _ in range(extra):
        u = rng.randrange(vertices)
        v = rng.randrange(vertices)
        edges.append((u, v))
    return gr.multigraph(vertices, edges)


def random_merge_chain(rng: random.Random, vertices: int, steps: int) -> gr.PartitionChain:
    """Chain ending in singletons where each coarsening merges two cells."""
    parts = [gr.singletons(vertices)]
    current = [list(c) for c in gr.singletons(vertices)]
    for _ in range(steps):
        if len(current) < 2:
            break
        i, j = sorted(rng.sample(range(len(current)), 2))
        current[i] = current[i] + current[j]
        del current[j]
        parts.append(tuple(tuple(sorted(c)) for c in current))
    parts.reverse()
    return gr.chain_of(vertices, parts)


def random_full_flag(rng: random.Random, max_n: int = 5) -> fl.FlagMatroid:
    """Random full flag matroids from a mix of constructions."""
    kind = rng.randrange(4)
    if kind == 0:
        # prefix chain of a random matrix over a random small field
        p = rng.choice([2, 3, 5])
        n = rng.randint(2, max_n)
        r = rng.randint(1, min(n, max_n - 1))
        a = random_prefix_chain_matrix(rng, p, r, n)
        if a is None:
            return random_full_flag(rng, max_n)
        lo = rng.randint(0, r - 1)
        return fl.from_sequence(
            [mc.linear_matroid(gl.prefix_rows(a, d)) for d in range(lo, r + 1)]
        )
    if kind == 1:
        # graphic chain merging one pair per step
        v = rng.randint(2, max_n)
        g = random_connected_multigraph(rng, v, rng.randint(0, max_n - v + 1))
        g = gr.MultiGraph(g.vertices, g.edges[:max_n])
        if not g.edges:
            return random_full_flag(rng, max_n)
        chain = random_merge_chain(rng, v, rng.randint(0, v - 1))
        try:
            return gr.graphic_flag(g, chain)
        except Exception:
            return random_full_flag(rng, max_n)
    if kind == 2:
        # consecutive interval of a random linear matroid
        p = rng.choice([2, 3, 5, 7])
        n = rng.randint(2, max_n)
        r = rng.randint(1, n)
        m = mc.linear_matroid(random_gf_matrix(rng, p, r, n))
        if m.rank == 0:
            return random_full_flag(rng, max_n)
        s = rng.randint(0, m.rank)
        t = rng.randint(s, min(m.rank, n))
        try:
            return fl.flag_interval(m, s, t)
        except Exception:
            return random_full_flag(rng, max_n)
    m = mc.uniform(rng.randint(1, 3), rng.randint(3, max_n))
    return fl.independent_flag(m)


def random_flag(rng: random.Random, max_n: int = 6) -> fl.FlagMatroid:
    """Random flag matroids, not necessarily full.  Chopping the bottom or
    top layer keeps a full flag full, so only middle layers are chopped."""
    fm = random_full_flag(rng, max_n)
    cards = list(fm.cardinalities)
    while len(cards) > 2 and rng.random() < 0.4:
        fm = fl.chop(fm, rng.choice(cards[1:-1]))
        cards = list(fm.cardinalities)
    return fm


def all_flags(n):
    """Every valid flag matroid on n elements, as a chain of its layers."""
    by_rank = sorted(mc.enumerate_matroids(n), key=lambda m: m.rank)
    out = []

    def extend(chain):
        for m in by_rank:
            if chain and m.rank <= chain[-1].rank:
                continue
            masks = [b for layer in chain for b in layer.bases] + list(m.bases)
            if fl.layered_witness(n, masks) is None:
                out.append(fl.from_sequence(chain + [m]))
                extend(chain + [m])

    extend([])
    return out


def _least_dependent_subset(layer, s: int) -> int:
    """The smallest subset of s inside no member of the layer, found by
    trying every subset: for a basis B and e outside it, the one circuit
    of B + e, since every dependent subset of B + e holds it."""
    best, sub = s, s
    while sub:
        if sub.bit_count() < best.bit_count() and all(sub & ~g for g in layer):
            best = sub
        sub = (sub - 1) & s
    return best


def reference_check_flag_axioms(n: int, family) -> fl.AxiomReport:
    """`check_flag_axioms` as the axioms are stated, reading no memo and no
    library matroid: axiom 1 (for F, G in a layer and x in F - G, some y in
    G - F has G + x - y in the layer) on every layer, then axiom 2 on each
    adjacent pair (for F in the upper layer and e outside F, some G of the
    lower layer inside F has C(G, e) inside C(F, e)), each circuit the
    least dependent subset of the basis plus e.  F and e are tried in
    order, so the first witness is the library's."""
    masks = canonical(family)
    if not masks:
        return fl.AxiomReport(False, axiom=0, witness={"reason": "empty family"})
    layers = {}
    for f in masks:
        layers.setdefault(f.bit_count(), []).append(f)
    for layer in layers.values():
        present = set(layer)
        for f in layer:
            for g in layer:
                for x in range(n):
                    if f >> x & 1 and not g >> x & 1 and not any(
                        g >> y & 1 and not f >> y & 1 and (g | 1 << x) ^ 1 << y in present
                        for y in range(n)
                    ):
                        witness = {"F": elements_of(f), "G": elements_of(g), "x": x}
                        return fl.AxiomReport(False, axiom=1, witness=witness)
    chain = list(layers.values())
    for lower, upper in zip(chain, chain[1:]):
        for f in upper:
            for e in range(n):
                if f >> e & 1:
                    continue
                up = _least_dependent_subset(upper, f | 1 << e)
                if not any(
                    not _least_dependent_subset(lower, g | 1 << e) & ~up
                    for g in lower
                    if not g & ~f
                ):
                    return fl.AxiomReport(False, axiom=2, witness={"F": elements_of(f), "e": e})
    return fl.AxiomReport(True)


def enumerate_elementary_coextensions(quot: mc.Matroid, lift: mc.Matroid) -> list[mc.Matroid]:
    """All matroids Q on {0..n} with Q/n == quot and Q\\n == lift, for
    quot and lift of ranks r and r + 1.  Each extension lift + n in which n
    is not a coloop has the bases of lift plus X + n for the bases X of its
    contraction by n, one of `mc.elementary_quotients(lift)`; Q is the one
    whose contraction has quot's bases, built by `lm._coextension`.  Unlike
    `lm.elementary_witness`, this does not assume that there is at most
    one, and it has no budget: (U_{3,8}, U_{4,8}) takes over a minute.
    """
    if quot.n != lift.n or lift.rank != quot.rank + 1:
        return []
    found = mc.elementary_quotients(lift, quot)
    return [lm._coextension(quot, lift) for fam in found if canonical(fam) == quot.bases]
