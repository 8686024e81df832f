import random
from itertools import combinations, permutations

import pytest

from conftest import random_connected_multigraph, random_merge_chain, random_multigraph
from flagmatroids import flag_core as fl
from flagmatroids import graphic as gr
from flagmatroids import lifts_majors as lm
from flagmatroids import matroid_core as mc
from flagmatroids.bitset import elements_of, mask_of
from flagmatroids.errors import (
    BadPartition,
    ChainNotGrounded,
    ConfigInconsistent,
    EmptyResult,
    GraphNotConnected,
    TrivialLiftLayer,
)

K4 = gr.multigraph(4, [(0, 1), (0, 3), (0, 2), (1, 3), (1, 2), (3, 2)])
K4_CHAIN = gr.chain_of(
    4, [[[0, 1, 2, 3]], [[0, 1, 3], [2]], [[0, 1], [2], [3]], [[0], [1], [2], [3]]]
)


def spanning_tree_count(g):
    """Oracle: count spanning trees by direct enumeration with a fresh
    acyclicity check."""
    n, edges = g.vertices, g.edges
    count = 0
    for sub in combinations(range(len(edges)), n - 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        ok = True
        for e in sub:
            u, v = edges[e]
            ru, rv = find(u), find(v)
            if ru == rv:
                ok = False
                break
            parent[ru] = rv
        count += ok
    return count


def test_cycle_matroid_examples():
    mk4 = gr.cycle_matroid(gr.complete_graph(4))
    assert mk4.rank == 3
    assert len(mk4.bases) == 16
    assert spanning_tree_count(gr.complete_graph(4)) == 16
    assert gr.cycle_matroid(gr.multigraph(1, [(0, 0)])) == mc.uniform(0, 1)
    assert gr.cycle_matroid(gr.multigraph(2, [(0, 1), (0, 1)])) == mc.uniform(1, 2)


class ReferenceUnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        """False when x and y were already connected (a cycle would close)."""
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self.parent[rx] = ry
        return True


def reference_cycle_matroid(g):
    """The forest definition: the bases are the edge subsets of size
    vertices - components that close no cycle, found among all subsets."""
    uf = ReferenceUnionFind(g.vertices)
    for u, v in g.edges:
        uf.union(u, v)
    r = g.vertices - len({uf.find(v) for v in range(g.vertices)})

    def is_forest(edges):
        uf = ReferenceUnionFind(g.vertices)
        return all(uf.union(*g.edges[e]) for e in edges)

    m = len(g.edges)
    return mc.Matroid(m, [mask_of(c) for c in combinations(range(m), r) if is_forest(c)])


def test_cycle_matroid_matches_the_forest_definition():
    """The GF(2) incidence matrix gives the forest matroid on seeded
    multigraphs with loops, parallel edges and several components, and on
    graphs with more than 32 vertices, whose matrix keeps one row per edge
    at most."""
    rng = random.Random(2201)
    graphs = [
        gr.multigraph(1, []),
        gr.multigraph(3, [(0, 0), (1, 1)]),
        gr.multigraph(100, []),
        gr.multigraph(40, [(2 * i, 2 * i + 1) for i in range(20)]),
        gr.multigraph(40, [(0, i) for i in range(1, 21)]),
        gr.multigraph(36, [(i, i + 1) for i in range(10)] + [(20, 21), (21, 20), (30, 30)]),
    ]
    graphs += [
        random_multigraph(rng, rng.randint(1, 7), rng.randint(0, 10)) for _ in range(300)
    ]
    graphs += [
        random_connected_multigraph(rng, rng.randint(2, 6), rng.randint(0, 5)) for _ in range(100)
    ]
    assert any(u == v for g in graphs for u, v in g.edges)
    assert any(len(set(g.edges)) < len(g.edges) for g in graphs)
    for g in graphs:
        assert gr.cycle_matroid(g) == reference_cycle_matroid(g), g


def test_quotient_matroid_examples():
    g = K4
    assert gr.quotient_graph_matroid(g, gr.singletons(4)) == gr.cycle_matroid(g)
    one_cell = [[0, 1, 2, 3]]
    assert gr.quotient_graph_matroid(g, one_cell) == mc.uniform(0, 6)
    layer = gr.quotient_graph_matroid(g, [[0, 1, 3], [2]])
    assert layer.rank == 1
    assert [elements_of(b) for b in layer.bases] == [(2,), (4,), (5,)]


def test_quotient_requires_partition():
    with pytest.raises(BadPartition):
        gr.quotient_graph_matroid(K4, [[0, 1], [1, 2, 3]])


def test_graphic_flag_examples():
    fm = gr.graphic_flag(K4, K4_CHAIN)
    assert [m.rank for m in fm.layers] == [0, 1, 2, 3]
    assert fm.layers[0] == mc.uniform(0, 6)

    path = gr.multigraph(3, [(0, 1), (1, 2)])
    bf = gr.graphic_flag(path, gr.chain_of(3, [gr.singletons(3)]))
    assert bf == fl.basis_flag(gr.cycle_matroid(path))

    triangle = gr.multigraph(3, [(0, 1), (1, 2), (0, 2)])
    two = gr.graphic_flag(triangle, gr.chain_of(3, [[[0, 1, 2]], gr.singletons(3)]))
    assert two.layers == (mc.uniform(0, 3), mc.uniform(2, 3))


def test_graphic_flag_rejects_trivial_layer():
    # merging the two vertices that no edge joins leaves the quotient
    # matroid unchanged, so the lift would be trivial
    g = gr.multigraph(3, [(0, 1), (0, 1)])
    chain = gr.chain_of(3, [[[0, 2], [1]], gr.singletons(3)])
    with pytest.raises(TrivialLiftLayer):
        gr.graphic_flag(g, chain)


def test_lift_chain_closure_property():
    rng = random.Random(3)
    for _ in range(20):
        v = rng.randint(2, 5)
        g = random_connected_multigraph(rng, v, rng.randint(0, 3))
        chain = random_merge_chain(rng, v, rng.randint(1, v - 1))
        layers = [gr.quotient_graph_matroid(g, p) for p in chain.partitions]
        for low, high in zip(layers, layers[1:]):
            for mask in range(1 << len(g.edges)):
                assert mc.closure(high, mask) & ~mc.closure(low, mask) == 0


def test_connectify():
    g = gr.multigraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    chain = gr.chain_of(6, [gr.singletons(6)])
    h, chain2 = gr.connectify(g, chain)
    assert h.vertices == 5
    assert gr.cycle_matroid(h) == gr.cycle_matroid(g)

    g2 = gr.multigraph(4, [(0, 1), (2, 3)])
    h2, _ = gr.connectify(g2, gr.chain_of(4, [gr.singletons(4)]))
    assert h2.vertices == 3
    assert gr.cycle_matroid(h2) == gr.cycle_matroid(g2)

    conn = gr.multigraph(3, [(0, 1), (1, 2)])
    h3, _ = gr.connectify(conn, gr.chain_of(3, [gr.singletons(3)]))
    assert h3 == conn


def test_graphic_minor_k4_examples():
    fm = gr.graphic_flag(K4, K4_CHAIN)
    g2, chain2 = gr.graphic_minor(K4, K4_CHAIN, 0, "delete")
    assert gr.graphic_flag(g2, chain2) == fl.flag_delete(fm, 0)
    g3, chain3 = gr.graphic_minor(K4, K4_CHAIN, 0, "contract")
    assert gr.graphic_flag(g3, chain3) == fl.flag_contract(fm, 0)
    # contracting a non-loop edge merges the endpoint cells of each partition
    assert chain3.partitions[-1] == gr.singletons(3)


def test_graphic_minor_matches_flag_ops():
    rng = random.Random(5)
    checked_delete = checked_contract = 0
    while checked_delete < 15 or checked_contract < 15:
        v = rng.randint(2, 4)
        g = random_multigraph(rng, v, rng.randint(1, 6))
        chain = random_merge_chain(rng, v, rng.randint(0, v - 1))
        try:
            fm = gr.graphic_flag(g, chain)
        except Exception:
            continue
        e = rng.randrange(len(g.edges))
        op = rng.choice(["delete", "contract"])
        try:
            g2, chain2 = gr.graphic_minor(g, chain, e, op)
        except EmptyResult:
            with pytest.raises(EmptyResult):
                fl.flag_delete(fm, e) if op == "delete" else fl.flag_contract(fm, e)
            continue
        want = fl.flag_delete(fm, e) if op == "delete" else fl.flag_contract(fm, e)
        assert gr.graphic_flag(g2, chain2) == want
        if op == "delete":
            checked_delete += 1
        else:
            checked_contract += 1


def test_graphic_minor_contract_loop_matches_set_system():
    g = gr.multigraph(2, [(0, 0), (0, 1)])
    chain = gr.chain_of(2, [gr.singletons(2)])
    fm = gr.graphic_flag(g, chain)
    # a graph loop is a loop of every layer: the set-system contraction is
    # empty, unlike the matroid-level convention where it equals deletion
    with pytest.raises(EmptyResult):
        gr.graphic_minor(g, chain, 0, "contract")
    with pytest.raises(EmptyResult):
        fl.flag_contract(fm, 0)
    m = gr.cycle_matroid(g)
    assert mc.contract(m, 0) == mc.delete(m, 0)


def test_graphic_major_k4():
    h, major = gr.graphic_major(K4, K4_CHAIN)
    assert len(h.edges) == 9
    assert major.blocks == ((6,), (7,), (8,))
    assert lm.verify_major(major.matroid, major.blocks, gr.graphic_flag(K4, K4_CHAIN))


def test_graphic_major_singleton_chain():
    path = gr.multigraph(3, [(0, 1), (1, 2)])
    h, major = gr.graphic_major(path, gr.chain_of(3, [gr.singletons(3)]))
    assert h == path
    assert major.blocks == ()
    assert major.matroid == gr.cycle_matroid(path)


def test_graphic_major_triangle():
    triangle = gr.multigraph(3, [(0, 1), (1, 2), (0, 2)])
    chain = gr.chain_of(3, [[[0, 1, 2]], gr.singletons(3)])
    h, major = gr.graphic_major(triangle, chain)
    assert len(h.edges) == 5
    assert lm.verify_major(major.matroid, major.blocks, gr.graphic_flag(triangle, chain))


def test_graphic_major_preconditions():
    with pytest.raises(GraphNotConnected):
        gr.graphic_major(gr.multigraph(4, [(0, 1), (2, 3)]), gr.chain_of(4, [gr.singletons(4)]))
    with pytest.raises(ChainNotGrounded):
        gr.graphic_major(K4, gr.chain_of(4, [[[0, 1], [2], [3]]]))


def test_major_to_chain_roundtrip():
    h, major = gr.graphic_major(K4, K4_CHAIN)
    chain = gr.major_to_chain(h, major.blocks)
    stripped = gr.strip_major_edges(h, major.blocks)
    assert gr.graphic_flag(stripped, chain) == gr.graphic_flag(K4, K4_CHAIN)

    assert gr.major_to_chain(K4, []).partitions == (gr.singletons(4),)
    spanning = gr.major_to_chain(K4, [(0, 3, 5)])  # edges (0,1),(1,3),(3,2): a tree
    assert spanning.partitions[0] == ((0, 1, 2, 3),)


def test_major_roundtrip_random():
    rng = random.Random(7)
    done = 0
    while done < 10:
        v = rng.randint(2, 4)
        g = random_connected_multigraph(rng, v, rng.randint(0, 2))
        chain = random_merge_chain(rng, v, rng.randint(0, v - 1))
        try:
            fm = gr.graphic_flag(g, chain)
        except Exception:
            continue
        h, major = gr.graphic_major(g, chain)
        assert lm.verify_major(major.matroid, major.blocks, fm)
        rec = gr.major_to_chain(h, major.blocks)
        assert gr.graphic_flag(gr.strip_major_edges(h, major.blocks), rec) == fm
        done += 1


def test_graphic_layers_pass_is_graphic():
    rng = random.Random(11)
    done = 0
    while done < 8:
        v = rng.randint(2, 4)
        g = random_connected_multigraph(rng, v, rng.randint(0, 2))
        chain = random_merge_chain(rng, v, rng.randint(0, v - 1))
        try:
            fm = gr.graphic_flag(g, chain)
        except Exception:
            continue
        for layer in fm.layers:
            assert mc.is_graphic(layer)
        done += 1


def test_vertex_identifications():
    single = gr.multigraph(2, [(0, 1)])
    out = gr.vertex_identifications(single)
    assert len(out) == 1 and out[0].edges == ((0, 0),)

    triangle = gr.multigraph(3, [(0, 1), (1, 2), (0, 2)])
    outs = gr.vertex_identifications(triangle)
    assert len(outs) == 3
    for g in outs:
        loops = [e for e in g.edges if e[0] == e[1]]
        parallel = [e for e in g.edges if e[0] != e[1]]
        assert len(loops) == 1 and len(parallel) == 2

    five = gr.multigraph(5, [])
    assert len(gr.vertex_identifications(five)) == 10


def test_counterexample_harness_reference():
    report = gr.counterexample_harness(gr.reference_counterexample_config())
    assert report.ok
    assert report.verdict == "not graphic, witnesses graphic"
    names = [s.name for s in report.steps]
    assert names == [
        "a:consistency",
        "b:full-flag",
        "c:witnesses-graphic",
        "d:not-graphic-evidence",
        "e:top-3-connected",
    ]
    detail = report.steps[3].detail
    assert detail["bb_loops"] == 0 and detail["m2_loops"] == 1
    assert detail["rb_parallel_classes"] == 2 and detail["m2_parallel_classes"] == 3
    assert detail["m1_max_parallel"] == 3


def test_counterexample_harness_negative_control():
    cfg = gr.reference_counterexample_config()
    broken = cfg._replace(top=gr.MultiGraph(cfg.top.vertices, cfg.top.edges[:-1]))
    with pytest.raises(ConfigInconsistent):
        gr.counterexample_harness(broken)


def test_three_connectivity():
    assert gr.is_three_connected_simple(gr.reference_counterexample_config().top)
    assert gr.is_three_connected_simple(gr.complete_graph(4))
    path = gr.multigraph(4, [(0, 1), (1, 2), (2, 3)])
    assert not gr.is_three_connected_simple(path)


def reference_graphs_match(a, b):
    """The first vertex permutation, in lexicographic order, that maps edge
    i of a onto edge i of b."""
    if a.vertices != b.vertices or len(a.edges) != len(b.edges):
        return None
    for perm in permutations(range(a.vertices)):
        if all({perm[u], perm[v]} == {x, y} for (u, v), (x, y) in zip(a.edges, b.edges)):
            return perm
    return None


def test_graphs_match_agrees_with_trying_every_permutation():
    """Seeded multigraph pairs on at most 6 vertices, loops and parallel
    edges included: b is a relabelled a, sometimes with one end of one
    edge moved, so that most pairs match and some hundreds do not."""
    rng = random.Random(2020)
    matched = 0
    for _ in range(3000):
        vertices = rng.randint(1, 6)
        a = random_multigraph(rng, vertices, rng.randint(0, 8))
        perm = list(range(vertices))
        rng.shuffle(perm)
        edges = [(perm[u], perm[v]) for u, v in a.edges]
        if edges and rng.random() < 0.35:
            i = rng.randrange(len(edges))
            edges[i] = (edges[i][0], rng.randrange(vertices))
        b = gr.multigraph(vertices, edges)
        got = gr.graphs_match(a, b)
        assert got == reference_graphs_match(a, b), (a, b)
        matched += got is not None
    assert 2000 < matched < 2900


def reference_is_three_connected_simple(g):
    """At least 4 vertices, and connected with no vertex, any one vertex or
    any two vertices removed."""
    if g.vertices < 4:
        return False

    def connected_without(removed):
        parent = list(range(g.vertices))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for u, v in g.edges:
            if u not in removed and v not in removed:
                parent[find(u)] = find(v)
        return len({find(v) for v in range(g.vertices) if v not in removed}) == 1

    cuts = [()] + [(v,) for v in range(g.vertices)] + list(combinations(range(g.vertices), 2))
    return all(connected_without(set(cut)) for cut in cuts)


def test_three_connectivity_checks_only_pairs_of_vertices():
    rng = random.Random(33)
    found = 0
    for _ in range(600):
        g = random_multigraph(rng, rng.randint(1, 7), rng.randint(0, 20))
        got = gr.is_three_connected_simple(g)
        assert got == reference_is_three_connected_simple(g), g
        found += got
    assert found > 20
