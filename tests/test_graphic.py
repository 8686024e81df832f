import json
import random
import time
from itertools import combinations, permutations

import pytest

from conftest import random_connected_multigraph, random_merge_chain, random_multigraph
from flagmatroids import flag_core as fl
from flagmatroids import graphic as gr
from flagmatroids import lifts_majors as lm
from flagmatroids import matroid_core as mc
from flagmatroids.bitset import elements_of, least_bijection, mask_of
from flagmatroids.errors import (
    BadPartition,
    ChainNotGrounded,
    ConfigInconsistent,
    EmptyResult,
    GraphNotConnected,
    IndexOutOfRange,
    InternalError,
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


def test_flag_contract_of_a_graph_loop_is_empty():
    g = gr.multigraph(2, [(0, 0), (0, 1)])
    chain = gr.chain_of(2, [gr.singletons(2)])
    fm = gr.graphic_flag(g, chain)
    # a graph loop is a loop of every layer: the set-system contraction is
    # empty, unlike the matroid-level convention where it equals deletion
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


def test_graphic_major_refuses_a_graph_that_is_not_a_major(capture, corpus, monkeypatch):
    """The major is checked through `cycle_matroid` of the grown graph; a
    cycle matroid that reads the last added edge as a loop is no major (a
    loop lies in no basis), so the call raises and `graphic-major` exits 4."""
    real = gr.cycle_matroid

    def last_added_edge_a_loop(g):
        if len(g.edges) > len(K4.edges):
            u = g.edges[-1][0]
            g = gr.MultiGraph(g.vertices, g.edges[:-1] + ((u, u),))
        return real(g)

    monkeypatch.setattr(gr, "cycle_matroid", last_added_edge_a_loop)
    with pytest.raises(InternalError, match="constructed graph is not a major"):
        gr.graphic_major(K4, K4_CHAIN)
    code, out, _ = capture("graphic-major", corpus["k4bundle.json"])
    assert (code, json.loads(out)) == (4, {
        "error": "InternalError", "detail": "constructed graph is not a major",
    })


def test_graphic_major_preconditions():
    with pytest.raises(GraphNotConnected):
        gr.graphic_major(gr.multigraph(4, [(0, 1), (2, 3)]), gr.chain_of(4, [gr.singletons(4)]))
    with pytest.raises(ChainNotGrounded):
        gr.graphic_major(K4, gr.chain_of(4, [[[0, 1], [2], [3]]]))


def test_graphic_major_random():
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
        _, major = gr.graphic_major(g, chain)
        assert lm.verify_major(major.matroid, major.blocks, fm)
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


def reference_identify_vertices(g, u, v):
    """Vertex w's label once u and v are identified: max(u, v) goes to
    min(u, v), and the vertices above it shift down."""
    lo, hi = min(u, v), max(u, v)

    def label(w):
        if w == hi:
            return lo
        return w - 1 if w > hi else w

    return gr.MultiGraph(g.vertices - 1, tuple((label(a), label(b)) for a, b in g.edges))


def test_identify_vertices_relabels_as_the_shift_rule_does():
    """Every ordered pair of distinct vertices of seeded multigraphs on 2 to
    7 vertices, loops and parallel edges included; a pair that is not two
    vertices of the graph is refused."""
    rng = random.Random(35)
    for _ in range(3000):
        g = random_multigraph(rng, rng.randint(2, 7), rng.randint(0, 10))
        for u, v in permutations(range(g.vertices), 2):
            assert gr.identify_vertices(g, u, v) == reference_identify_vertices(g, u, v), (g, u, v)
        for u, v in [(1, 1), (-1, 0), (0, g.vertices)]:
            with pytest.raises(IndexOutOfRange):
                gr.identify_vertices(g, u, v)


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


def test_graphs_match_places_thousands_of_vertices():
    """A 3,000-vertex path with loops and parallel edges, its edges in
    shuffled order, against its rotation v -> v + 1: the path's edges force
    every image, so the rotation is the only bijection, hence the least.
    Vertex masks pair the images up with no search, far past the recursion
    limit."""
    rng = random.Random(3000)
    n = 3000
    edges = [(v, v + 1) for v in range(n - 1)]
    edges += [(v, v) for v in rng.sample(range(n), 50)]
    edges += [(v, v + 1) for v in rng.sample(range(n - 1), 50)]
    rng.shuffle(edges)
    rotate = tuple((v + 1) % n for v in range(n))
    a = gr.multigraph(n, edges)
    b = gr.multigraph(n, [(rotate[u], rotate[v]) for u, v in edges])
    assert gr.graphs_match(a, b) == rotate


def reference_graphs_match_by_edges(a, b):
    """The least bijection found by checking edge i when the later of its
    ends is placed: its image must be edge i of b."""
    if a.vertices != b.vertices or len(a.edges) != len(b.edges):
        return None
    checks = {}
    for (u, v), target in zip(a.edges, b.edges):
        checks.setdefault(max(u, v), []).append((min(u, v), set(target)))

    def fits(image, t):
        d = len(image)
        return all({t, image[u] if u < d else t} == to for u, to in checks.get(d, ()))

    return least_bijection(a.vertices, fits)


def test_graphs_match_agrees_with_the_edge_by_edge_search():
    """Seeded connected multigraphs on up to 12 vertices, loops and parallel
    edges included, each against a relabelling of itself, a relabelling
    with one end of one edge moved, and itself.  Connected, so that every
    vertex after the first has its image forced by an edge to an earlier
    one and the edge-by-edge search stays short."""
    rng = random.Random(1212)
    matched = 0
    for k in range(3000):
        vertices = rng.randint(1, 12)
        a = random_connected_multigraph(rng, vertices, rng.randint(1, 2 * vertices))
        perm = list(range(vertices))
        rng.shuffle(perm)
        edges = [(perm[u], perm[v]) for u, v in a.edges]
        if k % 3 == 1:
            i = rng.randrange(len(edges))
            edges[i] = (edges[i][0], rng.randrange(vertices))
        b = a if k % 3 == 2 else gr.multigraph(vertices, edges)
        got = gr.graphs_match(a, b)
        assert got == reference_graphs_match_by_edges(a, b), (a, b)
        matched += got is not None
    assert 2000 < matched < 2900


def test_graphs_match_refuses_a_long_near_match_at_once():
    """A 2,000-vertex path against its rotation v -> v + 1 with the last
    edge's end 0 moved to 1: vertex 0 of b is an end of no edge, so the
    masks differ and no search runs."""
    n = 2000
    edges = [(v, v + 1) for v in range(n - 1)]
    moved = [(v + 1, v + 2) for v in range(n - 2)] + [(n - 1, 1)]
    start = time.perf_counter()
    assert gr.graphs_match(gr.multigraph(n, edges), gr.multigraph(n, moved)) is None
    assert time.perf_counter() - start < 0.5


def test_graphs_match_pairs_a_relabelled_long_path_at_once():
    """A 2,000-vertex path against a random relabelling of itself: the
    vertices are paired by their sorted incident-edge masks, with no
    search over the targets."""
    rng = random.Random(2000)
    n = 2000
    perm = list(range(n))
    rng.shuffle(perm)
    path = gr.multigraph(n, [(v, v + 1) for v in range(n - 1)])
    relabelled = gr.multigraph(n, [(perm[u], perm[v]) for u, v in path.edges])
    start = time.perf_counter()
    assert gr.graphs_match(path, relabelled) == tuple(perm)
    assert time.perf_counter() - start < 0.1


def test_partition_chain_is_canonical_however_it_is_listed():
    """A hand-built chain whose cells are unsorted and out of order is
    stored as `chain_of` stores it, so `graphic_major` adds the same path
    edges to K6."""
    middle = ((5,), (1, 0), (3, 2, 4))
    hand = gr.PartitionChain((((0, 1, 2, 3, 4, 5),), middle, gr.singletons(6)))
    canon = gr.chain_of(6, [[range(6)], middle, gr.singletons(6)])
    assert hand == canon
    assert hand.partitions[1] == ((0, 1), (2, 3, 4), (5,))
    k6 = gr.complete_graph(6)
    assert gr.graphic_major(k6, hand) == gr.graphic_major(k6, canon)


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
