"""Multigraphs, partition chains, graphic flag matroids and their majors.

Edges are identified by list index, which is the ground-set order of every
matroid built here; loops and parallel edges are allowed.  Quotient graphs
keep the edge indexing, so quotient matroids share one ground set.
"""

from __future__ import annotations

from itertools import combinations
from typing import Collection, Iterable, NamedTuple, Optional, Sequence

from . import flag_core as fl
from . import gf_linalg as gl
from . import matroid_core as mc
from .errors import (
    BadPartition,
    ChainNotGrounded,
    ConfigInconsistent,
    EmptyResult,
    GraphNotConnected,
    IndexOutOfRange,
    InternalError,
    TrivialLiftLayer,
)
from .frozen import Frozen
from .lifts_majors import MajorStructure, is_full, lift_witness_sequence, verify_major


class MultiGraph(Frozen):
    """Immutable: vertex count plus ordered edges, endpoint pairs smaller first."""

    vertices: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, vertices: int, edges: tuple[tuple[int, int], ...]):
        for u, v in edges:
            if not (0 <= u < vertices and 0 <= v < vertices):
                raise IndexOutOfRange(f"edge ({u},{v}) outside vertex range")
        self.__dict__.update(vertices=vertices, edges=tuple((min(e), max(e)) for e in edges))


def multigraph(vertices: int, edges: Iterable[Sequence[int]]) -> MultiGraph:
    return MultiGraph(vertices, tuple((e[0], e[1]) for e in edges))


def complete_graph(n: int) -> MultiGraph:
    return MultiGraph(n, tuple(combinations(range(n), 2)))


def complete_bipartite(m: int, n: int) -> MultiGraph:
    return MultiGraph(m + n, tuple((i, m + j) for i in range(m) for j in range(n)))


Partition = tuple[tuple[int, ...], ...]


def _canon_partition(cells: Iterable[Iterable[int]], n: int) -> Partition:
    cells = [tuple(sorted(c)) for c in cells]
    if not all(cells):
        raise BadPartition("empty cell")
    canon = tuple(sorted(cells, key=lambda c: c[0]))
    seen: set[int] = set()
    for cell in canon:
        for v in cell:
            if not (0 <= v < n) or v in seen:
                raise BadPartition(f"vertex {v} missing, repeated or out of range")
            seen.add(v)
    if len(seen) != n:
        raise BadPartition("cells do not cover the vertex set")
    return canon


def _refines(coarse: Partition, fine: Partition) -> bool:
    cell_of = {}
    for i, cell in enumerate(coarse):
        for v in cell:
            cell_of[v] = i
    return all(len({cell_of[v] for v in cell}) == 1 for cell in fine)


class PartitionChain(Frozen):
    """Immutable: vertex partitions, coarsest first, each refined by the next."""

    partitions: tuple[Partition, ...]

    def __init__(self, partitions: tuple[Partition, ...]):
        for coarse, fine in zip(partitions, partitions[1:]):
            if not _refines(coarse, fine):
                raise BadPartition("consecutive partitions are not a refinement")
        self.__dict__["partitions"] = partitions


def chain_of(n: int, partitions: Iterable[Iterable[Iterable[int]]]) -> PartitionChain:
    return PartitionChain(tuple(_canon_partition(p, n) for p in partitions))


def singletons(n: int) -> Partition:
    return tuple((v,) for v in range(n))


# --- cycle matroids -----------------------------------------------------------

class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x: int, y: int) -> None:
        self.parent[self.find(x)] = self.find(y)


def _roots(g: MultiGraph, removed: Collection[int] = ()) -> set[int]:
    """One vertex per connected component of g with `removed` taken out."""
    uf = _UnionFind(g.vertices)
    for u, v in g.edges:
        if u not in removed and v not in removed:
            uf.union(u, v)
    return {uf.find(v) for v in range(g.vertices) if v not in removed}


def cycle_matroid(g: MultiGraph) -> mc.Matroid:
    """Matroid on the edge indices; independent = acyclic edge subsets.

    It is the column matroid over GF(2) of the vertex-edge incidence matrix
    (Oxley, Matroid Theory, 5.1); a loop's column is zero.  The rows of a
    component sum to zero, so one row per component is dropped, which
    leaves vertices - components rows: at most one per edge."""
    if len(g.edges) > mc.MAX_GROUND:
        raise IndexOutOfRange(f"too many edges ({len(g.edges)})")
    roots = _roots(g)
    rows = [
        [(u == w) + (v == w) for u, v in g.edges] for w in range(g.vertices) if w not in roots
    ]
    return mc.linear_matroid(gl.matrix(2, rows, cols=len(g.edges)))


def quotient_graph(g: MultiGraph, partition: Iterable[Iterable[int]]) -> MultiGraph:
    """Collapse every cell to a single vertex, keeping edge order."""
    cells = _canon_partition(partition, g.vertices)
    cell_of = {}
    for i, cell in enumerate(cells):
        for v in cell:
            cell_of[v] = i
    return MultiGraph(len(cells), tuple((cell_of[u], cell_of[v]) for u, v in g.edges))


def quotient_graph_matroid(g: MultiGraph, partition: Iterable[Iterable[int]]) -> mc.Matroid:
    return cycle_matroid(quotient_graph(g, partition))


def graphic_flag(g: MultiGraph, chain: PartitionChain) -> fl.FlagMatroid:
    """Flag matroid with one quotient matroid per partition of the chain."""
    layers = [quotient_graph_matroid(g, p) for p in chain.partitions]
    for i, (a, b) in enumerate(zip(layers, layers[1:])):
        if b.rank <= a.rank:
            raise TrivialLiftLayer(f"partition {i + 1} does not raise the rank", index=i + 1)
    return fl.from_sequence(layers)


# --- graph surgery -------------------------------------------------------------

def _identified(w: int, u: int, v: int) -> int:
    """The label of vertex w once v and u are identified: max(u, v) goes to
    min(u, v), and the vertices above it shift down."""
    lo, hi = min(u, v), max(u, v)
    if w == hi:
        return lo
    return w - 1 if w > hi else w


def identify_vertices(g: MultiGraph, u: int, v: int) -> MultiGraph:
    """Merge v into u (keeping min(u,v)); vertices above max(u,v) shift down."""
    if u == v or not (0 <= u < g.vertices and 0 <= v < g.vertices):
        raise IndexOutOfRange(f"bad vertex pair ({u}, {v})")
    return MultiGraph(
        g.vertices - 1, tuple((_identified(a, u, v), _identified(b, u, v)) for a, b in g.edges)
    )


def vertex_identifications(g: MultiGraph) -> list[MultiGraph]:
    """All graphs obtained by merging one unordered vertex pair."""
    return [identify_vertices(g, u, v) for u, v in combinations(range(g.vertices), 2)]


def _transport_partition(cells: Partition, u: int, v: int, n: int) -> Partition:
    """Partition after identifying v into u, merging the two incident cells."""
    merged: list[set[int]] = []
    joint: set[int] = set()
    for cell in cells:
        image = {_identified(w, u, v) for w in cell}
        if u in cell or v in cell:
            joint |= image
        else:
            merged.append(image)
    if joint:
        merged.append(joint)
    return _canon_partition(merged, n - 1)


def connectify(g: MultiGraph, chain: PartitionChain) -> tuple[MultiGraph, PartitionChain]:
    """Identify one vertex per connected component; quotients are unchanged."""
    reps = sorted(_roots(g))
    before = [quotient_graph_matroid(g, p) for p in chain.partitions]
    while len(reps) > 1:
        g2 = identify_vertices(g, reps[0], reps[1])
        chain = PartitionChain(
            tuple(_transport_partition(p, reps[0], reps[1], g.vertices) for p in chain.partitions)
        )
        g = g2
        reps = sorted(_roots(g))
    after = [quotient_graph_matroid(g, p) for p in chain.partitions]
    if before != after:
        raise InternalError("connectify changed a quotient matroid")  # pragma: no cover
    return g, chain


def _drop_edge(g: MultiGraph, e: int) -> MultiGraph:
    return MultiGraph(g.vertices, g.edges[:e] + g.edges[e + 1 :])


def graphic_minor(
    g: MultiGraph, chain: PartitionChain, e: int, op: str
) -> tuple[MultiGraph, PartitionChain]:
    """Graph-level deletion/contraction matching the set-system flag minor.

    Layers where e is a coloop (for deletion) or a loop (for contraction)
    disappear from the set-system minor, so their partitions are dropped
    here; contracting a graph loop therefore empties the chain, exactly like
    the flag-level contraction.
    """
    if not (0 <= e < len(g.edges)):
        raise IndexOutOfRange(f"edge {e} out of range")
    if op not in ("delete", "contract"):
        raise ValueError(f"unknown op {op!r}")
    layers = [quotient_graph_matroid(g, p) for p in chain.partitions]
    before = graphic_flag(g, chain)
    if op == "delete":
        kept = [p for p, m in zip(chain.partitions, layers) if not m.coloops_mask >> e & 1]
        if not kept:
            raise EmptyResult(f"deleting edge {e} empties every layer")
        out = (_drop_edge(g, e), PartitionChain(tuple(kept)))
        expected = fl.flag_delete(before, e)
    else:
        kept = [p for p, m in zip(chain.partitions, layers) if not m.loops_mask >> e & 1]
        if not kept:
            raise EmptyResult(f"contracting edge {e} empties every layer")
        u, v = g.edges[e]
        g2 = identify_vertices(_drop_edge(g, e), u, v)
        out = (
            g2,
            PartitionChain(tuple(_transport_partition(p, u, v, g.vertices) for p in kept)),
        )
        expected = fl.flag_contract(before, e)
    if graphic_flag(*out) != expected:
        raise InternalError("graph minor does not match the flag minor")  # pragma: no cover
    return out


# --- majors ---------------------------------------------------------------------

def graphic_major(g: MultiGraph, chain: PartitionChain):
    """Add path edges linking cell representatives; the new graph's matroid
    is a major of graphic_flag(g, chain).

    Needs a connected graph and a chain grounded in singletons.  Returns
    (H, MajorStructure); block X_i holds the edges bridging partitions i and
    i+1, so contracting X_i..X_{k-1} collapses each cell of partition i.
    """
    if len(_roots(g)) != 1:
        raise GraphNotConnected("apply connectify first")
    parts = chain.partitions
    if parts[-1] != singletons(g.vertices):
        raise ChainNotGrounded("finest partition must be all singletons")
    fm = graphic_flag(g, chain)
    edges = list(g.edges)
    blocks: list[tuple[int, ...]] = []
    for i in range(1, len(parts)):
        coarse, fine = parts[i - 1], parts[i]
        fine_cells = list(fine)
        step: list[int] = []
        for cell in coarse:
            if cell in fine_cells:
                continue
            sub = sorted((c for c in fine_cells if set(c) <= set(cell)), key=lambda c: c[0])
            reps = [c[0] for c in sub]
            for a, b in zip(reps, reps[1:]):
                step.append(len(edges))
                edges.append((min(a, b), max(a, b)))
        blocks.append(tuple(step))
    h = MultiGraph(g.vertices, tuple(edges))
    major = MajorStructure(cycle_matroid(h), tuple(blocks))
    if not verify_major(major.matroid, major.blocks, fm):
        raise InternalError("constructed graph is not a major")  # pragma: no cover
    return h, major


def major_to_chain(g_major: MultiGraph, blocks: Sequence[Iterable[int]]) -> PartitionChain:
    """Partition i = components of the subgraph on block edges i..k-1."""
    block_edges = [tuple(b) for b in blocks]
    parts = []
    for i in range(len(block_edges) + 1):
        uf = _UnionFind(g_major.vertices)
        for blk in block_edges[i:]:
            for e in blk:
                u, v = g_major.edges[e]
                uf.union(u, v)
        cells: dict[int, set[int]] = {}
        for v in range(g_major.vertices):
            cells.setdefault(uf.find(v), set()).add(v)
        parts.append(_canon_partition(cells.values(), g_major.vertices))
    return PartitionChain(tuple(parts))


def strip_major_edges(g_major: MultiGraph, blocks: Sequence[Iterable[int]]) -> MultiGraph:
    """The graph on the non-block edges, keeping their relative order."""
    drop = {e for b in blocks for e in b}
    return MultiGraph(
        g_major.vertices, tuple(e for i, e in enumerate(g_major.edges) if i not in drop)
    )


# --- the non-graphic counterexample harness ---------------------------------------

def graphs_match(a: MultiGraph, b: MultiGraph) -> Optional[tuple[int, ...]]:
    """The lexicographically least vertex bijection under which edge i of a
    equals edge i of b, or None.  Vertices are placed in order, each on the
    least free target first, and an edge is checked once both ends are."""
    if a.vertices != b.vertices or len(a.edges) != len(b.edges):
        return None
    checks: list[list] = [[] for _ in range(a.vertices)]  # by the edge's later end
    for (u, v), target in zip(a.edges, b.edges):
        checks[max(u, v)].append((u, v, set(target)))
    image: list[int] = []

    def place(w: int) -> bool:
        if w == a.vertices:
            return True
        for t in range(a.vertices):
            image.append(t)
            if t not in image[:-1] and all({image[u], image[v]} == to for u, v, to in checks[w]):
                if place(w + 1):
                    return True
            image.pop()
        return False

    return tuple(image) if place(0) else None


def is_three_connected_simple(g: MultiGraph) -> bool:
    """3-connectivity of the underlying simple graph: at least 4 vertices,
    and connected after removing any two.  With 4 or more vertices, a graph
    that is disconnected, or disconnected by one vertex, is disconnected by
    some pair too, so pairs suffice."""
    if g.vertices < 4:
        return False
    return all(len(_roots(g, cut)) == 1 for cut in combinations(range(g.vertices), 2))


class CounterexampleConfig(NamedTuple):
    """Four graphs on one edge set.  `top` carries the finest layer; merging
    its reds must give `top_merged`; `middle` is a different graph with the
    same cycle matroid as `top_merged`, and merging its reds must give
    `bottom`.  bb_pair / rb_pair name the two distinguished identifications
    of `top` used in the evidence step."""

    bottom: MultiGraph
    middle: MultiGraph
    middle_reds: tuple[int, int]
    top_merged: MultiGraph
    top_merged_yellows: tuple[int, int]
    top: MultiGraph
    top_reds: tuple[int, int]
    bb_pair: tuple[int, int]
    rb_pair: tuple[int, int]


def reference_counterexample_config() -> CounterexampleConfig:
    """The reconstructed fixture: all four graphs carry nine edges.

    The edge order is shared: index i means the same matroid element in all
    four graphs.
    """
    top = multigraph(
        5,
        [(0, 1), (0, 4), (2, 4), (0, 3), (1, 2), (1, 4), (3, 4), (2, 3), (0, 2)],
    )
    top_merged = multigraph(
        4,
        [(0, 1), (0, 2), (2, 2), (0, 3), (1, 2), (1, 2), (2, 3), (2, 3), (0, 2)],
    )
    middle = multigraph(
        4,
        [(1, 2), (0, 1), (0, 0), (0, 3), (0, 2), (0, 2), (1, 3), (1, 3), (0, 1)],
    )
    bottom = multigraph(
        3,
        [(1, 2), (0, 1), (0, 0), (0, 2), (0, 2), (0, 2), (1, 2), (1, 2), (0, 1)],
    )
    return CounterexampleConfig(
        bottom=bottom,
        middle=middle,
        middle_reds=(2, 3),
        top_merged=top_merged,
        top_merged_yellows=(0, 2),
        top=top,
        top_reds=(2, 4),
        bb_pair=(1, 3),
        rb_pair=(2, 3),
    )


class HarnessStep(NamedTuple):
    name: str
    ok: bool
    detail: dict


class HarnessReport(NamedTuple):
    steps: tuple[HarnessStep, ...]
    verdict: str

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.steps)


def counterexample_harness(config: CounterexampleConfig) -> HarnessReport:
    """Run the full non-graphicness pipeline and report each step.

    (a) fixture consistency, (b) the three cycle matroids chain into a full
    flag matroid, (c) its lift witnesses are the configured plus-one-edge
    graphs and both are graphic, (d) no vertex identification reproduces the
    middle or bottom layer, with the named loop/parallel-class evidence,
    (e) the top graph is 3-connected.  Step (a) failures raise
    ConfigInconsistent; later steps are recorded in the report.
    """
    steps: list[HarnessStep] = []

    # (a) consistency
    merged_top = identify_vertices(config.top, *config.top_reds)
    if graphs_match(merged_top, config.top_merged) is None:
        raise ConfigInconsistent(
            "top with reds identified does not match top_merged", step="a"
        )
    m2_from_top = cycle_matroid(config.top_merged)
    m2 = cycle_matroid(config.middle)
    if m2_from_top != m2:
        raise ConfigInconsistent("top_merged and middle have different matroids", step="a")
    merged_mid = identify_vertices(config.middle, *config.middle_reds)
    if graphs_match(merged_mid, config.bottom) is None:
        raise ConfigInconsistent(
            "middle with reds identified does not match bottom", step="a"
        )
    steps.append(HarnessStep("a:consistency", True, {"edges": len(config.top.edges)}))

    # (b) the full flag chain
    m1 = cycle_matroid(config.bottom)
    m3 = cycle_matroid(config.top)
    fm = fl.from_sequence([m1, m2, m3])
    steps.append(HarnessStep("b:full-flag", is_full(fm), {"ranks": list(fm.cardinalities)}))

    # (c) lift witnesses are the plus-one-edge graphs, and both are graphic
    witness_mid = cycle_matroid(
        MultiGraph(
            config.middle.vertices, config.middle.edges + (tuple(sorted(config.middle_reds)),)
        )
    )
    witness_top = cycle_matroid(
        MultiGraph(config.top.vertices, config.top.edges + (tuple(sorted(config.top_reds)),))
    )
    seq = lift_witness_sequence(fm)
    (q1, _), (q2, _) = seq.witnesses
    match = q1 == witness_mid and q2 == witness_top
    graphic1, graphic2 = mc.is_graphic(q1), mc.is_graphic(q2)
    steps.append(
        HarnessStep(
            "c:witnesses-graphic",
            match and graphic1 and graphic2,
            {"match": match, "graphic": [graphic1, graphic2]},
        )
    )

    # (d) evidence that no graph realizes the chain
    bb = cycle_matroid(identify_vertices(config.top, *config.bb_pair))
    rb = cycle_matroid(identify_vertices(config.top, *config.rb_pair))
    bb_loops = len(mc.loops(bb))
    m2_loops = len(mc.loops(m2))
    rb_parallel = sum(1 for c in mc.parallel_classes(rb) if len(c) > 1)
    m2_parallel = sum(1 for c in mc.parallel_classes(m2) if len(c) > 1)
    named_ok = bb_loops == 0 and m2_loops == 1 and rb_parallel == 2 and m2_parallel == 3

    top_pairs = list(combinations(range(config.top.vertices), 2))
    red_pair = tuple(sorted(config.top_reds))
    top_exhaustive = all(
        cycle_matroid(identify_vertices(config.top, u, v)) != m2
        for u, v in top_pairs
        if (u, v) != red_pair
    )
    mid_stats = []
    mid_exhaustive = True
    for u, v in combinations(range(config.top_merged.vertices), 2):
        cand = cycle_matroid(identify_vertices(config.top_merged, u, v))
        if cand == m1:
            mid_exhaustive = False
        mid_stats.append(
            {
                "pair": [u, v],
                "loops": len(mc.loops(cand)),
                "max_parallel": max(len(c) for c in mc.parallel_classes(cand)),
            }
        )
    steps.append(
        HarnessStep(
            "d:not-graphic-evidence",
            named_ok and top_exhaustive and mid_exhaustive,
            {
                "bb_loops": bb_loops,
                "m2_loops": m2_loops,
                "rb_parallel_classes": rb_parallel,
                "m2_parallel_classes": m2_parallel,
                "m1_max_parallel": max(len(c) for c in mc.parallel_classes(m1)),
                "identifications": mid_stats,
            },
        )
    )

    # (e) 3-connectivity of the top graph
    three = is_three_connected_simple(config.top)
    steps.append(HarnessStep("e:top-3-connected", three, {}))

    verdict = (
        "not graphic, witnesses graphic"
        if all(s.ok for s in steps)
        else "inconclusive"
    )
    return HarnessReport(tuple(steps), verdict)
