"""Multigraphs, partition chains, graphic flag matroids and their majors.

Edges are identified by list index, which is the ground-set order of every
matroid built here; loops and parallel edges are allowed.  Quotient graphs
keep the edge indexing, so quotient matroids share one ground set.  Graphs
are matched by their vertices' incident-edge masks.
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


def _sorted_cells(cells: Iterable[Iterable[int]]) -> Partition:
    """Every cell sorted, and the cells ordered by their least vertex."""
    return tuple(sorted((tuple(sorted(c)) for c in cells), key=lambda c: c[:1]))


def _canon_partition(cells: Iterable[Iterable[int]], n: int) -> Partition:
    canon = _sorted_cells(cells)
    if not all(canon):
        raise BadPartition("empty cell")
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
    """Immutable: vertex partitions, coarsest first, each refined by the next,
    stored as `_sorted_cells` puts them, however their cells were listed."""

    partitions: tuple[Partition, ...]

    def __init__(self, partitions: Iterable[Iterable[Iterable[int]]]):
        partitions = tuple(_sorted_cells(p) for p in partitions)
        for coarse, fine in zip(partitions, partitions[1:]):
            if not _refines(coarse, fine):
                raise BadPartition("consecutive partitions are not a refinement")
        self.__dict__["partitions"] = partitions


def chain_of(n: int, partitions: Iterable[Iterable[Iterable[int]]]) -> PartitionChain:
    return PartitionChain(tuple(_canon_partition(p, n) for p in partitions))


def singletons(n: int) -> Partition:
    return tuple((v,) for v in range(n))


# --- cycle matroids -----------------------------------------------------------

def _roots(g: MultiGraph, removed: Collection[int] = ()) -> set[int]:
    """One vertex per connected component of g with `removed` taken out."""
    parent = list(range(g.vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for u, v in g.edges:
        if u not in removed and v not in removed:
            parent[find(u)] = find(v)
    return {find(v) for v in range(g.vertices) if v not in removed}


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


def identify_vertices(g: MultiGraph, u: int, v: int) -> MultiGraph:
    """Merge v into u (keeping min(u,v)); vertices above max(u,v) shift down:
    the quotient by the pair, since cells are ordered by their least vertex."""
    if u == v or not (0 <= u < g.vertices and 0 <= v < g.vertices):
        raise IndexOutOfRange(f"bad vertex pair ({u}, {v})")
    return quotient_graph(g, [(u, v)] + [(w,) for w in range(g.vertices) if w not in (u, v)])


# --- majors ---------------------------------------------------------------------

def graphic_major(g: MultiGraph, chain: PartitionChain):
    """Add path edges linking cell representatives; the new graph's matroid
    is a major of graphic_flag(g, chain).

    Needs a connected graph and a chain grounded in singletons.  Returns
    (H, MajorStructure); block X_i holds the edges bridging partitions i and
    i+1, so contracting X_i..X_{k-1} collapses each cell of partition i.
    """
    if len(_roots(g)) != 1:
        raise GraphNotConnected("graph is not connected")
    parts = chain.partitions
    if parts[-1] != singletons(g.vertices):
        raise ChainNotGrounded("finest partition must be all singletons")
    fm = graphic_flag(g, chain)
    edges = list(g.edges)
    blocks: list[tuple[int, ...]] = []
    for coarse, fine in zip(parts, parts[1:]):
        step: list[int] = []
        for cell in coarse:
            reps = [c[0] for c in fine if set(c) <= set(cell)]
            for a, b in zip(reps, reps[1:]):
                step.append(len(edges))
                edges.append((a, b))
        blocks.append(tuple(step))
    h = MultiGraph(g.vertices, tuple(edges))
    major = MajorStructure(cycle_matroid(h), tuple(blocks))
    if not verify_major(major.matroid, major.blocks, fm):
        raise InternalError("constructed graph is not a major")
    return h, major


# --- the non-graphic counterexample harness ---------------------------------------

def _incident_edges(g: MultiGraph) -> list[int]:
    """Per vertex, the mask of the indices of the edges it is an end of."""
    masks = [0] * g.vertices
    for i, (u, v) in enumerate(g.edges):
        masks[u] |= 1 << i
        masks[v] |= 1 << i
    return masks


def graphs_match(a: MultiGraph, b: MultiGraph) -> Optional[tuple[int, ...]]:
    """The lexicographically least vertex bijection under which edge i of a
    equals edge i of b, or None.  An edge's ends are the vertices whose
    incident-edge mask holds it, so a bijection carries the edges iff it
    keeps every vertex's mask.  Vertices of equal mask are interchangeable,
    so the least one sends the k-th vertex of each mask to the k-th target
    of that mask: both vertex lists, stably sorted by mask, paired up."""
    ours, theirs = _incident_edges(a), _incident_edges(b)
    vs = sorted(range(a.vertices), key=ours.__getitem__)
    ts = sorted(range(b.vertices), key=theirs.__getitem__)
    if [ours[v] for v in vs] != [theirs[t] for t in ts]:
        return None
    return tuple(t for _, t in sorted(zip(vs, ts)))


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
