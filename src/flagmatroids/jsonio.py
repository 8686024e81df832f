"""Canonical JSON encoding of every external interface.

Sets are sorted integer arrays, objects carry a versioned "schema" field,
and `dumps` is byte-deterministic so identical invocations of the CLI
produce identical output.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from . import flag_core as fl
from . import gf_linalg as gl
from . import graphic as gr
from . import matroid_core as mc
from .bitset import elements_of, mask_of
from .errors import IndexOutOfRange, InvalidInput, OverlappingSets
from .lifts_majors import LiftWitnessSequence, MajorStructure
from .representability import FlagRepresentation, ForbiddenMinorWitness

MAX_VERTICES = 2 * mc.MAX_GROUND  # the most vertices that MAX_GROUND edges touch


def dumps(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _int(x: Any, what: str, minimum: Optional[int] = 0) -> int:
    """A JSON integer (not a boolean), at least `minimum` unless that is None."""
    if isinstance(x, bool) or not isinstance(x, int) or (minimum is not None and x < minimum):
        bound = "an integer" if minimum is None else f"an integer >= {minimum}"
        raise InvalidInput(f"{what}: expected {bound}, got {x!r}")
    return x


def _array(xs: Any, what: str) -> list:
    if not isinstance(xs, list):
        raise InvalidInput(f"{what}: expected an array, got {xs!r}")
    return xs


def _int_list(xs: Any, what: str, minimum: Optional[int] = 0) -> list[int]:
    """An array of integers; by default of elements, so none is negative."""
    return [_int(x, what, minimum) for x in _array(xs, what)]


def _ground_size(doc: dict, max_ground: int = mc.MAX_GROUND) -> int:
    n = _int(doc["n"], "n")
    if n > max_ground:
        raise IndexOutOfRange(f"ground set size {n} outside 0..{max_ground}")
    return n


def _element_set(xs: Any, what: str, n: int) -> list[int]:
    """An array of distinct elements of {0..n-1}: a set, so a repeat is an
    error.  Matrix rows and graph edges use `_int_list`, since their values
    may repeat.

    An element at or past n comes back as n.  The set then still lies
    outside the ground set, so the caller's own bound check rejects it with
    its usual error document, but no mask wider than n + 1 bits is built:
    an element of 10^8 would otherwise cost a 10^8-bit int."""
    out = _int_list(xs, what)
    if len(set(out)) != len(out):
        raise InvalidInput(f"{what}: repeated element in {out!r}")
    return [min(e, n) for e in out]


def _element_mask(xs: Any, what: str, n: int) -> int:
    """The mask of `_element_set(xs, what, n)`, built in one pass when xs is
    an array of distinct integers in 0..n-1 and from `_element_set` else."""
    mask = 0
    for x in _array(xs, what):
        if type(x) is not int or not 0 <= x < n:
            break
        mask |= 1 << x
    else:
        if mask.bit_count() == len(xs):
            return mask
    return mask_of(_element_set(xs, what, n))


def _mask_family(masks) -> list[list[int]]:
    return [list(elements_of(m)) for m in masks]


def _require(doc: Any, keys: tuple[str, ...], kind: str) -> None:
    if not isinstance(doc, dict):
        raise InvalidInput(f"{kind}: expected an object")
    for k in keys:
        if k not in doc:
            raise InvalidInput(f"{kind}: missing field {k!r}")


# --- matroids -----------------------------------------------------------------

def matroid_json(m: mc.Matroid) -> dict:
    return {"schema": "matroid/1", "n": m.n, "bases": _mask_family(m.bases)}


def load_matroid(doc: Any, max_ground: int = mc.MAX_GROUND) -> mc.Matroid:
    """A matroid document; a lift witness may have `mc.MAX_MATROID_GROUND`
    elements, any other document at most `mc.MAX_GROUND`."""
    _require(doc, ("n", "bases"), "matroid")
    n = _ground_size(doc, max_ground)
    bases = [_element_mask(b, "basis", n) for b in _array(doc["bases"], "bases")]
    return mc.matroid_from_bases(n, bases)


# --- flag matroids -------------------------------------------------------------

def flag_json(fm: fl.FlagMatroid) -> dict:
    return {"schema": "flag-matroid/1", "n": fm.n, "feasible": _mask_family(fm.feasible)}


def load_flag(doc: Any) -> fl.FlagMatroid:
    _require(doc, ("n", "feasible"), "flag matroid")
    n = _ground_size(doc)
    return fl.FlagMatroid(n, _feasible_masks(doc, n))


def _feasible_masks(doc: dict, n: int) -> list[int]:
    return [_element_mask(f, "feasible set", n) for f in _array(doc["feasible"], "feasible")]


def load_raw_family(doc: Any) -> tuple[int, list[int]]:
    """Ground size and mask family without flag validation (for `axioms`).
    A set past the ground set is left to `check_flag_axioms`, which
    refuses it as `FlagMatroid` does."""
    _require(doc, ("n", "feasible"), "set family")
    n = _ground_size(doc)
    return n, _feasible_masks(doc, n)


# --- matrices and representations ------------------------------------------------

def matrix_json(a: gl.GFMatrix) -> dict:
    return {
        "schema": "gf-matrix/1",
        "p": a.p,
        "rows": a.rows,
        "cols": a.cols,
        "entries": a.row_lists(),
    }


def load_matrix(doc: Any) -> gl.GFMatrix:
    _require(doc, ("p", "rows", "cols", "entries"), "matrix")
    entries = [_int_list(r, "matrix row", None) for r in _array(doc["entries"], "entries")]
    rows, cols = _int(doc["rows"], "rows"), _int(doc["cols"], "cols")
    if len(entries) != rows or any(len(r) != cols for r in entries):
        raise InvalidInput("matrix: entries do not match the declared shape")
    return gl.matrix(_int(doc["p"], "p"), entries, cols=cols)


def representation_json(rep: FlagRepresentation) -> dict:
    return {
        "schema": "flag-representation/1",
        "matrix": matrix_json(rep.matrix),
        "levels": list(rep.levels),
    }


def load_representation(doc: Any) -> FlagRepresentation:
    _require(doc, ("matrix", "levels"), "representation")
    return FlagRepresentation(
        load_matrix(doc["matrix"]), tuple(_int_list(doc["levels"], "levels"))
    )


# --- majors and witnesses ----------------------------------------------------------

def major_json(major: MajorStructure) -> dict:
    doc = {
        "schema": "major/1",
        "matroid": matroid_json(major.matroid),
        "blocks": [list(b) for b in major.blocks],
    }
    if major.matrix is not None:
        doc["matrix"] = matrix_json(major.matrix)
    return doc


def load_major(doc: Any) -> MajorStructure:
    """A major document; its blocks are disjoint sets of the matroid's elements."""
    _require(doc, ("matroid", "blocks"), "major")
    matrix = load_matrix(doc["matrix"]) if "matrix" in doc else None
    q = load_matroid(doc["matroid"])
    raw = _array(doc["blocks"], "blocks")
    blocks = tuple(tuple(_element_set(b, "block", q.n)) for b in raw)
    seen = 0
    for block, given in zip(blocks, raw):
        bm = mask_of(block)
        if bm >> q.n:
            raise IndexOutOfRange(f"block {given} outside the ground set 0..{q.n - 1}")
        if bm & seen:
            raise OverlappingSets(f"block {list(block)} meets an earlier block")
        seen |= bm
    return MajorStructure(q, blocks, matrix=matrix)


def witnesses_json(seq: LiftWitnessSequence) -> dict:
    return {
        "schema": "lift-witness-sequence/1",
        "witnesses": [
            {"matroid": matroid_json(q), "element": x} for q, x in seq.witnesses
        ],
    }


def load_witnesses(doc: Any) -> LiftWitnessSequence:
    """The document `witnesses_json` writes; each element indexes its matroid."""
    _require(doc, ("witnesses",), "lift witness sequence")
    out = []
    for item in _array(doc["witnesses"], "witnesses"):
        _require(item, ("matroid", "element"), "lift witness")
        q = load_matroid(item["matroid"], mc.MAX_MATROID_GROUND)
        x = _int(item["element"], "element")
        if x >= q.n:
            raise IndexOutOfRange(f"witness element {x} outside 0..{q.n - 1}")
        out.append((q, x))
    return LiftWitnessSequence(tuple(out))


# --- graphs ---------------------------------------------------------------------

def graph_json(g: gr.MultiGraph, colors: Optional[dict] = None) -> dict:
    doc = {
        "schema": "multigraph/1",
        "vertices": g.vertices,
        "edges": [list(e) for e in g.edges],
    }
    if colors:
        doc["colors"] = {k: list(v) for k, v in sorted(colors.items())}
    return doc


def load_graph(doc: Any) -> tuple[gr.MultiGraph, dict]:
    _require(doc, ("vertices", "edges"), "graph")
    vertices = _int(doc["vertices"], "vertices")
    if vertices > MAX_VERTICES:
        raise IndexOutOfRange(f"vertex count {vertices} outside 0..{MAX_VERTICES}")
    edges = [_int_list(e, "edge") for e in _array(doc["edges"], "edges")]
    if any(len(e) != 2 for e in edges):
        raise InvalidInput("graph: every edge is a pair of vertices")
    g = gr.multigraph(vertices, edges)
    colors = doc.get("colors", {})
    if not isinstance(colors, dict):
        raise InvalidInput(f"graph: colors must be an object, got {colors!r}")
    colors = {k: _int_list(v, f"{k} vertices") for k, v in colors.items()}
    return g, colors


def chain_json(chain: gr.PartitionChain) -> dict:
    return {
        "schema": "partition-chain/1",
        "partitions": [[list(cell) for cell in part] for part in chain.partitions],
    }


def load_chain(doc: Any, n: int) -> gr.PartitionChain:
    _require(doc, ("partitions",), "partition chain")
    return gr.chain_of(
        n,
        [
            [_int_list(c, "cell") for c in _array(part, "partition")]
            for part in _array(doc["partitions"], "partitions")
        ],
    )


def graphic_bundle_json(g: gr.MultiGraph, chain: gr.PartitionChain) -> dict:
    return {
        "schema": "graphic-flag/1",
        "graph": graph_json(g),
        "chain": chain_json(chain),
    }


def load_graphic_bundle(doc: Any) -> tuple[gr.MultiGraph, gr.PartitionChain]:
    _require(doc, ("graph", "chain"), "graphic bundle")
    g, _ = load_graph(doc["graph"])
    return g, load_chain(doc["chain"], g.vertices)


def config_json(cfg: gr.CounterexampleConfig) -> dict:
    return {
        "schema": "counterexample-config/1",
        "bottom": graph_json(cfg.bottom),
        "middle": graph_json(cfg.middle, {"red": cfg.middle_reds}),
        "top_merged": graph_json(cfg.top_merged, {"yellow": cfg.top_merged_yellows}),
        "top": graph_json(cfg.top, {"red": cfg.top_reds}),
        "bb_pair": list(cfg.bb_pair),
        "rb_pair": list(cfg.rb_pair),
    }


def load_config(doc: Any) -> gr.CounterexampleConfig:
    _require(
        doc, ("bottom", "middle", "top_merged", "top", "bb_pair", "rb_pair"), "config"
    )
    bottom, _ = load_graph(doc["bottom"])
    middle, mid_colors = load_graph(doc["middle"])
    top_merged, merged_colors = load_graph(doc["top_merged"])
    top, top_colors = load_graph(doc["top"])
    for name, colors in (("middle", mid_colors), ("top", top_colors)):
        if len(colors.get("red", ())) != 2:
            raise InvalidInput(f"config: {name} graph needs exactly two red vertices")
    pairs = {name: tuple(_int_list(doc[name], name)) for name in ("bb_pair", "rb_pair")}
    for name, pair in pairs.items():
        if len(pair) != 2:
            raise InvalidInput(f"config: {name} needs exactly two vertices")
    return gr.CounterexampleConfig(
        bottom=bottom,
        middle=middle,
        middle_reds=tuple(mid_colors["red"]),
        top_merged=top_merged,
        top_merged_yellows=tuple(merged_colors.get("yellow", (0, 0))),
        top=top,
        top_reds=tuple(top_colors["red"]),
        **pairs,
    )


# --- certificates ------------------------------------------------------------------

def representation_certificate(fm: fl.FlagMatroid, rep: FlagRepresentation) -> dict:
    return {
        "schema": "certificate/representation/1",
        "p": rep.p,
        "flag": flag_json(fm),
        "matrix": matrix_json(rep.matrix),
        "levels": list(rep.levels),
    }


def forbidden_minor_certificate(
    p: int, fm: fl.FlagMatroid, witness: ForbiddenMinorWitness
) -> dict:
    return {
        "schema": "certificate/forbidden-minor/1",
        "p": p,
        "flag": flag_json(fm),
        "target_name": witness.target_name,
        "target": flag_json(witness.target),
        "contract": list(witness.contract),
        "delete": list(witness.delete),
        "chops": list(witness.chops),
        "bijection": list(witness.bijection),
    }


def load_representation_certificate(doc: Any) -> tuple[int, fl.FlagMatroid, FlagRepresentation]:
    """(declared p, flag, representation) of a representation certificate."""
    _require(doc, ("p", "flag", "matrix", "levels"), "representation certificate")
    return _int(doc["p"], "p"), load_flag(doc["flag"]), load_representation(doc)


def load_forbidden_minor_certificate(
    doc: Any,
) -> tuple[int, fl.FlagMatroid, ForbiddenMinorWitness]:
    """(declared p, flag, minor script) of a forbidden-minor certificate."""
    _require(
        doc,
        ("p", "flag", "target_name", "target", "contract", "delete", "chops", "bijection"),
        "forbidden-minor certificate",
    )
    if not isinstance(doc["target_name"], str):
        raise InvalidInput("forbidden-minor certificate: target_name must be a string")
    witness = ForbiddenMinorWitness(
        doc["target_name"],
        load_flag(doc["target"]),
        *(tuple(_int_list(doc[k], k)) for k in ("contract", "delete", "chops", "bijection")),
    )
    return _int(doc["p"], "p"), load_flag(doc["flag"]), witness


# --- generic loading -----------------------------------------------------------------

_LOADERS = {
    "matroid/1": ("matroid", load_matroid),
    "flag-matroid/1": ("flag", load_flag),
    "gf-matrix/1": ("matrix", load_matrix),
    "flag-representation/1": ("representation", load_representation),
    "major/1": ("major", load_major),
    "lift-witness-sequence/1": ("witnesses", load_witnesses),
    "multigraph/1": ("graph", lambda d: load_graph(d)[0]),
    "graphic-flag/1": ("graphic-bundle", load_graphic_bundle),
    "counterexample-config/1": ("config", load_config),
}


def load_by_kind(kind: str, doc: Any):
    for name, fn in _LOADERS.values():
        if name == kind:
            return fn(doc)
    raise InvalidInput(f"no loader for kind {kind!r}")


def detect_kind(doc: Any) -> str:
    if isinstance(doc, dict) and "schema" in doc:
        schema = doc["schema"]
        if not isinstance(schema, str):
            raise InvalidInput(f"schema: expected a string, got {schema!r}")
        if schema in _LOADERS:
            return _LOADERS[schema][0]
        if schema == "certificate/representation/1":
            return "certificate-representation"
        if schema == "certificate/forbidden-minor/1":
            return "certificate-forbidden-minor"
        if schema == "partition-chain/1":
            return "chain"
        raise InvalidInput(f"unknown schema {schema!r}")
    if isinstance(doc, dict):
        if "bases" in doc:
            return "matroid"
        if "feasible" in doc:
            return "flag"
        if "entries" in doc:
            return "matrix"
        if "levels" in doc and "matrix" in doc:
            return "representation"
        if "graph" in doc and "chain" in doc:
            return "graphic-bundle"
        if "edges" in doc:
            return "graph"
    raise InvalidInput("cannot determine document kind")
