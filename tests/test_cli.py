import json
import random
import time

import pytest

from conftest import random_prefix_chain_matrix
from flagmatroids import cli
from flagmatroids import flag_core as fl
from flagmatroids import gf_linalg as gl
from flagmatroids import graphic as gr
from flagmatroids import jsonio as io
from flagmatroids import matroid_core as mc
from flagmatroids import representability as rp
from flagmatroids.errors import IndexOutOfRange


def test_validate_and_axioms(capture, corpus):
    code, out, _ = capture("validate", corpus["iu23.json"])
    assert code == 0 and json.loads(out)["valid"]

    code, out, _ = capture("validate", corpus["bad_family.json"])
    assert code == 2
    assert json.loads(out)["error"] == "NotALift"

    code, out, _ = capture("axioms", corpus["bad_family.json"])
    assert code == 1
    doc = json.loads(out)
    assert doc["axiom"] == 2 and doc["witness"]["F"] == [1, 2]

    code, out, _ = capture("axioms", corpus["iu23.json"])
    assert code == 0


def test_axioms_refuses_a_layer_check_that_contradicts_axiom_1(capture, corpus, monkeypatch):
    """Axiom 1 is decided by `_layer_check`, and its stated-form witness is
    searched for only on a layer that check refuses; a search that finds no
    violation means the two implementations of basis exchange disagree, a
    fault in the program: exit 4 and an InternalError document."""
    def refused(n, layer):
        m = mc.Matroid(n, layer)
        m.__dict__["is_matroid"] = False  # as the cached property stores it
        return m

    monkeypatch.setattr(fl, "_layer_check", refused)
    code, out, _ = capture("axioms", corpus["iu23.json"])
    assert (code, json.loads(out)) == (4, {
        "error": "InternalError",
        "detail": "a layer that fails basis exchange satisfies axiom 1",
    })


def test_axioms_refuses_a_bases_test_that_contradicts_the_flats_test(capture, corpus, monkeypatch):
    """Axiom 2 is decided by the layers' flats, and its witness is read by
    `mc.unlifted_basis` only on a pair that fails; no witness there means
    the flats and bases lift tests disagree: exit 4, not {"ok": true}."""
    monkeypatch.setattr(mc, "unlifted_basis", lambda quot, lift: None)
    code, out, _ = capture("axioms", corpus["bad_family.json"])
    assert (code, json.loads(out)) == (4, {
        "error": "InternalError",
        "detail": "a pair that fails the flats lift test satisfies axiom 2",
    })


def test_seqrep_minor_dual(capture, corpus):
    code, out, _ = capture("seqrep", corpus["chain3.json"])
    assert code == 0
    layers = json.loads(out)["layers"]
    assert [len(l["bases"][0]) for l in layers] == [1, 2, 3]

    code, out, _ = capture("minor", corpus["chain3.json"], "--chop", "2")
    assert code == 0
    assert sorted(len(f) for f in json.loads(out)["feasible"]) == [1, 1, 1, 3]

    code, out, _ = capture("dual", corpus["iu23.json"])
    assert code == 0


def test_from_matrix_and_uniform_rep(capture, corpus):
    code, out, _ = capture("from-matrix", corpus["fano.json"], "--levels", "3")
    assert code == 0
    assert len(json.loads(out)["feasible"]) == 28

    code, out, _ = capture("uniform-rep", "--r", "2", "--n", "4", "--p", "5")
    assert code == 0
    assert json.loads(out)["matrix"]["entries"] == [[1, 1, 1, 1], [0, 1, 2, 3]]

    code, out, _ = capture("uniform-rep", "--r", "2", "--n", "4", "--p", "3")
    assert code == 1
    assert json.loads(out)["error"] == "FieldTooSmall"


@pytest.mark.parametrize("levels", [
    "",  # empty
    "1,1",  # repeated
    "2,1",  # decreasing
    "-1",  # negative
    "-1,2",  # negative below a valid level
    "1,4",  # above the 3 rows of the Fano matrix
    "4",  # a single level above them
])
def test_from_matrix_rejects_malformed_levels(capture, corpus, levels):
    code, out, _ = capture("from-matrix", corpus["fano.json"], f"--levels={levels}")
    assert code == 2
    assert json.loads(out)["error"] == "RankDeficientPrefix"


def test_from_matrix_rejects_a_rank_deficient_prefix(capture, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(io.dumps(io.matrix_json(gl.matrix(2, [[1, 0, 1], [1, 0, 1]]))))
    assert capture("from-matrix", str(path), "--levels", "1")[0] == 0
    for levels in ("1,2", "2"):
        code, out, _ = capture("from-matrix", str(path), "--levels", levels)
        assert code == 2
        assert json.loads(out)["error"] == "RankDeficientPrefix"


@pytest.mark.parametrize("rows, cols, levels", [(2, 21, "1,2"), (16, 32, "8,16")])
def test_from_matrix_refuses_a_wide_matrix_at_once(
    capture, tmp_path, monkeypatch, rows, cols, levels
):
    """A matrix wider than a flag's ground set is an input error, given
    before any column basis is listed (C(32, 16) would never finish)."""
    path = tmp_path / "wide.json"
    eye = gl.matrix(2, [[int(i == j) for j in range(cols)] for i in range(rows)])
    path.write_text(io.dumps(io.matrix_json(eye)))
    listed = []
    column_bases = gl.column_bases
    monkeypatch.setattr(gl, "column_bases", lambda a: listed.append(a) or column_bases(a))
    start = time.perf_counter()
    code, out, _ = capture("from-matrix", str(path), "--levels", levels)
    assert time.perf_counter() - start < 5
    assert code == 2 and not listed
    assert json.loads(out) == {
        "error": "IndexOutOfRange", "detail": f"ground set size {cols} outside 0..20",
    }


def test_uniform_rep_bounds_the_shape_before_building_rows(capture):
    """A shape past 32 columns is refused before any row list is built;
    a field too small for the Vandermonde rows is still a "no"."""
    import tracemalloc

    cases = [
        (("1", "100000000", "2"), 2, "MatrixTooLarge", "1x100000000 exceeds 32x32"),
        (("1", "40", "2"), 2, "MatrixTooLarge", "1x40 exceeds 32x32"),
        (("0", "40", "2"), 2, "MatrixTooLarge", "0x40 exceeds 32x32"),
        (("1500", "1500", "1511"), 2, "MatrixTooLarge", "1500x1500 exceeds 32x32"),
        (("2", "40", "5"), 1, "FieldTooSmall", "GF(5) has fewer than 40 elements"),
    ]
    cli._build_parser()
    for (r, n, p), want_code, error, detail in cases:
        tracemalloc.start()
        try:
            code, out, _ = capture("uniform-rep", "--r", r, "--n", n, "--p", p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, json.loads(out)) == (want_code, {"error": error, "detail": detail})
        assert peak < 2 << 20, f"uniform-rep {r} {n} {p}: peak {peak} bytes"


@pytest.mark.parametrize(
    "rows, certificate",
    [
        (
            [[1, 0, 0, 0, 2, 1], [0, 1, 0, 2, 0, 2], [0, 0, 1, 1, 1, 1]],
            [[1, 0, 0, 0, 1, 1], [0, 1, 0, 1, 0, 1], [0, 0, 1, 2, 1, 2]],
        ),
        (
            [[1, 0, 0, 0, 2, 0, 1], [0, 1, 0, 0, 0, 2, 2],
             [0, 0, 1, 0, 2, 2, 1], [0, 0, 0, 1, 1, 0, 1]],
            [[1, 0, 0, 0, 1, 0, 1], [0, 1, 0, 0, 0, 1, 1],
             [0, 0, 1, 0, 1, 2, 1], [0, 0, 0, 1, 1, 0, 2]],
        ),
    ],
)
def test_witness_route_certificates_are_pinned(capture, corpus, rows, certificate):
    """The stitched certificates of two GF(3) flags, levels 1..r, exactly."""
    r, n = len(rows), len(rows[0])
    doc = {"schema": "gf-matrix/1", "p": 3, "rows": r, "cols": n, "entries": rows}
    path = corpus["write"]("pinned-matrix.json", json.dumps(doc))
    levels = ",".join(str(d) for d in range(1, r + 1))
    code, out, _ = capture("from-matrix", path, "--levels", levels)
    assert code == 0
    flag = corpus["write"]("pinned-flag.json", out)
    code, out, _ = capture("is-representable", flag, "--p", "3")
    assert code == 0
    cert = json.loads(out)
    assert cert["matrix"] == {
        "cols": n, "entries": certificate, "p": 3, "rows": r, "schema": "gf-matrix/1"
    }
    assert cert["levels"] == list(range(1, r + 1))
    assert capture("validate", corpus["write"]("pinned-cert.json", out))[0] == 0


def test_is_representable_negative_with_witness(capture, corpus):
    code, out, _ = capture("is-representable", corpus["iu23.json"], "--p", "2")
    assert code == 1
    doc = json.loads(out)
    assert doc["schema"] == "certificate/forbidden-minor/1"
    assert doc["target_name"] == "(U_{1,3},U_{2,3})"


def test_is_representable_non_full_routes(capture, corpus):
    # a flag with a rank gap: fillings route for the minor methods,
    # direct search for --method search
    code, out, _ = capture("is-representable", corpus["gap.json"], "--p", "2")
    assert code == 0
    assert json.loads(out)["schema"] == "certificate/representation/1"
    code, out, _ = capture(
        "is-representable", corpus["gap.json"], "--p", "2", "--method", "search"
    )
    assert code == 0
    assert json.loads(out)["levels"] == [1, 3]


def test_is_representable_positive_certificate_revalidates(capture, corpus, tmp_path):
    code, out, _ = capture("is-representable", corpus["bf7.json"], "--p", "2", "--method", "all")
    assert code == 0
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(out)
    code2, out2, _ = capture("validate", str(cert_path))
    assert code2 == 0 and json.loads(out2)["valid"]


def test_forbidden_minor_certificate_revalidates_and_mutation_breaks(capture, corpus, tmp_path):
    code, out, _ = capture("is-representable", corpus["iu23.json"], "--p", "2")
    cert = json.loads(out)
    path = tmp_path / "neg.json"
    path.write_text(io.dumps(cert))
    assert capture("validate", str(path))[0] == 0

    broken = json.loads(io.dumps(cert))
    broken["target"]["feasible"] = broken["target"]["feasible"][:-1]
    path.write_text(io.dumps(broken))
    assert capture("validate", str(path))[0] in (1, 2)


def test_matrix_certificate_mutation_breaks(capture, corpus, tmp_path):
    code, out, _ = capture("is-representable", corpus["bf7.json"], "--p", "2")
    cert = json.loads(out)
    cert["matrix"]["entries"][0][0] ^= 1
    path = tmp_path / "mut.json"
    path.write_text(io.dumps(cert))
    assert capture("validate", str(path))[0] in (1, 2)


def _validate_doc(capture, tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, _ = capture("validate", str(path))
    return code, json.loads(out)


def _flag_file(tmp_path, fm):
    path = tmp_path / "flag.json"
    path.write_text(io.dumps(io.flag_json(fm)))
    return str(path)


def _minor_certificate(p, flag, target, chops=(), name="(U_{2,4})"):
    return {
        "schema": "certificate/forbidden-minor/1",
        "p": p,
        "flag": io.flag_json(flag),
        "target_name": name,
        "target": io.flag_json(target),
        "contract": [],
        "delete": [],
        "chops": list(chops),
        "bijection": list(range(target.n)),
    }


@pytest.mark.parametrize("p, reason", [(5, "no excluded flag minors"), (3, "not an excluded")])
def test_forbidden_minor_certificate_needs_a_listed_field(capture, corpus, tmp_path, p, reason):
    code, out, _ = capture("is-representable", corpus["iu23.json"], "--p", "2")
    cert = json.loads(out)
    assert _validate_doc(capture, tmp_path, cert)[0] == 0
    cert["p"] = p
    code, doc = _validate_doc(capture, tmp_path, cert)
    assert code == 1 and not doc["valid"] and reason in doc["reason"]


def test_forbidden_minor_certificate_needs_a_listed_target(capture, tmp_path):
    # the script turns the flag into the target, but the target is GF(2)-representable
    two_points = fl.flag_matroid(2, [[0], [1]])
    code, doc = _validate_doc(capture, tmp_path, _minor_certificate(2, two_points, two_points))
    assert code == 1 and "not an excluded flag minor" in doc["reason"]
    assert capture("is-representable", _flag_file(tmp_path, two_points), "--p", "2")[0] == 0


def test_forbidden_minor_certificate_target_name_must_be_listed(capture, tmp_path):
    u24 = fl.from_sequence([mc.uniform(2, 4)])
    cert = _minor_certificate(2, u24, u24, name="(F_7)")
    code, doc = _validate_doc(capture, tmp_path, cert)
    assert code == 1 and not doc["valid"]
    assert doc["reason"] == "target_name (F_7) is not an excluded flag minor for GF(2)"
    cert["target_name"] = "(U_{2,4})"
    assert _validate_doc(capture, tmp_path, cert)[0] == 0


def test_forbidden_minor_certificate_target_name_must_name_the_target(capture, corpus, tmp_path):
    code, out, _ = capture("is-representable", corpus["iu23.json"], "--p", "2")
    cert = json.loads(out)
    assert cert["target_name"] == "(U_{1,3},U_{2,3})"
    assert _validate_doc(capture, tmp_path, cert)[0] == 0
    cert["target_name"] = "(U_{2,4})"
    code, doc = _validate_doc(capture, tmp_path, cert)
    assert code == 1 and not doc["valid"]
    assert doc["reason"] == (
        "target is not an excluded flag minor for GF(2): not isomorphic to (U_{2,4})"
    )


def test_forbidden_minor_certificate_needs_a_full_flag(capture, tmp_path):
    u24 = mc.uniform(2, 4)
    gap = fl.from_sequence([u24, mc.uniform(4, 4)])
    target = fl.from_sequence([u24])
    code, doc = _validate_doc(capture, tmp_path, _minor_certificate(2, gap, target, chops=[4]))
    assert code == 1 and doc["reason"] == "flag is not full"
    full = fl.from_sequence([u24, mc.uniform(3, 4)])
    code, doc = _validate_doc(capture, tmp_path, _minor_certificate(2, full, target, chops=[3]))
    assert code == 0 and doc == {"kind": "certificate-forbidden-minor", "valid": True}


def test_representation_certificate_field_must_match_matrix(capture, tmp_path):
    rep = rp.uniform_flag_representation(2, 4, 5)
    cert = io.representation_certificate(rp.represented_flag(rep), rep)
    assert _validate_doc(capture, tmp_path, cert)[0] == 0
    cert["p"] = 2
    code, doc = _validate_doc(capture, tmp_path, cert)
    assert code == 1 and "GF(5)" in doc["reason"]


@pytest.mark.parametrize(
    "doc",
    [
        {"n": 3, "feasible": [[-1], [0]]},
        {"n": 3, "feasible": [["a"], [0]]},
        {
            "schema": "certificate/representation/1",
            "p": 2,
            "flag": {"n": 2, "feasible": [[0], [1]]},
            "levels": [1],
        },
        {"schema": "multigraph/1", "vertices": 2, "edges": [[0, 1]], "colors": [1]},
        {"schema": "major/1", "matroid": {"n": 2, "bases": [[0]]}, "blocks": 5},
    ],
    ids=[
        "negative-element", "string-element", "certificate-without-matrix",
        "colors-not-an-object", "blocks-not-an-array",
    ],
)
def test_malformed_documents_are_input_errors(capture, tmp_path, doc):
    code, out = _validate_doc(capture, tmp_path, doc)
    assert code == 2 and out["error"] == "InvalidInput"


def test_represent_and_fillings(capture, corpus):
    code, out, _ = capture("represent", corpus["gap.json"], "--p", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["levels"] == [1, 3]

    code, out, _ = capture("fillings", corpus["gap.json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["complete"] and len(doc["fillings"]) == 4

    code, _, _ = capture("fillings", corpus["gap.json"], "--budget", "2")
    assert code == 3


def test_witness_and_major(capture, corpus, tmp_path):
    code, out, _ = capture("witness", corpus["chain3.json"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["witnesses"]) == 2

    code, out, _ = capture("major", "from-rep", str(_write_rep(tmp_path)))
    assert code == 0
    major_doc = json.loads(out)

    bundle = {"major": major_doc, "flag": io.flag_json(
        fl.from_sequence([mc.uniform(1, 3), mc.uniform(2, 3), mc.uniform(3, 3)])
    )}
    path = tmp_path / "verify.json"
    path.write_text(io.dumps(bundle))
    assert capture("major", "verify", str(path))[0] == 0

    code, out, _ = capture("major", "search", corpus["gap.json"], "--budget", "200000")
    assert code == 0

    code, _, _ = capture("major", "search", corpus["gap.json"], "--budget", "1")
    assert code == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["is-representable", "gap.json", "--p", "2"],
        ["is-representable", "chain3.json", "--p", "2"],
        ["fillings", "gap.json"],
        ["major", "search", "gap.json"],
    ],
)
def test_a_negative_budget_is_an_input_error(capture, corpus, argv):
    # a negative budget used to read as one already spent (exit 3, "budget
    # exhausted"); a zero budget still is one
    argv = [corpus.get(arg, arg) for arg in argv]
    code, out, _ = capture(*argv, "--budget", "-1")
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "InvalidInput" and "--budget" in doc["detail"]
    if corpus["gap.json"] in argv:
        assert capture(*argv, "--budget", "0")[0] == 3


def test_witness_documents_validate(capture, corpus):
    # at n = 20 the witness matroid has 21 elements, one more than a matroid document
    a = random_prefix_chain_matrix(random.Random(20), 2, 2, 20)
    n20 = corpus["write"]("n20.json", io.flag_json(rp.flag_from_matrix(a, (1, 2))))
    for flag in (corpus["chain3.json"], n20):
        code, out, _ = capture("witness", flag)
        assert code == 0
        code, out, _ = capture("validate", corpus["write"]("witness.json", out))
        assert code == 0 and json.loads(out) == {"kind": "witnesses", "valid": True}


@pytest.mark.parametrize(
    "field, value, error",
    [
        ("element", 4, "IndexOutOfRange"),
        ("element", -1, "InvalidInput"),
        ("bases", [[0, 1], [2, 3]], "ConstructionFailed"),
        ("n", 22, "IndexOutOfRange"),
    ],
    ids=["element-outside", "element-negative", "not-a-matroid", "too-large"],
)
def test_malformed_witness_documents_are_input_errors(capture, corpus, field, value, error):
    doc = json.loads(capture("witness", corpus["chain3.json"])[1])
    first = doc["witnesses"][0]
    (first if field == "element" else first["matroid"])[field] = value
    code, out, _ = capture("validate", corpus["write"]("bad-witness.json", doc))
    assert code == 2 and json.loads(out)["error"] == error


def _write_rep(tmp_path):
    from flagmatroids import representability as rp

    rep = rp.uniform_flag_representation(3, 3, 5)
    path = tmp_path / "rep.json"
    path.write_text(io.dumps(io.representation_json(rep)))
    return path


def test_graphic_verbs(capture, corpus):
    code, out, _ = capture("graphic-flag", corpus["k4bundle.json"])
    assert code == 0
    assert len(json.loads(out)["feasible"]) == 1 + 3 + 8 + 16

    code, out, _ = capture("graphic-major", corpus["k4bundle.json"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["graph"]["edges"]) == 9


def test_graphic_major_refuses_a_disconnected_graph(capture, corpus):
    bundle = io.graphic_bundle_json(
        gr.multigraph(4, [(0, 1), (2, 3)]), gr.chain_of(4, [gr.singletons(4)])
    )
    code, out, _ = capture("graphic-major", corpus["write"]("disconnected.json", bundle))
    assert (code, json.loads(out)) == (2, {
        "error": "GraphNotConnected", "detail": "graph is not connected",
    })


def test_isomorphic(capture, corpus):
    code, out, _ = capture("isomorphic", corpus["u24.json"], corpus["u24b.json"])
    assert code == 0
    assert json.loads(out)["bijection"] == [0, 1, 2, 3]

    code, _, _ = capture("isomorphic", corpus["u24.json"], corpus["iu23.json"])
    assert code == 2  # mixed kinds rejected


def test_counterexample(capture, corpus):
    code, out, _ = capture("counterexample", corpus["config.json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "not graphic, witnesses graphic"

    assert capture("counterexample")[0] == 0  # built-in fixture


@pytest.mark.parametrize("key", ["bb_pair", "rb_pair"])
@pytest.mark.parametrize("pair", [[], [1], [1, 3, 4]])
def test_counterexample_rejects_a_pair_without_two_vertices(capture, corpus, tmp_path, key, pair):
    with open(corpus["config.json"]) as f:
        doc = json.load(f)
    doc[key] = pair
    path = tmp_path / "bad_pair.json"
    path.write_text(json.dumps(doc))
    code, out, _ = capture("counterexample", str(path))
    assert code == 2
    assert json.loads(out)["error"] == "InvalidInput"


def test_counterexample_refuses_a_pair_of_one_vertex(capture, corpus):
    """[2, 2] names two vertices, so the loader takes it; identifying a
    vertex with itself is then refused."""
    with open(corpus["config.json"]) as f:
        doc = json.load(f)
    doc["rb_pair"] = [2, 2]
    path = corpus["write"]("one_vertex_pair.json", json.dumps(doc))
    code, out, _ = capture("counterexample", path)
    assert (code, json.loads(out)) == (2, {
        "error": "IndexOutOfRange", "detail": "bad vertex pair (2, 2)",
    })


def test_counterexample_refuses_a_graph_above_the_vertex_bound(capture, corpus):
    """The fixture with 10^9 - 3 isolated vertices added to each graph (so
    the bottom has 10^9) exits 2 before anything is built per vertex; the
    loader takes MAX_VERTICES vertices and no more."""
    doc = io.config_json(gr.reference_counterexample_config())
    for key in ("bottom", "middle", "top_merged", "top"):
        doc[key]["vertices"] += 10**9 - 3
    path = corpus["write"]("huge_graphs.json", json.dumps(doc))
    start = time.perf_counter()
    code, out, _ = capture("counterexample", path)
    assert time.perf_counter() - start < 1.0
    assert (code, json.loads(out)) == (2, {
        "error": "IndexOutOfRange",
        "detail": f"vertex count {10**9} outside 0..{io.MAX_VERTICES}",
    })
    assert io.MAX_VERTICES >= 2 * mc.MAX_GROUND
    edge = {"vertices": io.MAX_VERTICES, "edges": [[0, io.MAX_VERTICES - 1]]}
    assert io.load_graph(edge)[0].vertices == io.MAX_VERTICES
    with pytest.raises(IndexOutOfRange):
        io.load_graph(dict(edge, vertices=io.MAX_VERTICES + 1))


def test_deterministic_output(capture, corpus):
    for args in (
        ("is-representable", corpus["bf7.json"], "--p", "2"),
        ("represent", corpus["gap.json"], "--p", "3"),
        ("seqrep", corpus["chain3.json"]),
        ("counterexample",),
        ("fillings", corpus["gap.json"]),
    ):
        first = capture(*args)
        second = capture(*args)
        assert first[0] == second[0]
        assert first[1] == second[1]


def test_outputs_reparse(capture, corpus):
    code, out, _ = capture("dual", corpus["chain3.json"])
    reloaded = io.load_flag(json.loads(out))
    assert io.dumps(io.flag_json(reloaded)) == out


def test_validate_reports_exchange_witness(capture, corpus, tmp_path):
    path = tmp_path / "axiom1.json"
    path.write_text(json.dumps({"n": 4, "feasible": [[0, 1], [2, 3]]}))
    code, out, _ = capture("validate", str(path))
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "LayerNotMatroid"
    assert doc["witness"]["witness"]["B1"] == [0, 1]


def test_subprocess_determinism_across_hash_seeds(corpus):
    """Byte-identical stdout in separate processes with different hash seeds."""
    import os
    import subprocess
    import sys

    def run(seed):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        return subprocess.run(
            [sys.executable, "-m", "flagmatroids.cli", "is-representable",
             corpus["bf7.json"], "--p", "3"],
            capture_output=True, text=True, env=env,
        )

    first, second = run("1"), run("4242")
    assert first.returncode == second.returncode == 1
    assert first.stdout == second.stdout


def test_witness_route_runs_at_twenty_elements(capture, corpus):
    # the lift witness of a flag on 20 elements is a matroid on 21
    a = random_prefix_chain_matrix(random.Random(20), 2, 2, 20)
    flag = corpus["write"]("n20.json", io.flag_json(rp.flag_from_matrix(a, (1, 2))))
    for method in ("minors", "witness"):
        code, out, _ = capture("is-representable", flag, "--p", "2", "--method", method)
        assert code == 0
        code, out, _ = capture("validate", corpus["write"](f"n20-{method}.json", out))
        assert code == 0 and json.loads(out)["valid"]


def test_documents_stay_limited_to_twenty_elements(capture, corpus):
    matroid = corpus["write"]("matroid21.json", io.matroid_json(mc.uniform(1, 21)))
    flag = corpus["write"]("flag21.json", {"schema": "flag-matroid/1", "n": 21, "feasible": [[0]]})
    for argv in (("validate", matroid), ("validate", flag), ("is-representable", flag, "--p", "2")):
        code, out, _ = capture(*argv)
        assert code == 2
        assert json.loads(out)["error"] == "IndexOutOfRange"


def test_an_internal_fault_exits_4_not_no(capture, corpus, monkeypatch):
    def broken(fm, p):
        raise RuntimeError("boom")

    monkeypatch.setattr(rp, "witness_route_decision", broken)
    code, out, err = capture(
        "is-representable", corpus["chain3.json"], "--p", "2", "--method", "witness"
    )
    assert code == cli.EXIT_INTERNAL == 4
    assert json.loads(out) == {"error": "InternalError", "detail": "RuntimeError: boom"}
    assert "Traceback" in err


def test_disagreeing_routes_exit_4(capture, corpus, monkeypatch):
    monkeypatch.setattr(
        rp, "forbidden_minor_decision", lambda fm, p: rp.RepresentabilityDecision(p, False)
    )
    code, out, _ = capture(
        "is-representable", corpus["chain3.json"], "--p", "3", "--method", "all"
    )
    assert code == 4
    doc = json.loads(out)
    assert doc["error"] == "InternalError"
    assert doc["detail"].startswith("decision routes disagree")


def test_a_no_without_a_listed_minor_exits_4(capture, corpus, monkeypatch):
    # the witness route says "no" on bf7 over GF(3); no minor search finds F_7
    monkeypatch.setattr(fl, "flag_has_minor", lambda fm, target: None)
    for method in ((), ("--method", "minors")):
        code, out, err = capture("is-representable", corpus["bf7.json"], "--p", "3", *method)
        assert code == 4
        doc = json.loads(out)
        assert doc["error"] == "InternalError"
        assert doc["detail"].startswith("decision routes disagree: ")
        assert "Traceback" not in err


def test_a_failed_post_condition_exits_4(capture, corpus, tmp_path, monkeypatch):
    """A construction whose own result fails its check is a fault in the
    program, not an input error: the input passed every check before it."""
    monkeypatch.setattr(rp, "represents", lambda rep, fm: False)
    code, out, _ = capture("represent", corpus["chain3.json"], "--p", "3")
    assert code == cli.EXIT_INTERNAL == 4
    assert json.loads(out) == {
        "error": "InternalError", "detail": "search produced a wrong representation"
    }
    monkeypatch.setattr(rp, "verify_major", lambda q, blocks, fm: False)
    code, out, _ = capture("major", "from-rep", str(_write_rep(tmp_path)))
    assert code == 4
    assert json.loads(out) == {
        "error": "InternalError", "detail": "major construction failed verification"
    }


def test_a_huge_element_builds_no_huge_mask(capture, corpus):
    """An element such as 10^8 is bounded before any mask is built, and the
    error documents stay what they were."""
    import tracemalloc

    big = 100000000
    flag, ok = ({"n": 3, "feasible": [[big]]}, {"n": 3, "feasible": [[0]]})
    cases = [
        (("validate", flag), 2, {"error": "IndexOutOfRange",
                                 "detail": "feasible set outside the ground set"}),
        (("axioms", flag), 2, {"error": "IndexOutOfRange",
                               "detail": "feasible set outside the ground set"}),
        (("validate", {"n": 3, "bases": [[big]]}), 2,
         {"error": "IndexOutOfRange", "detail": "basis element outside the ground set"}),
        (("validate", {"schema": "major/1", "matroid": {"n": 3, "bases": [[0]]},
                       "blocks": [[0], [big]]}), 2,
         {"error": "IndexOutOfRange", "detail": f"block [{big}] outside the ground set 0..2"}),
        (("minor", ok, "--contract", str(big)), 2,
         {"error": "IndexOutOfRange", "detail": "element outside ground set"}),
        (("minor", ok, "--contract", "-1"), 2,
         {"error": "IndexOutOfRange", "detail": "element outside ground set"}),
    ]
    cli._build_parser()
    for i, ((verb, doc, *rest), want_code, want_doc) in enumerate(cases):
        path = corpus["write"](f"huge{i}.json", json.dumps(doc))
        tracemalloc.start()
        try:
            code, out, _ = capture(verb, path, *rest)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, json.loads(out)) == (want_code, want_doc)
        assert peak < 2 << 20, f"{verb} {doc}: peak {peak} bytes"


def test_two_runs_build_one_parser(capture, corpus, monkeypatch):
    import argparse

    progs = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli._build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert capture("validate", corpus["iu23.json"])[0] == 0
    assert capture("minor", corpus["chain3.json"], "--chop", "2")[0] == 0
    assert progs.count("flagmatroids") == 1


def test_option_defaults_do_not_leak_between_runs(capture, corpus):
    parser = cli._build_parser()
    chain3 = corpus["chain3.json"]
    code, out, _ = capture("minor", chain3, "--contract", "0")
    assert code == 0 and json.loads(out)["n"] == 2
    code, out, _ = capture("minor", chain3)
    with open(chain3) as fh:
        assert code == 0 and out == fh.read()

    assert capture("fillings", corpus["gap.json"], "--budget", "2")[0] == 3
    code, out, _ = capture("fillings", corpus["gap.json"])
    assert code == 0 and len(json.loads(out)["fillings"]) == 4
    assert cli._build_parser() is parser


def test_a_usage_error_leaves_the_parser_usable(capture, corpus):
    parser = cli._build_parser()
    with pytest.raises(SystemExit) as exc:
        capture("is-representable", corpus["iu23.json"], "--p", "4")
    assert exc.value.code == 2
    code, out, _ = capture("is-representable", corpus["iu23.json"], "--p", "2")
    assert code == 1 and json.loads(out)["target_name"] == "(U_{1,3},U_{2,3})"
    assert cli._build_parser() is parser


@pytest.mark.parametrize(
    "verb, doc",
    [
        ("validate", {"n": 3, "bases": [[0, 0]]}),
        ("validate", {"n": 3, "feasible": [[0], [1, 2, 1]]}),
        ("axioms", {"n": 3, "feasible": [[0, 0]]}),
        ("validate", {"schema": "major/1", "matroid": {"n": 3, "bases": [[0]]},
                      "blocks": [[1, 1]]}),
    ],
    ids=["matroid-basis", "flag-feasible", "axioms-feasible", "major-block"],
)
def test_set_documents_reject_repeated_elements(capture, corpus, verb, doc):
    code, out, _ = capture(verb, corpus["write"]("repeat.json", json.dumps(doc)))
    assert code == 2
    out = json.loads(out)
    assert out["error"] == "InvalidInput" and "repeated element" in out["detail"]


def test_matrix_rows_and_graph_edges_may_repeat_values(capture, corpus):
    graph = {"schema": "multigraph/1", "vertices": 2, "edges": [[0, 0], [0, 1]]}
    matrix = {"schema": "gf-matrix/1", "p": 2, "rows": 1, "cols": 2, "entries": [[1, 1]]}
    for doc in (graph, matrix):
        code, out, _ = capture("validate", corpus["write"]("values.json", json.dumps(doc)))
        assert code == 0 and json.loads(out)["valid"]


def test_major_blocks_outside_the_ground_set_are_rejected(capture, corpus):
    doc = {"schema": "major/1", "matroid": {"n": 3, "bases": [[0]]}, "blocks": [[0], [7]]}
    code, out, _ = capture("validate", corpus["write"]("outside.json", json.dumps(doc)))
    assert code == 2
    assert json.loads(out)["error"] == "IndexOutOfRange"


def test_overlapping_major_blocks_are_rejected(capture, corpus):
    doc = {"schema": "major/1", "matroid": {"n": 3, "bases": [[0]]}, "blocks": [[0, 1], [1]]}
    code, out, _ = capture("validate", corpus["write"]("overlap.json", json.dumps(doc)))
    assert code == 2
    assert json.loads(out)["error"] == "OverlappingSets"


def test_a_refused_search_exits_3_on_every_verb(capture, corpus):
    """Over GF(3), (U_{1,n}, U_{2,n}) has 2^(n - 2) bands for its second
    layer, all of which fail.  At n = 16 the default budget of 10,000 bands
    runs out: an unknown answer, not an input error, from either verb.  At
    n = 15, or with --budget 20000, the search ends in a "no"."""
    def flag(n):
        fm = fl.from_sequence([mc.uniform(1, n), mc.uniform(2, n)])
        return corpus["write"](f"u{n}.json", io.flag_json(fm))

    u15, u16 = flag(15), flag(16)
    search = capture("is-representable", u16, "--p", "3", "--method", "search")
    represent = capture("represent", u16, "--p", "3")
    assert search[0] == represent[0] == cli.EXIT_UNKNOWN == 3
    assert search[1] == represent[1]
    assert json.loads(search[1])["error"] == "BudgetExhausted"
    search = capture("is-representable", u15, "--p", "3", "--method", "search")
    assert search[0] == capture("represent", u15, "--p", "3")[0] == cli.EXIT_NO
    more = capture("is-representable", u16, "--p", "3", "--method", "search", "--budget", "20000")
    assert more[0] == cli.EXIT_NO


def test_a_flag_that_is_not_full_exits_3_with_the_search_document(capture, corpus):
    """A flag that is not full is decided by the band walk under every
    method, so a walk that runs out of budget writes the BudgetExhausted
    document of `--method search`, with exit 3, under each of them.  The
    second layer of (U_{1,16}, U_{2,16}, U_{4,16}) has 2^14 GF(3) bands."""
    fm = fl.from_sequence([mc.uniform(1, 16), mc.uniform(2, 16), mc.uniform(4, 16)])
    flags = [(corpus["write"]("u16gap.json", io.flag_json(fm)), "3", "500"),
             (corpus["gap.json"], "2", "0")]
    for path, p, budget in flags:
        search = capture("is-representable", path, "--p", p, "--method", "search", "--budget", budget)
        assert search[0] == cli.EXIT_UNKNOWN
        assert json.loads(search[1])["error"] == "BudgetExhausted"
        for method in ("witness", "minors", "all"):
            got = capture("is-representable", path, "--p", p, "--method", method, "--budget", budget)
            assert got[:2] == search[:2]


def test_major_search_on_a_one_element_major_answers_and_verifies(capture, corpus):
    """(U_{1,15}, U_{2,15}) has a forced one-element major, U_{2,16}; it is
    built directly instead of after 2^15 - 1 other candidate families."""
    fm = fl.from_sequence([mc.uniform(1, 15), mc.uniform(2, 15)])
    flag = corpus["write"]("u15.json", io.flag_json(fm))
    code, out, _ = capture("major", "search", flag)
    assert code == 0
    major = json.loads(out)
    assert major["matroid"] == io.matroid_json(mc.uniform(2, 16))
    bundle = corpus["write"]("bundle.json", {"major": major, "flag": io.flag_json(fm)})
    assert capture("major", "verify", bundle)[:2] == (0, '{"valid":true}\n')
    assert capture("major", "search", flag, "--budget", "0")[0] == 3


def _verbs_that_read_files():
    """An argv for each verb of the parser with a path argument, with "FILE"
    for each path: every choice of a positional with choices, and the first
    choice (or "1") for each required option."""
    import argparse
    from itertools import product

    parser = cli._build_parser()
    verbs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    argvs = []
    for name, sub in verbs.choices.items():
        positionals = [a for a in sub._actions if not a.option_strings]
        if all(a.choices for a in positionals):
            continue
        required = []
        for a in sub._actions:
            if a.option_strings and a.required:
                required += [a.option_strings[0], str(a.choices[0]) if a.choices else "1"]
        for picks in product(*(a.choices or ["FILE"] for a in positionals)):
            argvs.append([name, *picks, *required])
    return argvs


@pytest.mark.parametrize("argv", _verbs_that_read_files(), ids=" ".join)
@pytest.mark.parametrize(
    "text, detail", [(None, "cannot read"), ("{not json", "not valid JSON")],
    ids=["missing", "not-json"],
)
def test_every_verb_reports_an_unreadable_file(capture, tmp_path, argv, text, detail):
    path = tmp_path / "input.json"
    if text is not None:
        path.write_text(text)
    code, out, _ = capture(*(str(path) if a == "FILE" else a for a in argv))
    doc = json.loads(out)
    assert (code, doc["error"]) == (2, "InvalidInput")
    assert str(path) in doc["detail"] and detail in doc["detail"]


def test_isomorphic_on_two_flag_files(capture, corpus):
    flag = corpus["write"]("fa.json", {"n": 3, "feasible": [[0], [1], [0, 1], [0, 2], [1, 2]]})
    moved = corpus["write"]("fb.json", {"n": 3, "feasible": [[1], [2], [1, 2], [0, 1], [0, 2]]})
    full = corpus["write"]("fc.json", io.flag_json(fl.from_sequence([mc.uniform(1, 3), mc.uniform(2, 3)])))
    code, out, _ = capture("isomorphic", flag, moved)
    assert (code, out) == (0, '{"bijection":[1,2,0],"isomorphic":true}\n')
    code, out, _ = capture("isomorphic", flag, full)
    assert (code, out) == (1, '{"isomorphic":false}\n')


def test_validate_refuses_a_minor_script_that_misses_the_target(capture, corpus):
    """U_{2,5} over GF(2): the certificate deletes 0 to reach U_{2,4}; a
    script that contracts 0 instead reaches U_{1,4}."""
    flag = corpus["write"]("u25.json", io.flag_json(fl.basis_flag(mc.uniform(2, 5))))
    code, out, _ = capture("is-representable", flag, "--p", "2")
    assert code == 1
    cert = json.loads(out)
    assert (cert["contract"], cert["delete"]) == ([], [0])
    code, out, _ = capture("validate", corpus["write"]("u25-ok.json", out))
    assert code == 0
    cert.update(contract=[0], delete=[])
    code, out, _ = capture("validate", corpus["write"]("u25-bad.json", json.dumps(cert)))
    assert (code, json.loads(out)) == (1, {
        "kind": "certificate-forbidden-minor",
        "reason": "minor script does not yield the target",
        "valid": False,
    })


def test_validate_refuses_a_bare_partition_chain(capture, corpus):
    chain = corpus["write"](
        "chain.json", {"schema": "partition-chain/1", "partitions": [[[0, 1]], [[0], [1]]]}
    )
    code, out, _ = capture("validate", chain)
    assert code == 2 and json.loads(out)["error"] == "InvalidInput"


def test_major_verify_says_no_and_needs_the_flag(capture, corpus):
    major = {"schema": "major/1", "matroid": io.matroid_json(mc.uniform(3, 4)), "blocks": [[3]]}
    flag = io.flag_json(fl.from_sequence([mc.uniform(1, 3), mc.uniform(2, 3)]))
    bundle = corpus["write"]("mv.json", {"major": major, "flag": flag})
    code, out, _ = capture("major", "verify", bundle)
    assert (code, out) == (1, '{"valid":false}\n')
    code, out, _ = capture("major", "verify", corpus["write"]("mv-bare.json", {"major": major}))
    assert code == 2 and json.loads(out)["error"] == "InvalidInput"


def test_input_errors_of_from_matrix_and_minor(capture, corpus):
    code, out, _ = capture("from-matrix", corpus["fano.json"], "--levels", "1,x")
    assert (code, json.loads(out)) == (2, {
        "error": "InvalidInput", "detail": "expected comma-separated integers, got '1,x'",
    })
    short = {"schema": "gf-matrix/1", "p": 2, "rows": 2, "cols": 3, "entries": [[1, 0, 1], [0, 1]]}
    code, out, _ = capture("from-matrix", corpus["write"]("short.json", short), "--levels", "1,2")
    assert code == 2 and json.loads(out)["error"] == "InvalidInput"
    code, out, _ = capture("minor", corpus["iu23.json"], "--contract", "0", "--delete", "0")
    assert code == 2 and json.loads(out)["error"] == "OverlappingSets"
