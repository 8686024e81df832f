"""Fuzzing the `jsonio` loaders through `validate`.

Every document, however malformed, must get an answer from the CLI
contract: 0 (valid), 1 (a certificate that does not verify) or 2 (an input
error with a typed error document).  Exit 4 would mean that an exception
escaped a loader.  The inputs are arbitrary JSON values and single
mutations of valid documents of every kind `validate` reads.
"""

from __future__ import annotations

import contextlib
import copy
import io as stdio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagmatroids import cli
from flagmatroids import flag_core as fl
from flagmatroids import graphic as gr
from flagmatroids import jsonio as io
from flagmatroids import lifts_majors as lm
from flagmatroids import matroid_core as mc
from flagmatroids import representability as rp

CHAIN3 = fl.from_sequence([mc.uniform(1, 3), mc.uniform(2, 3), mc.uniform(3, 3)])
IU23 = fl.chop(fl.independent_flag(mc.uniform(2, 3)), 0)


def _valid_documents() -> dict[str, dict]:
    rep = rp.search_representation(CHAIN3, 3)
    no = rp.forbidden_minor_decision(IU23, 2)
    k4 = gr.multigraph(4, [(0, 1), (0, 3), (0, 2), (1, 3), (1, 2), (3, 2)])
    chain = gr.chain_of(4, [[[0, 1, 2, 3]], [[0, 1], [2, 3]], [[0], [1], [2], [3]]])
    return {
        "flag": io.flag_json(CHAIN3),
        "matroid": io.matroid_json(mc.uniform(2, 4)),
        "matrix": io.matrix_json(mc.fano_matrix()),
        "representation": io.representation_json(rep),
        "certificate-representation": io.representation_certificate(CHAIN3, rep),
        "certificate-forbidden-minor": io.forbidden_minor_certificate(2, IU23, no.witness),
        "witnesses": io.witnesses_json(lm.lift_witness_sequence(CHAIN3)),
        "graphic-bundle": io.graphic_bundle_json(k4, chain),
    }


VALID = _valid_documents()
KEYS = sorted({k for doc in VALID.values() for k in doc} | {"schema"})
SCHEMAS = sorted(doc["schema"] for doc in VALID.values())

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-2, 22)
    | st.integers()
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(SCHEMAS)
)
JSON = st.recursive(
    SCALARS,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), kids, max_size=4),
    max_leaves=10,
)


@st.composite
def mutated(draw):
    """A valid document with one node replaced, dropped or duplicated."""
    doc = copy.deepcopy(VALID[draw(st.sampled_from(sorted(VALID)))])
    parent, key = doc, draw(st.sampled_from(sorted(doc)))
    node = doc[key]
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, draw(st.sampled_from(keys))
        node = node[key]
    action = draw(st.sampled_from(("replace", "drop", "duplicate")))
    if action == "replace":
        parent[key] = draw(JSON)
    elif action == "drop":
        del parent[key]
    elif isinstance(parent, list):
        parent.append(copy.deepcopy(node))
    else:
        parent[key] = [node, node]
    return doc


def _validate(tmp_dir, doc) -> tuple[int, str]:
    """Exit code and stdout of `validate` on the document."""
    path = tmp_dir / "doc.json"
    path.write_text(json.dumps(doc))
    out = stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(stdio.StringIO()):
        return cli.run(["validate", str(path)]), out.getvalue()


@pytest.fixture(scope="module")
def tmp_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def test_every_valid_document_validates(tmp_dir):
    for kind, doc in VALID.items():
        assert _validate(tmp_dir, doc)[0] == 0, kind


@settings(max_examples=150)
@given(doc=JSON)
def test_arbitrary_json_gets_an_answer(tmp_dir, doc):
    assert _validate(tmp_dir, doc)[0] in (0, 1, 2)


@settings(max_examples=300)
@given(doc=mutated())
def test_mutated_documents_get_an_answer(tmp_dir, doc):
    assert _validate(tmp_dir, doc)[0] in (0, 1, 2)


BUNDLE = VALID["graphic-bundle"]


@pytest.mark.parametrize(
    "doc, error",
    [
        ({**VALID["flag"], "schema": ["flag-matroid/1"]}, "InvalidInput"),
        ({**VALID["matrix"], "schema": {"graph": {}}}, "InvalidInput"),
        (
            {**BUNDLE, "graph": {**BUNDLE["graph"], "edges": [[], [0, 3]]}},
            "InvalidInput",
        ),
        (
            {**BUNDLE, "chain": {"partitions": [[[0, 1, 2, 3]], [[0, 1], [], [2, 3]]]}},
            "BadPartition",
        ),
    ],
    ids=["schema-a-list", "schema-an-object", "edge-not-a-pair", "empty-cell"],
)
def test_fuzzer_finds_are_input_errors(tmp_dir, doc, error):
    # each of these once escaped a loader as a TypeError or IndexError (exit 4)
    code, out = _validate(tmp_dir, doc)
    assert code == 2 and json.loads(out)["error"] == error
