"""The contract of the library's record and value types.

The result types `lifts_majors.LiftResult` and `flag_core.AxiomReport`:
their fields and defaults, immutability, equality of equal results, and the
bytes the `axioms` verb prints from a report.  The other named-tuple records:
their fields and defaults.  The validated immutable classes on
`frozen.Frozen`: immutability, equality and hash, repr, and cached
properties.  And that importing the CLI loads no `dataclasses` machinery."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from flagmatroids import flag_core as fl
from flagmatroids import gf_linalg as gl
from flagmatroids import graphic as gr
from flagmatroids import lifts_majors as lm
from flagmatroids import matroid_core as mc
from flagmatroids import representability as rp


def test_lift_result_fields_and_defaults():
    assert lm.LiftResult._fields == ("ok", "method", "witness")
    assert lm.LiftResult._field_defaults == {"witness": None}
    r = lm.LiftResult(True, "flats")
    assert (r.ok, r.method, r.witness) == (True, "flats", None)


def test_axiom_report_fields_and_defaults():
    assert fl.AxiomReport._fields == ("ok", "axiom", "witness")
    assert fl.AxiomReport._field_defaults == {"axiom": None, "witness": None}
    r = fl.AxiomReport(True)
    assert (r.ok, r.axiom, r.witness) == (True, None, None)


@pytest.mark.parametrize("field", ["ok", "method", "witness"])
def test_lift_result_is_immutable(field):
    r = lm.is_lift(mc.uniform(2, 3), mc.uniform(1, 3), "bases")
    with pytest.raises(AttributeError):
        setattr(r, field, None)


@pytest.mark.parametrize("field", ["ok", "axiom", "witness"])
def test_axiom_report_is_immutable(field):
    r = fl.check_flag_axioms(3, [(0,), (1,), (0, 1), (1, 2)])
    with pytest.raises(AttributeError):
        setattr(r, field, None)


def test_equal_results_compare_equal():
    lift, quot = mc.uniform(1, 3), mc.uniform(2, 3)
    for method in lm.LIFT_METHODS + ("all",):
        first = lm.is_lift(lift, quot, method)
        again = lm.is_lift(mc.Matroid(lift.n, lift.bases), mc.Matroid(quot.n, quot.bases), method)
        assert first == again and not first.ok
        assert lm.is_lift(quot, lift, method) == lm.LiftResult(True, method)
    family = [(0,), (1,), (0, 1), (1, 2)]
    assert fl.check_flag_axioms(3, family) == fl.check_flag_axioms(3, list(reversed(family)))
    assert fl.check_flag_axioms(2, [(0,), (0, 1)]) == fl.AxiomReport(True)


@pytest.mark.parametrize(
    "doc, code, stdout",
    [
        ('{"n": 3, "feasible": [[0],[1],[2],[0,1],[0,2],[1,2]]}', 0, '{"ok":true}\n'),
        ('{"n": 4, "feasible": [[0,1],[2,3]]}', 1,
         '{"axiom":1,"ok":false,"witness":{"F":[0,1],"G":[2,3],"x":0}}\n'),
        ('{"n": 3, "feasible": [[0],[1],[0,1],[1,2]]}', 1,
         '{"axiom":2,"ok":false,"witness":{"F":[1,2],"e":0}}\n'),
        ('{"n": 3, "feasible": []}', 1,
         '{"axiom":0,"ok":false,"witness":{"reason":"empty family"}}\n'),
    ],
    ids=["flag", "axiom-1", "axiom-2", "empty"],
)
def test_axioms_cli_output_is_pinned(capture, tmp_path, doc, code, stdout):
    path = tmp_path / "family.json"
    path.write_text(doc)
    assert capture("axioms", str(path))[:2] == (code, stdout)


# The fields and defaults of each named-tuple record, as its dataclass had them.
RECORDS = {
    gr.CounterexampleConfig: (
        ("bottom", "middle", "middle_reds", "top_merged", "top_merged_yellows", "top",
         "top_reds", "bb_pair", "rb_pair"), {}),
    gr.HarnessStep: (("name", "ok", "detail"), {}),
    gr.HarnessReport: (("steps", "verdict"), {}),
    lm.LiftWitnessSequence: (("witnesses",), {}),
    lm.FillingSearch: (("fillings", "complete"), {}),
    lm.MajorStructure: (("matroid", "blocks", "matrix"), {"matrix": None}),
    rp.ForbiddenMinorWitness: (
        ("target_name", "target", "contract", "delete", "chops", "bijection"), {}),
    rp.RepresentabilityDecision: (
        ("p", "representable", "witness", "certificate"), {"witness": None, "certificate": None}),
}


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
def test_record_fields_and_defaults(record):
    assert (record._fields, record._field_defaults) == RECORDS[record]


# Per validated class: two objects built from different but equal inputs
# (positionally and by keyword), and the repr a frozen dataclass printed.
VALUES = {
    "FieldPrime": (lambda: gl.FieldPrime(2), lambda: gl.FieldPrime(p=2), "FieldPrime(p=2)"),
    "GFMatrix": (
        lambda: gl.matrix(2, [[1, 0], [3, 1]]),
        lambda: gl.GFMatrix(field=gl.field(2), rows=2, cols=2, entries=(1, 0, 1, 1)),
        "GFMatrix(field=FieldPrime(p=2), rows=2, cols=2, entries=(1, 0, 1, 1))",
    ),
    "Matroid": (
        lambda: mc.Matroid(3, [6, 3, 5, 3]),
        lambda: mc.Matroid(n=3, bases=(3, 5, 6)),
        "Matroid(n=3, bases=(3, 5, 6))",
    ),
    "FlagMatroid": (
        lambda: fl.FlagMatroid(3, iter([6, 1, 3, 5, 2])),
        lambda: fl.FlagMatroid(n=3, feasible=(1, 2, 3, 5, 6)),
        "FlagMatroid(n=3, feasible=(1, 2, 3, 5, 6))",
    ),
    "FlagRepresentation": (
        lambda: rp.FlagRepresentation(gl.matrix(3, [[1, 2], [0, 1]]), (1, 2)),
        lambda: rp.FlagRepresentation(matrix=gl.matrix(3, [[1, 2], [0, 1]]), levels=(1, 2)),
        "FlagRepresentation(matrix=GFMatrix(field=FieldPrime(p=3), rows=2, cols=2, "
        "entries=(1, 2, 0, 1)), levels=(1, 2))",
    ),
    "MultiGraph": (
        lambda: gr.MultiGraph(3, ((1, 0), (2, 2))),
        lambda: gr.MultiGraph(vertices=3, edges=((0, 1), (2, 2))),
        "MultiGraph(vertices=3, edges=((0, 1), (2, 2)))",
    ),
    "PartitionChain": (
        lambda: gr.chain_of(2, [[[1, 0]], [[1], [0]]]),
        lambda: gr.PartitionChain(partitions=(((0, 1),), ((0,), (1,)))),
        "PartitionChain(partitions=(((0, 1),), ((0,), (1,))))",
    ),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_validated_objects_are_immutable(name):
    obj = VALUES[name][0]()
    for field in type(obj).__annotations__:
        before = getattr(obj, field)
        with pytest.raises(AttributeError):
            setattr(obj, field, before)
        with pytest.raises(AttributeError):
            delattr(obj, field)
        assert getattr(obj, field) is before
    with pytest.raises(AttributeError):
        obj.extra = 1


@pytest.mark.parametrize("name", sorted(VALUES))
def test_equal_inputs_give_equal_objects(name):
    build, build_again, _ = VALUES[name]
    obj, again = build(), build_again()
    assert obj is not again and obj == again and hash(obj) == hash(again)
    values = tuple(getattr(obj, f) for f in type(obj).__annotations__)
    assert hash(obj) == hash(values)
    assert obj != values and values != obj


@pytest.mark.parametrize("name", sorted(VALUES))
def test_repr_is_the_dataclass_repr(name):
    assert repr(VALUES[name][0]()) == VALUES[name][2]


def test_objects_of_different_classes_are_never_equal():
    bases = [3, 5, 6]
    m, fm = mc.Matroid(3, bases), fl.FlagMatroid(3, bases)
    assert (m.n, m.bases) == (fm.n, fm.feasible) and hash(m) == hash(fm)
    assert m != fm and fm != m and len({m, fm}) == 2
    assert mc.Matroid(3, bases) != mc.Matroid(4, bases)


def test_cached_properties_land_in_the_instance_dict():
    m = mc.Matroid(3, [6, 5, 3])
    assert "flat_bits" not in vars(m)
    assert m.flat_bits is m.flat_bits and vars(m)["flat_bits"] == m.flat_bits
    fm = fl.FlagMatroid(3, [1, 2, 4, 3, 5, 6])
    assert "cardinalities" not in vars(fm)
    assert fm.cardinalities == (1, 2) and vars(fm)["cardinalities"] == (1, 2)
    assert m == mc.Matroid(3, m.bases) and fm == fl.FlagMatroid(3, fm.feasible)


def test_cli_import_loads_no_dataclasses_machinery():
    # -S: no site packages, whose .pth hooks could import either module
    src = Path(fl.__file__).resolve().parents[1]
    probe = "import flagmatroids.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, check=True,
    )
    assert out.stdout == "[]\n"
