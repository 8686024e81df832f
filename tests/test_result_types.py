"""The contract of the result types `lifts_majors.LiftResult` and
`flag_core.AxiomReport`: their fields and defaults, immutability, equality
of equal results, and the bytes the `axioms` verb prints from a report."""

import pytest

from flagmatroids import flag_core as fl
from flagmatroids import lifts_majors as lm
from flagmatroids import matroid_core as mc


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
