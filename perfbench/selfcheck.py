"""Self-checks for the benchmark harness.

    python3 perfbench/selfcheck.py

Run from the root of a checkout.  They show that the checks can fail (a
flipped expected verdict and a tampered certificate both raise the failed
fraction), that the seed changes the inputs but not the mix, that the
oracle reproduces the known lift totals, that traced counts repeat exactly
for a fixed seed, and that BENCHMARK.json names the metrics the harness
prints.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import corpus  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _mix(case: dict) -> tuple:
    return (case["kind"], case["field"], case["p"], case["n"], case["expect"], case["full"])


class HarnessSelfCheck(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def _decide(self, slots):
        load = workloads.Decide(7, self.tmp.name)
        cases = [load.prepare(0, s) for s in slots]
        return load, cases, [load.run(c) for c in cases]

    def test_clean_ops_pass(self):
        load, cases, outputs = self._decide([0, 1, 3])
        self.assertEqual(worker.check_ops(load, cases, outputs), (0, []))

    def test_flipped_verdict_fails(self):
        load, cases, outputs = self._decide([0, 1])
        for case in cases:
            case["expect"] = not case["expect"]
        failed, problems = worker.check_ops(load, cases, outputs)
        self.assertEqual(failed, 2, problems)

    def test_changed_certificate_entry_fails(self):
        load, cases, outputs = self._decide([0])
        code, text = outputs[0]["decide"]
        doc = json.loads(text)
        entries = doc["matrix"]["entries"]
        entries[0][0] = (entries[0][0] + 1) % doc["p"]
        outputs[0]["decide"] = (code, json.dumps(doc))
        failed, problems = worker.check_ops(load, cases, outputs)
        self.assertEqual(failed, 1, problems)

    def test_target_off_the_forbidden_list_fails(self):
        load, cases, outputs = self._decide([1])
        code, text = outputs[0]["decide"]
        doc = json.loads(text)
        # a script that removes nothing yields the flag itself; `validate`
        # accepts that, but the flag is not an excluded minor for p
        n = doc["flag"]["n"]
        doc.update(target=doc["flag"], contract=[], delete=[], chops=[], bijection=list(range(n)))
        outputs[0]["decide"] = (code, json.dumps(doc))
        failed, problems = worker.check_ops(load, cases, outputs)
        self.assertEqual(failed, 1, problems)
        self.assertIn("not an excluded flag", problems[0])

    def test_seed_changes_inputs_not_mix(self):
        for cycle in range(2):
            a = [corpus.decide_case(1, cycle, s) for s in range(len(corpus.DECIDE))]
            b = [corpus.decide_case(2, cycle, s) for s in range(len(corpus.DECIDE))]
            self.assertEqual([_mix(c) for c in a], [_mix(c) for c in b])
            self.assertGreater(sum(x["family"] != y["family"] for x, y in zip(a, b)), len(a) // 2)
            a = [corpus.roundtrip_case(1, cycle, s) for s in range(len(corpus.ROUNDTRIP))]
            b = [corpus.roundtrip_case(2, cycle, s) for s in range(len(corpus.ROUNDTRIP))]
            self.assertEqual(
                [(c["p"], c["n"], c["levels"]) for c in a], [(c["p"], c["n"], c["levels"]) for c in b]
            )
            self.assertGreater(sum(x["rows"] != y["rows"] for x, y in zip(a, b)), len(a) // 2)
        rows = {corpus.lift_row(s, 0, 0, 406) for s in range(20)}
        self.assertGreater(len(rows), 10)

    def test_same_seed_same_inputs(self):
        self.assertEqual(corpus.decide_case(5, 3, 20), corpus.decide_case(5, 3, 20))

    def test_lift_oracle_known_totals(self):
        fams = corpus.all_basis_families(5)
        flats = [oracle.flats(5, f) for f in fams]
        self.assertEqual(len(fams), 406)
        self.assertEqual(sum(lo <= hi for hi in flats for lo in flats), 7806)

    def test_traced_counts_repeat(self):
        def counts():
            with tempfile.TemporaryDirectory() as work:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "worker.py"), "run", "sweep", "3",
                     "--cycles", "1", "--trace", "--workdir", work],
                    cwd=ROOT, capture_output=True, text=True, check=True,
                    env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path[:2]), PYTHONHASHSEED="0"),
                )
            layers = json.loads(proc.stdout.splitlines()[-1])["layers"]
            return {k: v for k, v in layers.items() if run.per_layer_units(k) == "count"}

        first = counts()
        self.assertGreater(first["matroid_core.closure.calls"], 0)
        self.assertEqual(first, counts())

    def test_benchmark_json_names_the_printed_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(spec["command"], ["python3", "perfbench/run.py"])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END)
        )
        layer_names = [f"{layer}.{k}" for layer in tracer.LAYERS for k in ("calls", "self_s", "errors")]
        layer_names += [f"{fn}.{suffix}" for fn, _, suffix in worker.FUNCTION_METRICS]
        layer_names += ["flag_core.flag_has_minor.hit_ratio", "trace.overhead_frac"]
        self.assertEqual(
            sorted((m["name"], m["unit"]) for m in spec["per_layer"]),
            sorted((n, run.per_layer_units(n)) for n in layer_names),
        )


if __name__ == "__main__":
    unittest.main()
