"""The three workloads: how an op is prepared, run and checked.

`prepare` writes an op's input files (untimed), `run` is the timed op and
only calls the library, `check` compares what `run` returned with known
answers from `oracle` (untimed, after the loop).  `check` returns a list of
problems; an op with any problem counts as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import corpus
import oracle
from flagmatroids import cli
from flagmatroids import flag_core as fl
from flagmatroids import lifts_majors as lm
from flagmatroids import matroid_core as mc
from flagmatroids import representability as rp


def call(argv: list[str]) -> tuple[int, str]:
    """One CLI invocation in this process: exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue()


def _write(path: str, text: str) -> str:
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _levels(levels) -> str:
    return ",".join(map(str, levels))


def _family(doc) -> frozenset[int]:
    return oracle.family_of(doc["feasible"])


class Workload:
    """Shared driver interface; `slots` ops make one cycle."""

    slots: int

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def setup(self) -> None:
        """Library calls every op depends on; run once, before timing."""

    def setup_problems(self) -> list[str]:
        return []

    def _validate(self, doc: dict) -> list[str]:
        """Re-validate a certificate through the CLI."""
        code, out = call(["validate", _write(self.path("cert.json"), json.dumps(doc))])
        if code != 0 or json.loads(out) != {"kind": _KIND[doc.get("schema")], "valid": True}:
            return [f"certificate does not validate (exit {code})"]
        return []

    def _check_representation(self, doc: dict, p: int, family, levels=None) -> list[str]:
        """A representation certificate for `family` over GF(p)."""
        if doc.get("schema") != "certificate/representation/1":
            return [f"not a representation certificate: {doc.get('schema')}"]
        matrix = doc["matrix"]
        problems = []
        if doc["p"] != p or matrix["p"] != p:
            problems.append(f"certificate over GF({matrix['p']}), asked GF({p})")
        if _family(doc["flag"]) != family:
            problems.append("certificate names another flag")
        if levels is not None and tuple(doc["levels"]) != tuple(levels):
            problems.append(f"levels {doc['levels']} != {list(levels)}")
        if oracle.matrix_flag(matrix["entries"], matrix["p"], doc["levels"]) != family:
            problems.append("certificate matrix does not represent the flag")
        return problems + self._validate(doc)


_KIND = {
    "certificate/representation/1": "certificate-representation",
    "certificate/forbidden-minor/1": "certificate-forbidden-minor",
}


class Decide(Workload):
    """`is-representable FILE --p P` on the default route; graph bundles go
    through `graphic-flag` first, inside the op."""

    slots = len(corpus.DECIDE)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self._forbidden: dict[int, list[tuple[int, frozenset[int]]]] = {}
        self._known_targets: set[tuple[int, int, frozenset[int]]] = set()

    def prepare(self, cycle: int, slot: int) -> dict:
        case = corpus.decide_case(self.seed, cycle, slot)
        if case["kind"] == "graphic":
            bundle = {
                "schema": "graphic-flag/1",
                "graph": {"schema": "multigraph/1", "vertices": 4, "edges": case["edges"]},
                "chain": {"schema": "partition-chain/1", "partitions": case["partitions"]},
            }
            case["input"] = _write(self.path(f"bundle-{slot}.json"), json.dumps(bundle))
        else:
            doc = corpus.flag_doc(case["n"], case["family"])
            case["input"] = _write(self.path(f"flag-{slot}.json"), json.dumps(doc))
        return case

    def run(self, case: dict) -> dict:
        out = {}
        flag_path = case["input"]
        if case["kind"] == "graphic":
            out["graphic"] = call(["graphic-flag", flag_path])
            if out["graphic"][0] != 0:
                return out
            flag_path = _write(flag_path + ".flag", out["graphic"][1])
        out["decide"] = call(["is-representable", flag_path, "--p", str(case["p"])])
        return out

    def check(self, case: dict, out: dict) -> list[str]:
        if case["kind"] == "graphic":
            code, text = out["graphic"]
            if code != 0:
                return [f"graphic-flag exit {code}"]
            if _family(json.loads(text)) != case["family"]:
                return ["graphic flag differs from the spanning-forest flag"]
        code, text = out["decide"]
        want = 0 if case["expect"] else 1
        if code != want:
            return [f"is-representable exit {code}, expected {want}"]
        doc = json.loads(text)
        if case["expect"]:
            return self._check_representation(doc, case["p"], case["family"])
        return self._check_forbidden(doc, case)

    def _forbidden_flags(self, p: int):
        if p not in self._forbidden:
            flags = rp.binary_forbidden_flags() if p == 2 else rp.ternary_forbidden_flags()
            self._forbidden[p] = [(f.n, frozenset(f.feasible)) for _, f in flags]
        return self._forbidden[p]

    def _on_forbidden_list(self, p: int, n: int, target) -> bool:
        key = (p, n, target)
        if key not in self._known_targets:
            if not any(
                m == n and oracle.isomorphic(n, target, fam)
                for m, fam in self._forbidden_flags(p)
            ):
                return False
            self._known_targets.add(key)
        return True

    def _check_forbidden(self, doc: dict, case: dict) -> list[str]:
        """A forbidden-minor certificate: the script really yields the target,
        and the target really is on the excluded list for p."""
        if doc.get("schema") != "certificate/forbidden-minor/1":
            return [f"not a forbidden-minor certificate: {doc.get('schema')}"]
        p, n = case["p"], case["n"]
        problems = []
        if doc["p"] != p:
            problems.append(f"certificate for GF({doc['p']}), asked GF({p})")
        if _family(doc["flag"]) != case["family"]:
            problems.append("certificate names another flag")
        target = _family(doc["target"])
        minor = oracle.flag_minor(
            n, case["family"], oracle.mask(doc["contract"]), oracle.mask(doc["delete"]),
            doc["chops"],
        )
        if sorted(doc["bijection"]) != list(range(doc["target"]["n"])) or (
            oracle.relabel(minor, doc["bijection"]) != target
        ):
            problems.append("minor script does not produce the target")
        if not self._on_forbidden_list(p, doc["target"]["n"], target):
            problems.append("target is not an excluded flag for p")
        return problems + self._validate(doc)


class Roundtrip(Workload):
    """from-matrix -> represent --p -> major from-rep -> dual, as one op."""

    slots = len(corpus.ROUNDTRIP)

    def prepare(self, cycle: int, slot: int) -> dict:
        case = corpus.roundtrip_case(self.seed, cycle, slot)
        doc = {
            "schema": "gf-matrix/1", "p": case["p"], "rows": len(case["rows"]),
            "cols": case["n"], "entries": case["rows"],
        }
        case["input"] = _write(self.path(f"matrix-{slot}.json"), json.dumps(doc))
        return case

    def run(self, case: dict) -> dict:
        out = {"flag": call(["from-matrix", case["input"], "--levels", _levels(case["levels"])])}
        if out["flag"][0] != 0:
            return out
        flag_path = _write(case["input"] + ".flag", out["flag"][1])
        out["rep"] = call(["represent", flag_path, "--p", str(case["p"])])
        if out["rep"][0] != 0:
            return out
        rep_path = _write(case["input"] + ".rep", out["rep"][1])
        out["major"] = call(["major", "from-rep", rep_path])
        out["dual"] = call(["dual", flag_path])
        return out

    def check(self, case: dict, out: dict) -> list[str]:
        for step in ("flag", "rep", "major", "dual"):
            if step not in out or out[step][0] != 0:
                code = out[step][0] if step in out else None
                return [f"{step} exit {code}"]
        n, layers = case["n"], case["layers"]
        family = frozenset().union(*layers)
        problems = []
        if _family(json.loads(out["flag"][1])) != family:
            problems.append("from-matrix flag differs from the matrix's flag")
        problems += self._check_representation(
            json.loads(out["rep"][1]), case["p"], family, case["levels"]
        )
        major = json.loads(out["major"][1])
        q = major["matroid"]
        got = oracle.major_layers(q["n"], [oracle.mask(b) for b in q["bases"]], major["blocks"], n)
        if q["n"] != n + case["levels"][-1] - case["levels"][0] or got != layers:
            problems.append("major does not reproduce the layers")
        if _family(json.loads(out["dual"][1])) != oracle.complements(n, family):
            problems.append("dual is not the family of complements")
        return problems


class Sweep(Workload):
    """Library-level exhaustive checks over the matroids on 5 elements: a
    lift op runs one row of is_lift for every method, an axiom op runs
    check_flag_axioms and layered_witness over a batch of families."""

    slots = len(corpus.SWEEP)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        known = corpus.all_basis_families(corpus.SWEEP_N)
        self.known_flats = {fam: oracle.flats(corpus.SWEEP_N, fam) for fam in known}
        self.small = corpus.all_basis_families(corpus.AXIOM_N)
        self.small_flats = [oracle.flats(corpus.AXIOM_N, f) for f in self.small]
        self.flag_verdicts: dict[frozenset[int], bool] = {}

    def setup(self) -> None:
        self.matroids = list(mc.enumerate_matroids(corpus.SWEEP_N))
        self.row_flats = [self.known_flats.get(frozenset(m.bases)) for m in self.matroids]

    def setup_problems(self) -> list[str]:
        got = {frozenset(m.bases) for m in self.matroids}
        if len(self.matroids) != 406 or got != set(self.known_flats):
            return [f"enumerate_matroids(5) gave {len(self.matroids)} matroids, expected the 406"]
        return []

    def prepare(self, cycle: int, slot: int) -> dict:
        if corpus.SWEEP[slot] == "lift":
            return {"kind": "lift", "row": corpus.lift_row(self.seed, cycle, slot, len(self.matroids))}
        batch = corpus.axiom_batch(self.seed, cycle, slot, self.small, self.small_flats)
        return {"kind": "axioms", "batch": batch}

    def run(self, case: dict) -> dict:
        if case["kind"] == "lift":
            a = self.matroids[case["row"]]
            return {
                method: bytes(lm.is_lift(a, b, method).ok for b in self.matroids)
                for method in lm.LIFT_METHODS
            }
        n = corpus.AXIOM_N
        return {
            "axioms": [fl.check_flag_axioms(n, fam).ok for fam in case["batch"]],
            "layered": [fl.layered_witness(n, fam) is None for fam in case["batch"]],
        }

    def _is_flag(self, family: frozenset[int]) -> bool:
        if family not in self.flag_verdicts:
            self.flag_verdicts[family] = oracle.is_flag(corpus.AXIOM_N, family)
        return self.flag_verdicts[family]

    def check(self, case: dict, out: dict) -> list[str]:
        if case["kind"] == "lift":
            # a is a lift of b iff every flat of b is a flat of a
            top = self.row_flats[case["row"]]
            want = bytes(f <= top for f in self.row_flats)
            return [f"is_lift {m} row differs from the flats oracle" for m, got in out.items() if got != want]
        want = [self._is_flag(frozenset(fam)) for fam in case["batch"]]
        return [f"{k} verdicts differ from the layered oracle" for k, got in out.items() if got != want]


WORKLOADS = {"decide": Decide, "roundtrip": Roundtrip, "sweep": Sweep}
