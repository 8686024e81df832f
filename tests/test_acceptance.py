"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every expected value is either exhaustively computed here or frozen
from an independent derivation in the unit suites.
"""

import random
import time

import pytest

from conftest import (
    enumerate_elementary_coextensions,
    random_full_flag,
    random_flag,
    random_prefix_chain_matrix,
    random_representation,
    reference_check_flag_axioms,
)
from flagmatroids import cli
from flagmatroids import flag_core as fl
from flagmatroids import gf_linalg as gl
from flagmatroids import graphic as gr
from flagmatroids import jsonio as io
from flagmatroids import lifts_majors as lm
from flagmatroids import matroid_core as mc
from flagmatroids import representability as rp
from flagmatroids.errors import EmptyResult, FieldTooSmall


def report(num: int, description: str, ok: bool, extra: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {num:2d} {tag}: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_01_cryptomorphism_exhaustive():
    n = 4
    sets = list(range(1 << n))
    start = time.time()
    mismatches = 0
    for pick in range(1, 1 << len(sets)):
        fam = [sets[i] for i in range(len(sets)) if pick >> i & 1]
        got = fl.check_flag_axioms(n, fam)
        if got != reference_check_flag_axioms(n, fam):
            mismatches += 1
        elif got.ok != (fl.layered_witness(n, fam) is None):
            mismatches += 1
    elapsed = time.time() - start
    report(
        1,
        "axiom checker agrees with the stated axioms, witnesses included, and "
        "with the layered validator on all 65535 families (n=4)",
        mismatches == 0 and elapsed < 15,
        f"{elapsed:.1f}s, {mismatches} mismatches",
    )


def test_criterion_02_lift_characterizations_agree():
    pool = list(mc.enumerate_matroids(5))
    start = time.time()
    disagreements = 0
    pairs = 0
    for a in pool:
        for b in pool:
            verdicts = {m: lm.is_lift(a, b, m).ok for m in lm.LIFT_METHODS}
            pairs += 1
            if len(set(verdicts.values())) != 1:
                disagreements += 1
    elapsed = time.time() - start
    report(
        2,
        f"lift characterizations agree on all {pairs} ordered pairs of the "
        f"{len(pool)} matroids on 5 elements",
        disagreements == 0,
        f"{elapsed:.1f}s",
    )


def test_criterion_03_uniform_representability():
    """(U_{1,n}, U_{2,n}) is representable over GF(p) iff n <= p: with the
    first row all ones, a representation is n distinct points (1, a_e) of
    the affine line."""
    start = time.time()
    ok = True
    details = []
    for n in range(3, 8):
        target = fl.chop(fl.independent_flag(mc.uniform(2, n)), 0)
        for p in (2, 3, 5, 7):
            found = rp.search_representation(target, p) is not None
            expected = p >= n
            constructed = True
            try:
                rep = rp.uniform_flag_representation(2, n, p)
                constructed_ok = rp.represented_flag(rep) == target
            except FieldTooSmall:
                constructed = False
                constructed_ok = True
            if found != expected or constructed != expected or not constructed_ok:
                ok = False
                details.append(f"n={n},p={p}")
    elapsed = time.time() - start
    report(
        3,
        "rank-2 uniform flags are representable exactly when p >= n "
        "(search and construction, n in 3..7, p in {2,3,5,7})",
        ok and elapsed < 300,
        f"{elapsed:.1f}s" + (f"; failures: {details}" if details else ""),
    )


def _oracle_triangle_instances():
    rng = random.Random(20260810)
    instances = []
    for _ in range(520):
        instances.append(random_full_flag(rng, 5))
    # all prefix-chain flags from random GF(2)/GF(3) matrices at n <= 5
    for p in (2, 3):
        for _ in range(30):
            n = rng.randint(2, 5)
            r = rng.randint(1, n)
            a = random_prefix_chain_matrix(rng, p, r, n)
            if a is None:
                continue
            instances.append(
                fl.from_sequence(
                    [mc.linear_matroid(gl.prefix_rows(a, d)) for d in range(1, r + 1)]
                )
            )
    return instances


def test_criterion_04_oracle_triangle():
    start = time.time()
    instances = _oracle_triangle_instances()
    disagreements = 0
    for fm in instances:
        for p in (2, 3):
            minors = rp.forbidden_minor_decision(fm, p).representable
            witness = rp.witness_route_decision(fm, p).representable
            search = rp.search_representation(fm, p) is not None
            if not (minors == witness == search):
                disagreements += 1
    elapsed = time.time() - start
    report(
        4,
        f"forbidden-minor, lift-witness and search verdicts coincide on "
        f"{len(instances)} full flags over GF(2) and GF(3)",
        disagreements == 0 and elapsed < 900,
        f"{elapsed:.1f}s, {disagreements} disagreements",
    )


def _remove_one(fm, survivors, original, op):
    pos = survivors.index(original)
    out = fl.flag_delete(fm, pos) if op == "d" else fl.flag_contract(fm, pos)
    survivors.pop(pos)
    return out


def _apply_script(fm, script):
    survivors = list(range(fm.n))
    for op, original in script:
        fm = _remove_one(fm, survivors, original, op)
    return fm


def test_criterion_05_duality_and_commutation():
    rng = random.Random(5150)
    start = time.time()
    checked = 0
    failures = 0
    while checked < 1000:
        fm = random_flag(rng, 6)
        if fl.flag_dual(fl.flag_dual(fm)) != fm:
            failures += 1
        if fm.n >= 3:
            picks = rng.sample(range(fm.n), 3)
            x, y = picks[:2], picks[2:]
            try:
                del_xy = _apply_script(fm, [("d", e) for e in x + y])
                del_yx = _apply_script(fm, [("d", e) for e in y + x])
                joint = fl.flag_minor(fm, 0, sum(1 << e for e in x + y))
                if not (del_xy == del_yx == joint):
                    failures += 1
            except EmptyResult:
                pass
            try:
                con_xy = _apply_script(fm, [("c", e) for e in x + y])
                con_yx = _apply_script(fm, [("c", e) for e in y + x])
                joint = fl.flag_minor(fm, sum(1 << e for e in x + y), 0)
                if not (con_xy == con_yx == joint):
                    failures += 1
            except EmptyResult:
                pass
            try:
                mixed_a = _apply_script(fm, [("d", e) for e in x] + [("c", e) for e in y])
                mixed_b = _apply_script(fm, [("c", e) for e in y] + [("d", e) for e in x])
                if mixed_a != mixed_b:
                    failures += 1
            except EmptyResult:
                pass
        checked += 1
    rep_checked = 0
    while rep_checked < 200:
        rep = random_representation(rng, rng.choice([2, 3]), max_n=6)
        if rp.represented_flag(rp.dual_representation(rep)) != fl.flag_dual(
            rp.represented_flag(rep)
        ):
            failures += 1
        rep_checked += 1
    elapsed = time.time() - start
    report(
        5,
        "dual involution and minor commutation on 1000 random flags; "
        "dual representations match the set-system dual on 200 random matrices",
        failures == 0,
        f"{elapsed:.1f}s",
    )


def test_criterion_06_majors():
    rng = random.Random(606)
    start = time.time()
    failures = 0
    built = 0
    while built < 200:
        rep = random_representation(rng, rng.choice([2, 3]), max_n=6)
        if len(rep.levels) < 2:
            continue
        major = rp.major_from_representation(rep)
        if not lm.verify_major(major.matroid, major.blocks, rp.represented_flag(rep)):
            failures += 1
        built += 1

    chain = fl.from_sequence([mc.uniform(1, 3), mc.uniform(2, 3), mc.uniform(3, 3)])
    if not lm.verify_major(mc.uniform(3, 5), [(3,), (4,)], chain):
        failures += 1

    g = fl.from_sequence([mc.uniform(1, 3), mc.uniform(3, 3)])
    q2 = mc.linear_matroid(gl.matrix(2, [[1, 1, 1, 0, 0], [0, 1, 1, 1, 0], [0, 0, 1, 0, 1]]))
    q3 = mc.linear_matroid(gl.matrix(3, [[1, 1, 1, 0, 0], [0, 1, 2, 1, 0], [0, 1, 1, 0, 1]]))
    if not (lm.verify_major(q2, [(3, 4)], g) and lm.verify_major(q3, [(3, 4)], g)):
        failures += 1
    iso_checks = [
        mc.is_isomorphic(q2, q3),
        mc.is_isomorphic(q2, mc.uniform(3, 5)),
        mc.is_isomorphic(q3, mc.uniform(3, 5)),
    ]
    if any(x is not None for x in iso_checks):
        failures += 1
    elapsed = time.time() - start
    report(
        6,
        "constructed majors verify on 200 random representable flags; the "
        "worked 5-element major and both explicit matrix majors check out, "
        "pairwise non-isomorphic",
        failures == 0,
        f"{elapsed:.1f}s",
    )


def test_criterion_07_fixture_classifications(f7):
    mk4 = gr.cycle_matroid(gr.complete_graph(4))
    checks = {
        "is_binary(F7)": mc.is_binary(f7) is True,
        "is_ternary(F7)": mc.is_ternary(f7) is False,
        "is_binary(U24)": mc.is_binary(mc.uniform(2, 4)) is False,
        "is_graphic(F7)": mc.is_graphic(f7) is False,
        "is_graphic(M(K4))": mc.is_graphic(mk4) is True,
    }
    report(
        7,
        "fixture classifications match the known excluded-minor lists",
        all(checks.values()),
        ", ".join(k for k, v in checks.items() if not v) or "all five",
    )


def test_criterion_08_counterexample_harness():
    start = time.time()
    report_obj = gr.counterexample_harness(gr.reference_counterexample_config())
    elapsed = time.time() - start
    detail = report_obj.steps[3].detail
    named = (
        detail["bb_loops"] == 0
        and detail["m2_loops"] == 1
        and detail["rb_parallel_classes"] == 2
        and detail["m2_parallel_classes"] == 3
    )
    report(
        8,
        "harness steps (a)-(e) pass on the reconstructed fixture",
        report_obj.ok and named and elapsed < 60,
        f"{elapsed:.1f}s, verdict: {report_obj.verdict}",
    )


def test_criterion_09_lift_witness_uniqueness():
    rng = random.Random(909)
    start = time.time()
    pairs = 0
    failures = 0
    flags = 0
    while flags < 100:
        fm = random_full_flag(rng, 5)
        flags += 1
        layers = fm.layers
        for low, high in zip(layers, layers[1:]):
            hits = enumerate_elementary_coextensions(low, high)
            expected = lm.elementary_witness(low, high)
            if hits != [expected]:
                failures += 1
            pairs += 1
    elapsed = time.time() - start
    report(
        9,
        "exactly one single-element extension of the lift contracts to the quotient, "
        f"the checked witness, for each of {pairs} elementary pairs from 100 random full flags",
        failures == 0,
        f"{elapsed:.1f}s",
    )


def test_criterion_10_cli_determinism_and_certificates(tmp_path, capsys):
    def run(*args):
        code = cli.run(list(args))
        captured = capsys.readouterr()
        return code, captured.out

    def write(name, doc):
        path = tmp_path / name
        path.write_text(io.dumps(doc))
        return str(path)

    corpus = {
        "iu23": write("iu23.json", io.flag_json(fl.chop(fl.independent_flag(mc.uniform(2, 3)), 0))),
        "bf7": write("bf7.json", io.flag_json(fl.basis_flag(mc.fano_matroid()))),
        "gap": write("gap.json", io.flag_json(fl.from_sequence([mc.uniform(1, 3), mc.uniform(3, 3)]))),
        "fano": write("fano.json", io.matrix_json(mc.fano_matrix())),
    }
    invocations = [
        ("is-representable", corpus["iu23"], "--p", "2"),
        ("is-representable", corpus["bf7"], "--p", "2", "--method", "all"),
        ("is-representable", corpus["bf7"], "--p", "3"),
        ("represent", corpus["gap"], "--p", "2"),
        ("from-matrix", corpus["fano"], "--levels", "3"),
        ("uniform-rep", "--r", "2", "--n", "4", "--p", "5"),
        ("fillings", corpus["gap"]),
        ("counterexample",),
        ("dual", corpus["iu23"]),
        ("witness", corpus["bf7"]),
    ]
    deterministic = True
    for args in invocations:
        first = run(*args)
        second = run(*args)
        if first != second:
            deterministic = False

    certs_ok = True
    for args in (
        ("is-representable", corpus["iu23"], "--p", "2"),
        ("is-representable", corpus["bf7"], "--p", "2"),
        ("is-representable", corpus["bf7"], "--p", "3"),
        ("represent", corpus["gap"], "--p", "2"),
    ):
        code, out = run(*args)
        if code not in (0, 1):
            certs_ok = False
            continue
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(out)
        if run("validate", str(cert_path))[0] != 0:
            certs_ok = False
    report(
        10,
        "byte-identical CLI output across repeated invocations; every emitted "
        "certificate re-validates with exit 0",
        deterministic and certs_ok,
    )
