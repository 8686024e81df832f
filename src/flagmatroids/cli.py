"""Command-line surface over JSON files.

Every verb writes one canonical JSON document to stdout and a short human
summary to stderr.  Exit codes: 0 = yes/success, 1 = no/negative verdict,
2 = input error, 3 = budget exhausted / unknown, 4 = internal error (a fault
in the program, never a verdict; stdout holds an
{"error": "InternalError", ...} document).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from . import flag_core as fl
from . import graphic as gr
from . import jsonio as io
from . import lifts_majors as lm
from . import matroid_core as mc
from . import representability as rp
from .errors import (
    BudgetExhausted,
    Error,
    FieldTooSmall,
    InternalError,
    InvalidInput,
    SearchSpaceTooLarge,
)

EXIT_YES = 0
EXIT_NO = 1
EXIT_INPUT = 2
EXIT_UNKNOWN = 3
EXIT_INTERNAL = 4


def _emit(doc, summary: str) -> None:
    sys.stdout.write(io.dumps(doc))
    print(summary, file=sys.stderr)


def emit_certificate(fm, decision) -> dict:
    """Self-contained certificate document for a representability decision:
    matrix + levels on yes, minor script + bijection on no.  Re-running
    `validate` on the document re-verifies it independently."""
    if decision.representable:
        return io.representation_certificate(fm, decision.certificate)
    return io.forbidden_minor_certificate(decision.p, fm, decision.witness)


def _read(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{path}: not valid JSON ({exc})") from exc


def _int_csv(text: Optional[str]) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise InvalidInput(f"expected comma-separated integers, got {text!r}") from exc


def _budget(args) -> int:
    """The --budget of a verb that takes one; a negative budget is an input
    error, not an exhausted one."""
    if args.budget < 0:
        raise InvalidInput(f"--budget must be at least 0, got {args.budget}")
    return args.budget


# --- verbs ------------------------------------------------------------------------


def _representation_problem(p: int, fm, rep) -> Optional[str]:
    if rep.p != p:
        return f"matrix is over GF({rep.p}), certificate declares p = {p}"
    if not rp.represents(rep, fm):
        return "matrix and levels do not represent the flag"
    return None


def _forbidden_minor_problem(p: int, fm, witness) -> Optional[str]:
    """Why the certificate fails to prove non-representability, or None.

    It proves it only when p has a known excluded-minor list, the flag is
    full (the list characterizes full flags only), `target_name` names an
    entry of that list and the target is isomorphic to that entry, and the
    script turns the flag into the target.
    """
    if p not in (2, 3):
        return f"no excluded flag minors are known for p = {p}"
    if not lm.is_full(fm):
        return "flag is not full"
    listed = dict(rp.forbidden_flags(p))
    name = witness.target_name
    if name not in listed:
        return f"target_name {name} is not an excluded flag minor for GF({p})"
    if fl.flag_isomorphic(witness.target, listed[name]) is None:
        return f"target is not an excluded flag minor for GF({p}): not isomorphic to {name}"
    minor = fl.flag_minor(fm, witness.contract, witness.delete, witness.chops)
    if fl.relabel_flag(minor, witness.bijection) != witness.target:
        return "minor script does not yield the target"
    return None


def _cmd_validate(args) -> int:
    doc = _read(args.file)
    kind = io.detect_kind(doc)
    if kind == "certificate-representation":
        problem = _representation_problem(*io.load_representation_certificate(doc))
    elif kind == "certificate-forbidden-minor":
        problem = _forbidden_minor_problem(*io.load_forbidden_minor_certificate(doc))
    elif kind == "chain":
        raise InvalidInput("a partition chain validates only inside a graphic bundle")
    else:
        io.load_by_kind(kind, doc)
        _emit({"kind": kind, "valid": True}, f"valid {kind}")
        return EXIT_YES
    if problem is None:
        _emit({"kind": kind, "valid": True}, "certificate verifies")
        return EXIT_YES
    _emit(
        {"kind": kind, "valid": False, "reason": problem},
        f"certificate does NOT verify: {problem}",
    )
    return EXIT_NO


def _cmd_axioms(args) -> int:
    n, fam = io.load_raw_family(_read(args.file))
    report = fl.check_flag_axioms(n, fam)
    if report.ok:
        _emit({"ok": True}, "both feasible-set axioms hold")
        return EXIT_YES
    witness = {
        k: (list(v) if isinstance(v, tuple) else v) for k, v in report.witness.items()
    }
    _emit(
        {"ok": False, "axiom": report.axiom, "witness": witness},
        f"axiom {report.axiom} fails",
    )
    return EXIT_NO


def _cmd_seqrep(args) -> int:
    fm = io.load_flag(_read(args.file))
    doc = {
        "schema": "sequential-representation/1",
        "layers": [io.matroid_json(m) for m in fm.layers],
    }
    _emit(doc, f"{len(fm.layers)} layers, ranks {[m.rank for m in fm.layers]}")
    return EXIT_YES


def _cmd_minor(args) -> int:
    fm = io.load_flag(_read(args.file))
    out = fl.flag_minor(
        fm, _int_csv(args.contract), _int_csv(args.delete), _int_csv(args.chop)
    )
    _emit(io.flag_json(out), f"minor on {out.n} elements, {len(out.feasible)} feasible sets")
    return EXIT_YES


def _cmd_dual(args) -> int:
    fm = io.load_flag(_read(args.file))
    out = fl.flag_dual(fm)
    _emit(io.flag_json(out), f"dual with layer ranks {[m.rank for m in out.layers]}")
    return EXIT_YES


def _cmd_from_matrix(args) -> int:
    a = io.load_matrix(_read(args.file))
    fm = rp.flag_from_matrix(a, _int_csv(args.levels))
    _emit(io.flag_json(fm), f"flag matroid with {len(fm.feasible)} feasible sets")
    return EXIT_YES


def _cmd_uniform_rep(args) -> int:
    try:
        rep = rp.uniform_flag_representation(args.r, args.n, args.p)
    except FieldTooSmall as exc:
        _emit({"error": exc.code, "detail": str(exc)}, "no representation: field too small")
        return EXIT_NO
    _emit(io.representation_json(rep), f"{rep.matrix.rows}x{rep.matrix.cols} matrix over GF({rep.p})")
    return EXIT_YES


def _cmd_is_representable(args) -> int:
    budget = _budget(args)
    fm = io.load_flag(_read(args.file))
    p = args.p
    method = args.method
    full = lm.is_full(fm)
    if method == "search":
        rep = rp.search_representation(fm, p)
        if rep is None:
            _emit({"representable": False, "p": p}, f"not representable over GF({p})")
            return EXIT_NO
        _emit(io.representation_certificate(fm, rep), f"representable over GF({p})")
        return EXIT_YES
    if not full:
        # the minor and witness characterizations need consecutive ranks;
        # general flags go through the filling route
        decision = rp.is_representable_via_fillings(fm, p, budget)
        if decision.status == "yes":
            doc = io.representation_certificate(fm, decision.certificate)
            _emit(doc, f"representable over GF({p}) via a filling")
            return EXIT_YES
        if decision.status == "no":
            _emit({"representable": False, "p": p}, f"not representable over GF({p})")
            return EXIT_NO
        _emit({"representable": None, "p": p}, "filling budget exhausted")
        return EXIT_UNKNOWN
    if method == "witness":
        decision = rp.full_flag_decision(fm, p)
    else:
        # minors first, as an independent cross-check of the witness route
        minors = rp.forbidden_minor_decision(fm, p)
        decisions = {"minors": minors}
        if minors.representable or method == "all":
            decisions["witness"] = rp.witness_route_decision(fm, p)
        if method == "all":
            decisions["search"] = rp.RepresentabilityDecision(
                p, rp.search_representation(fm, p) is not None
            )
        verdicts = {k: d.representable for k, d in decisions.items()}
        if len(set(verdicts.values())) != 1:
            raise InternalError(f"decision routes disagree: {verdicts}")
        decision = decisions["witness"] if minors.representable else minors
    if decision.representable:
        _emit(emit_certificate(fm, decision), f"representable over GF({p})")
        return EXIT_YES
    _emit(
        emit_certificate(fm, decision),
        f"not representable over GF({p}): {decision.witness.target_name} minor",
    )
    return EXIT_NO


def _cmd_represent(args) -> int:
    fm = io.load_flag(_read(args.file))
    try:
        rep = rp.search_representation(fm, args.p)
    except SearchSpaceTooLarge as exc:
        _emit({"error": exc.code, "detail": str(exc)}, "search space too large")
        return EXIT_UNKNOWN
    if rep is None:
        _emit({"representable": False, "p": args.p}, f"no GF({args.p}) representation")
        return EXIT_NO
    _emit(io.representation_certificate(fm, rep), f"found a GF({args.p}) representation")
    return EXIT_YES


def _cmd_graphic_flag(args) -> int:
    g, chain = io.load_graphic_bundle(_read(args.file))
    fm = gr.graphic_flag(g, chain)
    _emit(io.flag_json(fm), f"graphic flag with layer ranks {[m.rank for m in fm.layers]}")
    return EXIT_YES


def _cmd_graphic_major(args) -> int:
    g, chain = io.load_graphic_bundle(_read(args.file))
    h, major = gr.graphic_major(g, chain)
    doc = {
        "schema": "graphic-major/1",
        "graph": io.graph_json(h),
        "major": io.major_json(major),
    }
    _emit(doc, f"major graph with {len(h.edges)} edges, blocks {list(map(list, major.blocks))}")
    return EXIT_YES


def _cmd_major(args) -> int:
    budget = _budget(args)
    doc = _read(args.file)
    if args.action == "verify":
        if not isinstance(doc, dict) or "major" not in doc or "flag" not in doc:
            raise InvalidInput("major verify needs {\"major\": ..., \"flag\": ...}")
        major = io.load_major(doc["major"])
        fm = io.load_flag(doc["flag"])
        ok = lm.verify_major(major.matroid, major.blocks, fm)
        _emit({"valid": ok}, "major verifies" if ok else "not a major")
        return EXIT_YES if ok else EXIT_NO
    if args.action == "from-rep":
        rep = io.load_representation(doc)
        major = rp.major_from_representation(rep)
        _emit(io.major_json(major), f"major on {major.matroid.n} elements")
        return EXIT_YES
    fm = io.load_flag(doc)
    try:
        major = lm.search_major(fm, budget=budget)
    except BudgetExhausted as exc:
        _emit({"error": exc.code, "detail": str(exc)}, "budget exhausted")
        return EXIT_UNKNOWN
    if major is None:
        _emit({"found": False}, "no major in the searched space")
        return EXIT_NO
    _emit(io.major_json(major), f"major on {major.matroid.n} elements")
    return EXIT_YES


def _cmd_witness(args) -> int:
    fm = io.load_flag(_read(args.file))
    seq = lm.lift_witness_sequence(fm)
    _emit(io.witnesses_json(seq), f"{len(seq.witnesses)} lift witnesses")
    return EXIT_YES


def _cmd_fillings(args) -> int:
    budget = _budget(args)
    fm = io.load_flag(_read(args.file))
    search = lm.enumerate_fillings(fm, budget)
    doc = {
        "schema": "fillings/1",
        "complete": search.complete,
        "fillings": [io.flag_json(f) for f in search.fillings],
    }
    _emit(doc, f"{len(search.fillings)} fillings ({'complete' if search.complete else 'truncated'})")
    return EXIT_YES if search.complete else EXIT_UNKNOWN


def _cmd_isomorphic(args) -> int:
    doc_a, doc_b = _read(args.file_a), _read(args.file_b)
    kind_a, kind_b = io.detect_kind(doc_a), io.detect_kind(doc_b)
    if kind_a != kind_b or kind_a not in ("matroid", "flag"):
        raise InvalidInput("isomorphic expects two matroid files or two flag files")
    if kind_a == "matroid":
        bij = mc.is_isomorphic(io.load_matroid(doc_a), io.load_matroid(doc_b))
    else:
        bij = fl.flag_isomorphic(io.load_flag(doc_a), io.load_flag(doc_b))
    if bij is None:
        _emit({"isomorphic": False}, "not isomorphic")
        return EXIT_NO
    _emit({"isomorphic": True, "bijection": list(bij)}, "isomorphic")
    return EXIT_YES


def _cmd_counterexample(args) -> int:
    if args.config:
        cfg = io.load_config(_read(args.config))
    else:
        cfg = gr.reference_counterexample_config()
    report = gr.counterexample_harness(cfg)
    doc = {
        "schema": "counterexample-report/1",
        "verdict": report.verdict,
        "steps": [
            {"name": s.name, "ok": s.ok, "detail": s.detail} for s in report.steps
        ],
    }
    _emit(doc, f"verdict: {report.verdict}")
    return EXIT_YES if report.ok else EXIT_NO


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every verb, built on the first `run` and then reused.

    Reuse is safe because parsing leaves the parser unchanged: each call
    fills a fresh namespace, every option default is an immutable str, int
    or None, `prog` is fixed, and each verb is bound by `set_defaults(fn=...)`.
    """
    parser = argparse.ArgumentParser(
        prog="flagmatroids",
        description="Exact computation with matroids and flag matroids.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", help="validate a JSON document (or certificate)")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("axioms", help="check the two feasible-set axioms")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_axioms)

    p = sub.add_parser("seqrep", help="sequential representation of a flag matroid")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_seqrep)

    p = sub.add_parser("minor", help="contract/delete/chop a flag matroid")
    p.add_argument("file")
    p.add_argument("--contract", default="")
    p.add_argument("--delete", default="")
    p.add_argument("--chop", default="")
    p.set_defaults(fn=_cmd_minor)

    p = sub.add_parser("dual", help="dual flag matroid")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_dual)

    p = sub.add_parser("from-matrix", help="flag matroid of a matrix and levels")
    p.add_argument("file")
    p.add_argument("--levels", required=True)
    p.set_defaults(fn=_cmd_from_matrix)

    p = sub.add_parser("uniform-rep", help="representation of a uniform flag matroid")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(fn=_cmd_uniform_rep)

    p = sub.add_parser("is-representable", help="decide GF(2)/GF(3) representability")
    p.add_argument("file")
    p.add_argument("--p", type=int, choices=(2, 3), required=True)
    p.add_argument("--method", choices=("minors", "witness", "search", "all"), default="witness")
    p.add_argument("--budget", type=int, default=10000)
    p.set_defaults(fn=_cmd_is_representable)

    p = sub.add_parser("represent", help="search for a representation")
    p.add_argument("file")
    p.add_argument("--p", type=int, choices=(2, 3, 5, 7), required=True)
    p.set_defaults(fn=_cmd_represent)

    p = sub.add_parser("graphic-flag", help="flag matroid of a graph and chain")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_graphic_flag)

    p = sub.add_parser("graphic-major", help="graphic major of a graph and chain")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_graphic_major)

    p = sub.add_parser("major", help="verify / construct / search majors")
    p.add_argument("action", choices=("verify", "from-rep", "search"))
    p.add_argument("file")
    p.add_argument("--budget", type=int, default=20000)
    p.set_defaults(fn=_cmd_major)

    p = sub.add_parser("witness", help="lift witness sequence of a full flag")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_witness)

    p = sub.add_parser("fillings", help="enumerate fillings")
    p.add_argument("file")
    p.add_argument("--budget", type=int, default=10000)
    p.set_defaults(fn=_cmd_fillings)

    p = sub.add_parser("isomorphic", help="matroid or flag isomorphism")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(fn=_cmd_isomorphic)

    p = sub.add_parser("counterexample", help="run the non-graphic harness")
    p.add_argument("config", nargs="?", default=None)
    p.set_defaults(fn=_cmd_counterexample)

    return parser


def run(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Error as exc:
        payload = {k: (list(v) if isinstance(v, tuple) else v) for k, v in exc.payload.items()}
        doc = {"error": exc.code, "detail": str(exc), **({"witness": payload} if payload else {})}
        status = EXIT_INTERNAL if isinstance(exc, InternalError) else EXIT_INPUT
    except Exception as exc:  # a fault in the program; exit 1 would read as "no"
        import traceback  # here, not at the top: only a fault needs it

        traceback.print_exc()
        doc = {"error": InternalError.__name__, "detail": f"{type(exc).__name__}: {exc}"}
        status = EXIT_INTERNAL
    sys.stdout.write(io.dumps(doc))
    print(f"error: {doc['detail']}", file=sys.stderr)
    return status


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
