"""Command-line surface over JSON files.

Every verb writes one canonical JSON document to stdout and a short human
summary to stderr.  Exit codes: 0 = yes/success, 1 = no/negative verdict,
2 = input error, 3 = budget exhausted / unknown, 4 = internal error (a fault
in the program, never a verdict; stdout holds an
{"error": "InternalError", ...} document).

Each verb is one row of `_VERBS`: its name, help text, argument specs and a
function from the parsed arguments to (exit code, document, summary).  The
verb functions only compute; `run` writes what they return, and turns an
exception into an error document and its exit code.  `is-representable`
and `represent` make one `representability.decide` call each, which
composes the decision routes, and share one renderer of its decision.
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
)

EXIT_YES = 0
EXIT_NO = 1
EXIT_INPUT = 2
EXIT_UNKNOWN = 3
EXIT_INTERNAL = 4


def _read(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{path}: not valid JSON ({exc})") from exc


def _flag(args) -> fl.FlagMatroid:
    return io.load_flag(_read(args.file))


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


def _json_lists(fields: dict) -> dict:
    return {k: (list(v) if isinstance(v, tuple) else v) for k, v in fields.items()}


# --- verbs: each returns (exit code, document, summary) -------------------------


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


def _validate(args):
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
        return EXIT_YES, {"kind": kind, "valid": True}, f"valid {kind}"
    if problem is None:
        return EXIT_YES, {"kind": kind, "valid": True}, "certificate verifies"
    return (
        EXIT_NO,
        {"kind": kind, "valid": False, "reason": problem},
        f"certificate does NOT verify: {problem}",
    )


def _axioms(args):
    report = fl.check_flag_axioms(*io.load_raw_family(_read(args.file)))
    if report.ok:
        return EXIT_YES, {"ok": True}, "both feasible-set axioms hold"
    doc = {"ok": False, "axiom": report.axiom, "witness": _json_lists(report.witness)}
    return EXIT_NO, doc, f"axiom {report.axiom} fails"


def _seqrep(args):
    fm = _flag(args)
    doc = {
        "schema": "sequential-representation/1",
        "layers": [io.matroid_json(m) for m in fm.layers],
    }
    return EXIT_YES, doc, f"{len(fm.layers)} layers, ranks {list(fm.cardinalities)}"


def _minor(args):
    out = fl.flag_minor(
        _flag(args), _int_csv(args.contract), _int_csv(args.delete), _int_csv(args.chop)
    )
    return EXIT_YES, io.flag_json(out), f"minor on {out.n} elements, {len(out.feasible)} feasible sets"


def _dual(args):
    out = fl.flag_dual(_flag(args))
    return EXIT_YES, io.flag_json(out), f"dual with layer ranks {list(out.cardinalities)}"


def _from_matrix(args):
    fm = rp.flag_from_matrix(io.load_matrix(_read(args.file)), _int_csv(args.levels))
    return EXIT_YES, io.flag_json(fm), f"flag matroid with {len(fm.feasible)} feasible sets"


def _uniform_rep(args):
    try:
        rep = rp.uniform_flag_representation(args.r, args.n, args.p)
    except FieldTooSmall as exc:
        # a verdict on the field, not an input error
        doc = {"error": exc.code, "detail": str(exc)}
        return EXIT_NO, doc, "no representation: field too small"
    summary = f"{rep.matrix.rows}x{rep.matrix.cols} matrix over GF({rep.p})"
    return EXIT_YES, io.representation_json(rep), summary


def _decision_answer(fm, decision: rp.RepresentabilityDecision):
    """(exit code, document, summary) of a decision on fm.  A "yes" carries
    a representation certificate and a "no" of the minor search a
    forbidden-minor certificate; `validate` re-verifies either independently.
    Any other "no" (a flag that is not full, or the search method) carries
    none.  A search that runs out of budget raises BudgetExhausted, whose
    error document `run` writes with exit 3."""
    p = decision.p
    if decision.representable:
        doc = io.representation_certificate(fm, decision.certificate)
        return EXIT_YES, doc, f"representable over GF({p})"
    if decision.witness is None:
        return EXIT_NO, {"representable": False, "p": p}, f"not representable over GF({p})"
    doc = io.forbidden_minor_certificate(p, fm, decision.witness)
    return EXIT_NO, doc, f"not representable over GF({p}): {decision.witness.target_name} minor"


def _is_representable(args):
    budget = _budget(args)
    fm = _flag(args)
    return _decision_answer(fm, rp.decide(fm, args.p, args.method, budget))


def _represent(args):
    """`is-representable --method search`, for p in {2, 3, 5, 7}."""
    fm = _flag(args)
    return _decision_answer(fm, rp.decide(fm, args.p, "search"))


def _graphic_flag(args):
    fm = gr.graphic_flag(*io.load_graphic_bundle(_read(args.file)))
    return EXIT_YES, io.flag_json(fm), f"graphic flag with layer ranks {list(fm.cardinalities)}"


def _graphic_major(args):
    h, major = gr.graphic_major(*io.load_graphic_bundle(_read(args.file)))
    doc = {
        "schema": "graphic-major/1",
        "graph": io.graph_json(h),
        "major": io.major_json(major),
    }
    return EXIT_YES, doc, f"major graph with {len(h.edges)} edges, blocks {list(map(list, major.blocks))}"


def _major(args):
    budget = _budget(args)
    doc = _read(args.file)
    if args.action == "verify":
        if not isinstance(doc, dict) or "major" not in doc or "flag" not in doc:
            raise InvalidInput("major verify needs {\"major\": ..., \"flag\": ...}")
        major = io.load_major(doc["major"])
        if lm.verify_major(major.matroid, major.blocks, io.load_flag(doc["flag"])):
            return EXIT_YES, {"valid": True}, "major verifies"
        return EXIT_NO, {"valid": False}, "not a major"
    if args.action == "from-rep":
        major = rp.major_from_representation(io.load_representation(doc))
    else:
        major = lm.search_major(io.load_flag(doc), budget=budget)
        if major is None:
            return EXIT_NO, {"found": False}, "no major in the searched space"
    return EXIT_YES, io.major_json(major), f"major on {major.matroid.n} elements"


def _witness(args):
    seq = lm.lift_witness_sequence(_flag(args))
    return EXIT_YES, io.witnesses_json(seq), f"{len(seq.witnesses)} lift witnesses"


def _fillings(args):
    budget = _budget(args)
    search = lm.enumerate_fillings(_flag(args), budget)
    doc = {
        "schema": "fillings/1",
        "complete": search.complete,
        "fillings": [io.flag_json(f) for f in search.fillings],
    }
    status = EXIT_YES if search.complete else EXIT_UNKNOWN
    return status, doc, f"{len(search.fillings)} fillings ({'complete' if search.complete else 'truncated'})"


def _isomorphic(args):
    doc_a, doc_b = _read(args.file_a), _read(args.file_b)
    kind_a, kind_b = io.detect_kind(doc_a), io.detect_kind(doc_b)
    if kind_a != kind_b or kind_a not in ("matroid", "flag"):
        raise InvalidInput("isomorphic expects two matroid files or two flag files")
    if kind_a == "matroid":
        bij = mc.is_isomorphic(io.load_matroid(doc_a), io.load_matroid(doc_b))
    else:
        bij = fl.flag_isomorphic(io.load_flag(doc_a), io.load_flag(doc_b))
    if bij is None:
        return EXIT_NO, {"isomorphic": False}, "not isomorphic"
    return EXIT_YES, {"isomorphic": True, "bijection": list(bij)}, "isomorphic"


def _counterexample(args):
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
    return (EXIT_YES if report.ok else EXIT_NO), doc, f"verdict: {report.verdict}"


# --- the verb table ---------------------------------------------------------------

_FILE = ("file", {})


def _int_option(flag: str, **kwargs) -> tuple[str, dict]:
    return flag, {"type": int, **kwargs}


# (name, help, arguments as (name or flag, add_argument keywords), verb)
_VERBS = (
    ("validate", "validate a JSON document (or certificate)", (_FILE,), _validate),
    ("axioms", "check the two feasible-set axioms", (_FILE,), _axioms),
    ("seqrep", "sequential representation of a flag matroid", (_FILE,), _seqrep),
    ("minor", "contract/delete/chop a flag matroid", (
        _FILE,
        ("--contract", {"default": ""}),
        ("--delete", {"default": ""}),
        ("--chop", {"default": ""}),
    ), _minor),
    ("dual", "dual flag matroid", (_FILE,), _dual),
    ("from-matrix", "flag matroid of a matrix and levels", (
        _FILE, ("--levels", {"required": True}),
    ), _from_matrix),
    ("uniform-rep", "representation of a uniform flag matroid", (
        _int_option("--r", required=True),
        _int_option("--n", required=True),
        _int_option("--p", required=True),
    ), _uniform_rep),
    ("is-representable", "decide GF(2)/GF(3) representability", (
        _FILE,
        _int_option("--p", choices=(2, 3), required=True),
        ("--method", {"choices": ("minors", "witness", "search", "all"), "default": "witness"}),
        _int_option("--budget", default=10000),
    ), _is_representable),
    ("represent", "search for a representation", (
        _FILE, _int_option("--p", choices=(2, 3, 5, 7), required=True),
    ), _represent),
    ("graphic-flag", "flag matroid of a graph and chain", (_FILE,), _graphic_flag),
    ("graphic-major", "graphic major of a graph and chain", (_FILE,), _graphic_major),
    ("major", "verify / construct / search majors", (
        ("action", {"choices": ("verify", "from-rep", "search")}),
        _FILE,
        _int_option("--budget", default=20000),
    ), _major),
    ("witness", "lift witness sequence of a full flag", (_FILE,), _witness),
    ("fillings", "enumerate fillings", (_FILE, _int_option("--budget", default=10000)), _fillings),
    ("isomorphic", "matroid or flag isomorphism", (("file_a", {}), ("file_b", {})), _isomorphic),
    ("counterexample", "run the non-graphic harness", (
        ("config", {"nargs": "?", "default": None}),
    ), _counterexample),
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every verb in `_VERBS`, built on the first `run` and
    then reused.

    Reuse is safe because parsing leaves the parser unchanged: each call
    fills a fresh namespace, every option default is an immutable str, int
    or None, `prog` is fixed, and each verb is bound by `set_defaults(fn=...)`.
    """
    parser = argparse.ArgumentParser(
        prog="flagmatroids",
        description="Exact computation with matroids and flag matroids.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, help_text, arguments, fn in _VERBS:
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn)
    return parser


def _error_answer(exc: Exception) -> tuple[int, dict]:
    """The exit code and error document of an exception out of a verb: 3 for
    a search that ran out of budget, 4 for a
    fault in the program (an InternalError, or any exception that is not a
    library Error: exit 1 would read as "no"), 2 for any other Error."""
    if not isinstance(exc, Error):
        return EXIT_INTERNAL, {
            "error": InternalError.__name__, "detail": f"{type(exc).__name__}: {exc}"
        }
    payload = _json_lists(exc.payload)
    doc = {"error": exc.code, "detail": str(exc), **({"witness": payload} if payload else {})}
    if isinstance(exc, BudgetExhausted):
        return EXIT_UNKNOWN, doc
    return (EXIT_INTERNAL if isinstance(exc, InternalError) else EXIT_INPUT), doc


def run(argv: Optional[list[str]] = None) -> int:
    """Run one verb: write its document to stdout and its summary to stderr,
    and return its exit code.  The only place that writes either stream."""
    args = _build_parser().parse_args(argv)
    try:
        status, doc, summary = args.fn(args)
        text = io.dumps(doc)
    except Exception as exc:
        if not isinstance(exc, Error):
            import traceback  # here, not at the top: only a fault needs it

            traceback.print_exc()
        status, doc = _error_answer(exc)
        text, summary = io.dumps(doc), f"error: {doc['detail']}"
    sys.stdout.write(text)
    print(summary, file=sys.stderr)
    return status


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
