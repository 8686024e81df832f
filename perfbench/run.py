"""Benchmark entry point.

    python3 perfbench/run.py --workload {decide,roundtrip,sweep} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ./src.  Each
measurement runs in a fresh interpreter (see worker.py), because the
library's memo caches would otherwise carry over between runs.

--trace 0 prints the end-to-end metrics: the median set-up time of
SETUP_SAMPLES fresh interpreters, then one closed-loop run of whole cycles
of the workload.  S sets the amount of work: the cycle count is S divided
by REFERENCE_CYCLE_S, a cycle's scaled time (see worker.py) at the commit
that defined the benchmark, so a run lasts about S seconds on a machine of
the reference speed, and parent and child commits do identical work.
--trace 1 prints the per-layer metrics: TRACE_CYCLES cycles of the workload
run untraced, then the same cycles traced; the ratio of the two timed
totals gives the tracing overhead.

The last line of stdout is the result object; a summary with the Python
version, nproc and seed goes to stderr and, with the raw figures, to
.perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = tuple(corpus.CYCLES)
SETUP_SAMPLES = 9
MIN_OPS = 100  # so that at least ten samples lie beyond p90
REFERENCE_CYCLE_S = {"decide": 2.14, "roundtrip": 1.42, "sweep": 0.156}
TRACE_CYCLES = {"decide": 1, "roundtrip": 2, "sweep": 4}
DEADLINE_S = 170

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def per_layer_units(name: str) -> str:
    if name.endswith((".s", ".self_s")):
        return "s"
    if name.endswith((".hit_ratio", ".overhead_frac")):
        return "ratio"
    return "count"


class Runner:
    def __init__(self):
        self.started = time.monotonic()
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]),
            PYTHONHASHSEED="0",
        )
        self.workdir = ROOT / ".perfbench_out" / f"work-{os.getpid()}"

    def child(self, *args: str) -> str:
        """Run worker.py in a fresh interpreter; return its last stdout line."""
        left = DEADLINE_S - (time.monotonic() - self.started)
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=max(left, 1),
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"perfbench: worker {args[0]} exited {proc.returncode}")
        return proc.stdout.strip().splitlines()[-1]

    def run(self, workload: str, seed: int, *limit: str) -> dict:
        doc = json.loads(
            self.child("run", workload, str(seed), *limit, "--workdir", str(self.workdir))
        )
        if not doc["library"].startswith(str(ROOT / "src")):
            raise SystemExit(f"perfbench: imported {doc['library']}, not this checkout's")
        return doc


def timing(lat: list[float]) -> dict:
    deciles = statistics.quantiles(lat, n=10)
    return {
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1000,
        "latency_p90_ms": deciles[8] * 1000,
        "beyond_p90": sum(x > deciles[8] for x in lat),
    }


def end_to_end(runner: Runner, workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    runner.child("setup")  # first import in a fresh checkout compiles bytecode
    setups = [[float(x) for x in runner.child("setup").split()] for _ in range(SETUP_SAMPLES)]
    slots = len(corpus.CYCLES[workload])
    cycles = max(-(-MIN_OPS // slots), round(seconds / REFERENCE_CYCLE_S[workload]))
    doc = runner.run(workload, seed, "--cycles", str(cycles))
    scaled, raw = timing(doc["scaled"]), timing(doc["latencies"])
    values = {
        "ops_per_s": scaled["ops_per_s"],
        "latency_p50_ms": scaled["latency_p50_ms"],
        "latency_p90_ms": scaled["latency_p90_ms"],
        "setup_s": statistics.median(s for _, s in setups),
        "peak_rss_mb": doc["peak_rss_mb"],
    }
    extra = {
        "ops": {k: doc[k] for k in ("latencies", "kernels", "scaled")},
        "cycles": cycles,
        "beyond_p90": scaled["beyond_p90"],
        "raw": {**raw, "setup_s": statistics.median(r for r, _ in setups)},
        "setup_samples": setups,
    }
    return doc, {"metrics": values, **extra}


def per_layer(runner: Runner, workload: str, seed: int) -> tuple[dict, dict]:
    cycles = ("--cycles", str(TRACE_CYCLES[workload]))
    plain = runner.run(workload, seed, *cycles)
    spans = ROOT / ".perfbench_out" / f"spans-{workload}-seed{seed}.tsv"
    traced = runner.run(workload, seed, *cycles, "--trace", "--spans", str(spans))
    values = dict(traced["layers"])
    values["trace.overhead_frac"] = sum(traced["scaled"]) / sum(plain["scaled"]) - 1
    # both runs make the same ops; an op counts as failed if it failed in either
    doc = dict(traced, failed=max(plain["failed"], traced["failed"]),
               problems=plain["problems"] + traced["problems"])
    return doc, {"metrics": values, "spans": traced["spans"], "spans_file": str(spans)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "flagmatroids" / "__init__.py").is_file():
        print(f"perfbench: no src/flagmatroids under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2

    runner = Runner()
    try:
        if args.trace:
            doc, extra = per_layer(runner, args.workload, args.seed)
        else:
            doc, extra = end_to_end(runner, args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)
    units = dict(END_TO_END) if not args.trace else None
    metrics = {
        name: {"value": value, "unit": units[name] if units else per_layer_units(name)}
        for name, value in extra.pop("metrics").items()
    }
    result = {
        "correct": doc["failed"] == 0 and doc["attempted"] > 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
    }
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "failed_frac": doc["failed"] / doc["attempted"],
        "problems": doc["problems"][:20],
        **extra,
    }
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    record = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**context, "result": result}, indent=1) + "\n")
    summary = ", ".join(f"{k}={v['value']:.6g}{v['unit']}" for k, v in metrics.items() if not args.trace)
    print(
        f"perfbench {args.workload} seed={args.seed} python={context['python']} "
        f"nproc={context['nproc']} ops={doc['attempted']} failed_frac={context['failed_frac']:.4g}"
        + (f" {summary}" if summary else f" spans={extra['spans']}"),
        file=sys.stderr,
    )
    for line in doc["problems"][:20]:
        print(f"  {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
