"""One benchmark run inside a fresh interpreter; started by run.py.

    worker.py setup
        Time `import flagmatroids` plus the lazily built forbidden-flag
        lists, and print the seconds, raw and scaled (see below).  No other
        module is imported first, so this is the set-up a CLI user pays on
        every invocation.

    worker.py run WORKLOAD SEED --cycles C [--trace]
        Closed loop, one caller: prepare an op (untimed), run it (timed),
        repeat, for C whole cycles of the workload's strata.  Then every op
        is checked against its known answer.  With --trace the library's
        public functions are wrapped first and per-layer statistics are
        reported.

The last line of stdout is one JSON object.

Scaled times.  The speed of the machines this runs on drifts by up to 3x
within seconds (other tenants, frequency changes), which swamps any change
worth measuring.  So a fixed pure-Python kernel, independent of the library,
is timed between every two ops, and each op's time is scaled to a machine
on which the kernel takes REFERENCE_KERNEL_S:
scaled = raw * REFERENCE_KERNEL_S / kernel time (see `scale`).  Raw times
are reported alongside.
"""

# Only sys and time are imported here, so the set-up probe times a cold
# import of the library.
import sys
import time

REFERENCE_KERNEL_S = 0.0015


def kernel_time() -> float:
    """Seconds one run of the reference kernel takes right now.  The kernel
    is a fixed mix of the integer, bit, tuple and dict work the library
    does; it never changes, so it measures the machine, not the code."""
    t0 = time.perf_counter()
    seen: dict = {}
    acc = 0
    for i in range(4000):
        m = (i * 2654435761) & 0xFFFF
        acc += m.bit_count()
        key = (m & 255, i & 7)
        seen[key] = seen.get(key, 0) + 1
    return time.perf_counter() - t0


def scale(latencies: list[float], kernels: list[float]) -> list[float]:
    """Scale each op to the reference speed.  kernels[i] ran just before op
    i and kernels[i + 1] just after; the speed estimate for op i is the
    median of the two kernel runs on each side, which a single interrupted
    kernel run does not move."""
    import statistics

    out = []
    for i, t in enumerate(latencies):
        near = kernels[max(i - 1, 0) : i + 3]
        out.append(t * REFERENCE_KERNEL_S / statistics.median(near))
    return out


def setup_probe() -> None:
    kernels = [kernel_time() for _ in range(3)]
    t0 = time.perf_counter()
    from flagmatroids import representability

    representability.binary_forbidden_flags()
    representability.ternary_forbidden_flags()
    raw = time.perf_counter() - t0
    kernels += [kernel_time() for _ in range(3)]
    kernels.sort()
    print(f"{raw} {raw * REFERENCE_KERNEL_S / ((kernels[2] + kernels[3]) / 2)}")


def run(argv: list[str]) -> None:
    import argparse
    import json
    import os
    import resource
    import shutil
    import tempfile

    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("--cycles", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="where a traced run writes its spans")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    import workloads

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    os.makedirs(args.workdir, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=args.workdir)
    try:
        load = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if tracer:
            tracer.active = True
        load.setup()
        if tracer:
            tracer.active = False

        cases, outputs, latencies = [], [], []
        kernels = [kernel_time()]
        for cycle in range(args.cycles):
            for slot in range(load.slots):
                case = load.prepare(cycle, slot)
                if tracer:
                    tracer.active = True
                t0 = time.perf_counter()
                try:
                    out = load.run(case)
                except (Exception, SystemExit) as exc:  # an op that raises is a failed op
                    out = {"raised": repr(exc)}
                latencies.append(time.perf_counter() - t0)
                if tracer:
                    tracer.active = False
                kernels.append(kernel_time())
                cases.append(case)
                outputs.append(out)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        failed, problems = check_ops(load, cases, outputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    import flagmatroids

    result = {
        "attempted": len(latencies),
        "failed": failed,
        "problems": problems,
        "latencies": latencies,
        "kernels": kernels,
        "scaled": scale(latencies, kernels),
        "slots": load.slots,
        "peak_rss_mb": peak_rss_mb,
        "library": flagmatroids.__file__,
    }
    if tracer:
        result["layers"] = layer_metrics(tracer)
        if args.spans:
            result["spans"] = tracer.write_spans(args.spans)
    print(json.dumps(result))


def check_ops(load, cases: list, outputs: list) -> tuple[int, list[str]]:
    """Failed op count and the problems found; a setup problem fails every op."""
    setup = [f"setup: {p}" for p in load.setup_problems()]
    problems, failed = [], 0
    for i, (case, out) in enumerate(zip(cases, outputs)):
        try:
            found = [out["raised"]] if "raised" in out else load.check(case, out)
        except Exception as exc:  # a malformed output fails the op, not the run
            found = [f"check raised {exc!r}"]
        if found:
            failed += 1
            problems.append(f"op {i} (slot {i % load.slots}): {'; '.join(found)}")
    return (len(cases) if setup else failed), setup + problems


# (function, statistic, metric name suffix); "created" is the call count of
# a class's __post_init__.
FUNCTION_METRICS = (
    ("gf_linalg.rref", "calls", "calls"),
    ("gf_linalg.rref", "self_s", "self_s"),
    ("gf_linalg.rank", "calls", "calls"),
    ("gf_linalg.is_nonsingular", "calls", "calls"),
    ("gf_linalg.matrix", "calls", "calls"),
    ("gf_linalg.GFMatrix", "calls", "created"),
    ("matroid_core.Matroid", "calls", "created"),
    ("matroid_core.linear_matroid", "calls", "calls"),
    ("matroid_core.linear_matroid", "s", "s"),
    ("matroid_core.closure", "calls", "calls"),
    ("matroid_core.dual", "calls", "calls"),
    ("matroid_core.minor", "calls", "calls"),
    ("matroid_core.is_isomorphic", "calls", "calls"),
    ("matroid_core.has_minor_isomorphic_to", "calls", "calls"),
    ("matroid_core.has_minor_isomorphic_to", "s", "s"),
    ("matroid_core.enumerate_matroids", "s", "s"),
    ("flag_core.FlagMatroid", "calls", "created"),
    ("flag_core.flag_minor", "calls", "calls"),
    ("flag_core.flag_minor", "errors", "errors"),
    ("flag_core.flag_isomorphic", "calls", "calls"),
    ("flag_core.flag_has_minor", "calls", "calls"),
    ("flag_core.flag_has_minor", "s", "s"),
    ("flag_core.check_flag_axioms", "s", "s"),
    ("flag_core.layered_witness", "s", "s"),
    ("lifts_majors.is_lift.flats", "s", "s"),
    ("lifts_majors.is_lift.duals", "s", "s"),
    ("lifts_majors.is_lift.closures", "s", "s"),
    ("lifts_majors.is_lift.bases", "s", "s"),
    ("lifts_majors.elementary_witness", "calls", "calls"),
    ("lifts_majors.verify_major", "s", "s"),
    ("representability.forbidden_minor_decision", "s", "s"),
    ("representability.witness_route_decision", "s", "s"),
    ("representability.search_representation", "s", "s"),
    ("representability.is_representable_via_fillings", "s", "s"),
    ("representability.matroid_representation", "calls", "calls"),
    ("graphic.graphic_flag", "s", "s"),
)


def layer_metrics(tracer) -> dict:
    out = tracer.layer_totals()
    stats = tracer.function_stats()
    for fn, stat, suffix in FUNCTION_METRICS:
        out[f"{fn}.{suffix}"] = stats[fn][stat]
    # useful outcomes over attempts: minors found per candidate minor built
    tried = tracer.child_calls("flag_core.flag_has_minor", "flag_core.flag_minor")
    found = stats["flag_core.flag_has_minor"]["non_null"]
    out["flag_core.flag_has_minor.hit_ratio"] = found / tried if tried else 0.0
    return out


if __name__ == "__main__":
    if sys.argv[1:2] == ["setup"]:
        setup_probe()
    elif sys.argv[1:2] == ["run"]:
        run(sys.argv[2:])
    else:
        sys.exit("usage: worker.py setup | worker.py run WORKLOAD SEED ...")
