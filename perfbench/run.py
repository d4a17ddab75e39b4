#!/usr/bin/env python3
"""The repository's end-to-end, layer-by-layer benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload train-1.5k --seed 1 --seconds 3 --trace 0

``--trace 0`` measures with tracing off and reports every end-to-end
metric of ``BENCHMARK.json``, each time as its median over identical
passes; ``--trace 1`` runs one pass untraced and one traced, and
reports every per-layer metric instead (plus the tracing overhead
between the two passes and the share of traced time under named
spans).  ``--smoke`` runs the same
recipe at a tiny scale in seconds.  Every run checks the program's
outputs; a failed check makes the result ``"correct": false`` and the
exit code 1.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
See ``perfbench/README.md`` for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
REFERENCE = HERE / "reference.json"
# One process and one BLAS thread: on a shared 2-core host a 2-thread
# matmul waits on whichever core a neighbour holds (the calibration
# matmul ran 0.04-0.11 s with 2 threads against 0.04-0.06 s with one).
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="floor on the time spent serving queries")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny scale, no quality reference check")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# host record
# ---------------------------------------------------------------------------
def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_record() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "git_sha": git_sha(),
    }


def calibrate(reps: int = 5) -> float:
    """Median time of a fixed matmul + argsort: the host's speed, for
    comparing runs across machines as ratios.  Never a gain."""
    import numpy as np

    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((512, 512))
    values = rng.standard_normal(1 << 20)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        float((matrix @ matrix).sum())
        np.argsort(values)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------
def reference_checks(workload: str, cycle) -> list[tuple[str, bool]]:
    """Per-approach Hits@1 and MRR against the committed reference band."""
    reference = json.loads(REFERENCE.read_text())
    rel, floor = reference["rel_tolerance"], reference["abs_tolerance"]
    expected = reference["workloads"][workload]
    checks = []
    for run in cycle.approaches:
        for key, value in (("hits_at_1", run.hits[1]), ("mrr", run.mrr)):
            ref = expected[run.name][key]
            checks.append((f"quality.{run.name}.{key}",
                           abs(value - ref) <= rel * ref + floor))
    return checks


def equality_checks(untraced, traced) -> list[tuple[str, bool]]:
    """The traced pass's decomposed similarity + ranking / CSLS +
    inference calls reproduce ``evaluate()`` / ``predict()`` exactly."""
    checks = []
    for a, b in zip(untraced.approaches, traced.approaches):
        same = (a.hits, a.mrr, a.n_eval) == (b.hits, b.mrr, b.n_eval)
        checks.append((f"trace.{a.name}.evaluate_equal", same))
    checks.append(("trace.predict_equal",
                   untraced.predicted == traced.predicted))
    return checks


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------
def end_to_end(workload, args, workdir: Path):
    """Untraced: set up ``setup_reps`` times, then the measured cycle of
    ``passes`` identical train-and-score passes."""
    from workloads import run_cycle, set_up

    setup_times, alignments = [], []
    for rep in range(workload.setup_reps):
        t0 = time.perf_counter()
        prep = set_up(workload, args.seed, workdir / f"store-{rep}")
        engine = prep.open_engine()
        setup_times.append(time.perf_counter() - t0)
        alignments.append(prep.pair.alignment)
    checks = [("setup.deterministic",
               all(a == alignments[0] for a in alignments))]
    cycle = run_cycle(workload, prep, engine, args.seed, args.seconds,
                      workdir / "cycle", passes=workload.passes)
    checks += cycle.checks
    if not args.smoke:
        checks += reference_checks(workload.name, cycle)
    runs, serve = cycle.approaches, cycle.serve
    values = {
        "setup_s": statistics.median(setup_times),
        "total_s": cycle.total_s,
        "fit_s": sum(r.fit_s for r in runs),
        "epoch_s_p50": sum(r.epoch_s_p50 for r in runs),
        "eval_s": sum(r.eval_s for r in runs) + cycle.predict_s,
        "peak_rss_mb": peak_rss_mb(),
        "hits_at_1": statistics.fmean(r.hits[1] for r in runs),
        "mrr": statistics.fmean(r.mrr for r in runs),
        "serve_qps": serve["qps"],
        "query_p50_ms": serve["p50_ms"],
        "query_p99_ms": serve["p99_ms"],
        "recall_at_10": serve["recall_at_10"],
        "serve_hits_at_1": serve["hits_at_1"],
    }
    detail = {
        "setup_s_reps": setup_times,
        "pass_s": cycle.pass_s,
        "requests": serve["requests"],
        "round_requests": serve["round_requests"],
        "zipf_requests": serve["zipf_requests"],
        "uniform_requests": serve["uniform_requests"],
        "predict_f1": cycle.predict_f1,
        "approaches": {r.name: {"fit_s": r.fit_s, "eval_s": r.eval_s,
                                "fit_s_passes": r.fit_passes,
                                "epoch_s_p50": r.epoch_s_p50,
                                "hits_at_1": r.hits[1], "mrr": r.mrr}
                       for r in runs},
    }
    requests = (serve["requests"], serve["failed_requests"])
    return values, checks, requests, detail


def per_layer(workload, args, workdir: Path, names: list[str]):
    """Set up once (traced), run one pass of the cycle untraced and one
    traced, then one op-profiled pass of short fits."""
    from repro.obs import Tracer, capture, profile_ops

    from layers import op_layers, span_coverage, span_layers
    from workloads import index_search_ms, profiled_fits, run_cycle, set_up

    tracer = Tracer()
    with capture(tracer=tracer):
        prep = set_up(workload, args.seed, workdir / "store")
        engine = prep.open_engine()
    untraced = run_cycle(workload, prep, engine, args.seed, args.seconds,
                         workdir / "untraced")
    engine = prep.open_engine()
    with capture(tracer=tracer):
        traced = run_cycle(workload, prep, engine, args.seed, args.seconds,
                           workdir / "traced", decompose=True)
        search_ms = index_search_ms(prep.world, engine, args.seed)
    with profile_ops() as profiler:
        profiled_fits(prep, args.seed)
    checks = untraced.checks + traced.checks \
        + equality_checks(untraced, traced)
    if not args.smoke:
        checks += reference_checks(workload.name, untraced)

    events = tracer.events
    serve = traced.serve
    kg1, kg2 = prep.pair.kg1, prep.pair.kg2
    values = span_layers(events)
    values.update(op_layers(profiler.summary(), [
        name for name in names if name.startswith("autodiff.op.")]))
    values.update({
        "datagen.relation_triples": len(kg1.relation_triples)
        + len(kg2.relation_triples),
        "sampling.ids_rounds": prep.ids_rounds,
        "sampling.ids_js": prep.ids_js,
        "autodiff.steps": sum(r.steps for r in traced.approaches),
        "serve.index_search_ms": search_ms,
        "serve.zipf.p50_ms": serve["zipf_p50_ms"],
        "serve.zipf.p99_ms": serve["zipf_p99_ms"],
        "serve.uniform.p50_ms": serve["uniform_p50_ms"],
        "serve.uniform.p99_ms": serve["uniform_p99_ms"],
        "serve.cache_hit_rate": serve["cache_hit_rate"],
        "serve.degraded": serve["degraded"],
        "serve.abstained": serve["abstained"],
        "obs.trace_overhead": traced.total_s / untraced.total_s,
        "obs.span_coverage": span_coverage(events),
    })
    events_path = ROOT / ".perfbench" / \
        f"{workload.name}-seed{args.seed}.events.jsonl"
    tracer.write_jsonl(events_path)
    detail = {"events": str(events_path.relative_to(ROOT)),
              "untraced_total_s": untraced.total_s,
              "traced_total_s": traced.total_s,
              "op_profile": profiler.summary()[:12]}
    requests = (untraced.serve["requests"] + serve["requests"],
                untraced.serve["failed_requests"] + serve["failed_requests"])
    return values, checks, requests, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    if not SPEC.is_file():
        print(f"error: {SPEC.name} not found in {ROOT}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:  # before numpy loads BLAS
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS, smoke_workload

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = smoke_workload(workload)
    spec = json.loads(SPEC.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        calib_s = calibrate()
        if args.trace:
            outcome = per_layer(workload, args, workdir,
                                [m["name"] for m in wanted])
        else:
            outcome = end_to_end(workload, args, workdir)
        values, checks, (requests, failed_requests), detail = outcome
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    values["host.calib_s"] = calib_s

    # operations: every check (fits, evaluate calls, serving and
    # quality checks) plus every query request
    failed_checks = [name for name, ok in checks if not ok]
    attempted = len(checks) + requests
    failed = len(failed_checks) + failed_requests
    record = {"workload": workload.name, "seed": args.seed,
              "trace": args.trace, "host": host_record(),
              "host.calib_s": calib_s, "failed_checks": failed_checks,
              **detail}
    print(json.dumps(record, sort_keys=True, default=str))
    for metric in wanted:
        print(f"{metric['name']:>32s} {values[metric['name']]:>14.6g} "
              f"{metric['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]),
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
