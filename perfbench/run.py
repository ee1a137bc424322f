"""Seeded end-to-end benchmark of the beliefmerge engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the engine is imported from ./src.
Each run is one single-threaded process driving one workload as a closed
loop with one caller, in whole rounds of the workload's operations,
until S seconds have passed. Outputs are checked after the timed loop.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s,
instances_per_s, latency_p50_ms, peak_rss_mb). With --trace 1 every
operation runs twice in a row, plain and traced, and the run reports
per-layer self times, exact counters and the tracing overhead instead.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 5  # set-up is measured this many times per run, median reported
COUNTERS = {
    "formulae.ast_nodes": "count",
    "formulae.table_cells": "count",
    "formulae.mu_models": "count",
    "formulae.profile_models": "count",
    "distance.pair_evals": "count",
    "merge.weight_vectors": "count",
    "merge.score_terms": "count",
    "merge.selected": "count",
    "lp.questions": "count",
    "lp.front_size": "count",
    "lp.excluded": "count",
    "cli.output_bytes": "bytes",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time as JSON and exit")
    return p.parse_args(argv)


def load_engine():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "beliefmerge", "__init__.py")):
        raise SystemExit(f"perfbench: no engine source under {src}")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    bm = importlib.import_module("beliefmerge")
    for sub in ("cli", "formulae", "instancefile", "instancegen", "maxcons",
                "merge", "postulates", "weights"):
        importlib.import_module(f"beliefmerge.{sub}")
    return bm


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_once(workload, item, records, tracer=None):
    """One timed operation; returns its wall time, or None if it failed."""
    if tracer is not None:
        tracer.install()
    try:
        t0 = perf_counter()
        if tracer is None:
            result = workload.run_op(item)
        else:
            result = tracer.op_span(workload.root_span, workload.run_op, item)
        elapsed = perf_counter() - t0
    except Exception:  # a failed operation is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return None
    finally:
        if tracer is not None:
            tracer.uninstall()
    records.append(workload.record(item, result))
    return elapsed


def timed_rounds(workload, seconds, tracer=None):
    """Closed loop over whole rounds until `seconds` have passed.

    Returns (records, latencies, failed, wall). With a tracer every
    operation runs twice in a row, plain and traced, the order swapping
    each round; latencies are then (plain, traced) pairs.
    """
    records, latencies, failed = [], [], 0
    start = perf_counter()
    deadline = start + seconds
    rounds = 0
    while True:
        if tracer is None:
            order = [None]
        else:
            order = [None, tracer] if rounds % 2 == 0 else [tracer, None]
        for item in workload.round():
            times = []
            for t in order:
                elapsed = run_once(workload, item, records, t)
                if elapsed is None:
                    failed += 1
                else:
                    times.append((t is not None, elapsed))
            if len(times) == len(order):
                by_mode = [elapsed for _, elapsed in sorted(times)]  # plain first
                latencies.append(by_mode[0] if tracer is None else tuple(by_mode))
        rounds += 1
        if perf_counter() >= deadline:
            break
    return records, latencies, failed, perf_counter() - start


def setup_samples(args, own: float) -> list[float]:
    """Own set-up time plus SETUP_SAMPLES - 1 more, each in a fresh process."""
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=150, check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def main(argv=None) -> int:
    started = perf_counter()
    args = parse_args(argv)
    bm = load_engine()
    import workloads  # noqa: E402  (needs the engine on sys.path)

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")
    out_dir = os.path.join(HERE, "out")
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = workloads.WORKLOADS[args.workload](bm, args.seed, workdir)
        workload.setup()
        setup_s = perf_counter() - started
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        tracer = None
        if args.trace:
            import spans
            tracer = spans.Tracer(bm)
        records, latencies, failed, wall = timed_rounds(workload, args.seconds, tracer)
        rss = peak_rss_mb()
        attempted = len(records) + failed

        try:
            errors = workload.check(records)
        except Exception as exc:  # output the checks cannot even read is wrong output
            traceback.print_exc(file=sys.stderr)
            errors = [f"checking the outputs failed: {exc!r}"]
        for e in errors[:20]:
            print(f"perfbench: check failed: {e}", file=sys.stderr)

        if tracer is None:
            setups = setup_samples(args, setup_s)
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "instances_per_s": (len(latencies) / wall, "1/s"),
                "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
                "peak_rss_mb": (rss, "MB"),
            }
        else:
            metrics = {f"{k}_ms": (v, "ms") for k, v in tracer.layer_medians_ms().items()}
            counters = workload.counters(records)
            for name, unit in COUNTERS.items():
                metrics[name] = (counters.get(name, 0), unit)
            metrics["distance.rss_growth_mb"] = (workload.memory_probe(records), "MB")
            ratios = [traced / plain for plain, traced in latencies]
            metrics["trace.overhead_pct"] = ((statistics.median(ratios) - 1) * 100, "%")
            os.makedirs(out_dir, exist_ok=True)
            tracer.write(os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json"))

        result = {
            "correct": not errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        os.makedirs(out_dir, exist_ok=True)
        name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
