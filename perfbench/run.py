"""Benchmark entry point: one seeded workload, timed, checked, printed as JSON.

    python3 perfbench/run.py --workload train-b20-gaps --seed 0 --seconds 30 --trace 0

Run from the repository root. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. A fuller
record (every call's time, and the spans of a traced run) goes to
``perfbench/results/``. See README.md for the workloads and metrics.
"""

import os
import sys
import time

# one BLAS thread: set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
RESULT_DIR = BENCH_DIR / "results"
SETUP_REPEATS = 5

E2E_UNITS = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MiB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> float:
    """Import the package from the checkout's src/ and return the seconds it took."""
    src = BENCH_DIR.parent / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import contextrnn
    from contextrnn import data, metrics, model, selection  # noqa: F401

    elapsed = time.perf_counter() - start
    if src not in Path(contextrnn.__file__).resolve().parents:
        raise ImportError(f"contextrnn came from {contextrnn.__file__}, not from this checkout's {src}")
    return elapsed


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_program()

    import contextlib
    import gc
    import json
    import resource
    import statistics

    import numpy as np

    import tracing
    from gen import INPUT_DIR, generate
    from workloads import WORKLOADS, CheckFailed

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    truth = generate(workload.name, args.seed, INPUT_DIR)

    setup_times, setup_layers = [], []
    for _ in range(SETUP_REPEATS):
        loaded = None  # free the previous load, so it does not add to the peak
        gc.collect()
        tracer = tracing.Tracer()
        start = time.perf_counter()
        with tracer if args.trace else contextlib.nullcontext():
            loaded = workload.load(truth, args.seed)
        setup_times.append(time.perf_counter() - start)
        setup_layers.append(tracing.setup_metrics(tracer))

    attempted = failed = 0
    outputs, op_s, layer_samples, span_sets, overheads = [], [], [], [], []
    per_span = tracing.span_cost() if args.trace else 0.0

    began = time.perf_counter()
    while True:
        # a traced run traces every call; an untraced one runs the program untouched
        tracer = tracing.Tracer() if args.trace else contextlib.nullcontext()
        gc.collect()
        attempted += 1
        start = time.perf_counter()
        try:
            with tracer:
                result = workload.run(loaded)
        except Exception as exc:  # a failing call is counted, and the run goes on
            failed += 1
            print(f"operation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        else:
            op_s.append(time.perf_counter() - start)
            outputs.append(result)
            if args.trace:
                layer_samples.append(tracing.op_metrics(tracer))
                overheads.append(tracing.overhead(tracer, per_span))
                span_sets.append(tracer.spans)
        if time.perf_counter() - began >= args.seconds:
            break

    # read before the checks, whose imports and recomputations are no part of the workload
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    correct, problem = bool(outputs), "every operation failed"
    if outputs:
        try:
            evidence = workload.collect(truth, loaded, outputs, np.random.default_rng(args.seed))
            workload.check(truth, evidence)
            problem = None
        except CheckFailed as exc:
            correct, problem = False, str(exc)
    if problem:
        print(f"check failed: {problem}", file=sys.stderr)

    if args.trace:
        units = tracing.units()
        values = {}
        if layer_samples:
            try:
                values = tracing.combine(layer_samples, units)
            except ValueError as exc:
                correct = False
                print(f"check failed: {exc}", file=sys.stderr)
                values = tracing.combine(layer_samples[:1], units)
        values.update(tracing.combine(setup_layers, units))
        if overheads:
            values[tracing.OVERHEAD_METRIC] = statistics.median(overheads)
        metrics_out = {name: {"value": values.get(name, 0), "unit": units[name]} for name in tracing.per_layer_names()}
    else:
        values = {
            "setup_s": import_s + statistics.median(setup_times),
            "op_s": statistics.median(op_s) if op_s else float("nan"),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics_out = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}

    RESULT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "correct": correct,
        "problem": problem,
        "import_s": import_s,
        "setup_load_s": setup_times,
        "op_s": op_s,
        "span_cost_s": per_span,
        "trace_overhead_s": overheads,
        "items": workload.items(),
        "threads": threads(),
        "metrics": metrics_out,
    }
    if args.trace:
        record["functions"] = [tracing.table(spans) for spans in span_sets]
        record["spans"] = span_sets
    path = RESULT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))

    if op_s:
        median = statistics.median(op_s)
        print(f"{workload.name} seed {args.seed}: {len(op_s)} {'traced ' if args.trace else ''}call(s), "
              f"median {median:.3f} s, {1000.0 * median / workload.items():.3f} ms per {workload.item} "
              f"({workload.items()}), {workload.items() / median:.1f} {workload.item}/s; {workload.summary(outputs)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics_out}))
    return 0


def threads() -> int:
    """Threads of this process, from /proc (0 where that is not available)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
