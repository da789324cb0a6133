#!/usr/bin/env python3
"""pulsefront benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload figure|threshold|periodic \
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a source checkout; it imports ``pulsefront`` from
``src/`` there and writes only under ``.perfbench_out/``.  The default seed
is 1; seed 7 is kept back for checking a claimed gain on unseen inputs.

The workload runs in this process, single-threaded, in a closed loop: the
next round starts when the previous one has returned and been checked.
Rounds start until ``--seconds`` (default 35, the ``run_seconds`` of
BENCHMARK.json) would be exceeded; at least one runs.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of several
fresh interpreters that import pulsefront, parse the workload's input and
build its initial data), ``wall_s`` (median wall time of one round),
``peak_rss_mb`` and ``success_ratio``.  Both times are scaled to the
reference speed of ``calibrate.py``, whose ``Meter`` samples the machine's
speed throughout every operation.  ``--trace 1`` alternates untraced and
traced rounds and prints the per-layer metrics of the traced ones, with
``trace.overhead`` and ``fail_ratio``.  Every round's outputs are checked; the
traced rounds' outputs must be bit-identical to the untraced ones'.

The last line of standard output is the result, as JSON:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
The line before it is the full record: machine, inputs, samples.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def machine_record(thread_env_at_start: dict) -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env_at_start": thread_env_at_start,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "loadavg_at_start": os.getloadavg(),
    }


def measure_setup(args, repeats: int, calibrate) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter until it has its inputs ready.

    Returns the raw times and the times divided by the mean slowness
    measured just before and after each interpreter.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)] + (["--toy"] if args.toy else [])
    times, scaled = [], []
    before = calibrate.slowness()
    for _ in range(repeats):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]) - t0)
        after = calibrate.slowness()
        scaled.append(times[-1] / (0.5 * (before + after)))
        before = after
    return times, scaled


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("figure", "threshold", "periodic"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)  # BENCHMARK.json run_seconds
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="toy problem sizes (self-test)")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "pulsefront" / "__init__.py").is_file():
        return _fail(f"no pulsefront sources under {src}; run from a source checkout")
    thread_env_at_start = {k: os.environ.get(k) for k in THREAD_VARS}
    for var in THREAD_VARS:  # one thread, set before numpy loads its BLAS
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import pulsefront

    if Path(pulsefront.__file__).resolve().parent != (src / "pulsefront").resolve():
        return _fail(f"imported pulsefront from {pulsefront.__file__}, not from {src}")
    import calibrate
    import spans
    import workloads

    tag = f"{args.workload}-s{args.seed}" + ("-toy" if args.toy else "")
    out_dir = ROOT / ".perfbench_out" / tag
    workload = workloads.WORKLOADS[args.workload](args.seed, out_dir, args.toy)
    if args.setup_only:
        workload.setup()
        print(time.monotonic())
        return 0

    machine = machine_record(thread_env_at_start)
    out_dir.mkdir(parents=True, exist_ok=True)
    workload.write_inputs()
    setup_times, setup_scaled = ([], []) if args.trace else measure_setup(
        args, 2 if args.toy else SETUP_REPEATS, calibrate)

    tracer = spans.Tracer() if args.trace else None
    walls = {False: [], True: []}
    scaled = {False: [], True: []}  # the same in seconds at the reference speed
    meter = calibrate.Meter()
    slowness = []  # every sample the meter took
    fingerprints = {False: set(), True: set()}
    durations = {False: [], True: []}  # whole rounds: operations, speed samples, checks
    attempted = failed = 0
    start = time.perf_counter()
    traced = False
    while True:
        round_start = time.perf_counter()
        if tracer is not None:
            tracer.run_id += 1
            if traced:
                tracer.install()
        results, wall, wall_scaled = [], 0.0, 0.0
        try:
            for operation in workload.operations():
                with meter:
                    results.append(operation())
                wall += meter.wall
                wall_scaled += meter.scaled
                slowness.extend(meter.samples)
        finally:
            if tracer is not None:
                tracer.uninstall()
        outcome = workloads.checked(workload, results)
        attempted += outcome.attempted
        failed += outcome.failed
        walls[traced].append(wall)
        scaled[traced].append(wall_scaled)
        fingerprints[traced].add(outcome.fingerprint)
        durations[traced].append(time.perf_counter() - round_start)

        kinds = (False, True) if tracer is not None else (False,)
        if tracer is not None:
            traced = not traced
        elapsed = time.perf_counter() - start
        done = all(walls[k] for k in kinds)
        if done and elapsed + statistics.median(durations[traced]) > args.seconds:
            break

    # identical inputs every round: one output fingerprint, traced or not
    distinct = len(fingerprints[False] | fingerprints[True])
    if distinct != 1:
        workloads.report(f"{distinct} different outputs across rounds of identical inputs")
        attempted += 1
        failed += 1

    wall = statistics.median(scaled[False])
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_scaled), "s"),
            "wall_s": (wall, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "success_ratio": ((attempted - failed) / attempted, "ratio"),
        }
    else:
        metrics = spans.layer_metrics(tracer, len(walls[True]))
        metrics["trace.overhead"] = (statistics.median(scaled[True]) / wall - 1.0, "ratio")
        metrics["fail_ratio"] = (failed / attempted, "ratio")
        tracer.write_spans(out_dir / "spans.jsonl")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": workload.describe(),
        "machine": machine,
        "sample_counts": {k: len(v) for k, v in
                          (("setup_s", setup_times), ("rounds", walls[False]), ("traced_rounds", walls[True]))},
        "samples": {
            "setup_s": setup_times,
            "round_wall_s": walls[False],
            "traced_round_wall_s": walls[True],
            "slowness": slowness,
        },
        "raw_wall_s_median": statistics.median(walls[False]),
        "raw_setup_s_median": statistics.median(setup_times) if setup_times else None,
        "missing_trace_targets": tracer.missing if tracer else [],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (out_dir / f"record-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
