"""Run one quantred benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload e2-pipeline --seed 1 --seconds 20 --trace 0

Run from the repository root; quantred is imported from ./src.  The run
measures set-up time in fresh interpreters, then repeats whole rounds of the
workload until --seconds have passed, checking every round's outputs.  With
--trace 0 it reports run_s, setup_s and peak_rss_mb; with --trace 1 it
reports the per-layer times and counts instead.  The last line of standard
output is one JSON object.  See perfbench/README.md.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

# one BLAS thread: quantred's matrices are small, and threads only add noise
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(HERE, "out")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120

# set-up as a user pays it: import quantred (numpy, scipy) and validate the
# scenario, timed inside a fresh interpreter
SETUP_CODE = """
import json, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from quantred import cli
for cfg in json.loads(sys.argv[2]):
    cli.validate(cfg)
print(time.perf_counter() - start)
"""


def measure_setup(configs):
    """Median set-up seconds over SETUP_REPEATS fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, SRC, json.dumps(configs)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "quantred", "__init__.py")):
        print(f"error: quantred sources not found under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import layertrace
    import quantred
    import workloads

    if os.path.dirname(os.path.abspath(quantred.__file__)) != os.path.join(SRC, "quantred"):
        print(f"error: imported quantred from {quantred.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (have {sorted(workloads.WORKLOADS)})", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](args.seed, OUT_ROOT)
    setup_s = measure_setup(workload.configs)
    workload.prepare()
    tracer = None
    if args.trace:
        tracer = layertrace.LayerTracer()
        tracer.install()

    times, layers, ops = [], [], []
    start = time.perf_counter()
    while True:
        inputs = workload.start_round()
        if tracer:
            tracer.reset()
        t0 = time.perf_counter()
        result = workload.body(inputs)
        elapsed = time.perf_counter() - t0
        times.append(elapsed)
        if tracer:
            layers.append(dict(tracer.snapshot(), **{"body.s": elapsed}))
        ops.extend(workload.check(result))
        if time.perf_counter() - start >= args.seconds:
            break
    if tracer:
        tracer.uninstall()

    failed = [op for op in ops if op.problems]
    for op in failed[:5]:
        print(f"{args.workload}: {op.name} failed: {'; '.join(op.problems[:3])}", file=sys.stderr)

    if args.trace:
        metrics = {}
        for name, unit in layertrace.metric_names():
            value = statistics.median(snap[name] for snap in layers)
            metrics[name] = {"value": value if unit == "s" else int(round(value)), "unit": unit}
        os.makedirs(OUT_ROOT, exist_ok=True)
        with open(os.path.join(OUT_ROOT, f"{args.workload}-trace.json"), "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "rounds": layers}, fh, indent=1)
    else:
        metrics = {
            "run_s": {"value": statistics.median(times), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    result = {
        "correct": not any(op.problems and not op.known_fault for op in ops),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(f"{args.workload}: {len(times)} rounds, round seconds {[round(t, 3) for t in times]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
