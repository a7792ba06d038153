"""Tracing overhead: untraced and traced rounds alternated in one process.

On a shared machine the speed can drift over minutes, so comparing a traced
run with an untraced run made at another time mostly measures the drift.
Alternating the two kinds of round in one process pairs them in time.

    python3 perfbench/trace_overhead.py --pairs 3 [workload ...]
"""

import argparse
import statistics
import sys
import time

import run  # sets the BLAS thread defaults before numpy loads

sys.path.insert(0, run.SRC)

import layertrace  # noqa: E402
import workloads  # noqa: E402


def timed_round(workload):
    inputs = workload.start_round()
    t0 = time.perf_counter()
    result = workload.body(inputs)
    elapsed = time.perf_counter() - t0
    workload.check(result)
    return elapsed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("workloads", nargs="*", default=sorted(workloads.WORKLOADS))
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    for name in args.workloads:
        workload = workloads.WORKLOADS[name](args.seed, run.OUT_ROOT)
        workload.prepare()
        tracer = layertrace.LayerTracer()
        plain, traced = [], []
        for _ in range(args.pairs):
            plain.append(timed_round(workload))
            tracer.install()
            traced.append(timed_round(workload))
            tracer.uninstall()
        ratio = statistics.median(t / p for t, p in zip(traced, plain))
        print(f"{name}: untraced {statistics.median(plain):.3f} s, traced {statistics.median(traced):.3f} s, "
              f"median paired ratio {ratio:.3f} over {args.pairs} pairs")


if __name__ == "__main__":
    main()
