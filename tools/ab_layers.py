"""Time `strata.analyze` of two source trees in alternating subprocesses.

    python3 tools/ab_layers.py PARENT_ROOT CHANGE_ROOT [PAIRS]

Each root is a repository checkout.  The machine's speed can shift within
a session, so a layer timed in one tree and then in the other compares two
speed regimes; alternation spreads both trees over the same regimes.  The
tool runs PAIRS (default 10) pairs of subprocesses, one per tree, and the
tree that goes first alternates from pair to pair.  Each subprocess imports
`quantred` from its tree's `src`, builds every model of MODELS, makes one
untimed `strata.analyze` call per model and then times ROUNDS calls per
model, printing their medians.  The tool prints, per model, the median over
pairs of each tree's median, the median over pairs of the ratio change /
parent (adjacent runs share a speed regime, so the pair ratio is steadier
than the ratio of the two medians), and in how many pairs the change read
lower.
"""

import json
import os
import statistics
import subprocess
import sys

MODELS = {  # quantred run configs
    "E1": {"preset": "E1"},
    "E2": {"preset": "E2"},
    "E3": {"preset": "E3"},
    "(CP^1)^3": {"model": {"factors": [1, 1, 1], "bundle_degrees": [1, 1, 1]},
                 "action": {"rank": 2, "weights": [[1, -1, 1, -1, 0, 0], [0, 0, 1, -1, 1, -1]]}},
    "CP^2 x CP^2": {"model": {"factors": [2, 2], "bundle_degrees": [1, 1]},
                    "action": {"rank": 2, "weights": [[-1, -2, 1, 1, 1, -2], [-2, 0, -1, 0, 2, -1]]}},
    "(CP^1)^4": {"model": {"factors": [1, 1, 1, 1], "bundle_degrees": [1, 1, 1, 1]},
                 "action": {"rank": 2, "weights": [[1, -1, 1, -1, 0, 0, 1, -1], [0, 0, 1, -1, 1, -1, -1, 1]]}},
}
ROUNDS = 100
CHILD = """
import json, statistics, sys, time
from quantred import cli, strata
out = {}
for name, config in json.loads(sys.argv[1]).items():
    action = cli.validate(dict(config, k_list=[2])).action
    strata.analyze(action)
    times = []
    for _ in range(int(sys.argv[2])):
        start = time.perf_counter()
        strata.analyze(action)
        times.append(time.perf_counter() - start)
    out[name] = statistics.median(times)
print(json.dumps(out))
"""


def medians(root):
    """{model: median seconds of ROUNDS analyze calls} from one subprocess on root's src."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(root), "src"))
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(MODELS), str(ROUNDS)], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (2, 3):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    pairs = int(argv[2]) if len(argv) == 3 else 10
    runs = {side: [] for side in (0, 1)}
    for pair in range(pairs):
        for side in ((0, 1) if pair % 2 == 0 else (1, 0)):
            runs[side].append(medians(argv[side]))
    print(f"strata.analyze, median of {ROUNDS} calls per subprocess, {pairs} alternating pairs")
    print(f"{'model':12s} {'parent ms':>10s} {'change ms':>10s} {'pair ratio':>10s}  change lower")
    for name in MODELS:
        old, new = ([run[name] for run in runs[side]] for side in (0, 1))
        lower = sum(b < a for a, b in zip(old, new))
        ratio = statistics.median(b / a for a, b in zip(old, new))
        print(f"{name:12s} {1e3 * statistics.median(old):10.3f} {1e3 * statistics.median(new):10.3f} {ratio:10.2f}"
              f"  {lower}/{pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
