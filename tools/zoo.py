"""Run a random zoo of rank-1 scenarios and count how each run exits.

    python3 tools/zoo.py

It takes no options.  A generator seeded with SEED draws DRAWS configs: the
factors from FACTORS, bundle degrees in {1, 2}, one weight row with entries
in [-2, 2] and shift 0.  A draw whose row is constant on every factor acts
trivially on M and is dropped.  The kept list is written to
zoo_out/configs.json, and each config runs as `quantred run --config ...
--k 2,4,8` with the default quantities, in this process, into
zoo_out/run_NN.  Per config the tool prints its index, exit code, model,
weights and the first line of its stderr; then the number of configs per
exit code.  Exit 0 is a finished run, 2 a config error that names its
field, 3 a numerical failure, and 1 an uncaught exception.
"""

import contextlib
import io
import json
import os
import sys
from collections import Counter
from itertools import accumulate

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from quantred import cli  # noqa: E402

SEED = 12345
DRAWS = 40
FACTORS = ([1], [2], [3], [1, 1], [1, 2], [1, 1, 1], [2, 2])
K_LIST = "2,4,8"
OUT = "zoo_out"


def configs():
    """The kept configs, in draw order."""
    rng = np.random.default_rng(SEED)
    out = []
    for _ in range(DRAWS):
        factors = FACTORS[rng.integers(len(FACTORS))]
        degrees = rng.integers(1, 3, size=len(factors)).tolist()
        sizes = [n + 1 for n in factors]
        row = rng.integers(-2, 3, size=sum(sizes)).tolist()
        if all(len(set(row[a : a + n])) == 1 for a, n in zip(accumulate(sizes, initial=0), sizes)):
            continue
        out.append({"model": {"factors": factors, "bundle_degrees": degrees},
                    "action": {"rank": 1, "weights": [row], "shift": ["0"]}})
    return out


def run_one(config, out):
    """(exit code, first stderr line) of `quantred run` on config at K_LIST, its outputs and config file in out."""
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "config.json")
    with open(path, "w") as fh:
        json.dump(config, fh)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(["run", "--config", path, "--k", K_LIST, "--out", os.path.join(out, "run")])
        except Exception as exc:  # a programming error: what `python -m quantred` would exit with
            code = 1
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    return code, (err.getvalue().splitlines() or [""])[0]


def main():
    zoo = configs()
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "configs.json"), "w") as fh:
        json.dump(zoo, fh, indent=1)
    codes = Counter()
    for i, config in enumerate(zoo):
        code, line = run_one(config, os.path.join(OUT, f"run_{i:02d}"))
        codes[code] += 1
        model = config["model"]
        print(f"{i:2d} exit {code}  CP^{model['factors']} l={model['bundle_degrees']} "
              f"w={config['action']['weights'][0]}  {line}".rstrip(), flush=True)
    print(f"{len(zoo)} configs (of {DRAWS} draws): " + ", ".join(f"{n} exit {c}" for c, n in sorted(codes.items())))


if __name__ == "__main__":
    main()
